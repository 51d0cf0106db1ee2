"""Set-up cost of a workload: ``import curveplan`` plus one warm-up op.

The warm-up op runs the workload's subcommand on a repo fixture, so caches
that fill lazily (such as the Gauss rule cache) and any work moved to import
time are paid here, not in the timed ops.  Run as a script it takes one
sample in a fresh interpreter and prints the seconds:

    python3 perfbench/setup_probe.py ROOT WORKLOAD OUT_DIR

This module imports nothing heavy at load time, so numpy is imported, and
timed, by ``import curveplan`` itself.
"""

import os
import sys

import speed

#: integrand and top level of quadrature_curved (shared with the warm-up)
QUAD_F = "sin(12*x)*cos(12*y)*exp(x)"
QUAD_MAX_LEVEL = 7

WARMUP = {
    "arrangement_dense": [
        "extract", "--input", "fixtures/extract_square_diagonal.json",
        "--keep-outer", "--out", "{out}/warm.json", "--svg", "{out}/warm.svg",
    ],
    "arrangement_sparse": [
        "extract", "--input", "fixtures/extract_square_diagonal.json",
        "--keep-outer", "--out", "{out}/warm.json",
    ],
    "quadrature_curved": [
        "integrate", "--input", "fixtures/integrate_lens.json", "--f", QUAD_F,
        "--max-level", str(QUAD_MAX_LEVEL), "--out", "{out}/warm.csv",
    ],
    "spline_transfer": [
        "quasi-interp", "--source", "fixtures/quasi_source.json",
        "--target", "fixtures/quasi_target.json", "--mode", "levelset",
        "--out", "{out}/warm.json",
    ],
}


def require_sources(root):
    """ROOT/src, or exit non-zero when the curveplan sources are not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "curveplan", "__init__.py")):
        raise SystemExit(f"perfbench: no curveplan sources under {src}")
    return src


def import_curveplan(root):
    """Import curveplan from ROOT/src, refusing any other installed copy."""
    src = require_sources(root)
    sys.path.insert(0, src)
    import curveplan
    from curveplan import cli

    where = os.path.realpath(curveplan.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: imported curveplan from {where}, not {src}")
    return cli


def sample(root, workload, out_dir):
    """Reference seconds (see speed.py) to import curveplan and finish the
    warm-up op; returns (seconds, cli)."""
    argv = [
        os.path.join(root, a) if a.startswith("fixtures/") else a.format(out=out_dir)
        for a in WARMUP[workload]
    ]

    def setup():
        cli = import_curveplan(root)
        return cli, cli.main(argv)

    (cli, rc), elapsed, _ = speed.timed(setup)
    if rc != 0:
        raise SystemExit(f"perfbench: warm-up op of {workload} exited {rc}")
    return elapsed, cli


if __name__ == "__main__":
    root, workload, out_dir = sys.argv[1:4]
    print(repr(sample(root, workload, out_dir)[0]))
