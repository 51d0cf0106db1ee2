"""curveplan benchmark: seeded CLI workloads, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; curveplan is imported from
``src/``.  Each op is a call to ``curveplan.cli.main(argv)`` in this process
on input files generated from the seed, so the timings are what a CLI user
pays, apart from interpreter start-up.  Passes over the op list repeat
until ``--seconds`` have gone by (the first two passes always complete).

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` one more pass runs with every public function of the layer
modules wrapped (see spans.py); its outputs must be byte-identical to the
untraced pass, and the last line reports the per-layer metrics.  Every
op's outputs are checked once, outside the timed region.  The last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import setup_probe
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("arrangement_dense", "arrangement_sparse", "quadrature_curved", "spline_transfer")
#: least number of timed passes: an op's median over one repeat is just
#: that repeat, and a spline pass can take the whole run
MIN_PASSES = 2
#: least and most set-up samples in a run; one is taken after every pass
SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 9


def setup_sample(workload, work):
    """One set-up sample in a fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT, workload, work],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up sample failed: {proc.stderr[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def call_cli(cli, argv):
    """(exit code or None, error kind or crash message) of one CLI call."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        return None, f"{type(exc).__name__}: {exc}"
    kind = None
    if rc:
        try:
            kind = json.loads(err.getvalue())["error"]["kind"]
        except (ValueError, KeyError, TypeError):
            kind = "unparsed"
    return rc, kind


def run_op(cli, op):
    """Call the CLI once; returns (reference seconds, exit code or None,
    error kind).  See speed.py for why the time is not the wall time."""
    (rc, kind), ref_s, _ = speed.timed(lambda: call_cli(cli, op.argv))
    return ref_s, rc, kind


def read_outputs(op):
    out = {}
    for path in op.outputs:
        try:
            with open(path, "rb") as fh:
                out[path] = fh.read()
        except FileNotFoundError:
            out[path] = None
    return out


def outputs_digest(outputs):
    """SHA-256 over an op's output files, a missing file included."""
    h = hashlib.sha256()
    for path, data in sorted(outputs.items()):
        h.update(os.path.basename(path).encode() + b"\0")
        h.update(b"<missing>" if data is None else data)
        h.update(b"\0")
    return h.hexdigest()


def timed_passes(cli, ops, deadline, between=None, min_passes=1):
    """Closed loop: whole passes over the op list until ``deadline``
    (a ``time.perf_counter`` reading) has passed.

    At least ``min_passes`` passes run; ``between`` is called after every
    pass.
    Returns (records, first_outputs, digests); ``records`` holds one
    (op index, reference seconds) per call.  Harness work between ops (reading
    outputs, digests) is not timed.
    """
    records, first_outputs, digests = [], {}, {}
    while len(records) < min_passes * len(ops) or time.perf_counter() < deadline:
        for k, op in enumerate(ops):
            for path in op.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            elapsed, rc, kind = run_op(cli, op)
            records.append((k, elapsed))
            outputs = read_outputs(op)
            digests.setdefault(k, set()).add(outputs_digest(outputs))
            first_outputs.setdefault(k, (rc, kind, outputs))
        if between is not None:
            between()
    return records, first_outputs, digests


def classify(op, rc, kind, outputs):
    """(outcome, detail) for one op: ok, exit_N, crash or wrong_output."""
    if rc is None:
        return "crash", kind
    if rc != 0:
        return f"exit_{rc}", kind
    if any(v is None for v in outputs.values()):
        return "wrong_output", "missing output file"
    try:
        problem = op.check(outputs)
    except Exception as exc:  # an unreadable output is a wrong output
        problem = f"check raised {type(exc).__name__}: {exc}"
    return ("wrong_output", problem) if problem else ("ok", None)


def tree_digest():
    """Digest of the program, benchmark and fixture files: the stand-in for
    a commit id, since the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "fixtures"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def compare_with_earlier_runs(key, op_digests):
    """Store this run's output digests; return ops whose digest changed
    since an earlier run of the same files, workload and seed."""
    path = os.path.join(WORK, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    except (FileNotFoundError, ValueError):
        store = {}
    earlier = store.get(key, {})
    changed = sorted(n for n, d in op_digests.items() if n in earlier and earlier[n] != d)
    store[key] = {**earlier, **op_digests}
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(store, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)
    return changed


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"
    )}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpus": os.cpu_count(),
        "blas_threads_env": threads,
    }


def check_ops(ops, first, per_op, digests, log):
    """Classify every op once; returns (correct, failures by kind, known).

    Failures and known defects are counted once per call of the op.
    """
    correct = True
    failures, known = {}, {}
    for k, op in enumerate(ops):
        rc, kind, outputs = first[k]
        outcome, detail = classify(op, rc, kind, outputs)
        calls = len(per_op[k])
        label = None
        if outcome != "ok":
            failures[outcome] = failures.get(outcome, 0) + calls
            label = op.known(outcome, detail) if op.known else None
            if label:
                known[label] = known.get(label, 0) + calls
            else:
                correct = False
        if len(digests[k]) != 1:
            correct = False
            log(f"#   NONDETERMINISTIC {op.name}: {len(digests[k])} output digests")
        log(f"#   {op.name:22s} {outcome:12s} median {statistics.median(per_op[k]):7.3f} s "
            f"min {min(per_op[k]):7.3f} s x{calls}  sha256 {min(digests[k])[:16]}"
            + (f"  [{label or 'UNEXPECTED'}: {detail}]" if outcome != "ok" else ""))
    return correct, failures, known


def traced_pass(cli, ops, digests, log):
    """One pass with every layer function wrapped.

    Returns (tracer, pass reference seconds, the factor from the spans'
    wall seconds to reference seconds, whether every output matched the
    untraced passes byte for byte).
    """
    import curveplan
    from spans import Tracer

    tracer = Tracer(curveplan).install()
    try:
        t0 = time.perf_counter()
        records, first, _ = timed_passes(cli, ops, 0.0)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    same = True
    for k, op in enumerate(ops):
        if outputs_digest(first[k][2]) not in digests[k]:
            same = False
            log(f"#   TRACED OUTPUT DIFFERS: {op.name}")
    ref = sum(e for _, e in records)
    return tracer, ref, ref / wall, same


def run(workload, seed, seconds, trace, setup_samples=SETUP_SAMPLES, max_ops=None, log=print):
    """One benchmark run.

    Returns (result, end_to_end): the object of the last output line, whose
    metrics are the per-layer ones when ``trace`` is set, and the end-to-end
    metrics of the untraced passes.
    """
    setup_probe.require_sources(ROOT)
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        # set-up: this process's own import and warm-up, then samples in
        # fresh interpreters spread over the run, one after each pass
        deadline = time.perf_counter() + seconds
        first_setup, cli = setup_probe.sample(ROOT, workload, work)
        setup_times = [first_setup]

        def more_setup():
            if len(setup_times) < max(setup_samples, MAX_SETUP_SAMPLES):
                setup_times.append(setup_sample(workload, work))

        sys.path.insert(0, os.path.join(ROOT, "tests"))  # the exact oracle
        import numpy as np
        import workloads

        ops = workloads.build(workload, seed, ROOT, work)[:max_ops]
        records, first, digests = timed_passes(
            cli, ops, deadline, more_setup if setup_samples > 1 else None, MIN_PASSES
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_times) < setup_samples:
            more_setup()

        per_op = {}
        for k, elapsed in records:
            per_op.setdefault(k, []).append(elapsed)
        typical = [statistics.median(per_op[k]) for k in range(len(ops))]
        end_to_end = {
            "total_ref_s": {"value": sum(typical), "unit": "s"},
            "op_p50_ref_s": {"value": statistics.median(typical), "unit": "s"},
            "op_max_ref_s": {"value": max(typical), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

        log(f"# workload {workload} seed {seed}: {workloads.WHY[workload]}")
        correct, failures, known = check_ops(ops, first, per_op, digests, log)
        key = f"{tree_digest()}:{workload}:{seed}:{max_ops}"
        op_digests = {op.name: min(digests[k]) for k, op in enumerate(ops)}
        for name in compare_with_earlier_runs(key, op_digests):
            correct = False
            log(f"#   DIGEST CHANGED since an earlier run of the same files: {name}")

        attempted = len(records)
        failed = sum(failures.values())
        log(f"# passes {attempted // len(ops)}, ops attempted {attempted}, failed {failed} "
            f"(failed_frac {failed / attempted:.4f}) by kind {json.dumps(failures, sort_keys=True)}")
        log(f"# known defects: {json.dumps(known, sort_keys=True)}")
        log(f"# setup samples {[round(t, 4) for t in setup_times]}")
        log(f"# environment {json.dumps(environment(np), sort_keys=True)}")

        metrics = end_to_end
        if trace:
            tracer, traced_s, scale, same = traced_pass(cli, ops, digests, log)
            correct = correct and same
            metrics = tracer.metrics(time_scale=scale)
            metrics["ops.failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
            for kind in ("exit_2", "exit_3", "exit_4", "crash", "wrong_output"):
                metrics[f"ops.{kind}"] = {"value": failures.get(kind, 0), "unit": "count"}
            metrics["bench.trace_overhead_s"] = {
                "value": traced_s - end_to_end["total_ref_s"]["value"], "unit": "s"
            }
        for name, m in {**end_to_end, **metrics}.items():
            log(f"# {name} = {m['value']:.6g} {m['unit']}")

        result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        return result, end_to_end
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ns = p.parse_args(argv)
    os.environ["CURVEPLAN_LOG"] = "warn"
    result, _ = run(ns.workload, ns.seed, ns.seconds, ns.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
