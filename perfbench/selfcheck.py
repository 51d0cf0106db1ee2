"""Fast self-check of the benchmark: one op per workload, traced.

    python3 perfbench/selfcheck.py

Validates BENCHMARK.json against the limits the benchmark promises, then
runs the first op of every workload once untraced and once traced, and
checks that the reported metric names and units are exactly the ones
BENCHMARK.json declares.  Exits non-zero on the first mismatch.
"""

import json
import os
import re
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def require(ok, what):
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def check_spec(spec):
    import workloads

    require(set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }, "BENCHMARK.json keys")
    seconds = spec["run_seconds"]
    require(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds")
    names = [w["name"] for w in spec["workloads"]]
    require(names == list(run.WORKLOADS), f"workloads {names}")
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"} and w["why"] == workloads.WHY[w["name"]], w["name"])
        require(len(w["why"]) <= 200 and "\n" not in w["why"], w["name"])
    seen = set()
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            require(set(m) == keys, f"{group} {m}")
            require(NAME.match(m["name"]) and m["name"] not in seen, m["name"])
            require(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m["name"])
            seen.add(m["name"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    require(all(0 < b <= 0.25 for b in bounds.values()), "bounds")
    require(bounds.get("setup_s") == max(bounds.values()), "setup_s needs the largest bound")
    require(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json size")


def check_metrics(where, got, declared):
    want = {m["name"]: m["unit"] for m in declared}
    units = {name: m["unit"] for name, m in got.items()}
    require(units == want, f"{where}: metrics differ from BENCHMARK.json: " + json.dumps(
        {"missing": sorted(set(want) - set(units)), "extra": sorted(set(units) - set(want)),
         "unit": sorted(n for n in set(want) & set(units) if want[n] != units[n])}
    ))
    for name, m in got.items():
        require(isinstance(m["value"], (int, float)), f"{where}: {name} is not a number")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    os.environ["CURVEPLAN_LOG"] = "warn"
    for workload in run.WORKLOADS:
        result, end_to_end = run.run(
            workload, seed=0, seconds=0.0, trace=1, setup_samples=1, max_ops=1,
            log=lambda line: None,
        )
        json.dumps(result)
        require(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        require(result["attempted"] >= 1 and isinstance(result["correct"], bool), "result fields")
        check_metrics(f"{workload} --trace 0", end_to_end, spec["end_to_end"])
        check_metrics(f"{workload} --trace 1", result["metrics"], spec["per_layer"])
        print(f"ok {workload}: correct={result['correct']} "
              f"total_ref_s={end_to_end['total_ref_s']['value']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
