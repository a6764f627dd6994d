#!/usr/bin/env python3
"""Run every workload, print every metric, and self-check the benchmark.

    python3 bench/report.py --seconds 40 --seeds 10 [--out FILE]

For each workload, in its own process per run (so ``peak_rss_mb`` is per
workload): one untraced run of ``run.py`` on each seed 0 .. ``--seeds``-1,
a second untraced run of seed 0, and two traced runs of seed 0. Prints
every end-to-end metric by name and unit with its median, quartiles,
spread (quartile distance over median) and sample counts, the failed ops
with their reasons, then every per-layer metric of the first traced run.

Self-check, reported as an error (exit 1) on any mismatch:

* the two untraced runs of one seed wrote byte-identical inputs and had
  the same outcome on every op both ran, so ``fail_frac`` over those ops
  is identical;
* every count-based per-layer metric repeats exactly across the two
  traced runs.

``--out`` writes all of it, with the environment, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spans
from run import E2E_UNITS, WORK
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    path = WORK / f"result-{workload}-s{seed}-t{trace}.json"
    result = json.loads(path.read_text())
    result["final"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return result


def summarize(values) -> dict:
    vals = [v for v in values if v is not None]
    if not vals:
        return {"median": None, "q1": None, "q3": None, "spread": None, "runs": 0}
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "runs": len(vals)}


def repeat_errors(a: dict, b: dict) -> list:
    """Differences between two untraced runs of one seed on their common ops."""
    errors = []
    for ra, rb in zip(a["ops"], b["ops"]):
        if ra["props"] != rb["props"]:
            errors.append(f"op {ra['k']}: inputs differ between runs of one seed")
        if (ra["rc"], ra["accepted"]) != (rb["rc"], rb["accepted"]):
            errors.append(f"op {ra['k']}: outcome differs between runs of one seed")
    return errors


def count_errors(a: dict, b: dict) -> list:
    return [
        f"{name}: {a['metrics'][name]['value']!r} != {b['metrics'][name]['value']!r}"
        for name in spans.COUNT_METRICS
        if a["metrics"][name]["value"] != b["metrics"][name]["value"]
    ]


def report_workload(workload, seeds, seconds) -> tuple[dict, list]:
    runs = [run_once(workload, s, seconds, 0) for s in seeds]
    again = run_once(workload, seeds[0], seconds, 0)
    traced = [run_once(workload, seeds[0], seconds, 1) for _ in range(2)]
    errors = repeat_errors(runs[0], again) + count_errors(*traced)

    print(f"\n== {workload}: {len(seeds)} seeds x {seconds} s, untraced")
    print(f"{'metric':<16}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}  samples/run")
    e2e = {}
    for name, unit in E2E_UNITS.items():
        s = summarize([r["end_to_end"][name]["value"] for r in runs])
        s["unit"] = unit
        s["samples"] = [r["end_to_end"][name]["samples"] for r in runs]
        e2e[name] = s
        if s["median"] is None:
            print(f"{name:<16}{unit:<7}{'n/a':>12}  (needs >= 100 ops per run; "
                  f"ran {s['samples']})")
            continue
        spread = "" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:<16}{unit:<7}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
              f"{spread:>9}  {s['samples']}")
    attempted = sum(r["final"]["attempted"] for r in runs)
    failed = sum(r["final"]["failed"] for r in runs)
    incorrect = sum(not r["final"]["correct"] for r in runs)
    print(f"failed ops: {failed} of {attempted}; runs not correct: {incorrect} of {len(runs)}")
    failures = [
        {"seed": r["seed"], "op": op["k"], "d": op["props"].get("d"), "reason": op["reason"],
         "stderr": op["stderr"].strip().split("\n")[0]}
        for r in runs for op in r["ops"] if not op["accepted"]
    ]
    for f in failures:
        print(f"  seed {f['seed']} op {f['op']} d={f['d']}: {f['reason']}: {f['stderr']}")

    layer = traced[0]["metrics"]
    print(f"-- {workload}: per-layer, traced, seed {seeds[0]}, per op")
    for name, m in layer.items():
        print(f"{name:<52}{m['value']:>16.6g} {m['unit']}")
    return {
        "end_to_end": e2e,
        "failed_ops": failed,
        "attempted_ops": attempted,
        "incorrect_runs": incorrect,
        "failures": failures,
        "per_layer": {name: m["value"] for name, m in layer.items()},
        "per_layer_units": {name: m["unit"] for name, m in layer.items()},
        "env": runs[0]["env"],
    }, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", help="write the full report here as JSON")
    args = p.parse_args(argv)
    seeds = list(range(args.seeds))
    report, errors = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}, []
    for workload in WORKLOADS:
        report["workloads"][workload], errs = report_workload(workload, seeds, args.seconds)
        errors += [f"{workload}: {e}" for e in errs]
    report["self_check_errors"] = errors
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print()
    for e in errors:
        print(f"error: {e}")
    print("self-check: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
