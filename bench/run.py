#!/usr/bin/env python3
"""pinchgt benchmark: one workload in one process.

    python3 bench/run.py --workload chain_full --seed 1 --seconds 20 --trace 0

Each op is one in-process ``pinchgt.cli.main(argv)`` call on seeded inputs
(see workloads.py), in a closed loop from a single client: the next op
starts when the previous one returns. Ops run in whole cycles (one op per
input shape) until the timed wall clock reaches ``--seconds``. Every output
is checked by oracle.py; oracle work and input generation are not timed.

``setup_s`` is the import time of pinchgt plus the median of SETUP_REPS
set-ups, each generating and writing inputs and running one warm-up op.
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the ops
twice, ``--seconds``/2 each, first plain and then with spans.py's wrappers
installed, and reports the per-layer metrics plus the tracing overhead.
The last line of stdout is one JSON object; a detailed result (environment,
input properties of every op, all metrics with sample counts) is written
to ``.bench_work/result-<workload>-s<seed>-t<trace>.json``.

BLAS keeps its default thread count, recorded in the environment block.
"""

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 5
P90_MIN_OPS = 100  # op_p90_s needs at least 10 samples beyond it

# end-to-end metric name -> unit
E2E_UNITS = {
    "setup_s": "s",
    "ok_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
    "cpu_s_per_ok": "s",
}
# fail_frac is zero on a healthy workload and op_p90_s needs 100 ops, so the
# final line carries them as attempted/failed and in the result file instead
FINAL_E2E = ("setup_s", "ok_per_s", "op_p50_s", "peak_rss_mb", "cpu_s_per_ok")


def environment(np) -> dict:
    """Versions, BLAS and host facts recorded with every result."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "host_note": "shared machine: load from other tenants is not controlled",
    }


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_op(cli, argv):
    """One timed CLI call: (exit code or None, stdout, stderr, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # an escaping exception is a failed op, not a harness error
        rc = None
        err.write(traceback.format_exc())
    t1, c1 = time.perf_counter(), time.process_time()
    return rc, out.getvalue(), err.getvalue(), t1 - t0, c1 - c0


class Runner:
    def __init__(self, cli, workload, seed, workdir):
        import oracle
        import workloads

        self.cli, self.workload, self.seed, self.workdir = cli, workload, seed, workdir
        self.oracle, self.workloads = oracle, workloads
        self.cycle = workloads.CYCLE[workload]

    def setup(self) -> list:
        """Wall time of SETUP_REPS set-ups, each generating and writing the
        warm-up and first-cycle inputs, then running the warm-up op."""
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            warm = self.workloads.write_op(self.workload, None, 0, self.workdir)
            for k in range(self.cycle):
                self.workloads.write_op(self.workload, self.seed, k, self.workdir)
            rc, _, err, _, _ = run_op(self.cli, warm.argv)
            reps.append(time.perf_counter() - t0)
        self.warmup = {"rc": rc, "stderr": err[:500]}
        return reps

    def measure(self, seconds, tracer=None) -> list:
        """Ops from index 0 in whole cycles until the timed wall reaches `seconds`."""
        records, timed, k = [], 0.0, 0
        while not records or timed < seconds:
            for _ in range(self.cycle):
                op = self.workloads.write_op(self.workload, self.seed, k, self.workdir)
                if tracer is not None:
                    tracer.op = k
                rc, out, err, wall, cpu = run_op(self.cli, op.argv)
                if tracer is not None:
                    tracer.op = None
                reason = self.oracle.judge(self.workload, op, rc, out)
                for path in op.files.values():
                    os.remove(path)
                records.append({
                    "k": k, "rc": rc, "wall_s": wall, "cpu_s": cpu,
                    "accepted": reason is None, "reason": reason,
                    "stderr": err[:300] if rc else "", "props": op.props,
                })
                timed += wall
                k += 1
        return records


def end_to_end(records, setup_s) -> dict:
    """Every end-to-end metric as {value, unit, samples}."""
    ok = [r for r in records if r["accepted"]]
    timed = sum(r["wall_s"] for r in records)
    times = sorted(r["wall_s"] if r["accepted"] else math.inf for r in records)
    p50 = statistics.median(times)
    n = len(records)
    values = {
        "setup_s": (setup_s, SETUP_REPS),
        "ok_per_s": (len(ok) / timed, n),
        "op_p50_s": (p50 if math.isfinite(p50) else None, n),
        "op_p90_s": (None, n),
        "fail_frac": ((n - len(ok)) / n, n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "cpu_s_per_ok": (sum(r["cpu_s"] for r in records) / len(ok) if ok else None, n),
    }
    if n >= P90_MIN_OPS:
        p90 = times[math.ceil(0.9 * n) - 1]
        values["op_p90_s"] = (p90 if math.isfinite(p90) else None, n)
    return {
        name: {"value": value, "unit": E2E_UNITS[name], "samples": samples}
        for name, (value, samples) in values.items()
    }


def outcome(records) -> tuple[bool, int]:
    """(correct, failed): a run is correct only if every op was accepted,
    whether the program reported the failure itself or the oracle caught it."""
    failed = sum(not r["accepted"] for r in records)
    return failed == 0, failed


def overhead(plain, traced) -> float:
    """Traced over untraced time on the ops both phases ran; equal to the
    untraced ok_per_s over the traced one, since both saw the same inputs."""
    n = min(len(plain), len(traced))
    return sum(r["wall_s"] for r in traced[:n]) / sum(r["wall_s"] for r in plain[:n]) - 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # workloads.WORKLOADS, not imported here: it loads numpy, whose import setup_s times
    p.add_argument("--workload", required=True, choices=("chain_full", "check_batch", "random_suite"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pinchgt" / "__init__.py").is_file():
        print(f"error: no pinchgt sources under {SRC}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import pinchgt.cli as cli

    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (SRC / "pinchgt").resolve():
        print(f"error: imported pinchgt from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import spans

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(np)}
    try:
        runner = Runner(cli, args.workload, args.seed, workdir)
        reps = runner.setup()
        setup_s = import_s + statistics.median(reps)
        result["setup"] = {"import_s": import_s, "reps_s": reps, "warmup": runner.warmup}
        if args.trace:
            plain = runner.measure(args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                records = runner.measure(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            first_cycle = [r["k"] for r in records[: runner.cycle]]
            layer = spans.layer_metrics(tracer.spans, [r["k"] for r in records], first_cycle)
            layer["trace.overhead_frac"] = overhead(plain, records)
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in spans.LAYER_METRICS.items()}
            records = plain + records
            tracer.write(WORK / f"spans-{args.workload}-s{args.seed}.jsonl.gz")
        else:
            records = runner.measure(args.seconds)
            e2e = end_to_end(records, setup_s)
            result["end_to_end"] = e2e
            metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
                       for name in FINAL_E2E}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, failed = outcome(records)
    result.update(ops=records, metrics=metrics, correct=correct)
    (WORK / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    print("env " + json.dumps(result["env"]))
    for r in records:
        if not r["accepted"]:
            print(f"failed op {r['k']}: {r['reason']}: {r['stderr'].strip()[:200]}")
    shown = result.get("end_to_end", metrics)
    for name, m in shown.items():
        samples = f" (n={m['samples']})" if "samples" in m else ""
        print(f"{name} {m['value']} {m['unit']}{samples}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
