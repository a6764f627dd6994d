"""Tests of the benchmark itself: python3 -m pytest -q bench/tests"""

import contextlib
import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import pinchgt  # noqa: E402
import pinchgt.cli  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = pinchgt.cli.main(argv)
    return rc, out.getvalue()


def _record(k, wall, accepted=True):
    return {"k": k, "rc": 0 if accepted else 1, "wall_s": wall, "cpu_s": wall,
            "accepted": accepted, "reason": None if accepted else "x", "props": {}}


# -- percentiles ---------------------------------------------------------------

def test_no_p90_below_100_ops():
    e2e = run.end_to_end([_record(k, 1.0 + k) for k in range(99)], setup_s=1.0)
    assert e2e["op_p90_s"]["value"] is None
    assert e2e["op_p90_s"]["samples"] == 99


def test_p90_leaves_ten_samples_beyond_it():
    e2e = run.end_to_end([_record(k, 1.0 + k) for k in range(100)], setup_s=1.0)
    assert e2e["op_p90_s"]["value"] == 90.0  # values 91..100 lie beyond it
    assert e2e["op_p50_s"]["value"] == 50.5


def test_failed_op_counts_as_infinite_and_not_as_goodput():
    records = [_record(0, 1.0), _record(1, 2.0), _record(2, 3.0, accepted=False)]
    e2e = run.end_to_end(records, setup_s=1.0)
    assert e2e["op_p50_s"]["value"] == 2.0  # sorted (1, 2, inf)
    assert e2e["fail_frac"]["value"] == pytest.approx(1 / 3)
    assert e2e["ok_per_s"]["value"] == pytest.approx(2 / 6.0)
    assert e2e["cpu_s_per_ok"]["value"] == pytest.approx(6.0 / 2)  # CPU of every op


def test_any_failed_op_makes_the_run_incorrect():
    records = [_record(0, 1.0), _record(1, 2.0)]
    assert run.outcome(records) == (True, 0)
    records.append(_record(2, 3.0, accepted=False))  # exit code 1, a reported failure
    assert records[-1]["rc"] == 1
    assert run.outcome(records) == (False, 1)


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_covered_child_time_once():
    s = [
        ["root", 0.0, 10.0, None, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],  # overlaps a: [1, 6] is covered once
        ["leaf", 2.0, 3.0, 1, 0, None],
        ["late", 8.0, 12.0, 0, 0, None],  # clipped to the parent's end
    ]
    assert spans.self_times(s) == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_metrics_average_per_op_and_group_random():
    s = [
        ["core.random_pd", 0.0, 2.0, None, 0, None],
        ["core.random_psd", 2.0, 3.0, None, 1, None],
        ["spectral.eigh", 3.0, 4.0, None, 1, {"n3": 8, "dim": 2, "key": "k"}],
        ["spectral.eigh", 4.0, 5.0, None, 1, {"n3": 8, "dim": 2, "key": "k"}],
    ]
    m = spans.layer_metrics(s, time_ops=[0, 1], count_ops=[1])
    assert m["core.random.self_s"] == pytest.approx(1.5)
    assert m["spectral.eigh.calls"] == 2
    assert m["spectral.eigh.n3_sum"] == 16
    assert m["spectral.eigh.repeat_frac"] == 0.5
    assert m["tensor.count_distinct_spectrum.useful_ratio"] == 0.0  # never called
    assert set(m) == set(spans.LAYER_METRICS) - {"trace.overhead_frac"}


# -- wrappers ------------------------------------------------------------------

def _snapshot():
    owners = [m for name, m in sys.modules.items()
              if name == "pinchgt" or name.startswith("pinchgt.")]
    owners += [obj for m in list(owners) for obj in vars(m).values()
               if inspect.isclass(obj) and obj.__module__.startswith("pinchgt")]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_install_then_uninstall_leaves_pinchgt_unchanged():
    before = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pinchgt.spectral.eigh is not before[id(pinchgt.spectral), "eigh"]
        assert pinchgt.functions.decompose is not before[id(pinchgt.functions), "decompose"]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_random_suite_counts_calls():
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        rc, out = _cli(["random-suite", "--dims", "3", "--trials", "2", "--seed", "5"])
    finally:
        tracer.uninstall()
    assert rc == 0 and out.endswith("total: 2 trials, 0 violations\n")
    m = spans.layer_metrics(tracer.spans, [0], [0])
    assert m["pinching.pinch.calls"] == 8  # four property checks per trial
    assert m["pinching.pinch.distinct_ratio"] == 0.25
    assert m["spectral.eigh.max_dim"] == 3
    assert m["core.HermitianMatrix.__init__.calls"] == 32
    assert m["cli.main.self_s"] > 0.0
    roots = [span for span in tracer.spans if span[3] is None]
    assert [span[0] for span in roots] == ["cli.main"]


# -- inputs --------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["chain_full", "check_batch"])
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    ops = []
    for sub, seed in (("x", 3), ("y", 3), ("z", 4)):
        (tmp_path / sub).mkdir()
        ops.append(workloads.write_op(workload, seed, 1, tmp_path / sub))
    data = [{r: Path(p).read_bytes() for r, p in op.files.items()} for op in ops]
    assert data[0] == data[1]
    assert data[0]["a"] != data[2]["a"]
    assert ops[0].props == ops[1].props


def test_chain_inputs_stay_within_condition_100(tmp_path):
    for k in range(4):
        op = workloads.write_op("chain_full", 7, k, tmp_path)
        assert op.props["a"]["cond"] <= workloads.CHAIN_COND
        assert op.props["d"] == workloads.CHAIN_SHAPES[k % 2][0]


# -- oracle --------------------------------------------------------------------

def _perturb_csv(text, row, col, factor):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_chain_oracle_accepts_output_and_rejects_perturbed_cell(tmp_path):
    rng = np.random.default_rng(0)
    a, b = workloads.random_pd(rng, 3), workloads.random_pd(rng, 3)
    for name, m in (("a", a), ("b", b)):
        (tmp_path / f"{name}.json").write_bytes(workloads.matrix_bytes(m))
    rc, out = _cli(["chain", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--m", "1,2,3"])
    assert oracle.chain_reason(a, b, [1, 2, 3], rc, out) is None
    for col in range(1, 7):
        bad = _perturb_csv(out, 2, col, 1 + 1e-5)
        assert oracle.chain_reason(a, b, [1, 2, 3], rc, bad) is not None, col
    assert oracle.chain_reason(a, b, [1, 2, 3], 1, out) == "exit code 1"


def _write_pair(tmp_path, a, b) -> dict:
    paths = {}
    for role, m in (("a", a), ("b", b)):
        paths[role] = str(tmp_path / f"{role}.json")
        Path(paths[role]).write_bytes(workloads.matrix_bytes(m))
    return paths


def test_check_oracle_rejects_perturbed_certificate_and_digest(tmp_path):
    rng = np.random.default_rng(1)
    paths = _write_pair(tmp_path, *(workloads.random_hermitian(rng, 4) for _ in range(2)))
    rc, out = _cli(["check", paths["a"], paths["b"], "--m", "3"])
    assert oracle.check_reason(paths, 3, rc, out) is None
    cert = json.loads(out)
    cert["golden_thompson"]["rhs"] *= 1 + 1e-6
    assert "rhs" in oracle.check_reason(paths, 3, rc, json.dumps(cert))
    cert = json.loads(out)
    cert["inputs"]["matrix_b"]["sha256"] = "0" * 64
    assert "digest" in oracle.check_reason(paths, 3, rc, json.dumps(cert))
    cert = json.loads(out)
    cert["checks"][0]["passed"] = False
    assert oracle.check_reason(paths, 3, rc, json.dumps(cert)) is not None
    for i, c in enumerate(json.loads(out)["checks"]):
        for key in ("residual", "tolerance"):
            cert = json.loads(out)
            # a rounding residual may shrink, but not grow past its tolerance
            cert["checks"][i][key] = c["tolerance"] * 1.5 if key == "residual" else c[key] * 0.9
            assert c["name"] in oracle.check_reason(paths, 3, rc, json.dumps(cert)), (c, key)
    recomputed = ("golden_thompson_gap", "pinch_dominates_scaled_operand",
                  "finite_power_certificate")
    for i, c in enumerate(json.loads(out)["checks"]):
        if c["name"] in recomputed:
            cert = json.loads(out)
            cert["checks"][i]["residual"] -= 1e-6 * (1.0 + abs(c["residual"]))
            assert "disagrees" in oracle.check_reason(paths, 3, rc, json.dumps(cert)), c


def test_check_oracle_rejects_the_binomial_bound_as_spectrum_count(tmp_path, monkeypatch):
    # log-eigenvalues 0, 1, 2 of exp(A): the 2-fold sums 0+2 and 1+1 coincide,
    # so the tensor square has 5 distinct eigenvalues, not C(4, 2) = 6
    a = np.diag([0.0, 1.0, 2.0]).astype(complex)
    b = workloads.random_hermitian(np.random.default_rng(2), 3)
    paths = _write_pair(tmp_path, a, b)
    rc, out = _cli(["check", paths["a"], paths["b"], "--m", "2"])
    assert oracle.check_reason(paths, 2, rc, out) is None

    def binomial_count(dec, m, policy):
        exact, log_bound = pinchgt.tensor.binomial_bound(m, dec.n)
        return pinchgt.tensor.SpectrumCount(m, exact, log_bound, dec.n)

    monkeypatch.setattr(pinchgt.verify, "count_distinct_spectrum", binomial_count)
    rc, out = _cli(["check", paths["a"], paths["b"], "--m", "2"])
    assert rc == 0  # the bound still holds, so the program passes its own check
    assert "finite_power_certificate" in oracle.check_reason(paths, 2, rc, out)


def test_suite_oracle_expects_exact_text():
    text = oracle.suite_text()
    assert text.endswith("total: 140 trials, 0 violations\n")
    op = workloads.Op(argv=[])
    assert oracle.judge("random_suite", op, 0, text) is None
    assert oracle.judge("random_suite", op, 0, text.replace("0 violations\n", "1 violations\n", 1))
    assert oracle.judge("random_suite", op, 1, text) == "exit code 1"


# -- self-check ----------------------------------------------------------------

def test_self_check_reports_mismatches():
    a = {"ops": [{"k": 0, "rc": 0, "accepted": True, "props": {"sha": 1}}]}
    b = {"ops": [{"k": 0, "rc": 1, "accepted": False, "props": {"sha": 2}}]}
    assert len(report.repeat_errors(a, b)) == 2
    assert report.repeat_errors(a, a) == []
    metrics = {name: {"value": 1.0} for name in spans.LAYER_METRICS}
    changed = dict(metrics, **{"pinching.pinch.calls": {"value": 2.0}})
    assert report.count_errors({"metrics": metrics}, {"metrics": metrics}) == []
    assert len(report.count_errors({"metrics": metrics}, {"metrics": changed})) == 1
