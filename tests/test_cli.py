import json
import re

import numpy as np
import pytest

from pinchgt import (
    DIM_CAP,
    Check,
    GTReport,
    construct_hermitian,
    convergence_study,
    decompose,
    load_matrix,
    matrix_digest,
    random_pd,
    write_matrix,
)
from pinchgt.cli import main

from dense_routes import herm_exp


@pytest.fixture
def pair(tmp_path):
    a = construct_hermitian(np.diag([1.0, 2.0]))
    b = construct_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(pa, a)
    write_matrix(pb, b)
    return str(pa), str(pb), a, b


def test_roundtrip_matrix_files(tmp_path):
    a = random_pd(4, 3)
    p = tmp_path / "m.json"
    write_matrix(p, a)
    back = load_matrix(p)
    np.testing.assert_allclose(back.mat, a.mat, atol=1e-15)


def test_writing_a_stack_is_refused(tmp_path):
    """A matrix document holds one matrix; a stack is refused before the file
    is opened, not written as a document that loading refuses."""
    p = tmp_path / "m.json"
    with pytest.raises(ValueError, match=r"^a matrix document holds one matrix, not a stack "
                                         r"of shape \(2,\)$"):
        write_matrix(p, random_pd(3, [1, 2]))
    assert not p.exists()


def test_check_passes(pair, capsys):
    pa, pb, _, _ = pair
    assert main(["check", pa, pb]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "pass"
    assert cert["inputs"]["matrix_a"]["dim"] == 2
    assert cert["inputs"]["matrix_a"]["sha256"] == matrix_digest(pa)
    assert cert["inputs"]["policy"]["herm_tol"] == 1e-10
    names = [c["name"] for c in cert["checks"]]
    assert names == [
        "golden_thompson_gap",
        "pinch_commutes_with_base",
        "pinch_preserves_weighted_trace",
        "pinch_dominates_scaled_operand",
        "pinch_equals_dephasing_mixture",
        "finite_power_certificate",
    ]
    assert all(c["passed"] for c in cert["checks"])
    for c in cert["checks"]:
        assert c["residual"] <= c["tolerance"]
    assert cert["golden_thompson"]["gap"] >= 0.0


def test_check_commuting_pair_adds_equality_check(pair, capsys):
    pa, _, _, _ = pair
    assert main(["check", pa, pa]) == 0
    cert = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in cert["checks"]]
    assert "commuting_equality" in names
    assert cert["golden_thompson"]["commuting"] is True


def test_check_out_file(pair, tmp_path, capsys):
    pa, pb, _, _ = pair
    out = tmp_path / "cert.json"
    assert main(["check", pa, pb, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "pass"


def test_chain_csv(pair, capsys):
    pa, pb, a, b = pair
    assert main(["chain", pa, pb, "--m", "1,2,3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,s0,s0_tensorized,t_pinched,target,bound,gap_bound"
    assert len(lines) == 4
    ct = convergence_study(a, b, [2])[0]
    cells = lines[2].split(",")
    assert cells[0] == "2"
    assert cells[1] == format(ct.s0, ".12g")
    assert cells[3] == format(ct.t_pinched, ".12g")
    assert cells[5] == format(ct.bound, ".12g")


def test_chain_power_range(pair, capsys):
    """--m takes the grammar of --dims: a range gives the same run as its list."""
    pa, pb, _, _ = pair
    assert main(["chain", pa, pb, "--m", "1..3"]) == 0
    by_range = capsys.readouterr()
    assert main(["chain", pa, pb, "--m", "1,2,3"]) == 0
    assert capsys.readouterr() == by_range


@pytest.mark.parametrize("powers", ["3..1", "0..2", "1..x", "", "1..1000000000000"])
def test_malformed_power_list_exits_2(pair, capsys, powers):
    """Each is refused with one error line; the last before its range is expanded."""
    pa, pb, _, _ = pair
    assert main(["chain", pa, pb, "--m", powers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: --m [^\n]*\n", captured.err)


def test_descending_powers_are_refused_by_the_study(pair, capsys):
    pa, pb, _, _ = pair
    assert main(["chain", pa, pb, "--m", "3,2"]) == 2
    assert capsys.readouterr() == ("", "error: m_list must be strictly ascending, got [3, 2]\n")


def test_chain_cap_leaves_columns_empty(pair, capsys):
    pa, pb, _, _ = pair
    assert main(["chain", pa, pb, "--m", "1,2,3", "--cap", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row3 = lines[3].split(",")
    assert row3[0] == "3"
    assert row3[1] != "" and row3[4] != ""  # combinatorial columns always present
    assert row3[2] == "" and row3[3] == ""  # materialized columns skipped


def test_chain_out_file(pair, tmp_path):
    pa, pb, _, _ = pair
    out = tmp_path / "rows.csv"
    assert main(["chain", pa, pb, "--m", "1,2", "--out", str(out)]) == 0
    assert out.read_text().startswith("m,s0,")


@pytest.mark.parametrize("command", [["check"], ["chain", "--m", "1"]], ids=["check", "chain"])
@pytest.mark.parametrize(
    "target, reason",
    [
        (("missing", "x.json"), "No such file or directory"),
        ((), "Is a directory"),
        (None, "No such file or directory"),
    ],
    ids=["no_such_directory", "a_directory", "an_empty_path"],
)
def test_unwritable_out_exits_2(pair, tmp_path, capsys, command, target, reason):
    """An --out that cannot be opened for writing is unusable input: one error line."""
    pa, pb, _, _ = pair
    out = "" if target is None else tmp_path.joinpath(*target)
    assert main([command[0], pa, pb, *command[1:], "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")


def test_chain_violation_exits_1(tmp_path, capsys):
    """A deliberately coarse cluster tolerance merges distinct eigenvalues,
    which breaks the pinched-collapse identity and must be reported."""
    pa, pb = tmp_path / "ga.json", tmp_path / "gb.json"
    write_matrix(pa, random_pd(3, 101))
    write_matrix(pb, random_pd(3, 202))
    code = main(["chain", str(pa), str(pb), "--m", "1,2", "--tol-cluster", "0.4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "violation:" in captured.err
    assert captured.out.startswith("m,s0,")  # the CSV is still emitted


def test_random_suite_deterministic(capsys):
    args = ["random-suite", "--dims", "2..4", "--trials", "4", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    lines = first.strip().splitlines()
    assert lines[0] == "dim 2: 4 trials, 0 violations"
    assert lines[-1] == "total: 12 trials, 0 violations"


def test_random_suite_dim_list(capsys):
    assert main(["random-suite", "--dims", "2,5", "--trials", "2", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("dim 2:") and lines[1].startswith("dim 5:")


def test_non_hermitian_input_exits_2(tmp_path, pair, capsys):
    _, pb, _, _ = pair
    bad = tmp_path / "nh.json"
    bad.write_text(json.dumps({"dim": 2, "re": [[1.0, 1.0], [0.0, 2.0]]}))
    assert main(["check", str(bad), pb]) == 2
    assert "not Hermitian" in capsys.readouterr().err
    assert main(["chain", str(bad), pb, "--m", "1"]) == 2


def test_loose_hermiticity_tolerance_admits(tmp_path, pair):
    _, pb, _, _ = pair
    near = tmp_path / "near.json"
    near.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.5 + 1e-9], [0.5, 2.0]]}))
    assert main(["check", str(near), pb, "--out", str(tmp_path / "c.json")]) == 2
    assert main(
        ["check", str(near), pb, "--tol-herm", "1e-6", "--out", str(tmp_path / "c.json")]
    ) == 0


@pytest.mark.parametrize(
    "flag, field",
    [
        ("--tol-herm", "herm_tol"),
        ("--tol-cluster", "cluster_tol"),
        ("--tol-psd", "psd_tol"),
        ("--tol-residual", "residual_tol"),
    ],
)
def test_infinite_tolerance_exits_2(tmp_path, pair, capsys, flag, field):
    """An infinite tolerance passes every check it bounds (--tol-herm inf would
    admit this visibly non-Hermitian matrix) and is not a JSON number."""
    _, pb, _, _ = pair
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "re": [[1, 5], [0, 2]]}))
    assert main(["check", str(bad), pb, flag, "inf"]) == 2
    assert capsys.readouterr() == (
        "", f"error: {field} must be finite and strictly positive, got inf\n"
    )


def test_not_positive_definite_chain_exits_2(tmp_path, pair, capsys):
    _, pb, _, _ = pair
    ind = tmp_path / "ind.json"
    write_matrix(ind, construct_hermitian(np.diag([1.0, -1.0])))
    assert main(["chain", str(ind), pb, "--m", "1"]) == 2
    assert "not positive definite" in capsys.readouterr().err


def test_bad_inputs_exit_2(tmp_path, pair, capsys):
    pa, pb, _, _ = pair
    assert main(["check", str(tmp_path / "missing.json"), pb]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    # nesting deeper than the decoder's recursion limit, and bytes that are not UTF-8
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for path in (garbled, deep, binary):
        capsys.readouterr()
        assert main(["check", str(path), pb]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} is not valid JSON: ")
    noim = tmp_path / "shape.json"
    noim.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.0]]}))
    assert main(["check", str(noim), pb]) == 2
    assert main(["chain", pa, pb, "--m", "3,2"]) == 2
    assert main(["chain", pa, pb, "--m", "1,x"]) == 2
    assert main(["chain", pa, pb, "--m", "0"]) == 2
    assert main(["check", pa, pb, "--m", "0"]) == 2
    assert capsys.readouterr().err.endswith("error: power must be a positive integer, got 0\n")
    assert main(["random-suite", "--trials", "0"]) == 2
    assert main(["random-suite", "--dims", "5..2"]) == 2
    assert main(["random-suite", "--dims", "a..b"]) == 2
    # dimensions above DIM_CAP, refused before a range is expanded
    assert main(["random-suite", "--dims", "10000000"]) == 2
    assert main(["random-suite", "--dims", "1..1000000000000"]) == 2
    # 10**6 + 1 candidate multisets of 10**6 terms each, refused before enumerating
    assert main(["check", pa, pb, "--m", "1000000"]) == 2
    capsys.readouterr()


_ROW = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "doc, line",
    [
        ({"dim": 2, "re": [[1.0, 0.0], [0.0]]}, "'re' row 1 must hold 2 numbers"),
        ({"dim": 2, "re": [[1.0, "0"], [0.0, 1.0]]}, "'re'[0][1] is not a number"),
        ({"dim": 2, "re": [[1.0, True], [0.0, 1.0]]}, "'re'[0][1] is not a number"),
        ({"dim": 2, "re": [[1.0, None], [0.0, 1.0]]}, "'re'[0][1] is not a number"),
        ({"dim": 2, "re": _ROW, "im": [[0.0, None], [0.0, 0.0]]}, "'im'[0][1] is not a number"),
        (_ROW, "matrix document must be a JSON object"),
        ({"re": _ROW}, "missing 'dim'"),
        ({"dim": 0, "re": _ROW}, "'dim' must be a positive integer, got 0"),
        ({"dim": True, "re": _ROW}, "'dim' must be a positive integer, got True"),
        ({"dim": 1.0, "re": _ROW}, "'dim' must be a positive integer, got 1.0"),
        ({"dim": 2}, "missing 're'"),
    ],
)
def test_malformed_matrix_document_exits_2(tmp_path, pair, capsys, doc, line):
    _, pb, _, _ = pair
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), pb]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


def write_pair(tmp_path, a, b):
    """Paths of the 2-D arrays a and b written as matrix files."""
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(pa, construct_hermitian(np.array(a, dtype=float)))
    write_matrix(pb, construct_hermitian(np.array(b, dtype=float)))
    return str(pa), str(pb)


def test_overflowing_input_exits_2(tmp_path, pair, capsys):
    """Finite entries whose symmetrization overflows, and integer entries
    beyond the float range, are refused as non-finite. A pair whose trace
    inequality sides overflow the double range, an e^A that overflows, and
    an e^A that underflows to 0, where the spectrum count has no log, are
    refused by check with one error line and no warning (tier-1 runs
    warnings as errors)."""
    _, pb, _, _ = pair
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": 2, "re": [[1e308, 0.0], [0.0, 1.0]]}))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"dim": 2, "re": [[10**400, 0], [0, 1]]}))
    for path in (big, huge):
        for argv in (["check", str(path), pb], ["chain", str(path), pb, "--m", "1"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.endswith(
                "error: matrix entries must be finite (no NaN/inf)\n"
            )
    for top in (400.0, 360.0):
        sides = tmp_path / f"sides{top:g}.json"
        write_matrix(sides, construct_hermitian(np.diag([top, top - 1.0])))
        assert main(["check", str(sides), str(sides)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: tr exp(A+B) = inf and tr(exp A exp B) = inf must both be finite\n"
        )
    # both sides near e^400 stay finite
    sides = tmp_path / "sides200.json"
    write_matrix(sides, construct_hermitian(np.diag([200.0, 199.0])))
    assert main(["check", str(sides), str(sides)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    for top, err in [
        (800.0, "error: function not finite at eigenvalue(s) [800.]\n"),
        (-800.0, "error: tensor-power base eigenvalue 0.000000e+00 is outside log's domain\n"),
    ]:
        assert main(["check", *write_pair(tmp_path, np.diag([top, 0.0]), np.zeros((2, 2)))]) == 2
        assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "a, b",
    [([0.0, 0.0], [0.0, 400.0]), ([400.0, 0.0], [0.0, 400.0]), ([-700.0, 700.0], [0.0, 0.0])],
)
def test_non_finite_certificate_exits_2(tmp_path, a, b, capsys):
    """A check whose residual or tolerance is not finite decides nothing, so
    check refuses the certificate with one error line. Here the Frobenius
    norm of an entry above about 1.34e154 overflows, with a warning."""
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["check", *write_pair(tmp_path, np.diag(a), np.diag(b))]) == 2
    assert capsys.readouterr() == (
        "",
        "error: pinch_commutes_with_base is not finite: residual 0.000000e+00, tolerance inf\n",
    )


NARROW = [[1.0, 0.5], [0.5, -1.0]]


@pytest.mark.parametrize(
    "b, partner",
    [
        ([[-11.0, 0.0], [0.0, 10.0]], NARROW),
        ([[-25.0, 0.3], [0.3, 0.0]], NARROW),
        ([[-300.0, 0.0], [0.0, 0.0]], np.zeros((2, 2))),
    ],
    ids=["b0", "b1", "b2"],
)
def test_wide_second_operand_is_certified(tmp_path, b, partner, capsys):
    """The spectrum of exp B, or of exp A, may span more than the positivity
    floor resolves: the count of exp A's tensor power needs only log to be
    defined. The wide matrix is tried as B and as A."""
    for pair in ((partner, b), (b, partner)):
        assert main(["check", *write_pair(tmp_path, *pair)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_random_suite_seed_out_of_key_range_exits_2(capsys):
    # 3 dims x 2 trials: trial k draws with keys 4 (seed + k) .. 4 (seed + k) + 3
    top = 2**126 - 6
    for seed in (-1, top + 1):
        argv = ["random-suite", "--dims", "2..4", "--trials", "2", "--seed", str(seed)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --seed must be between 0 and {top} for 6 trials, got {seed}\n"
        )
    assert main(["random-suite", "--dims", "2..4", "--trials", "2", "--seed", str(top)]) == 0
    capsys.readouterr()


def test_argparse_failures_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_gt_violation_plumbing(pair, capsys, monkeypatch):
    """Exit code 1 is wired to failing checks (forced via a stubbed report)."""
    import pinchgt.cli as cli

    pa, pb, a, b = pair
    fake = GTReport(
        lhs=2.0, rhs=1.0, gap=-1.0, commuting=False,
        checks=(Check("golden_thompson_gap", 1.0, 3e-9),),
        exp_a=decompose(herm_exp(a)), exp_b=decompose(herm_exp(b)),
    )
    monkeypatch.setattr(cli, "gt_check", lambda a, b, policy: fake)
    assert main(["check", pa, pb]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "violation"
    assert not cert["checks"][0]["passed"]


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls through pinchgt.spectral.eigh, pinchgt.pinching.pinch
    and spectral.eigvals, which verify and pinching import by name."""
    import pinchgt.pinching
    import pinchgt.spectral
    import pinchgt.verify

    counts = {"eigh": 0, "eigvals": 0, "pinch": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pinchgt.spectral, "eigh", counted("eigh", pinchgt.spectral.eigh))
    monkeypatch.setattr(pinchgt.pinching, "pinch", counted("pinch", pinchgt.pinching.pinch))
    for module in (pinchgt.verify, pinchgt.pinching):
        monkeypatch.setattr(module, "eigvals", counted("eigvals", module.eigvals))
    return counts


def test_one_pass_per_certificate(pair, capsys, calls):
    """A check op decomposes A and B once each, takes exp A and exp B from
    those decompositions, takes eigenvalues only of A + B and twice in the
    pinching checks, and pinches exp A once; the finite-power certificate
    reads its sides from the Golden-Thompson report. A random-suite trial
    pinches its operand once."""
    pa, pb, _, _ = pair
    assert main(["check", pa, pb]) == 0
    assert calls == {"eigh": 2, "eigvals": 3, "pinch": 1}
    calls.update(eigh=0, eigvals=0, pinch=0)
    assert main(["random-suite", "--dims", "3", "--trials", "1"]) == 0
    assert calls["pinch"] == 1
    capsys.readouterr()


def test_one_decomposition_per_chain_study(pair, capsys, calls):
    """A chain run decomposes A and B once, then B^m, A^m and the pinched
    A^m once per full-tier power."""
    pa, pb, _, _ = pair
    assert main(["chain", pa, pb, "--m", "1,2,3"]) == 0
    assert calls["eigh"] == 2 + 3 * 3
    calls.update(eigh=0)
    assert main(["chain", pa, pb, "--m", "1,2,3,4,5,6"]) == 0
    assert calls["eigh"] == 2 + 3 * 6
    capsys.readouterr()


def test_chain_cap_above_dim_cap_exits_2(pair, capsys):
    pa, pb, _, _ = pair
    assert main(["chain", pa, pb, "--m", "8", "--cap", str(DIM_CAP + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --cap 4097 exceeds the dimension cap 4096")


def test_chain_cap_below_one_exits_2(pair, capsys):
    """A cap below 1 is refused; a cap of 1 skips the dense tier at every power."""
    pa, pb, _, _ = pair
    for cap in ("0", "-5"):
        assert main(["chain", pa, pb, "--m", "1", "--cap", cap]) == 2
        assert capsys.readouterr() == ("", f"error: --cap must be positive, got {cap}\n")
    assert main(["chain", pa, pb, "--m", "1..3", "--cap", "1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[2], r[3]) for r in rows] == [("", "")] * 3


@pytest.fixture
def uncounted(monkeypatch):
    """Fails the test at the first spectrum count of a chain run."""
    import pinchgt.verify

    def refuse(dec, m, policy):
        raise AssertionError(f"power {m} was counted")

    monkeypatch.setattr(pinchgt.verify, "count_distinct_spectrum", refuse)


def test_chain_refuses_a_power_beyond_the_caps_before_counting(pair, uncounted, capsys):
    """A power beyond the spectrum count's caps is refused, by the largest
    power's own caps, before any power is counted."""
    pa, pb, _, _ = pair
    assert main(["chain", pa, pb, "--m", "2440..2449"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 2450 candidate multisets of 2449 terms each exceed the "
        "enumeration cap of 6000000 terms\n"
    )


def test_chain_refuses_a_long_power_list_before_counting(pair, uncounted, capsys):
    """Each power of 13..2000 is within the caps, but their candidate
    multisets hold about 2.7e9 terms in all: refused before any count."""
    pa, pb, _, _ = pair
    assert main(["chain", pa, pb, "--m", "13..2000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    terms = sum((m + 1) * m for m in range(13, 2001))
    assert captured.err == (
        f"error: the candidate multisets of 1988 powers hold {terms} terms in all, "
        "beyond the enumeration cap of 6000000 terms\n"
    )


FROZEN_CHAIN = """\
m,s0,s0_tensorized,t_pinched,target,bound,gap_bound
1,1.78660254481,1.78660254481,1.79175946923,1.79175946923,2.48490664979,0.69314718056
2,1.78660254481,1.78660254481,1.79175946923,1.79175946923,2.34106561356,0.549306144334
3,1.78660254481,1.78660254481,1.79175946923,1.79175946923,2.2538575896,0.462098120373
"""

FROZEN_SUITE = """\
dim 2: 4 trials, 0 violations
dim 3: 4 trials, 0 violations
dim 4: 4 trials, 0 violations
total: 12 trials, 0 violations
"""

# the pinch_equals_dephasing_mixture residual is rounding noise of the
# mixture route, so it is masked here and bounded separately
FROZEN_CERTIFICATE = """\
{
  "inputs": {
    "matrix_a": {
      "path": "A",
      "dim": 2,
      "sha256": "1a2987f07be0eae711b7a5e9738bb603314479f48e173b8f335a7a3e8dbd23da"
    },
    "matrix_b": {
      "path": "B",
      "dim": 2,
      "sha256": "bdea9cad70a08af13ea98a97464a3525a5d74f3c183e98059c33004881f3a47f"
    },
    "power": 2,
    "policy": {
      "herm_tol": 1e-10,
      "cluster_tol": 1e-08,
      "psd_tol": 1e-09,
      "residual_tol": 1e-09
    }
  },
  "golden_thompson": {
    "lhs": 112.12085605922512,
    "rhs": 115.24295107891956,
    "gap": 3.1220950196944415,
    "commuting": false
  },
  "checks": [
    {
      "name": "golden_thompson_gap",
      "passed": true,
      "residual": -3.1220950196944415,
      "tolerance": 2.273638071381447e-07
    },
    {
      "name": "pinch_commutes_with_base",
      "passed": true,
      "residual": 0.0,
      "tolerance": 1.887208170319562e-08
    },
    {
      "name": "pinch_preserves_weighted_trace",
      "passed": true,
      "residual": 4.263256414560601e-14,
      "tolerance": 1.887208170319562e-08
    },
    {
      "name": "pinch_dominates_scaled_operand",
      "passed": true,
      "residual": -1.3591409142295205,
      "tolerance": 3.6945280494653235e-09
    },
    {
      "name": "pinch_equals_dephasing_mixture",
      "passed": true,
      "residual": MASKED,
      "tolerance": 1.7746390841342012e-10
    },
    {
      "name": "finite_power_certificate",
      "passed": true,
      "residual": -87.48579042363811,
      "tolerance": 3.1172750254208837e-07
    }
  ],
  "verdict": "pass"
}
"""


def test_frozen_outputs(pair, capsys):
    """Byte-exact chain CSV, random-suite text and check certificate."""
    pa, pb, _, _ = pair
    assert main(["chain", pa, pb, "--m", "1,2,3"]) == 0
    assert capsys.readouterr().out == FROZEN_CHAIN
    assert main(["random-suite", "--dims", "2..4", "--trials", "4"]) == 0
    assert capsys.readouterr().out == FROZEN_SUITE

    assert main(["check", pa, pb]) == 0
    out = capsys.readouterr().out
    mixture = json.loads(out)["checks"][4]
    assert mixture["name"] == "pinch_equals_dephasing_mixture"
    assert 0.0 <= mixture["residual"] <= mixture["tolerance"]
    out = out.replace(json.dumps(pa), '"A"').replace(json.dumps(pb), '"B"')
    out = re.sub(
        r'("name": "pinch_equals_dephasing_mixture",\n\s+"passed": true,\n\s+"residual": )[^,]+',
        r"\1MASKED",
        out,
    )
    assert out == FROZEN_CERTIFICATE


def test_parser_is_built_once_and_keeps_no_state(pair, tmp_path, capsys, monkeypatch):
    """main reuses one parser; the flags of a call never reach the next."""
    import argparse

    pa, pb, _, _ = pair
    suite = ["random-suite", "--dims", "2..4", "--trials", "4"]
    assert main([*suite, "--tol-cluster", "0.5"]) == 1
    assert capsys.readouterr().out.endswith("total: 12 trials, 6 violations\n")
    assert main(suite) == 0
    assert capsys.readouterr().out == FROZEN_SUITE

    out = tmp_path / "cert.json"
    assert main(["check", pa, pb, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["check", pa, pb]) == 0
    assert capsys.readouterr().out == out.read_text()

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(suite) == 0
    assert capsys.readouterr().out == FROZEN_SUITE
    assert built == []
