"""Stacked evaluation against the per-matrix and per-trial routes.

`random-suite` runs each dimension's trials as stacks ``(k, d, d)`` of
operands through the same library calls that a single pair uses at batch
shape ``()``. The per-trial loop below is the route the command took before
stacking: one single-pair ``gt_check``, ``PinchOperator`` and
``pinching_checks`` call per trial. It stays here as the independent oracle.
"""

import contextlib
import io

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchgt.cli as cli
import pinchgt.pinching
import pinchgt.spectral
from pinchgt import (
    ConvergenceFailure,
    HermitianMatrix,
    NotPSD,
    NotSquare,
    NumericPolicy,
    PinchOperator,
    apply_to_decomposition,
    decompose,
    eigh,
    gt_check,
    pinch,
    pinching_checks,
    random_hermitian,
    random_pd,
    random_psd,
    random_unitary,
)
from pinchgt.cli import main


def per_trial_suite(dims, trials, seed, policy):
    """(exit code, stdout) of random-suite, one library call per trial."""
    idx = 0
    total = 0
    lines = []
    for dim in dims:
        violations = 0
        for _ in range(trials):
            s = seed + idx
            idx += 1
            a = random_hermitian(dim, 4 * s)
            b = random_hermitian(dim, 4 * s + 1)
            ok = gt_check(a, b, policy).holds
            base = random_pd(dim, 4 * s + 2)
            x = random_psd(dim, 4 * s + 3)
            op = PinchOperator(decompose(base, policy))
            ok = ok and all(c.passed for c in pinching_checks(op, x, policy))
            if not ok:
                violations += 1
        total += violations
        lines.append(f"dim {dim}: {trials} trials, {violations} violations")
    lines.append(f"total: {len(dims) * trials} trials, {total} violations")
    return (1 if total else 0), "\n".join(lines) + "\n"


def run_suite(lo, hi, trials, seed, tol_cluster=None):
    """(exit code, stdout) of the random-suite command; stderr must stay empty."""
    argv = ["random-suite", "--dims", f"{lo}..{hi}", "--trials", str(trials), "--seed", str(seed)]
    if tol_cluster is not None:
        argv += ["--tol-cluster", repr(tol_cluster)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert err.getvalue() == ""
    return rc, out.getvalue()


def oracle(lo, hi, trials, seed, tol_cluster=None):
    policy = NumericPolicy() if tol_cluster is None else NumericPolicy(cluster_tol=tol_cluster)
    return per_trial_suite(list(range(lo, hi + 1)), trials, seed, policy)


@pytest.mark.parametrize("seed", [0, 7, 140, 1000, 123456])
@pytest.mark.parametrize("tol_cluster", [None, 0.5])
def test_suite_matches_per_trial_route(seed, tol_cluster):
    got = run_suite(1, 8, 20, seed, tol_cluster)
    assert got == oracle(1, 8, 20, seed, tol_cluster)
    if tol_cluster == 0.5:
        # the pinching checks judge against the reference itself, so they
        # report the coarse clusters: every trial of dimension 3 and up is
        # violated, while dimension 1 and most of dimension 2 pass, and
        # the comparison covers both
        violated = int(got[1].splitlines()[-1].split(", ")[1].split()[0])
        assert 40 <= violated <= 140
        assert got[0] == 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    lo=st.integers(1, 8),
    span=st.integers(0, 7),
    trials=st.integers(1, 30),
    seed=st.integers(0, 2**40),
    tol_cluster=st.floats(1e-8, 0.6),
)
def test_suite_matches_per_trial_route_everywhere(lo, span, trials, seed, tol_cluster):
    hi = min(8, lo + span)
    assert run_suite(lo, hi, trials, seed, tol_cluster) == oracle(
        lo, hi, trials, seed, tol_cluster
    )


def test_stack_budget_does_not_change_output(monkeypatch):
    for tol in (None, 0.5):
        expected = run_suite(1, 8, 7, 31, tol)
        with monkeypatch.context() as m:
            m.setattr(cli, "SUITE_STACK_ENTRIES", 3)  # one trial per stack
            assert run_suite(1, 8, 7, 31, tol) == expected


SEEDS = [3, 17, 2**64 + 9, 41, 5]


def test_stacked_generators_draw_each_seed_alone():
    for dim in (1, 3):
        for gen in (random_hermitian, random_pd, random_psd):
            stack = gen(dim, SEEDS).mat
            assert stack.shape == (len(SEEDS), dim, dim)
            for i, s in enumerate(SEEDS):
                npt.assert_array_equal(stack[i], gen(dim, s).mat)
        u = random_unitary(dim, SEEDS)
        for i, s in enumerate(SEEDS):
            npt.assert_array_equal(u[i], random_unitary(dim, s))


def test_hermitian_stack_symmetrizes_each_matrix():
    raw = np.random.default_rng(0).standard_normal((2, 3, 4, 4))
    stack = HermitianMatrix(raw)
    assert stack.dim == 4 and stack.batch_shape == (2, 3)
    npt.assert_array_equal(stack.mat[1, 2], HermitianMatrix(raw[1, 2]).mat)
    with pytest.raises(NotSquare):
        HermitianMatrix(np.zeros((2, 3, 4)))


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
def test_stacked_eigh_is_bitwise_per_matrix(dim):
    stack = random_hermitian(dim, SEEDS)
    w, v = eigh(stack)
    for i, s in enumerate(SEEDS):
        wi, vi = eigh(random_hermitian(dim, s))
        npt.assert_array_equal(w[i], wi)
        npt.assert_array_equal(v[i], vi)


def rotated_diag_stack(values, seeds):
    """U diag(values) U† per seed, so every matrix of the stack shares a degenerate spectrum."""
    u = random_unitary(len(values), seeds)
    return HermitianMatrix((u * np.asarray(values)) @ u.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("policy", [NumericPolicy(), NumericPolicy(cluster_tol=0.5)])
def test_stacked_decompose_and_pinch_match_per_matrix(policy):
    bases = [
        random_pd(5, SEEDS),
        rotated_diag_stack([1.0, 1.0, 2.0, 2.0, 2.0 + 1e-12], SEEDS),
    ]
    x = random_psd(5, [s + 1 for s in SEEDS])
    for base in bases:
        dec = decompose(base, policy)
        px = pinch(PinchOperator(dec), x).mat
        flat = 0
        for i in range(len(SEEDS)):
            one = decompose(HermitianMatrix(base.mat[i]), policy)
            assert dec.n[i] == one.n
            npt.assert_array_equal(dec.labels[i], np.repeat(np.arange(one.n), one.multiplicities))
            npt.assert_array_equal(dec.eigenvalues[flat : flat + one.n], one.eigenvalues)
            npt.assert_array_equal(dec.multiplicities[flat : flat + one.n], one.multiplicities)
            flat += one.n
            single = pinch(PinchOperator(one), HermitianMatrix(x.mat[i]))
            npt.assert_allclose(px[i], single.mat, rtol=0, atol=1e-14 * np.linalg.norm(single.mat))
        assert flat == len(dec.eigenvalues)
    # f is one array call on the stack's values, bit for bit the per-matrix calls
    base = random_pd(4, [1, 2, 3])
    stacked = apply_to_decomposition(np.log, decompose(base, policy)).mat
    for i in range(3):
        one = apply_to_decomposition(np.log, decompose(HermitianMatrix(base.mat[i]), policy))
        npt.assert_array_equal(stacked[i], one.mat)


def assert_checks_agree(stacked, singles):
    """Same names, the same pass/fail at every index, residuals within 1e-14 relative."""
    for k, check in enumerate(stacked):
        assert [one[k].name for one in singles] == [check.name] * len(singles)
        npt.assert_array_equal(check.passed, [one[k].passed for one in singles])
        npt.assert_allclose(check.residual, [one[k].residual for one in singles], rtol=1e-14)
        npt.assert_allclose(check.tolerance, [one[k].tolerance for one in singles], rtol=1e-14)


@pytest.mark.parametrize("policy", [NumericPolicy(), NumericPolicy(cluster_tol=0.5)])
@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_stacked_checks_agree_with_per_matrix_checks(policy, dim):
    seeds = list(range(50, 62))
    a, b = random_hermitian(dim, seeds), random_hermitian(dim, [s + 100 for s in seeds])
    base, x = random_pd(dim, seeds), random_psd(dim, [s + 200 for s in seeds])
    rows = [
        (HermitianMatrix(a.mat[i]), HermitianMatrix(b.mat[i]),
         HermitianMatrix(base.mat[i]), HermitianMatrix(x.mat[i]))
        for i in range(len(seeds))
    ]
    report = gt_check(a, b, policy)
    singles = [gt_check(ai, bi, policy) for ai, bi, _, _ in rows]
    assert_checks_agree(report.checks[:1], [s.checks for s in singles])
    npt.assert_allclose(report.gap, [s.gap for s in singles], rtol=1e-14)
    npt.assert_array_equal(report.holds, [s.holds for s in singles])
    stacked = pinching_checks(PinchOperator(decompose(base, policy)), x, policy)
    assert_checks_agree(
        stacked,
        [pinching_checks(PinchOperator(decompose(bi, policy)), xi, policy) for _, _, bi, xi in rows],
    )


def test_commuting_pairs_in_a_stack():
    """A commuting pair gets its equality check; the others' passes with residual 0."""
    a = random_hermitian(3, [1, 2])
    b = HermitianMatrix(np.stack([2.0 * a.mat[0], random_hermitian(3, 9).mat]))
    report = gt_check(a, b)
    npt.assert_array_equal(report.commuting, [True, False])
    equality = report.checks[1]
    assert equality.name == "commuting_equality"
    assert equality.residual[1] == 0.0 and equality.passed[1]
    single = gt_check(HermitianMatrix(a.mat[0]), HermitianMatrix(b.mat[0]))
    assert single.checks[1].residual == pytest.approx(equality.residual[0], rel=1e-14)


@pytest.fixture
def corrupt_index_2(monkeypatch):
    """np.linalg.eigh that returns a wrong basis for matrix 2 of any stack."""
    real = np.linalg.eigh

    def eigh_with_one_bad_matrix(mat):
        w, v = real(mat)
        if v.ndim == 3 and len(v) > 2:
            v = v.copy()
            v[2] = v[2] @ random_unitary(v.shape[-1], 1)
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", eigh_with_one_bad_matrix)


def test_one_bad_matrix_fails_the_stack(corrupt_index_2, capsys):
    with pytest.raises(ConvergenceFailure, match="at stack index 2$"):
        eigh(random_hermitian(3, SEEDS))
    eigh(random_hermitian(3, SEEDS[:2]))  # the same call on matrices 0 and 1 passes
    assert main(["random-suite", "--dims", "3", "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eigendecomposition residual")


def test_non_psd_operand_in_a_stack_raises_not_psd():
    op = PinchOperator(decompose(random_pd(3, SEEDS)))
    x = random_psd(3, SEEDS).mat.copy()
    x[3] = -np.eye(3)
    with pytest.raises(NotPSD, match="min eigenvalue -1.000000e\\+00 at stack index 3"):
        pinching_checks(op, HermitianMatrix(x))


def test_random_suite_runs_one_stack_per_dimension(capsys, monkeypatch):
    counts = {"eigh": 0, "pinch": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pinchgt.spectral, "eigh", counted("eigh", pinchgt.spectral.eigh))
    monkeypatch.setattr(pinchgt.pinching, "pinch", counted("pinch", pinchgt.pinching.pinch))
    assert main(["random-suite", "--dims", "3", "--trials", "5"]) == 0
    # eigh of the A, B and reference stacks; one pinch of the operand stack
    assert counts == {"eigh": 3, "pinch": 1}
    capsys.readouterr()
