import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from pinchgt import (
    Check,
    DimensionMismatch,
    HermitianMatrix,
    NotPositiveDefinite,
    PinchOperator,
    apply_to_decomposition,
    binomial_bound,
    chain_checks,
    construct_hermitian,
    convergence_study,
    count_distinct_spectrum,
    decompose,
    finite_power_certificate,
    gt_check,
    pinching_checks,
    random_hermitian,
    random_pd,
    random_unitary,
    write_matrix,
)
from pinchgt.cli import main
from pinchgt.policy import GT_GAP_TOL

from dense_routes import herm_exp, herm_log

# ---------------------------------------------------------------- oracles --
# Everything below uses plain numpy on raw arrays, none of the library's
# decomposition or pinching machinery, so agreement is a two-route check.


def o_expm(h):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(w)) @ v.conj().T


def o_logm(p):
    w, v = np.linalg.eigh(p)
    return (v * np.log(w)) @ v.conj().T


def o_pinch(base, x, gap=1e-8):
    w, v = np.linalg.eigh(base)
    out = np.zeros_like(x, dtype=complex)
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > gap * max(1.0, np.abs(w).max()):
            cols = v[:, start:i]
            p = cols @ cols.conj().T
            out += p @ x @ p
            start = i
    return out


def o_power(a, m):
    out = a
    for _ in range(m - 1):
        out = np.kron(out, a)
    return out


def o_chain_points(a, b, m):
    """(s0, s0_tensorized, t_pinched, target) via the brute-force route."""
    s0 = math.log(np.trace(o_expm(o_logm(a) + o_logm(b))).real)
    am, bm = o_power(a, m), o_power(b, m)
    s0_t = math.log(np.trace(o_expm(o_logm(am) + o_logm(bm))).real) / m
    pinched = o_pinch(bm, am)
    t_p = math.log(np.trace(o_expm(o_logm(pinched) + o_logm(bm))).real) / m
    target = math.log(np.trace(a @ b).real)
    return s0, s0_t, t_p, target


# ------------------------------------------------------------------ tests --


def test_gt_commuting_pair_is_tight():
    a = construct_hermitian(np.diag([1.0, -1.0]))
    r = gt_check(a, HermitianMatrix(np.eye(2)))
    expect = math.e**2 + 1.0
    assert r.lhs == pytest.approx(expect, rel=1e-12)
    assert r.rhs == pytest.approx(expect, rel=1e-12)
    assert r.commuting and r.holds
    assert abs(r.gap) <= 1e-10 * expect


def test_gt_pauli_pair():
    x = construct_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    z = construct_hermitian(np.diag([1.0, -1.0]))
    r = gt_check(x, z)
    assert r.lhs == pytest.approx(2.0 * math.cosh(math.sqrt(2.0)), rel=1e-12)
    assert r.rhs == pytest.approx(2.0 * math.cosh(1.0) ** 2, rel=1e-12)
    assert r.holds and not r.commuting
    assert r.gap > 0.1  # strict inequality for this non-commuting pair


def test_gt_holds_on_random_pairs():
    for seed in range(40):
        dim = 2 + seed % 7
        r = gt_check(random_hermitian(dim, seed), random_hermitian(dim, seed + 7000))
        assert r.holds
        assert r.rhs == pytest.approx(r.lhs + r.gap)


def test_gt_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        gt_check(HermitianMatrix(np.eye(2)), HermitianMatrix(np.eye(3)))


def test_chain_matches_brute_force():
    for seed in range(5):
        a = random_pd(2, seed)
        b = random_pd(2, seed + 11)
        for m in (1, 2, 3):
            ct = convergence_study(a, b, [m])[0]
            s0, s0_t, t_p, target = o_chain_points(a.mat, b.mat, m)
            assert ct.s0 == pytest.approx(s0, abs=1e-10)
            assert ct.s0_tensorized == pytest.approx(s0_t, abs=1e-10)
            assert ct.t_pinched == pytest.approx(t_p, abs=1e-9)
            assert ct.target == pytest.approx(target, abs=1e-10)


def test_chain_structure():
    a = construct_hermitian(np.diag([1.0, 2.0]))
    b = construct_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
    ct = convergence_study(a, b, [3])[0]
    assert ct.m == 3 and ct.s0_tensorized is not None
    assert ct.target == pytest.approx(math.log(6.0), rel=1e-12)
    assert ct.t_pinched == pytest.approx(math.log(6.0), rel=1e-9)
    assert ct.spectrum_count == 4
    assert ct.bound == pytest.approx(ct.target + math.log(4.0) / 3.0, rel=1e-12)
    assert ct.gap_bound == pytest.approx(math.log(4.0) / 3.0, rel=1e-12)
    assert ct.s0 <= ct.bound


def test_chain_invariants_on_random_pairs():
    for seed in range(6):
        dim = 2 + seed % 3
        a = random_pd(dim, seed + 300)
        b = random_pd(dim, seed + 400)
        for m in (1, 2):
            for _, c in chain_checks([convergence_study(a, b, [m])[0]]):
                assert c.passed, f"{c.name} failed at m={m}: {c.residual} > {c.tolerance}"


def test_chain_cap_controls_full_tier():
    a = random_pd(2, 1)
    b = random_pd(2, 2)
    full = convergence_study(a, b, [2], cap=4)[0]
    assert full.s0_tensorized is not None and full.t_pinched is not None
    skipped = convergence_study(a, b, [3], cap=4)[0]
    assert skipped.s0_tensorized is None and skipped.t_pinched is None
    # combinatorial columns survive the skip
    assert skipped.bound == pytest.approx(
        skipped.target + math.log(skipped.spectrum_count) / 3.0
    )


def test_chain_rejects_bad_inputs():
    a = random_pd(2, 0)
    with pytest.raises(ValueError):
        convergence_study(a, a, [0])
    with pytest.raises(DimensionMismatch):
        convergence_study(a, random_pd(3, 0), [1])
    with pytest.raises(NotPositiveDefinite):
        convergence_study(a, construct_hermitian(np.diag([1.0, -1.0])), [1])


def test_chain_at_large_magnitudes():
    # huge but well-conditioned operands; log-domain arithmetic keeps every
    # reported quantity finite and accurate
    a = construct_hermitian(np.diag([math.exp(150.0), math.exp(160.0)]))
    b = HermitianMatrix(2.0 * np.eye(2))
    ct = convergence_study(a, b, [1])[0]
    expect = 160.0 + math.log(2.0) + math.log1p(math.exp(-10.0))
    assert ct.s0 == pytest.approx(expect, abs=1e-9)
    assert ct.target == pytest.approx(expect, abs=1e-9)
    assert math.isfinite(ct.bound)


def test_chain_rejects_unresolvable_conditioning():
    # a positive spectrum spanning ~43 orders of magnitude cannot be
    # certified positive definite in double precision
    a = construct_hermitian(np.diag([math.exp(200.0), math.exp(300.0)]))
    with pytest.raises(NotPositiveDefinite):
        convergence_study(a, HermitianMatrix(np.eye(2)), [1])


def test_convergence_study():
    a = random_pd(2, 5)
    b = random_pd(2, 6)
    rows = convergence_study(a, b, [1, 2, 4, 8])
    assert [ct.m for ct in rows] == [1, 2, 4, 8]
    bounds = [ct.bound for ct in rows]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(ct.s0 == pytest.approx(rows[0].s0) for ct in rows)


def test_convergence_study_rows_equal_single_power_studies():
    a = random_pd(3, 11)
    b = random_pd(3, 12)
    rows = convergence_study(a, b, [1, 2, 3, 5], cap=27)
    assert rows == [convergence_study(a, b, [m], cap=27)[0] for m in [1, 2, 3, 5]]
    assert [ct.s0_tensorized is not None for ct in rows] == [True, True, True, False]


def test_convergence_study_validation():
    a = random_pd(2, 0)
    with pytest.raises(ValueError):
        convergence_study(a, a, [])
    with pytest.raises(ValueError):
        convergence_study(a, a, [2, 2])
    with pytest.raises(ValueError):
        convergence_study(a, a, [3, 1])


def test_analytic_gap_bound_scalars():
    assert binomial_bound(1, 2)[1] / 1 == pytest.approx(math.log(2.0), abs=1e-15)
    assert binomial_bound(2, 2)[1] / 2 == pytest.approx(math.log(3.0) / 2.0, abs=1e-15)
    assert binomial_bound(4, 2)[1] / 4 == pytest.approx(math.log(5.0) / 4.0, abs=1e-15)
    assert binomial_bound(8, 2)[1] / 8 == pytest.approx(math.log(9.0) / 8.0, abs=1e-15)


def o_certificate_sides(a, b, m):
    """(tr exp(log A + log B), N_m^(1/m) tr(AB)) with N_m from the library's count."""
    lhs = np.trace(o_expm(o_logm(a.mat) + o_logm(b.mat))).real
    n_m = count_distinct_spectrum(decompose(a), m).distinct_count
    return lhs, n_m ** (1.0 / m) * np.trace(a.mat @ b.mat).real


def o_dense_certificate(dec_a, dec_b, m):
    """The certificate by its own dense route, from the decompositions of a PD pair:
    tr exp(log A + log B) from the logs of both decompositions and eigvalsh,
    against N_m(A)^(1/m) tr(AB)."""
    log_sum = apply_to_decomposition(np.log, dec_a).mat + apply_to_decomposition(np.log, dec_b).mat
    lhs = float(np.sum(np.exp(np.linalg.eigvalsh(log_sum))))
    n_m = count_distinct_spectrum(dec_a, m).distinct_count
    rhs = n_m ** (1.0 / m) * np.trace(dec_a.source.mat @ dec_b.source.mat).real
    return Check("finite_power_certificate", lhs - rhs, GT_GAP_TOL * (abs(lhs) + abs(rhs)))


def pd_report(a, b):
    """The GTReport that certifies the PD pair A, B: sides tr exp(log A + log B) and tr(AB)."""
    return gt_check(herm_log(a), herm_log(b))


def test_finite_power_certificate():
    for seed in range(10):
        dim = 2 + seed % 4
        a = random_pd(dim, seed + 900)
        b = random_pd(dim, seed + 901)
        c = finite_power_certificate(pd_report(a, b), 3)
        lhs, rhs = o_certificate_sides(a, b, 3)
        assert lhs <= rhs * (1.0 + 1e-9)
        assert c.residual == pytest.approx(lhs - rhs, rel=1e-9)
        assert c.passed


def test_certificate_tightens_with_power():
    a = random_pd(3, 77)
    b = random_pd(3, 78)
    report = pd_report(a, b)
    gaps = []
    for m in (1, 2, 4, 8):
        lhs, rhs = o_certificate_sides(a, b, m)
        gaps.append(-finite_power_certificate(report, m).residual)
        assert lhs <= rhs * (1.0 + 1e-9)
    assert gaps[-1] < gaps[0]


def test_certify_arbitrary_hermitian():
    for seed in range(10):
        dim = 2 + seed % 4
        a = random_hermitian(dim, seed)
        b = random_hermitian(dim, seed + 5000)
        c = finite_power_certificate(gt_check(a, b), 2)
        assert c.passed
        old = o_dense_certificate(decompose(herm_exp(a)), decompose(herm_exp(b)), 2)
        assert c.residual == pytest.approx(old.residual, rel=1e-9)


def test_certificate_scale_invariance():
    a = random_pd(3, 21)
    b = random_pd(3, 22)
    report = pd_report(HermitianMatrix(100.0 * a.mat), HermitianMatrix(0.01 * b.mat))
    assert finite_power_certificate(report, 2).passed


def test_certificate_reads_the_report():
    """The residual is lhs - N_m^(1/m) rhs of the report, bit for bit, with
    N_m counted on the report's exp A."""
    for seed in range(6):
        dim = 2 + seed % 4
        report = gt_check(random_hermitian(dim, seed + 60), random_hermitian(dim, seed + 70))
        for m in (1, 2, 3):
            n_m = count_distinct_spectrum(report.exp_a, m).distinct_count
            c = finite_power_certificate(report, m)
            assert c.residual == report.lhs - n_m ** (1.0 / m) * report.rhs


# ------------------------------------- exp decompositions, against eigh --
# gt_check takes exp A and exp B from the decompositions of A and B, with
# A's and B's clusters. The route it replaced decomposed the dense
# exponentials again; that route, decompose(herm_exp(x)), stays the oracle
# for the names and verdicts of the checks. The clustering gap is relative,
# and exp turns a gap g at x into the relative gap ~g of e^x, no narrower
# than x's own g / |x| where |x| >= 1: on the pairs below, the dense route
# merges no gap that A's and B's clusters keep.


def _rotated(values, seed):
    u = random_unitary(len(values), seed)
    return construct_hermitian((u * np.asarray(values, dtype=float)) @ u.conj().T)


def _near_degenerate_pair():
    # against the threshold cluster_tol * max(|w_i|, |w_{i+1}|), A has gaps at
    # 0.6x (at -1) and 3x (at 2) and B one at 3x (at -3); exp moves none of
    # them across it, so both routes merge A's 0.6x gap and keep the others
    t_a = 1e-8 * 2.0
    t_b = 1e-8 * 3.0
    return (
        _rotated([-1.0, -1.0 + 0.3 * t_a, 2.0 - 3.0 * t_a, 2.0], 11),
        _rotated([-3.0, -3.0 + 3.0 * t_b, 0.0, 1.0], 12),
    )


EXP_ROUTE_PAIRS = {
    "generic": lambda: (random_hermitian(4, 3), random_hermitian(4, 5)),
    "degenerate": lambda: (_rotated([1.0, 1.0, 2.0], 1), _rotated([1.0, 1.0, 2.0], 2)),
    "near_degenerate": _near_degenerate_pair,
    # one seed, so one eigenbasis
    "commuting": lambda: (_rotated([0.5, 1.0, 1.0, 3.0], 13), _rotated([2.0, -1.0, 0.25, 0.0], 13)),
}


def _assert_exp_of(exp_dec, dec):
    """exp_dec keeps dec's clusters, at exp of dec's eigenvalues, bit for bit."""
    npt.assert_array_equal(exp_dec.labels, dec.labels)
    npt.assert_array_equal(exp_dec.multiplicities, dec.multiplicities)
    npt.assert_array_equal(exp_dec.eigenvalues, np.exp(dec.eigenvalues))


@pytest.mark.parametrize("name", sorted(EXP_ROUTE_PAIRS))
def test_exp_decompositions_match_the_dense_route(name, tmp_path, capsys):
    a, b = EXP_ROUTE_PAIRS[name]()
    report = gt_check(a, b)
    _assert_exp_of(report.exp_a, decompose(a))
    _assert_exp_of(report.exp_b, decompose(b))
    old_a, old_b = decompose(herm_exp(a)), decompose(herm_exp(b))
    if name == "near_degenerate":
        assert (decompose(a).n, report.exp_a.n, decompose(b).n, report.exp_b.n) == (3, 3, 4, 4)
        assert (old_a.n, old_b.n) == (report.exp_a.n, report.exp_b.n)
    for new, old in ((report.exp_a, old_a), (report.exp_b, old_b)):
        if new.n == old.n:  # where the dense route merges nothing more, it agrees
            npt.assert_allclose(new.eigenvalues, old.eigenvalues, rtol=1e-12, atol=0)

    op = PinchOperator(decompose(herm_exp(b)))
    old_checks = [
        *report.checks,
        *pinching_checks(op, herm_exp(a)),
        o_dense_certificate(old_a, op.base, 2),
    ]
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(pa, a)
    write_matrix(pb, b)
    rc = main(["check", str(pa), str(pb)])
    cert = json.loads(capsys.readouterr().out)
    expected = [(c.name, c.passed) for c in old_checks]
    assert rc == (0 if all(passed for _, passed in expected) else 1)
    assert [(c["name"], c["passed"]) for c in cert["checks"]] == expected


def test_exp_decompositions_match_the_dense_route_in_a_stack():
    mats = [random_hermitian(3, s).mat for s in (20, 21, 22)]
    mats += [_rotated([1.0, 1.0, 2.0], 1).mat, _rotated([-3.0, -3.0 + 9e-8, 1.0], 23).mat]
    a = HermitianMatrix(np.stack(mats))
    b = HermitianMatrix(np.stack(mats[::-1]))
    report = gt_check(a, b)
    _assert_exp_of(report.exp_a, decompose(a))
    _assert_exp_of(report.exp_b, decompose(b))
    for i, (ai, bi) in enumerate(zip(a.mat, b.mat)):
        single = gt_check(HermitianMatrix(ai), HermitianMatrix(bi))
        npt.assert_array_equal(report.exp_a.labels[i], single.exp_a.labels)
        npt.assert_array_equal(report.exp_b.labels[i], single.exp_b.labels)
