import math

import numpy as np
import numpy.testing as npt
import pytest

from pinchgt import (
    DimensionMismatch,
    NotPositiveDefinite,
    binomial_bound,
    chain_checks,
    chain_trace,
    construct_hermitian,
    convergence_study,
    count_distinct_spectrum,
    decompose,
    finite_power_certificate,
    gt_check,
    herm_exp,
    identity,
    random_hermitian,
    random_pd,
    scale,
)

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
    r = gt_check(a, identity(2))
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
        gt_check(identity(2), identity(3))


def test_chain_matches_brute_force():
    for seed in range(5):
        a = random_pd(2, seed)
        b = random_pd(2, seed + 11)
        for m in (1, 2, 3):
            ct = chain_trace(a, b, m)
            s0, s0_t, t_p, target = o_chain_points(a.mat, b.mat, m)
            assert ct.s0 == pytest.approx(s0, abs=1e-10)
            assert ct.s0_tensorized == pytest.approx(s0_t, abs=1e-10)
            assert ct.t_pinched == pytest.approx(t_p, abs=1e-9)
            assert ct.target == pytest.approx(target, abs=1e-10)


def test_chain_structure():
    a = construct_hermitian(np.diag([1.0, 2.0]))
    b = construct_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
    ct = chain_trace(a, b, 3)
    assert ct.m == 3 and ct.full_matrix_tier
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
            for _, c in chain_checks([chain_trace(a, b, m)]):
                assert c.passed, f"{c.name} failed at m={m}: {c.residual} > {c.tolerance}"


def test_chain_cap_controls_full_tier():
    a = random_pd(2, 1)
    b = random_pd(2, 2)
    full = chain_trace(a, b, 2, cap=4)
    assert full.full_matrix_tier and full.s0_tensorized is not None
    skipped = chain_trace(a, b, 3, cap=4)
    assert not skipped.full_matrix_tier
    assert skipped.s0_tensorized is None and skipped.t_pinched is None
    # combinatorial columns survive the skip
    assert skipped.bound == pytest.approx(
        skipped.target + math.log(skipped.spectrum_count) / 3.0
    )


def test_chain_rejects_bad_inputs():
    a = random_pd(2, 0)
    with pytest.raises(ValueError):
        chain_trace(a, a, 0)
    with pytest.raises(DimensionMismatch):
        chain_trace(a, random_pd(3, 0), 1)
    with pytest.raises(NotPositiveDefinite):
        chain_trace(a, construct_hermitian(np.diag([1.0, -1.0])), 1)


def test_chain_at_large_magnitudes():
    # huge but well-conditioned operands; log-domain arithmetic keeps every
    # reported quantity finite and accurate
    a = construct_hermitian(np.diag([math.exp(150.0), math.exp(160.0)]))
    b = scale(2.0, identity(2))
    ct = chain_trace(a, b, 1)
    expect = 160.0 + math.log(2.0) + math.log1p(math.exp(-10.0))
    assert ct.s0 == pytest.approx(expect, abs=1e-9)
    assert ct.target == pytest.approx(expect, abs=1e-9)
    assert math.isfinite(ct.bound)


def test_chain_rejects_unresolvable_conditioning():
    # a positive spectrum spanning ~43 orders of magnitude cannot be
    # certified positive definite in double precision
    a = construct_hermitian(np.diag([math.exp(200.0), math.exp(300.0)]))
    with pytest.raises(NotPositiveDefinite):
        chain_trace(a, identity(2), 1)


def test_convergence_study():
    a = random_pd(2, 5)
    b = random_pd(2, 6)
    rows = convergence_study(a, b, [1, 2, 4, 8])
    assert [ct.m for ct in rows] == [1, 2, 4, 8]
    bounds = [ct.bound for ct in rows]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(ct.s0 == pytest.approx(rows[0].s0) for ct in rows)


def test_convergence_study_rows_equal_chain_trace():
    a = random_pd(3, 11)
    b = random_pd(3, 12)
    rows = convergence_study(a, b, [1, 2, 3, 5], cap=27)
    assert rows == [chain_trace(a, b, m, cap=27) for m in [1, 2, 3, 5]]
    assert [ct.full_matrix_tier for ct in rows] == [True, True, True, False]


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


def test_finite_power_certificate():
    for seed in range(10):
        dim = 2 + seed % 4
        a = random_pd(dim, seed + 900)
        b = random_pd(dim, seed + 901)
        c = finite_power_certificate(decompose(a), decompose(b), 3)
        lhs, rhs = o_certificate_sides(a, b, 3)
        assert lhs <= rhs * (1.0 + 1e-9)
        assert c.residual == pytest.approx(lhs - rhs, rel=1e-9)
        assert c.passed


def test_certificate_tightens_with_power():
    a = random_pd(3, 77)
    b = random_pd(3, 78)
    gaps = []
    for m in (1, 2, 4, 8):
        lhs, rhs = o_certificate_sides(a, b, m)
        gaps.append(-finite_power_certificate(decompose(a), decompose(b), m).residual)
        assert lhs <= rhs * (1.0 + 1e-9)
    assert gaps[-1] < gaps[0]


def test_certify_arbitrary_hermitian():
    for seed in range(10):
        dim = 2 + seed % 4
        a = random_hermitian(dim, seed)
        b = random_hermitian(dim, seed + 5000)
        c = finite_power_certificate(decompose(herm_exp(a)), decompose(herm_exp(b)), 2)
        assert c.passed


def test_certificate_scale_invariance():
    a = random_pd(3, 21)
    b = random_pd(3, 22)
    assert finite_power_certificate(
        decompose(scale(100.0, a)), decompose(scale(0.01, b)), 2
    ).passed
