import numpy as np
import numpy.testing as npt
import pytest

from pinchgt import (
    DimensionMismatch,
    NotPSD,
    construct_hermitian,
    pinch,
    pinch_operator,
    pinch_via_mixture,
    pinching_checks,
    random_hermitian,
    random_pd,
    random_psd,
    random_unitary,
    scale,
)
from pinchgt.policy import COMMUTATION_TOL, MIXTURE_TOL, TRACE_TOL, bilinear_scale


def oracle_pinch(base_mat, x_mat, gap=1e-8):
    """Projector-sum pinching straight from numpy's eigendecomposition.

    Shares no code with the library: eigenvectors of adjacent eigenvalues
    are grouped whenever the gap stays under `gap`, each group's projector
    is formed explicitly, and the conjugated terms are summed.
    """
    w, v = np.linalg.eigh(base_mat)
    out = np.zeros_like(x_mat, dtype=complex)
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > gap * max(1.0, np.abs(w).max()):
            cols = v[:, start:i]
            p = cols @ cols.conj().T
            out += p @ x_mat @ p
            start = i
    return out


def test_pinch_matches_projector_sum():
    for seed in range(15):
        dim = 2 + seed % 7
        base = random_pd(dim, seed)
        x = random_hermitian(dim, seed + 500)
        op = pinch_operator(base)
        npt.assert_allclose(pinch(op, x).mat, oracle_pinch(base.mat, x.mat), atol=1e-10)


def test_pinch_with_degenerate_base():
    u = random_unitary(4, 7)
    base = construct_hermitian(u @ np.diag([1.0, 1.0, 2.0, 5.0]) @ u.conj().T)
    x = random_hermitian(4, 11)
    op = pinch_operator(base)
    assert op.n == 3
    npt.assert_allclose(pinch(op, x).mat, oracle_pinch(base.mat, x.mat), atol=1e-10)


def test_pinch_of_diagonal_base_zeroes_offdiagonal():
    base = construct_hermitian(np.diag([1.0, 2.0, 3.0]))
    x = random_hermitian(3, 2)
    px = pinch(pinch_operator(base), x)
    npt.assert_allclose(px.mat, np.diag(np.diag(x.mat)), atol=1e-12)


def test_pinch_is_idempotent():
    for seed in range(6):
        op = pinch_operator(random_pd(5, seed))
        x = random_hermitian(5, seed + 30)
        once = pinch(op, x)
        npt.assert_allclose(pinch(op, once).mat, once.mat, atol=1e-11)


def test_pinch_is_linear():
    op = pinch_operator(random_pd(4, 1))
    x = random_hermitian(4, 2)
    y = random_hermitian(4, 3)
    lhs = pinch(op, scale(2.0, x) + scale(-3.0, y))
    rhs = 2.0 * np.asarray(pinch(op, x).mat) - 3.0 * np.asarray(pinch(op, y).mat)
    npt.assert_allclose(lhs.mat, rhs, atol=1e-11)


def test_pinch_fixes_functions_of_base():
    # anything commuting with the base is left alone; base^2 is the easy case
    base = random_pd(4, 5)
    sq = construct_hermitian(base @ base)
    op = pinch_operator(base)
    npt.assert_allclose(pinch(op, sq).mat, sq.mat, atol=1e-10)


def test_pinch_preserves_trace():
    for seed in range(6):
        op = pinch_operator(random_pd(4, seed))
        x = random_hermitian(4, seed + 60)
        assert np.trace(pinch(op, x).mat).real == pytest.approx(
            np.trace(x.mat).real, abs=1e-10
        )


def test_pinch_dimension_mismatch():
    op = pinch_operator(random_pd(3, 0))
    with pytest.raises(DimensionMismatch):
        pinch(op, random_hermitian(4, 0))


def test_property_commutation():
    for seed in range(10):
        dim = 2 + seed % 6
        op = pinch_operator(random_pd(dim, seed))
        x = random_hermitian(dim, seed + 900)
        a = op.base.reconstruct().mat
        px = pinch(op, x).mat
        residual = np.linalg.norm(px @ a - a @ px)
        assert residual <= COMMUTATION_TOL * bilinear_scale(a, x.mat)


def test_property_trace_preservation():
    for seed in range(10):
        dim = 2 + seed % 6
        op = pinch_operator(random_pd(dim, seed))
        x = random_hermitian(dim, seed + 900)
        a = op.base.reconstruct().mat
        residual = abs(np.trace(pinch(op, x).mat @ a) - np.trace(x.mat @ a))
        assert residual <= TRACE_TOL * bilinear_scale(a, x.mat)


def test_property_lower_bound():
    for seed in range(10):
        dim = 2 + seed % 6
        op = pinch_operator(random_pd(dim, seed))
        lower = pinching_checks(op, random_psd(dim, seed + 900))[2]
        assert lower.name == "pinch_dominates_scaled_operand"
        assert lower.passed


def test_lower_bound_rejects_indefinite_operand():
    op = pinch_operator(random_pd(2, 4))
    with pytest.raises(NotPSD):
        pinching_checks(op, construct_hermitian(np.diag([1.0, -1.0])))


def test_mixture_route_agrees():
    for seed in range(10):
        dim = 2 + seed % 6
        op = pinch_operator(random_pd(dim, seed))
        x = random_hermitian(dim, seed + 123)
        npt.assert_allclose(
            pinch_via_mixture(op, x).mat, pinch(op, x).mat, atol=1e-11
        )
        residual = np.linalg.norm(pinch(op, x).mat - pinch_via_mixture(op, x).mat)
        assert residual <= MIXTURE_TOL * op.n * (1.0 + np.linalg.norm(x.mat))


def test_mixture_route_agrees_at_large_n():
    op = pinch_operator(random_pd(64, 21))
    assert op.n == 64
    x = random_psd(64, 22)
    residual = np.linalg.norm(pinch(op, x).mat - pinch_via_mixture(op, x).mat)
    assert residual <= MIXTURE_TOL * op.n * (1.0 + np.linalg.norm(x.mat))


def test_mixture_with_degeneracy():
    u = random_unitary(5, 3)
    base = construct_hermitian(u @ np.diag([2.0, 2.0, 2.0, 7.0, 9.0]) @ u.conj().T)
    op = pinch_operator(base)
    assert op.n == 3
    x = random_hermitian(5, 8)
    npt.assert_allclose(pinch_via_mixture(op, x).mat, pinch(op, x).mat, atol=1e-11)
