import math

import numpy as np
import numpy.testing as npt
import pytest

from pinchgt import (
    DomainError,
    HermitianMatrix,
    NotPositiveDefinite,
    apply_to_decomposition,
    construct_hermitian,
    decompose,
    gt_check,
    random_hermitian,
    random_pd,
)

from dense_routes import herm_exp, herm_log


def naive_exp(mat, terms=60):
    """Power series, independent of the spectral route."""
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ mat / k
        out = out + term
    return out


def test_exp_matches_power_series():
    for seed in range(8):
        a = HermitianMatrix(0.5 * random_hermitian(4, seed).mat)  # keep the series well converged
        npt.assert_allclose(herm_exp(a).mat, naive_exp(a.mat), atol=1e-12)


def test_exp_of_zero_is_identity():
    z = construct_hermitian(np.zeros((3, 3)))
    npt.assert_allclose(herm_exp(z).mat, np.eye(3))


def test_exp_of_diagonal():
    a = construct_hermitian(np.diag([0.0, 1.0, -2.0]))
    npt.assert_allclose(herm_exp(a).mat, np.diag([1.0, math.e, math.exp(-2.0)]))


def test_log_inverts_exp():
    for seed in range(8):
        a = random_hermitian(4, seed + 10)
        npt.assert_allclose(herm_log(herm_exp(a)).mat, a.mat, atol=1e-9)


def test_exp_inverts_log():
    for seed in range(8):
        a = random_pd(5, seed)
        npt.assert_allclose(herm_exp(herm_log(a)).mat, a.mat, atol=1e-9)


def test_log_requires_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        herm_log(construct_hermitian(np.diag([1.0, -1.0])))
    with pytest.raises(NotPositiveDefinite):
        herm_log(construct_hermitian(np.diag([0.0, 1.0])))


def test_exp_commutes_with_operand():
    a = random_hermitian(5, 99)
    e = herm_exp(a)
    npt.assert_allclose(e.mat @ a.mat, a.mat @ e.mat, atol=1e-10)


def test_custom_function():
    a = construct_hermitian(np.diag([1.0, 4.0, 9.0]))
    r = apply_to_decomposition(np.sqrt, decompose(a))
    npt.assert_allclose(r.mat, np.diag([1.0, 2.0, 3.0]), atol=1e-12)


def test_function_respects_clusters():
    # degenerate eigenvalues get one function evaluation, not two drifting ones
    a = construct_hermitian(np.diag([2.0, 2.0, 3.0]))
    dec = decompose(a)
    r = apply_to_decomposition(lambda x: x * x, dec)
    npt.assert_allclose(r.mat, np.diag([4.0, 4.0, 9.0]), atol=1e-12)


def test_domain_error_on_raising_function():
    a = construct_hermitian(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        apply_to_decomposition(np.log, decompose(a))
    with pytest.raises(DomainError):
        apply_to_decomposition(lambda x: 1.0 / (x - 1.0), decompose(HermitianMatrix(np.eye(2))))


def test_domain_error_on_non_finite_result():
    a = construct_hermitian(np.diag([0.0, 1.0]))
    with pytest.raises(DomainError):
        apply_to_decomposition(lambda x: np.where(x == 0.0, np.nan, x), decompose(a))


def test_log_of_a_singular_matrix_is_a_domain_error():
    """log 0 is reported as DomainError naming the eigenvalue, with no RuntimeWarning."""
    a = construct_hermitian(np.diag([0.0, 1.0]))
    with pytest.raises(DomainError, match=r"not finite at eigenvalue\(s\) \[0\.\]"):
        apply_to_decomposition(np.log, decompose(a))


def test_exp_overflow_is_a_domain_error():
    """exp overflows past about 709.78; gt_check takes its factors by the same route."""
    big = construct_hermitian(np.diag([0.0, 800.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match="not finite at eigenvalue"):
            herm_exp(big)
        with pytest.raises(DomainError, match="not finite at eigenvalue"):
            gt_check(big, HermitianMatrix(np.eye(2)))
