import math

import numpy as np
import numpy.testing as npt
import pytest

from pinchgt import (
    HermitianMatrix,
    NotPositiveDefinite,
    SizeOverflow,
    binomial_bound,
    construct_hermitian,
    count_distinct_spectrum,
    decompose,
    random_hermitian,
    random_pd,
    random_unitary,
    tensor_power,
)


def test_tensor_power_size_cap_boundary():
    a = random_hermitian(2, 1)
    power = tensor_power(a, 3, cap=8)  # 2**3 is exactly the cap
    assert isinstance(power, HermitianMatrix) and power.dim == 8
    with pytest.raises(SizeOverflow):
        tensor_power(a, 4, cap=8)


def test_tensor_power():
    a = random_hermitian(3, 7)
    npt.assert_array_equal(tensor_power(a, 1).mat, a.mat)
    npt.assert_array_equal(tensor_power(a, 2).mat, np.kron(a.mat, a.mat))
    npt.assert_array_equal(
        tensor_power(a, 3).mat, np.kron(np.kron(a.mat, a.mat), a.mat)
    )


def test_tensor_power_validation():
    a = random_hermitian(2, 0)
    with pytest.raises(ValueError):
        tensor_power(a, 0)
    with pytest.raises(SizeOverflow):
        tensor_power(a, 13)  # 8192 > 4096


def test_tensor_power_spectrum_is_product_spectrum():
    a = construct_hermitian(np.diag([1.0, 2.0]))
    w = np.linalg.eigvalsh(tensor_power(a, 3).mat)
    npt.assert_allclose(np.sort(w), [1, 2, 2, 2, 4, 4, 4, 8])


def test_binomial_bound_values():
    cases = {(1, 2): 2, (2, 2): 3, (6, 2): 7, (2, 3): 6, (6, 4): 84, (3, 1): 1}
    for (m, n), expect in cases.items():
        exact, log_value = binomial_bound(m, n)
        assert exact == expect == math.comb(m + n - 1, n - 1)
        assert log_value == pytest.approx(math.log(expect), rel=1e-12)


def test_binomial_bound_large_stays_finite():
    exact, log_value = binomial_bound(10**6, 5)
    assert exact == math.comb(10**6 + 4, 4)
    assert log_value == pytest.approx(math.log(exact), rel=1e-10)


def count_for(values, m):
    dec = decompose(construct_hermitian(np.diag(np.asarray(values, dtype=float))))
    return count_distinct_spectrum(dec, m)


def test_count_generic_two_eigenvalues():
    # log-independent pair: every product multiset is distinct, count = m + 1
    for m in range(1, 8):
        sc = count_for([1.0, 2.0], m)
        assert sc.distinct_count == m + 1
        assert sc.log_count == pytest.approx(math.log(m + 1))
        assert sc.m == m and sc.d_distinct == 2


def test_count_generic_three_eigenvalues():
    # pairwise products of {1,2,3}: 1,2,3,4,6,9 are all distinct
    assert count_for([1.0, 2.0, 3.0], 2).distinct_count == 6
    assert count_for([1.0, 2.0, 3.0], 3).distinct_count == 10


def test_count_with_multiplicative_collisions():
    # {1,2,4}: products are powers of two, so only 2m+1 distinct values survive
    for m in range(1, 7):
        assert count_for([1.0, 2.0, 4.0], m).distinct_count == 2 * m + 1


def test_count_never_exceeds_bound():
    for seed in range(6):
        a = random_pd(4, seed)
        dec = decompose(a)
        for m in (1, 2, 3, 4):
            sc = count_distinct_spectrum(dec, m)
            exact, _ = binomial_bound(m, dec.n)
            assert sc.distinct_count <= exact
            assert sc.log_count <= sc.log_bound + 1e-12


def test_count_with_degenerate_base():
    u = random_unitary(4, 9)
    a = construct_hermitian(u @ np.diag([1.0, 1.0, 3.0, 3.0]) @ u.conj().T)
    dec = decompose(a)
    assert dec.n == 2
    for m in (1, 2, 5):
        assert count_distinct_spectrum(dec, m).distinct_count == m + 1


def test_count_requires_positive_definite():
    dec = decompose(construct_hermitian(np.diag([1.0, -2.0])))
    with pytest.raises(NotPositiveDefinite):
        count_distinct_spectrum(dec, 2)
    # positive is enough: log's domain, not the resolvable floor psd_floor
    tiny = decompose(construct_hermitian(np.diag([1e-12, 1e4])))
    assert count_distinct_spectrum(tiny, 2).distinct_count == 3


def test_count_refuses_a_stack():
    msg = r"^spectrum count takes one matrix, not a stack of shape \(2,\)$"
    with pytest.raises(ValueError, match=msg):
        count_distinct_spectrum(decompose(random_pd(3, [1, 2])), 2)


def test_count_enumeration_cap():
    dec = decompose(construct_hermitian(np.diag([1.0, 2.0, 3.0, 5.0])))
    count_distinct_spectrum(dec, 6)  # C(9,3) = 84, fine
    with pytest.raises(SizeOverflow):
        count_distinct_spectrum(dec, 300)  # C(303,3) far beyond the cap
    # few enough candidates, but too many terms summed over them
    with pytest.raises(SizeOverflow):
        count_distinct_spectrum(decompose(construct_hermitian(np.diag([1.0, 2.0, 3.0]))), 800)
    with pytest.raises(SizeOverflow):
        count_distinct_spectrum(decompose(construct_hermitian(np.diag([1.0, 2.0]))), 10**6)


def test_count_matches_materialized_spectrum():
    for seed in range(4):
        a = random_pd(3, seed)
        dec = decompose(a)
        for m in (2, 3, 4):
            sc = count_distinct_spectrum(dec, m)
            materialized = decompose(tensor_power(a, m))
            assert sc.distinct_count == materialized.n
