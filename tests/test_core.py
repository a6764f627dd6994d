import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

from pinchgt import (
    DimensionMismatch,
    HermitianMatrix,
    NotFinite,
    NotHermitian,
    NotSquare,
    NumericPolicy,
    construct_hermitian,
    identity,
    random_hermitian,
    random_pd,
    random_psd,
    random_unitary,
    scale,
)


def test_construct_accepts_exact_hermitian():
    raw = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    a = construct_hermitian(raw)
    npt.assert_allclose(a.mat, raw)
    assert a.dim == 2


def test_construct_symmetrizes_roundoff():
    raw = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
    a = construct_hermitian(raw)
    npt.assert_allclose(a.mat, a.mat.conj().T)


def test_construct_rejects_visible_asymmetry():
    with pytest.raises(NotHermitian):
        construct_hermitian(np.array([[1.0, 1.0], [0.0, 2.0]]))


def test_construct_rejects_non_square():
    with pytest.raises(NotSquare):
        construct_hermitian(np.ones((2, 3)))
    with pytest.raises(NotSquare):
        construct_hermitian(np.ones(4))


def test_construct_rejects_non_finite():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NotFinite):
        construct_hermitian(bad)
    with pytest.raises(NotFinite):
        construct_hermitian(np.array([[np.inf]]))


def test_hermiticity_gate_scales_with_policy():
    raw = np.array([[1.0, 1e-6], [0.0, 1.0]])
    with pytest.raises(NotHermitian):
        construct_hermitian(raw)
    loose = NumericPolicy(herm_tol=1e-3)
    a = construct_hermitian(raw, loose)
    npt.assert_allclose(a.mat[0, 1], 5e-7)


def test_matrix_is_read_only():
    a = identity(3)
    with pytest.raises(ValueError):
        a.mat[0, 0] = 5.0


def test_arithmetic_matches_numpy():
    for seed in range(10):
        a = random_hermitian(4, seed)
        b = random_hermitian(4, seed + 100)
        npt.assert_allclose((a + b).mat, a.mat + b.mat)
        npt.assert_allclose((a - b).mat, a.mat - b.mat)
        npt.assert_allclose(scale(2.5, a).mat, 2.5 * a.mat)
        npt.assert_allclose((0.5 * a).mat, a.mat / 2)
        npt.assert_allclose(a @ b, a.mat @ b.mat)
        assert isinstance(a + b, HermitianMatrix)
        assert a.trace() == pytest.approx(np.trace(a.mat).real)
        assert a.frobenius() == pytest.approx(np.linalg.norm(a.mat))


def test_trace_of_hermitian_is_real_float():
    a = random_hermitian(5, 3)
    assert isinstance(a.trace(), float)


def test_dimension_mismatch_raises():
    a = identity(2)
    b = identity(3)
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a @ b


def test_identity():
    npt.assert_allclose(identity(4).mat, np.eye(4))


def test_random_generators_are_deterministic():
    a1 = random_hermitian(4, 42)
    a2 = random_hermitian(4, 42)
    npt.assert_array_equal(a1.mat, a2.mat)
    a3 = random_hermitian(4, 43)
    assert np.linalg.norm(a1.mat - a3.mat) > 1e-3


def test_random_pd_has_floor():
    for seed in range(8):
        w = np.linalg.eigvalsh(random_pd(5, seed).mat)
        assert w.min() >= 1.0 - 1e-9


def test_random_psd_nonnegative():
    for seed in range(8):
        w = np.linalg.eigvalsh(random_psd(5, seed).mat)
        assert w.min() >= -1e-12


def test_random_unitary_is_unitary():
    for seed in range(8):
        u = random_unitary(4, seed)
        npt.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_policy_validation():
    with pytest.raises(ValueError):
        NumericPolicy(herm_tol=0.0)
    with pytest.raises(ValueError):
        NumericPolicy(psd_tol=-1e-9)
    d = NumericPolicy().as_dict()
    assert set(d) == {"herm_tol", "cluster_tol", "psd_tol", "residual_tol"}


def test_psd_floor_scales_with_the_larger_spectral_end():
    policy = NumericPolicy(psd_tol=1e-6)
    assert policy.psd_floor(0.25, 0.5) == 1e-6  # never below psd_tol itself
    assert policy.psd_floor(-3.0, 2.0) == pytest.approx(3e-6)
    assert policy.psd_floor(0.5, 40.0) == pytest.approx(4e-5)


def test_overflowing_symmetrization_is_not_finite():
    # each entry is finite, but 1e308 + 1e308 overflows to inf
    raw = np.array([[1e308, 0.0], [0.0, 1.0]])
    # the trusted constructor lets numpy report the overflow
    with pytest.warns(RuntimeWarning), pytest.raises(NotFinite):
        HermitianMatrix(raw)
    with pytest.raises(NotFinite):
        construct_hermitian(raw)


def test_asymmetry_gate_holds_for_huge_entries():
    # unscaled, both Frobenius norms overflow to inf and inf > inf is false
    with pytest.raises(NotHermitian):
        construct_hermitian([[1e200, 1e200], [0.0, 1.0]])
    a = construct_hermitian([[1e200, 1e200], [1e200, 1.0]])
    assert a.mat[0, 1] == 1e200


def test_symmetrized_output_is_exactly_hermitian():
    raw = np.array(
        [
            [1.0 + 2.0j, complex(-0.0, -0.0), 3.0 - 1.0j],
            [complex(0.0, -0.0), complex(-2.0, -0.0), 0.5 + 0.25j],
            [3.0 + 1.0j, 0.5 - 0.25j, complex(-0.0, 7.0)],
        ]
    )
    before = raw.copy()
    mat = HermitianMatrix(raw).mat
    npt.assert_array_equal(raw, before)  # the input is not written
    assert (mat == mat.conj().T).all()
    diag = np.diagonal(mat)
    npt.assert_array_equal(diag.real, [1.0, -2.0, 0.0])
    assert (diag.imag == 0.0).all() and not np.signbit(diag.imag).any()


def _fresh_draw(dim, seed, floor):
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    gram = g @ g.conj().T
    return HermitianMatrix(gram + floor * np.eye(dim) if floor else gram)


def test_random_draws_match_a_fresh_philox_generator():
    for seed in (0, 7, 2**64 - 1, 2**64 + 5, 2**128 - 1):
        npt.assert_array_equal(random_pd(3, seed).mat, _fresh_draw(3, seed, 1.0).mat)
        npt.assert_array_equal(random_psd(3, seed).mat, _fresh_draw(3, seed, 0.0).mat)


def test_random_seed_out_of_key_range_raises_value_error():
    for seed in (-1, 2**128):
        with pytest.raises(ValueError):
            random_pd(2, seed)
        with pytest.raises(ValueError):
            random_hermitian(2, seed)


def test_threads_draw_independently():
    """Threads drawing interleaved each get a fresh generator's matrices."""
    seeds = list(range(40))
    expected = {s: (_fresh_draw(4, s, 1.0).mat, _fresh_draw(4, s, 0.0).mat) for s in seeds}
    mismatches = []

    def worker(offset):
        for s in seeds[offset:] + seeds[:offset]:
            for _ in range(5):
                if not (
                    np.array_equal(random_pd(4, s).mat, expected[s][0])
                    and np.array_equal(random_psd(4, s).mat, expected[s][1])
                ):
                    mismatches.append(s)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k * 10,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
