import numpy as np
import numpy.testing as npt
import pytest

from pinchgt import (
    NotPositiveDefinite,
    NumericPolicy,
    construct_hermitian,
    decompose,
    eigh,
    eigvals,
    random_hermitian,
    random_pd,
    random_unitary,
    require_positive_definite,
)


def rotated_diag(values, seed):
    """Hermitian matrix with prescribed spectrum in a random basis."""
    u = random_unitary(len(values), seed)
    return construct_hermitian(u @ np.diag(np.asarray(values, dtype=float)) @ u.conj().T)


def test_eigh_reconstructs():
    for seed in range(12):
        dim = 2 + seed % 7
        a = random_hermitian(dim, seed)
        w, v = eigh(a)
        npt.assert_allclose(v @ np.diag(w) @ v.conj().T, a.mat, atol=1e-10)
        npt.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)


def test_eigvals_ascending():
    for seed in range(6):
        w = eigvals(random_hermitian(6, seed))
        assert (np.diff(w) >= 0).all()


def test_decompose_partitions_dimension():
    for seed in range(10):
        dim = 2 + seed % 6
        dec = decompose(random_hermitian(dim, seed))
        assert dec.source_dim == dim
        assert sum(dec.multiplicities) == dim
        assert (np.diff(dec.eigenvalues) > 0).all()
        npt.assert_allclose(dec.reconstruct().mat, random_hermitian(dim, seed).mat,
                            atol=1e-10)


def test_decompose_merges_degenerate_eigenvalues():
    dec = decompose(rotated_diag([1.0, 1.0, 4.0], seed=0))
    assert dec.n == 2
    assert list(dec.multiplicities) == [2, 1]
    npt.assert_allclose(dec.eigenvalues, [1.0, 4.0], atol=1e-10)


def test_cluster_representatives_are_member_means():
    """Each representative is bitwise the mean of its cluster's raw eigenvalues,
    for singleton clusters and clusters of 2, 8 and 20 members."""
    values = np.concatenate(
        [
            [-5.0, 0.0],
            1.0 + 1e-12 * np.arange(2),
            3.0 + 1e-11 * np.arange(8),
            [5.0],
            10.0 + 1e-11 * np.arange(20),
        ]
    )
    a = rotated_diag(values, seed=4)
    dec = decompose(a)
    assert list(dec.multiplicities) == [1, 1, 2, 8, 1, 20]
    w, _ = eigh(a)
    edges = np.concatenate(([0], np.cumsum(dec.multiplicities)))
    expected = np.array([w[lo:hi].mean() for lo, hi in zip(edges[:-1], edges[1:])])
    assert dec.eigenvalues.tobytes() == expected.tobytes()


def test_decompose_merges_near_degenerate():
    # split below cluster_tol * radius collapses to one cluster at its mean
    a = construct_hermitian(np.diag([1.0, 1.0 + 1e-12, 5.0]))
    dec = decompose(a)
    assert dec.n == 2
    assert dec.eigenvalues[0] == pytest.approx(1.0 + 5e-13, abs=1e-15)


def test_decompose_keeps_separated_eigenvalues():
    dec = decompose(construct_hermitian(np.diag([1.0, 1.001, 5.0])))
    assert dec.n == 3


def test_cluster_tolerance_is_policy_driven():
    a = construct_hermitian(np.diag([1.0, 1.001, 5.0]))
    assert decompose(a, NumericPolicy(cluster_tol=1e-2)).n == 2


def projectors(dec):
    """P_i = V_i V_i† for each cluster's contiguous block of eigenbasis columns."""
    blocks = np.split(dec.vectors, np.cumsum(dec.multiplicities)[:-1], axis=1)
    return [blk @ blk.conj().T for blk in blocks]


def test_projectors():
    """Spectral projectors are orthogonal idempotents resolving the identity."""
    for seed in range(6):
        dim = 3 + seed % 4
        dec = decompose(random_hermitian(dim, seed))
        ps = projectors(dec)
        total = np.zeros((dim, dim), dtype=complex)
        for i, p in enumerate(ps):
            npt.assert_allclose(p @ p, p, atol=1e-12)
            assert np.trace(p).real == pytest.approx(dec.multiplicities[i])
            total += p
            for q in ps[i + 1:]:
                npt.assert_allclose(p @ q, np.zeros((dim, dim)), atol=1e-12)
        npt.assert_allclose(total, np.eye(dim), atol=1e-12)


def test_projector_reconstruction():
    for seed in range(6):
        dec = decompose(random_hermitian(5, seed + 50))
        acc = np.zeros((5, 5), dtype=complex)
        for lam, p, mult in zip(dec.eigenvalues, projectors(dec), dec.multiplicities):
            assert np.trace(p).real == pytest.approx(mult)
            acc += lam * p
        npt.assert_allclose(acc, random_hermitian(5, seed + 50).mat, atol=1e-10)


def test_distinct_count():
    assert decompose(rotated_diag([2.0, 2.0, 2.0], 1)).n == 1
    assert decompose(rotated_diag([1.0, 2.0, 3.0], 2)).n == 3


def test_positive_definite_predicate():
    require_positive_definite(decompose(random_pd(4, 0)))
    ind = decompose(construct_hermitian(np.diag([1.0, -0.5])))
    with pytest.raises(NotPositiveDefinite, match="test operand"):
        require_positive_definite(ind, what="test operand")
    sing = decompose(construct_hermitian(np.diag([0.0, 1.0])))
    with pytest.raises(NotPositiveDefinite):
        require_positive_definite(sing)


def test_column_weights_expand_multiplicities():
    dec = decompose(rotated_diag([1.0, 1.0, 4.0], 3))
    w = dec.column_weights(np.array([10.0, 20.0]))
    npt.assert_array_equal(w, [10.0, 10.0, 20.0])
