"""Hermitian eigendecomposition and clustering into distinct eigenvalues.

The decomposition A = sum_i lambda_i P_i over *distinct* eigenvalues is the
backbone of the pinching map. Numerically "distinct" is defined by gap-based
clustering in :func:`decompose` alone: adjacent eigenvalues w_i <= w_{i+1}
merge, transitively, within the relative gap cluster_tol * max(|w_i|, |w_{i+1}|)
or the rounding 2 d eps radius of a d x d spectrum. A cluster only labels
eigenbasis columns; each column keeps its computed eigenvalue. Tensor powers
create many near-coincident products, so the clustering rule is load-bearing.
"""

from dataclasses import dataclass

import numpy as np

from .core import HermitianMatrix, as_array
from .errors import ConvergenceFailure, NotPositiveDefinite
from .policy import DEFAULT_POLICY, NumericPolicy, at_index, batch_result, first_failure, frobenius

__all__ = [
    "SpectralDecomposition",
    "eigh",
    "eigvals",
    "decompose",
    "require_positive_definite",
]


def eigh(a, policy: NumericPolicy = DEFAULT_POLICY):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Backed by LAPACK; a stack ``(..., d, d)`` is decomposed in one call. The
    result is verified per matrix against the policy's residual bounds,
    ``||A V - V diag(w)||_F <= residual_tol (1 + ||A||_F)`` and
    ``||V† V - I||_F <= residual_tol``; if any matrix violates one,
    ConvergenceFailure is raised rather than returning a silently bad basis.
    """
    mat = as_array(a)
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    residual = frobenius(mat @ v - v * w[..., None, :])
    bad = first_failure(residual > policy.residual_tol * (1.0 + frobenius(mat)))
    if bad is not None:
        raise ConvergenceFailure(
            f"eigendecomposition residual {np.asarray(residual)[bad]:.3e} exceeds "
            f"{policy.residual_tol:.1e} * (1 + ||A||_F){at_index(bad)}"
        )
    ortho = frobenius(v.conj().swapaxes(-1, -2) @ v - np.eye(w.shape[-1]))
    bad = first_failure(ortho > policy.residual_tol)
    if bad is not None:
        raise ConvergenceFailure(
            f"eigenbasis orthonormality defect {np.asarray(ortho)[bad]:.3e} exceeds "
            f"{policy.residual_tol:.1e}{at_index(bad)}"
        )
    return w, v


def eigvals(a) -> np.ndarray:
    """Eigenvalues only (ascending), for callers that never need the basis."""
    try:
        return np.linalg.eigvalsh(as_array(a))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue computation failed: {exc}") from exc


@dataclass(frozen=True)
class SpectralDecomposition:
    """A = V diag(values) V†, with its columns grouped into n distinct eigenvalues.

    ``vectors`` is the orthonormal eigenbasis V and ``values`` each column's
    eigenvalue as ``eigh`` computed it (for exp A, exp of A's). ``labels``
    gives the cluster index i of every column; cluster i is a contiguous
    block of columns, P_i = V_i V_i† for that block, and its representative
    lambda_i is the block's smallest value. No projector is ever
    materialized. ``source`` is the decomposed matrix itself.

    For a stack, ``vectors`` is ``(..., d, d)`` and ``labels`` and ``values``
    ``(..., d)``, with cluster indices counted within each matrix, and ``n``
    is an array of per-matrix counts. The derived ``eigenvalues`` (strictly
    increasing within a matrix) and ``multiplicities`` list the clusters of
    every matrix in turn (row-major over the batch axes), so they stay
    one-dimensional.
    """

    source: HermitianMatrix
    values: np.ndarray
    vectors: np.ndarray
    labels: np.ndarray

    @property
    def source_dim(self) -> int:
        return self.source.dim

    @property
    def n(self):
        """Number of distinct eigenvalues (per matrix, for a stack)."""
        return batch_result(self.labels[..., -1] + 1)

    @property
    def _starts(self) -> np.ndarray:
        """Mask of the columns that open a cluster, shaped like ``labels``."""
        return np.diff(self.labels, prepend=-1) > 0

    @property
    def eigenvalues(self) -> np.ndarray:
        """The cluster representatives, each cluster's smallest value."""
        return self.values[self._starts]

    @property
    def multiplicities(self) -> np.ndarray:
        """The cluster sizes, in the order of ``eigenvalues``."""
        return np.diff(np.flatnonzero(self._starts), append=self.labels.size)


def decompose(
    a: HermitianMatrix, policy: NumericPolicy = DEFAULT_POLICY
) -> SpectralDecomposition:
    """Cluster the spectrum of `a` into distinct eigenvalues with projectors.

    Adjacent eigenvalues w_i <= w_{i+1} merge transitively while their gap is
    within cluster_tol * max(|w_i|, |w_{i+1}|) or the rounding 2 d eps radius
    (:meth:`NumericPolicy.merge_gap`). The clusters only label the columns;
    ``values`` is eigh's ``w``. A stack is clustered per matrix, all at once.
    """
    w, v = eigh(a, policy)
    lo, hi = w[..., :-1], w[..., 1:]
    radius = np.maximum(np.abs(w[..., :1]), np.abs(w[..., -1:]))
    rounding = 2 * w.shape[-1] * np.finfo(w.dtype).eps * radius
    # a column starts a cluster when it is the first or its gap is too wide to merge
    starts = np.ones(w.shape, dtype=bool)
    starts[..., 1:] = hi - lo > policy.merge_gap(np.maximum(np.abs(lo), np.abs(hi)), rounding)
    labels = np.cumsum(starts, axis=-1) - 1
    return SpectralDecomposition(source=a, values=w, vectors=v, labels=labels)


def require_positive_definite(
    dec: SpectralDecomposition, policy: NumericPolicy = DEFAULT_POLICY, what: str = "matrix"
) -> None:
    """Raise NotPositiveDefinite unless every eigenvalue clears psd_floor."""
    lo, hi = dec.values[..., 0], dec.values[..., -1]
    floor = policy.psd_floor(lo, hi)
    bad = first_failure(~(lo > floor))
    if bad is not None:
        raise NotPositiveDefinite(
            f"{what} is not positive definite: smallest eigenvalue "
            f"{float(lo[bad]):.6e} does not clear the resolvable "
            f"floor {float(floor[bad]):.6e}{at_index(bad)}"
        )
