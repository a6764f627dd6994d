"""Hermitian eigendecomposition and clustering into distinct eigenvalues.

The decomposition A = sum_i lambda_i P_i over *distinct* eigenvalues is the
backbone of the pinching map and of all matrix functions here. Numerically
"distinct" is defined by gap-based clustering: adjacent eigenvalues merge,
transitively, while their gap stays within ``cluster_tol * max(1, spectral
radius)``. Tensor powers create many near-coincident products, so the
clustering rule is load-bearing, not cosmetic.
"""

from dataclasses import dataclass

import numpy as np

from .core import HermitianMatrix, as_array
from .errors import ConvergenceFailure, NotPositiveDefinite
from .policy import DEFAULT_POLICY, NumericPolicy

__all__ = [
    "SpectralDecomposition",
    "eigh",
    "eigvals",
    "decompose",
    "is_positive_definite",
]


def eigh(a, policy: NumericPolicy = DEFAULT_POLICY):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Backed by LAPACK. The result is verified against the policy's residual
    bounds, ``||A V - V diag(w)||_F <= residual_tol (1 + ||A||_F)`` and
    ``||V† V - I||_F <= residual_tol``; a violation raises
    ConvergenceFailure rather than returning a silently bad basis.
    """
    mat = as_array(a)
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    a_norm = np.linalg.norm(mat)
    residual = np.linalg.norm(mat @ v - v * w)
    if residual > policy.residual_tol * (1.0 + a_norm):
        raise ConvergenceFailure(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{policy.residual_tol:.1e} * (1 + ||A||_F)"
        )
    gram = v.conj().T @ v
    gram.flat[:: len(w) + 1] -= 1.0
    ortho = np.linalg.norm(gram)
    if ortho > policy.residual_tol:
        raise ConvergenceFailure(
            f"eigenbasis orthonormality defect {ortho:.3e} exceeds {policy.residual_tol:.1e}"
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
    """A = sum_i lambda_i P_i over the n distinct (clustered) eigenvalues.

    ``eigenvalues`` holds the strictly increasing cluster representatives
    (means of the clustered raw eigenvalues) and ``multiplicities`` the
    cluster sizes. ``vectors`` is the orthonormal eigenbasis with cluster i
    occupying a contiguous block of columns; P_i is V_i V_i† for that block.
    No projector is ever materialized, so a high-dimensional decomposition
    with many clusters costs eigenvector storage, never n projector matrices.
    ``source`` is the decomposed matrix itself, kept for callers that need
    both the matrix and its spectrum.
    """

    source: HermitianMatrix
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    vectors: np.ndarray

    @property
    def source_dim(self) -> int:
        return self.source.dim

    @property
    def n(self) -> int:
        """Number of distinct eigenvalues."""
        return len(self.eigenvalues)

    def spectral_radius(self) -> float:
        return max(abs(float(self.eigenvalues[0])), abs(float(self.eigenvalues[-1])))

    def column_weights(self, values) -> np.ndarray:
        """Expand one value per distinct eigenvalue to one per basis column."""
        return np.repeat(np.asarray(values, dtype=np.float64), self.multiplicities)

    def reconstruct(self) -> HermitianMatrix:
        """sum_i lambda_i P_i, the source matrix up to the residual bound."""
        weights = self.column_weights(self.eigenvalues)
        return HermitianMatrix((self.vectors * weights) @ self.vectors.conj().T)


def decompose(
    a: HermitianMatrix, policy: NumericPolicy = DEFAULT_POLICY
) -> SpectralDecomposition:
    """Cluster the spectrum of `a` into distinct eigenvalues with projectors.

    Adjacent eigenvalues merge transitively while the gap stays within
    ``cluster_tol * max(1, spectral radius)``; each cluster's representative
    eigenvalue is the mean of its members (which minimizes reconstruction
    error for the multiplicity-weighted sum).
    """
    w, v = eigh(a, policy)
    radius = max(abs(float(w[0])), abs(float(w[-1])))
    gap = policy.cluster_tol * max(1.0, radius)
    # cluster i spans w[edges[i] : edges[i + 1]]; a gap above `gap` starts one
    edges = np.concatenate(([0], np.flatnonzero(w[1:] - w[:-1] > gap) + 1, [len(w)]))
    sizes = edges[1:] - edges[:-1]
    # the mean of a singleton is its one value, so only larger clusters average
    reps = w[edges[:-1]]
    for i in np.flatnonzero(sizes > 1):
        reps[i] = w[edges[i] : edges[i + 1]].mean()
    return SpectralDecomposition(
        source=a,
        eigenvalues=reps,
        multiplicities=sizes,
        vectors=v,
    )


def is_positive_definite(
    dec: SpectralDecomposition, policy: NumericPolicy = DEFAULT_POLICY
) -> bool:
    """PD judged on clustered eigenvalues: all above psd_tol * spectral scale."""
    floor = policy.psd_tol * max(1.0, dec.spectral_radius())
    return bool(np.all(dec.eigenvalues > floor))


def require_positive_definite(
    dec: SpectralDecomposition, policy: NumericPolicy = DEFAULT_POLICY, what: str = "matrix"
) -> None:
    if not is_positive_definite(dec, policy):
        floor = policy.psd_tol * max(1.0, dec.spectral_radius())
        raise NotPositiveDefinite(
            f"{what} is not positive definite: smallest clustered eigenvalue "
            f"{float(dec.eigenvalues[0]):.6e} does not clear the resolvable "
            f"floor {floor:.6e}"
        )
