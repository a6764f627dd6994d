"""Spectral pinching maps.

A pinching zeroes the off-diagonal blocks of a partitioned matrix. The
*spectral* pinching map of a reference matrix A sends X to
sum_i P_i X P_i over the spectral projectors of A, which is exactly
block-diagonal extraction in the eigenbasis of A. The map has three
defining properties, all checked by :func:`pinching_checks`:

* its output commutes with the reference matrix,
* it preserves the weighted trace tr[X A],
* it dominates X/n in the Loewner order (n = distinct eigenvalue count),
  because it equals the uniform mixture of n dephasing-unitary conjugations.
"""

from dataclasses import dataclass

import numpy as np

from .core import HermitianMatrix, as_array
from .errors import BadPartition, DimensionMismatch, NotPSD
from .policy import (
    COMMUTATION_TOL,
    DEFAULT_POLICY,
    MIXTURE_TOL,
    TRACE_TOL,
    Check,
    NumericPolicy,
    bilinear_scale,
)
from .spectral import SpectralDecomposition, decompose, eigvals

__all__ = [
    "PinchOperator",
    "pinch_operator",
    "block_diagonal_part",
    "pinch",
    "pinch_via_mixture",
    "pinching_checks",
]


@dataclass(frozen=True)
class PinchOperator:
    """The pinching map of a reference matrix, held as its decomposition."""

    base: SpectralDecomposition

    @property
    def n(self) -> int:
        """Number of distinct eigenvalues of the reference matrix."""
        return self.base.n

    @property
    def dim(self) -> int:
        return self.base.source_dim


def pinch_operator(a: HermitianMatrix, policy: NumericPolicy = DEFAULT_POLICY) -> PinchOperator:
    """Build the pinching map of `a` from its clustered decomposition."""
    return PinchOperator(decompose(a, policy))


def block_diagonal_part(m, partition) -> np.ndarray:
    """Zero every off-diagonal block of a square matrix.

    `partition` lists the diagonal block sizes in order; they must be
    positive and sum to the dimension. The discarded part is recoverable
    as ``m - block_diagonal_part(m, partition)``.
    """
    arr = as_array(m)
    sizes = [int(s) for s in partition]
    if any(s <= 0 for s in sizes):
        raise BadPartition(f"block sizes must be positive, got {sizes}")
    if sum(sizes) != arr.shape[0]:
        raise BadPartition(
            f"block sizes {sizes} sum to {sum(sizes)}, expected {arr.shape[0]}"
        )
    out = np.zeros_like(arr)
    start = 0
    for s in sizes:
        out[start : start + s, start : start + s] = arr[start : start + s, start : start + s]
        start += s
    return out


def _require_dim(op: PinchOperator, x: HermitianMatrix):
    if x.dim != op.dim:
        raise DimensionMismatch(f"operand dim {x.dim} != operator dim {op.dim}")


def pinch(op: PinchOperator, x: HermitianMatrix) -> HermitianMatrix:
    """Apply the pinching map: sum_i P_i X P_i.

    Computed as block-diagonal extraction in the eigenbasis of the
    reference matrix, with one block per distinct eigenvalue; this is the
    same map as the projector sum but costs a single basis change.
    """
    _require_dim(op, x)
    v = op.base.vectors
    in_basis = v.conj().T @ x.mat @ v
    pinched = block_diagonal_part(in_basis, op.base.multiplicities)
    return HermitianMatrix(v @ pinched @ v.conj().T)


def pinch_via_mixture(op: PinchOperator, x: HermitianMatrix) -> HermitianMatrix:
    """Apply the pinching map as (1/n) sum_y U_y X U_y†, y = 1..n.

    U_y = sum_u exp(i 2 pi y u / n) P_u, with projector u (1-based, ascending
    eigenvalue order), is diagonal in the eigenbasis of the reference, so
    each conjugation is a Schur product with the outer product of its
    phases there. The n terms sum to one Schur product with
    sum_y phi_y phi_y^*, formed as one (d x n)(n x d) product of the phase
    table: one basis change and O(n d^2) phase work. The phase sum is
    evaluated as such and never replaced by the block mask, so this stays
    an independent route from :func:`pinch`.
    """
    _require_dim(op, x)
    n = op.n
    v = op.base.vectors
    in_basis = v.conj().T @ x.mat @ v
    labels = op.base.column_weights(np.arange(1, n + 1))
    phases = np.exp(2j * np.pi * np.arange(1, n + 1)[:, None] * labels / n)
    mixture = phases.T @ phases.conj()
    return HermitianMatrix(v @ (in_basis * mixture / n) @ v.conj().T)


def pinching_checks(
    op: PinchOperator, x: HermitianMatrix, policy: NumericPolicy = DEFAULT_POLICY
) -> tuple[Check, ...]:
    """The pinching properties and the mixture identity, from one pinch of X.

    In certificate order: the norm of [pinch(X), A]; |tr[pinch(X) A] - tr[X A]|;
    pinch(X) >= X/n as minus the smallest eigenvalue of pinch(X) - X/n; and
    the Frobenius gap to :func:`pinch_via_mixture`. The lower bound is only
    forced for PSD operands, so non-PSD X raises NotPSD before any check.
    """
    _require_dim(op, x)
    w = eigvals(x)
    spectral_scale = max(1.0, abs(float(w[0])), abs(float(w[-1])))
    if float(w[0]) < -policy.psd_tol * spectral_scale:
        raise NotPSD(
            f"operand must be PSD for the lower bound; min eigenvalue {float(w[0]):.6e}"
        )
    a = op.base.reconstruct().mat
    px = pinch(op, x).mat
    bilinear = bilinear_scale(a, x.mat)
    commutation = float(np.linalg.norm(px @ a - a @ px))
    trace = float(abs(np.trace(px @ a) - np.trace(x.mat @ a)))
    dw = eigvals(px - (1.0 / op.n) * x.mat)
    radius = max(1.0, abs(float(dw[0])), abs(float(dw[-1])))
    mixture = float(np.linalg.norm(px - pinch_via_mixture(op, x).mat))
    return (
        Check("pinch_commutes_with_base", commutation, COMMUTATION_TOL * bilinear),
        Check("pinch_preserves_weighted_trace", trace, TRACE_TOL * bilinear),
        Check("pinch_dominates_scaled_operand", -float(dw[0]), policy.psd_tol * radius),
        Check(
            "pinch_equals_dephasing_mixture",
            mixture,
            MIXTURE_TOL * op.n * (1.0 + float(np.linalg.norm(x.mat))),
        ),
    )
