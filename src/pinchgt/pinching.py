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

Every function takes stacks ``(..., d, d)`` of references and operands as
well as single matrices (see ``policy.py``), pairing them by batch index.
"""

from dataclasses import dataclass

import numpy as np

from .core import HermitianMatrix, _require_same_dim
from .errors import NotPSD
from .policy import (
    COMMUTATION_TOL,
    DEFAULT_POLICY,
    MIXTURE_TOL,
    TRACE_TOL,
    Check,
    NumericPolicy,
    at_index,
    bilinear_scale,
    first_failure,
    frobenius,
)
from .spectral import SpectralDecomposition, eigvals

__all__ = [
    "PinchOperator",
    "pinch",
    "pinch_via_mixture",
    "pinching_checks",
]


@dataclass(frozen=True)
class PinchOperator:
    """The pinching map of a reference matrix A, held as its decomposition:
    ``PinchOperator(decompose(a, policy))``."""

    base: SpectralDecomposition

    @property
    def dim(self) -> int:
        return self.base.source_dim


def _per_matrix(values) -> np.ndarray:
    """Per-matrix values shaped to broadcast against the matrices of a stack."""
    return np.asarray(values)[..., None, None]


def pinch(op: PinchOperator, x: HermitianMatrix) -> HermitianMatrix:
    """Apply the pinching map: sum_i P_i X P_i.

    Computed as block-diagonal extraction in the eigenbasis of the
    reference matrix, with one block per distinct eigenvalue; this is the
    same map as the projector sum but costs a single basis change. The
    blocks are the entries whose row and column share a cluster label.
    """
    _require_same_dim(op.base.source, x)
    v = op.base.vectors
    vh = v.conj().swapaxes(-1, -2)
    in_basis = vh @ x.mat @ v
    labels = op.base.labels
    pinched = np.where(labels[..., :, None] == labels[..., None, :], in_basis, 0)
    return HermitianMatrix(v @ pinched @ vh)


def pinch_via_mixture(op: PinchOperator, x: HermitianMatrix) -> HermitianMatrix:
    """Apply the pinching map as (1/n) sum_y U_y X U_y†, y = 1..n.

    U_y = sum_u exp(i 2 pi y u / n) P_u, with projector u (1-based, ascending
    eigenvalue order), is diagonal in the eigenbasis of the reference, so
    each conjugation is a Schur product with the outer product of its
    phases there. The n terms sum to one Schur product with
    sum_y phi_y phi_y^*, formed as one (d x n)(n x d) product of the phase
    table: one basis change and O(n d^2) phase work. The phase sum is
    evaluated as such and never replaced by the block mask, so this stays
    an independent route from :func:`pinch`. In a stack, the matrices that
    share a count n share one stacked product, so each matrix gets exactly
    its own n-term sum.
    """
    _require_same_dim(op.base.source, x)
    n = np.asarray(op.base.n)
    v = op.base.vectors
    vh = v.conj().swapaxes(-1, -2)
    in_basis = vh @ x.mat @ v
    labels = op.base.labels + 1
    mixture = np.empty_like(in_basis)
    for count in np.unique(n):
        group = n == count
        y = np.arange(1, count + 1)
        phases = np.exp(2j * np.pi * y[:, None] * labels[group][..., None, :] / count)
        mixture[group] = phases.swapaxes(-1, -2) @ phases.conj()
    return HermitianMatrix(v @ (in_basis * mixture / _per_matrix(n)) @ vh)


def pinching_checks(
    op: PinchOperator, x: HermitianMatrix, policy: NumericPolicy = DEFAULT_POLICY
) -> tuple[Check, ...]:
    """The pinching properties and the mixture identity, from one pinch of X.

    In certificate order: the norm of [pinch(X), A]; |tr[pinch(X) A] - tr[X A]|;
    pinch(X) >= X/n as minus the smallest eigenvalue of pinch(X) - X/n; and
    the Frobenius gap to :func:`pinch_via_mixture`. The lower bound is only
    forced for PSD operands, so non-PSD X raises NotPSD before any check;
    in a stack, one non-PSD operand raises for the whole stack.
    """
    _require_same_dim(op.base.source, x)
    w = eigvals(x)
    bad = first_failure(w[..., 0] < -policy.psd_floor(w[..., 0], w[..., -1]))
    if bad is not None:
        raise NotPSD(
            f"operand must be PSD for the lower bound; "
            f"min eigenvalue {float(w[bad][0]):.6e}{at_index(bad)}"
        )
    a = op.base.source.mat
    px = pinch(op, x).mat
    bilinear = bilinear_scale(a, x.mat)
    pa = px @ a
    commutation = frobenius(pa - a @ px)
    shift = np.trace(pa, axis1=-2, axis2=-1) - np.trace(x.mat @ a, axis1=-2, axis2=-1)
    # |shift| as libm's hypot, which is how abs() rounds a complex scalar;
    # np.abs on a complex array may round the last bit differently
    trace = np.hypot(shift.real, shift.imag)
    dw = eigvals(px - (1.0 / _per_matrix(op.base.n)) * x.mat)
    mixture = frobenius(px - pinch_via_mixture(op, x).mat)
    return (
        Check("pinch_commutes_with_base", commutation, COMMUTATION_TOL * bilinear),
        Check("pinch_preserves_weighted_trace", trace, TRACE_TOL * bilinear),
        Check(
            "pinch_dominates_scaled_operand",
            -dw[..., 0],
            policy.psd_floor(dw[..., 0], dw[..., -1]),
        ),
        Check(
            "pinch_equals_dephasing_mixture",
            mixture,
            MIXTURE_TOL * op.base.n * (1.0 + frobenius(x.mat)),
        ),
    )
