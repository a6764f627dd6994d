"""Matrix functions of Hermitian operands by spectral functional calculus.

exp and log are computed as sum_i f(lambda_i) P_i on the *clustered*
decomposition rather than by scaling-and-squaring: the decomposition is
already required by the pinching machinery, and this keeps exp/log exactly
consistent with the projectors used elsewhere. exp A keeps A's clusters.
"""

import dataclasses

import numpy as np

from .core import HermitianMatrix
from .errors import DomainError
from .policy import DEFAULT_POLICY, NumericPolicy
from .spectral import SpectralDecomposition, _synthesize, decompose, require_positive_definite

__all__ = [
    "apply_to_decomposition",
    "herm_exp",
    "herm_log",
]


def apply_to_decomposition(f, dec: SpectralDecomposition) -> HermitianMatrix:
    """sum_i f(lambda_i) P_i for an already-computed decomposition (or a stack).

    `f` is a scalar function, evaluated once per distinct eigenvalue; for a
    stack, once per distinct eigenvalue of each matrix.
    """
    try:
        values = np.array([float(f(float(lam))) for lam in dec.eigenvalues])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"function undefined at an eigenvalue: {exc}") from exc
    return _synthesize(dec.vectors, _column_values(dec, values))


def _column_values(dec: SpectralDecomposition, values: np.ndarray) -> np.ndarray:
    """One value per distinct eigenvalue, expanded to one per column; all must be finite."""
    if not np.isfinite(values).all():
        bad = dec.eigenvalues[~np.isfinite(values)]
        raise DomainError(f"function not finite at eigenvalue(s) {bad}")
    return dec.column_weights(values)


def _exp_decomposition(dec: SpectralDecomposition) -> SpectralDecomposition:
    """exp A from the decomposition of A: A's basis and clusters, exp of its cluster means."""
    with np.errstate(over="ignore"):  # _column_values reports an overflow as DomainError
        values = np.exp(dec.eigenvalues)
    w = _column_values(dec, values)
    return dataclasses.replace(dec, source=_synthesize(dec.vectors, w), eigenvalues=values)


def herm_exp(a: HermitianMatrix, policy: NumericPolicy = DEFAULT_POLICY) -> HermitianMatrix:
    """Matrix exponential of a Hermitian matrix; positive definite unless exp underflows to 0."""
    return _exp_decomposition(decompose(a, policy)).source


def herm_log(a: HermitianMatrix, policy: NumericPolicy = DEFAULT_POLICY) -> HermitianMatrix:
    """Matrix logarithm of a positive definite Hermitian matrix.

    Positive definiteness is judged on the clustered eigenvalues against
    the policy's PSD slack; PSD-but-singular input is rejected, since its
    logarithm would be unbounded.
    """
    dec = decompose(a, policy)
    require_positive_definite(dec, policy, what="logarithm operand")
    return apply_to_decomposition(np.log, dec)
