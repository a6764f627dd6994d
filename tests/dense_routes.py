"""exp and log of a dense Hermitian matrix, each from its own decomposition.

The library takes e^A from A's decomposition and gates positivity once, in
``convergence_study``. These are the dense routes it replaced, which the
tests keep as oracles: decompose the matrix itself, then map its spectrum.
"""

import numpy as np

from pinchgt import HermitianMatrix, apply_to_decomposition, decompose, require_positive_definite


def herm_exp(a: HermitianMatrix) -> HermitianMatrix:
    """Matrix exponential of a Hermitian matrix; positive definite unless exp underflows to 0."""
    return apply_to_decomposition(np.exp, decompose(a))


def herm_log(a: HermitianMatrix) -> HermitianMatrix:
    """Matrix logarithm of a positive definite Hermitian matrix.

    Positive definiteness is judged on the eigenvalues against the default
    policy's PSD slack; PSD-but-singular input is rejected, since its
    logarithm would be unbounded.
    """
    dec = decompose(a)
    require_positive_definite(dec, what="logarithm operand")
    return apply_to_decomposition(np.log, dec)
