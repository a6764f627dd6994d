"""Matrix functions of Hermitian operands by spectral functional calculus.

exp and log are computed as V f(w) V† on the eigendecomposition rather
than by scaling-and-squaring: the decomposition is already required by the
pinching machinery. f is called once, on the per-column eigenvalues
``values``, so the clustering never changes f(A), and exp A keeps A's
clusters as its labels.
"""

import numpy as np

from .core import HermitianMatrix
from .errors import DomainError

# decompose is not called here: bench/tests reads pinchgt.functions.decompose
# to see that the tracer rebinds every module's reference to it
from .spectral import SpectralDecomposition, decompose

__all__ = ["apply_to_decomposition"]


def apply_to_decomposition(f, dec: SpectralDecomposition) -> HermitianMatrix:
    """V f(w) V† for an already-computed decomposition A = V diag(w) V† (or a stack).

    `f` is an elementwise array function, called once on ``dec.values``, the
    array of each column's eigenvalue. A value that is not finite raises
    DomainError naming the eigenvalues at fault.
    """
    return _map_spectrum(f, dec).source


def _map_spectrum(f, dec: SpectralDecomposition) -> SpectralDecomposition:
    """f(A) on A's basis and clusters: its decomposition for a strictly increasing f (exp, log)."""
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        values = np.asarray(f(dec.values)).astype(np.float64, casting="same_kind", copy=False)
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(f"function not finite at eigenvalue(s) {np.unique(dec.values[bad])}")
    fa = (dec.vectors * values[..., None, :]) @ dec.vectors.conj().swapaxes(-1, -2)
    return SpectralDecomposition(HermitianMatrix(fa), values, dec.vectors, dec.labels)
