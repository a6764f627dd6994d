"""Spectral pinching and finite tensor-power certificates for the
Golden-Thompson trace inequality tr exp(A+B) <= tr(exp A exp B)."""

from .core import (
    HermitianMatrix,
    construct_hermitian,
    identity,
    random_hermitian,
    random_pd,
    random_psd,
    random_unitary,
    scale,
)
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    MatrixFileError,
    NonRealTrace,
    NotFinite,
    NotHermitian,
    NotPSD,
    NotPositiveDefinite,
    NotSquare,
    PinchError,
    SizeOverflow,
)
from .functions import apply_to_decomposition, herm_exp, herm_log
from .matrixio import load_matrix, matrix_digest, write_matrix
from .pinching import (
    PinchOperator,
    pinch,
    pinch_operator,
    pinch_via_mixture,
    pinching_checks,
)
from .policy import DEFAULT_POLICY, Check, NumericPolicy
from .spectral import (
    SpectralDecomposition,
    decompose,
    eigh,
    eigvals,
    require_positive_definite,
)
from .tensor import (
    DIM_CAP,
    SpectrumCount,
    binomial_bound,
    count_distinct_spectrum,
    tensor_power,
)
from .verify import (
    ChainTrace,
    GTReport,
    chain_checks,
    chain_trace,
    convergence_study,
    finite_power_certificate,
    gt_check,
)

__version__ = "0.1.0"

__all__ = [
    "HermitianMatrix",
    "NumericPolicy",
    "DEFAULT_POLICY",
    "Check",
    "SpectralDecomposition",
    "PinchOperator",
    "SpectrumCount",
    "GTReport",
    "ChainTrace",
    "DIM_CAP",
    "construct_hermitian",
    "identity",
    "scale",
    "random_hermitian",
    "random_pd",
    "random_psd",
    "random_unitary",
    "eigh",
    "eigvals",
    "decompose",
    "require_positive_definite",
    "apply_to_decomposition",
    "herm_exp",
    "herm_log",
    "pinch_operator",
    "pinch",
    "pinch_via_mixture",
    "pinching_checks",
    "tensor_power",
    "binomial_bound",
    "count_distinct_spectrum",
    "gt_check",
    "chain_trace",
    "chain_checks",
    "convergence_study",
    "finite_power_certificate",
    "load_matrix",
    "write_matrix",
    "matrix_digest",
    "PinchError",
    "NotSquare",
    "NotHermitian",
    "NotFinite",
    "DimensionMismatch",
    "ConvergenceFailure",
    "DomainError",
    "NotPositiveDefinite",
    "NotPSD",
    "SizeOverflow",
    "MatrixFileError",
    "NonRealTrace",
]
