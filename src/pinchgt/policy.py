"""Numeric tolerances and the check record: every tolerance decision reads from here.

``NumericPolicy`` holds the tolerances a caller may override (per run, via
the CLI's ``--tol-*`` flags). The module constants below are the fixed
relative tolerances of the certificate checks; each is scaled by the size
of the operands it judges, as its comment says. A ``Check`` records one such
decision with its residual and tolerance.
"""

from dataclasses import dataclass

import numpy as np

# the commutator norm, and the weighted-trace change under pinching, times
# bilinear_scale: both residuals are bilinear in the two operands
COMMUTATION_TOL = 1e-10
TRACE_TOL = 1e-10
# the two pinch evaluation routes differ only by rounding in an n-term phase
# sum; times n (1 + ||X||_F)
MIXTURE_TOL = 1e-11
# slack for accepting a trace inequality, times (|lhs| + |rhs|)
GT_GAP_TOL = 1e-9
# chain checks, relative to (1 + |value|) of the quantities compared
TENSORIZATION_TOL = 1e-8  # |s0_tensorized - s0|
COLLAPSE_TOL = 1e-7  # |t_pinched - target|
CHAIN_BOUND_TOL = 1e-8  # s0 <= bound
BOUND_MONOTONE_TOL = 1e-12  # bound non-increasing in m
# imaginary residue allowed in tr(AB) of PD operands, times bilinear_scale
TRACE_IMAG_TOL = 1e-12


def bilinear_scale(a: np.ndarray, b: np.ndarray) -> float:
    """(1 + ||A||_F)(1 + ||B||_F), the scale of a residual bilinear in A and B."""
    return (1.0 + float(np.linalg.norm(a))) * (1.0 + float(np.linalg.norm(b)))


@dataclass(frozen=True)
class Check:
    """One certified decision: it passes when ``residual <= tolerance``."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances used throughout the library.

    herm_tol
        Relative tolerance for accepting near-Hermitian input; anything
        worse is rejected rather than symmetrized.
    cluster_tol
        Relative gap below which adjacent eigenvalues are treated as the
        same distinct eigenvalue.
    psd_tol
        Relative slack when accepting a matrix as positive semidefinite,
        measured against the spectral scale of the matrix being judged.
    residual_tol
        Bound on eigendecomposition residuals and on projector identities.
    """

    herm_tol: float = 1e-10
    cluster_tol: float = 1e-8
    psd_tol: float = 1e-9
    residual_tol: float = 1e-9

    def __post_init__(self):
        for name in ("herm_tol", "cluster_tol", "psd_tol", "residual_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")

    def as_dict(self) -> dict:
        return {
            "herm_tol": self.herm_tol,
            "cluster_tol": self.cluster_tol,
            "psd_tol": self.psd_tol,
            "residual_tol": self.residual_tol,
        }


DEFAULT_POLICY = NumericPolicy()
