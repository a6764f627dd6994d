"""Numeric tolerances and the check record: every tolerance decision reads from here.

``NumericPolicy`` holds the tolerances a caller may override (per run, via
the CLI's ``--tol-*`` flags). The module constants below are the fixed
relative tolerances of the certificate checks; each is scaled by the size
of the operands it judges, as its comment says. A ``Check`` records one such
decision with its residual and tolerance, and refuses numbers that are not
finite, since such a comparison decides nothing.

Every layer follows numpy's stacked convention: an array of shape
``(..., d, d)`` holds one matrix per index of its leading batch axes, and a
plain ``d x d`` matrix is the stack of shape ``()``. A per-matrix result is
then a Python scalar for a single matrix and an array of the batch shape for
a stack; :func:`batch_result`, :func:`frobenius` and :func:`first_failure`
are the helpers every layer shares for that.
"""

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DomainError

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


def batch_result(x):
    """A Python scalar for a single matrix's result, the array for a stack's."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def frobenius(x: np.ndarray):
    """Frobenius norm of a matrix, or one norm per matrix of a stack.

    A single matrix keeps ``np.linalg.norm(x)``, so its rounding is the
    same as before stacks existed. A stack takes the formula that
    ``np.linalg.norm(x, axis=(-2, -1))`` evaluates, without its dispatch.
    """
    if x.ndim == 2:
        return float(np.linalg.norm(x))
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(-2, -1)))


def first_failure(bad) -> tuple[int, ...] | None:
    """Batch index of the first failing matrix; () for a single matrix, None if none failed."""
    bad = np.asarray(bad)
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))


def at_index(index: tuple[int, ...]) -> str:
    """Error-message suffix naming a stack index; empty for a single matrix."""
    return f" at stack index {', '.join(map(str, index))}" if index else ""


def bilinear_scale(a: np.ndarray, b: np.ndarray):
    """(1 + ||A||_F)(1 + ||B||_F), the scale of a residual bilinear in A and B."""
    return (1.0 + frobenius(a)) * (1.0 + frobenius(b))


@dataclass(frozen=True)
class Check:
    """One certified decision: it passes when ``residual <= tolerance``.

    For a stack, ``residual`` and ``tolerance`` are arrays over the batch
    and ``passed`` is a boolean array; for a single matrix all three are
    Python scalars. A residual or tolerance that is not finite raises
    DomainError naming the first such matrix.
    """

    name: str
    residual: float
    tolerance: float

    def __post_init__(self):
        bad = first_failure(~(np.isfinite(self.residual) & np.isfinite(self.tolerance)))
        if bad is not None:
            residual, tolerance = np.broadcast_arrays(self.residual, self.tolerance)
            raise DomainError(
                f"{self.name} is not finite: residual {residual[bad]:.6e}, "
                f"tolerance {tolerance[bad]:.6e}{at_index(bad)}"
            )
        object.__setattr__(self, "residual", batch_result(self.residual))
        object.__setattr__(self, "tolerance", batch_result(self.tolerance))

    @property
    def passed(self):
        return batch_result(np.less_equal(self.residual, self.tolerance))

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
        Relative gap within which adjacent eigenvalues are treated as the
        same distinct eigenvalue; see :meth:`merge_gap`.
    psd_tol
        Relative slack when accepting a matrix as positive semidefinite,
        measured against the spectral scale of the matrix being judged;
        see :meth:`psd_floor`.
    residual_tol
        Bound on eigendecomposition residuals and on projector identities.
    """

    herm_tol: float = 1e-10
    cluster_tol: float = 1e-8
    psd_tol: float = 1e-9
    residual_tol: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0 < value < float("inf")):
                raise ValueError(f"{f.name} must be finite and strictly positive, got {value!r}")

    def psd_floor(self, lo, hi):
        """Positivity slack of a spectrum spanning [lo, hi]: psd_tol * max(1, |lo|, |hi|).

        Takes per-matrix arrays of ends for a stack and returns one floor each.
        """
        return self.psd_tol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))

    def merge_gap(self, scale, floor=0.0):
        """The clustering rule: adjacent sorted values merge while their gap is at most
        max(cluster_tol * scale, floor). Eigenvalues take scale max(|w_i|, |w_{i+1}|)
        and floor 2 d eps radius, their rounding; m-fold log sums take scale m."""
        return np.maximum(self.cluster_tol * scale, floor)

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_POLICY = NumericPolicy()
