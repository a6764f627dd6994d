"""Golden-Thompson verification.

Two layers:

* :func:`gt_check` evaluates both sides of tr exp(A+B) <= tr(exp A exp B)
  directly for a Hermitian pair.
* :func:`convergence_study` verifies, at each of a list of finite tensor
  powers m, every step of the pinching argument that proves the
  inequality: the tensorization identity, the pinched collapse to
  log tr(AB), and the spectrum-count upper bound whose
  (1/m) log C(m+n-1, n-1) correction vanishes as m grows.

Everything relies on trace monotonicity of H -> tr exp(H) under the
Loewner order (exp itself is not operator monotone), plus operator
monotonicity of log; see the README for the exact statement chain.

Values the chain reports are natural logs: s0 = log tr exp(log A + log B)
is the left end, target = log tr(AB) the right end, and
bound = target + (1/m) log |spec(A^(x)m)| the finite-m upper bound on s0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import HermitianMatrix, _require_same_dim
from .errors import DomainError
from .functions import _map_spectrum, apply_to_decomposition
from .pinching import PinchOperator, pinch
from .policy import (
    BOUND_MONOTONE_TOL,
    CHAIN_BOUND_TOL,
    COLLAPSE_TOL,
    COMMUTATION_TOL,
    DEFAULT_POLICY,
    GT_GAP_TOL,
    TENSORIZATION_TOL,
    Check,
    NumericPolicy,
    at_index,
    batch_result,
    bilinear_scale,
    first_failure,
    frobenius,
)
from .spectral import SpectralDecomposition, decompose, eigvals, require_positive_definite
from .tensor import DIM_CAP, _require_enumerable, count_distinct_spectrum, tensor_power

__all__ = [
    "GTReport",
    "ChainTrace",
    "gt_check",
    "convergence_study",
    "finite_power_certificate",
    "chain_checks",
]


def _log_trace_exp(h: np.ndarray) -> float:
    """log tr exp(H) from the eigenvalues of H, stable against overflow."""
    w = eigvals(h)
    m = float(np.max(w))
    return m + math.log(float(np.sum(np.exp(w - m))))


def _trace_product(x: np.ndarray, y: np.ndarray):
    """tr(XY) for Hermitian X and Y, or one per pair of a stack: its real part,
    since the trace of a product of two Hermitian matrices is real."""
    return np.trace(x @ y, axis1=-2, axis2=-1).real


@dataclass(frozen=True)
class GTReport:
    """Both sides of the trace inequality for one Hermitian pair, or a stack of pairs.

    ``checks`` holds the ``golden_thompson_gap`` check and, for a commuting
    pair, the ``commuting_equality`` check that the two sides agree; in a
    stack it is present when any pair commutes, and it passes with residual
    0 at the pairs that do not. ``exp_a`` and ``exp_b`` decompose the
    two factors of ``rhs`` on A's and B's clusters, with the matrices at
    ``.source``. For a stack, the numbers are arrays over the batch.
    """

    lhs: float  # tr exp(A + B)
    rhs: float  # tr(exp A exp B)
    gap: float  # rhs - lhs; nonnegative up to tolerance iff the inequality holds
    commuting: bool
    checks: tuple[Check, ...]
    exp_a: SpectralDecomposition = field(repr=False, compare=False)
    exp_b: SpectralDecomposition = field(repr=False, compare=False)

    @property
    def holds(self):
        """Whether the inequality holds: the golden_thompson_gap check passed."""
        return self.checks[0].passed


def gt_check(
    a: HermitianMatrix, b: HermitianMatrix, policy: NumericPolicy = DEFAULT_POLICY
) -> GTReport:
    """Evaluate tr exp(A+B) vs tr(exp A exp B) for a Hermitian pair.

    Neither operand needs to be positive definite, but both sides must be
    finite doubles: a pair whose sides overflow raises DomainError.
    `holds` allows the gap a relative slack of GT_GAP_TOL; `commuting`
    flags pairs whose commutator vanishes to working precision, for which
    the two sides agree exactly. Stacks of A and B are checked pair by pair.
    """
    _require_same_dim(a, b)
    ea = _map_spectrum(np.exp, decompose(a, policy))
    eb = _map_spectrum(np.exp, decompose(b, policy))
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.sum(np.exp(eigvals(a.mat + b.mat)), axis=-1)
        rhs = _trace_product(ea.source.mat, eb.source.mat)
    bad = first_failure(~(np.isfinite(lhs) & np.isfinite(rhs)))
    if bad is not None:
        raise DomainError(
            f"tr exp(A+B) = {np.asarray(lhs)[bad]:.6e} and tr(exp A exp B) = "
            f"{np.asarray(rhs)[bad]:.6e} must both be finite{at_index(bad)}"
        )
    gap = rhs - lhs
    gap_tol = GT_GAP_TOL * (np.abs(lhs) + np.abs(rhs))
    checks = (Check("golden_thompson_gap", lhs - rhs, gap_tol),)
    commutator = frobenius(a.mat @ b.mat - b.mat @ a.mat)
    commuting = commutator <= COMMUTATION_TOL * bilinear_scale(a.mat, b.mat)
    if np.any(commuting):
        checks += (Check("commuting_equality", np.where(commuting, np.abs(gap), 0.0), gap_tol),)
    return GTReport(
        lhs=batch_result(lhs),
        rhs=batch_result(rhs),
        gap=batch_result(gap),
        commuting=batch_result(commuting),
        checks=checks,
        exp_a=ea,
        exp_b=eb,
    )


@dataclass(frozen=True)
class ChainTrace:
    """Per-step numeric record of the pinching chain at tensor power m.

    All values are natural logs. `s0_tensorized` and `t_pinched` need the
    d^m-dimensional operators; they are None when the full-matrix tier was
    skipped (d^m above the cap). `bound` = target + (1/m) log N_m uses the
    combinatorial spectrum count N_m and is available at any m, and
    `gap_bound` = (1/m) log C(m+n-1, n-1) is its analytic ceiling.
    """

    m: int
    s0: float
    s0_tensorized: float | None
    t_pinched: float | None
    target: float
    bound: float
    gap_bound: float
    spectrum_count: int


def _full_tier_terms(
    a: HermitianMatrix, b: HermitianMatrix, m: int, policy: NumericPolicy, cap: int
) -> tuple[float, float]:
    """s0_tensorized and t_pinched from the d^m-dimensional tensor powers."""
    a_m = tensor_power(a, m, cap=cap)
    dec_bm = decompose(tensor_power(b, m, cap=cap), policy)
    log_am = apply_to_decomposition(np.log, decompose(a_m, policy))
    log_bm = apply_to_decomposition(np.log, dec_bm)
    s0_tensorized = _log_trace_exp(log_am.mat + log_bm.mat) / m
    pinched = pinch(PinchOperator(dec_bm), a_m)
    log_pinched = apply_to_decomposition(np.log, decompose(pinched, policy))
    return s0_tensorized, _log_trace_exp(log_pinched.mat + log_bm.mat) / m


def chain_checks(rows: list[ChainTrace]) -> list[tuple[int, Check]]:
    """(m, check) pairs for a sequence of chain rows, in row order.

    Every row checks the spectrum-count upper bound on s0; full-tier rows
    also check the tensorization identity and the pinched collapse to the
    target; every row after the first checks that the bound did not rise
    from the row before it.
    """
    out = []
    for i, ct in enumerate(rows):
        bound_tol = CHAIN_BOUND_TOL * (1.0 + abs(ct.s0) + abs(ct.bound))
        checks = [Check("chain_upper_bound", ct.s0 - ct.bound, bound_tol)]
        if ct.s0_tensorized is not None:
            tens_tol = TENSORIZATION_TOL * (1.0 + abs(ct.s0))
            checks.append(Check("tensorization_identity", abs(ct.s0_tensorized - ct.s0), tens_tol))
            col_tol = COLLAPSE_TOL * (1.0 + abs(ct.target))
            checks.append(Check("pinched_collapse", abs(ct.t_pinched - ct.target), col_tol))
        if i > 0:
            prev = rows[i - 1].bound
            mono_tol = BOUND_MONOTONE_TOL * (1.0 + abs(prev))
            checks.append(Check("bound_monotone", ct.bound - prev, mono_tol))
        out.extend((ct.m, c) for c in checks)
    return out


def convergence_study(
    a: HermitianMatrix,
    b: HermitianMatrix,
    m_list,
    policy: NumericPolicy = DEFAULT_POLICY,
    cap: int = DIM_CAP,
) -> list[ChainTrace]:
    """One ChainTrace per power, for an ascending list of powers ([m] for one).

    The PD pair A, B is decomposed once, and the power-independent s0 and
    target are computed once. The tensorized and pinched middle terms
    materialize d^m-dimensional operators and are evaluated only while
    d^m <= cap; the spectrum-count bound is combinatorial and has no cap.
    Positivity is gated once, on A and B against psd_floor; the logs of
    the d^m operators of the full tier take their computed eigenvalues as
    they are, and one <= 0 there raises DomainError.
    """
    ms = [int(m) for m in m_list]
    if not ms:
        raise ValueError("m_list must be non-empty")
    if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise ValueError(f"m_list must be strictly ascending, got {ms}")
    _require_same_dim(a, b)
    dec_a, dec_b = decompose(a, policy), decompose(b, policy)
    require_positive_definite(dec_a, policy, what="first operand")
    require_positive_definite(dec_b, policy, what="second operand")
    log_a = apply_to_decomposition(np.log, dec_a)
    log_b = apply_to_decomposition(np.log, dec_b)
    s0 = _log_trace_exp(log_a.mat + log_b.mat)
    target = math.log(_trace_product(a.mat, b.mat))
    _require_enumerable(dec_a.n, ms)
    rows = []
    for m in ms:
        spectrum = count_distinct_spectrum(dec_a, m, policy)
        s0_tensorized, t_pinched = (
            _full_tier_terms(a, b, m, policy, cap) if a.dim**m <= cap else (None, None)
        )
        rows.append(
            ChainTrace(
                m=m,
                s0=s0,
                s0_tensorized=s0_tensorized,
                t_pinched=t_pinched,
                target=target,
                bound=target + spectrum.log_count / m,
                gap_bound=spectrum.log_bound / m,
                spectrum_count=spectrum.distinct_count,
            )
        )
    return rows


def finite_power_certificate(
    report: GTReport, m: int, policy: NumericPolicy = DEFAULT_POLICY
) -> Check:
    """Finite-m certificate: tr exp(A+B) <= N_m^(1/m) tr(exp A exp B).

    Reads both sides from the GTReport of one Hermitian pair. N_m is the
    distinct-spectrum count of the m-th tensor power of exp A; the residual
    is lhs - rhs. The certificate's m -> infinity limit is the trace
    inequality itself. For a PD pair A, B, the report of gt_check(log A,
    log B) certifies tr exp(log A + log B) <= N_m^(1/m) tr(AB). Never
    materializes tensor powers.
    """
    spectrum = count_distinct_spectrum(report.exp_a, m, policy)
    lhs, rhs = report.lhs, spectrum.distinct_count ** (1.0 / m) * report.rhs
    return Check("finite_power_certificate", lhs - rhs, GT_GAP_TOL * (abs(lhs) + abs(rhs)))
