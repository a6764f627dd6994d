"""Golden-Thompson verification.

Two layers:

* :func:`gt_check` evaluates both sides of tr exp(A+B) <= tr(exp A exp B)
  directly for a Hermitian pair.
* :func:`chain_trace` verifies, at a finite tensor power m, every step of
  the pinching argument that proves the inequality: the tensorization
  identity, the pinched collapse to log tr(AB), and the spectrum-count
  upper bound whose (1/m) log C(m+n-1, n-1) correction vanishes as m grows.

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

from .core import HermitianMatrix
from .errors import DimensionMismatch, NonRealTrace
from .functions import apply_to_decomposition, herm_exp, herm_log
from .pinching import PinchOperator, pinch
from .policy import (
    BOUND_MONOTONE_TOL,
    CHAIN_BOUND_TOL,
    COLLAPSE_TOL,
    COMMUTATION_TOL,
    DEFAULT_POLICY,
    GT_GAP_TOL,
    TENSORIZATION_TOL,
    TRACE_IMAG_TOL,
    Check,
    NumericPolicy,
    bilinear_scale,
)
from .spectral import SpectralDecomposition, decompose, eigvals, require_positive_definite
from .tensor import DIM_CAP, count_distinct_spectrum, tensor_power

__all__ = [
    "GTReport",
    "ChainTrace",
    "gt_check",
    "chain_trace",
    "convergence_study",
    "finite_power_certificate",
    "chain_checks",
]


def _logsumexp(w: np.ndarray) -> float:
    m = float(np.max(w))
    return m + math.log(float(np.sum(np.exp(w - m))))


def _log_trace_exp(h: HermitianMatrix) -> float:
    """log tr exp(H) from the eigenvalues of H, stable against overflow."""
    return _logsumexp(eigvals(h))


@dataclass(frozen=True)
class GTReport:
    """Both sides of the trace inequality for one Hermitian pair.

    ``checks`` holds the ``golden_thompson_gap`` check and, for a commuting
    pair, the ``commuting_equality`` check that the two sides agree.
    ``exp_a`` and ``exp_b`` are the two factors of ``rhs``.
    """

    lhs: float  # tr exp(A + B)
    rhs: float  # tr(exp A exp B)
    gap: float  # rhs - lhs; nonnegative up to tolerance iff the inequality holds
    commuting: bool
    checks: tuple[Check, ...]
    exp_a: HermitianMatrix = field(repr=False, compare=False)
    exp_b: HermitianMatrix = field(repr=False, compare=False)

    @property
    def holds(self) -> bool:
        """Whether the inequality holds: the golden_thompson_gap check passed."""
        return self.checks[0].passed


def gt_check(
    a: HermitianMatrix, b: HermitianMatrix, policy: NumericPolicy = DEFAULT_POLICY
) -> GTReport:
    """Evaluate tr exp(A+B) vs tr(exp A exp B) for a Hermitian pair.

    Neither operand needs to be positive definite. `holds` allows the gap
    a relative slack of GT_GAP_TOL; `commuting` flags pairs whose
    commutator vanishes to working precision, for which the two sides
    agree exactly.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    lhs = float(np.sum(np.exp(eigvals(a.mat + b.mat))))
    ea = herm_exp(a, policy)
    eb = herm_exp(b, policy)
    rhs = float(np.trace(ea.mat @ eb.mat).real)
    gap = rhs - lhs
    gap_tol = GT_GAP_TOL * (abs(lhs) + abs(rhs))
    checks = (Check("golden_thompson_gap", lhs - rhs, gap_tol),)
    commutator = float(np.linalg.norm(a.mat @ b.mat - b.mat @ a.mat))
    commuting = commutator <= COMMUTATION_TOL * bilinear_scale(a.mat, b.mat)
    if commuting:
        checks += (Check("commuting_equality", abs(gap), gap_tol),)
    return GTReport(
        lhs=lhs, rhs=rhs, gap=gap, commuting=commuting, checks=checks, exp_a=ea, exp_b=eb
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
    full_matrix_tier: bool


def _log_trace_product(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """log tr(AB) for PD operands; the trace is real and positive."""
    t = complex(np.trace(a.mat @ b.mat))
    if abs(t.imag) > TRACE_IMAG_TOL * bilinear_scale(a.mat, b.mat):
        raise NonRealTrace(
            f"tr(AB) has imaginary residue {t.imag:.3e} beyond tolerance"
        )
    return math.log(t.real)


def _require_power(m: int) -> None:
    if m < 1:
        raise ValueError(f"power must be a positive integer, got {m}")


def _pd_pair_terms(
    dec_a: SpectralDecomposition, dec_b: SpectralDecomposition, policy: NumericPolicy
) -> tuple[np.ndarray, float]:
    """The power-independent terms of the chain and the certificate for a PD pair.

    Returns the eigenvalues of log A + log B and log tr(AB).
    """
    if dec_a.source_dim != dec_b.source_dim:
        raise DimensionMismatch(
            f"dimensions differ: {dec_a.source_dim} vs {dec_b.source_dim}"
        )
    require_positive_definite(dec_a, policy, what="first operand")
    require_positive_definite(dec_b, policy, what="second operand")
    log_a = apply_to_decomposition(np.log, dec_a)
    log_b = apply_to_decomposition(np.log, dec_b)
    w = eigvals(log_a + log_b)
    return w, _log_trace_product(dec_a.source, dec_b.source)


def chain_trace(
    a: HermitianMatrix,
    b: HermitianMatrix,
    m: int,
    policy: NumericPolicy = DEFAULT_POLICY,
    cap: int = DIM_CAP,
) -> ChainTrace:
    """Evaluate every step of the pinching chain at tensor power m.

    `s0` and `target` are always computed. The tensorized and pinched
    middle terms materialize d^m-dimensional operators and are only
    evaluated while d^m <= cap. The spectrum-count bound is combinatorial
    and has no cap.
    """
    return _chain_rows(a, b, [m], policy, cap)[0]


def _chain_rows(
    a: HermitianMatrix,
    b: HermitianMatrix,
    ms: list[int],
    policy: NumericPolicy,
    cap: int,
) -> list[ChainTrace]:
    """Chain rows at the powers ms, with A and B decomposed once and the
    power-independent s0 and target computed once."""
    dec_a, dec_b = decompose(a, policy), decompose(b, policy)
    _require_power(min(ms))
    w, target = _pd_pair_terms(dec_a, dec_b, policy)
    s0 = _logsumexp(w)
    rows = []
    for m in ms:
        spectrum = count_distinct_spectrum(dec_a, m, policy)
        full_tier = a.dim**m <= cap
        s0_tensorized, t_pinched = (
            _full_tier_terms(a, b, m, policy, cap) if full_tier else (None, None)
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
                full_matrix_tier=full_tier,
            )
        )
    return rows


def _full_tier_terms(
    a: HermitianMatrix, b: HermitianMatrix, m: int, policy: NumericPolicy, cap: int
) -> tuple[float, float]:
    """s0_tensorized and t_pinched from the d^m-dimensional tensor powers."""
    a_m = tensor_power(a, m, cap=cap)
    b_m = tensor_power(b, m, cap=cap)
    dec_bm = decompose(b_m, policy)
    log_am = herm_log(a_m, policy)
    log_bm = apply_to_decomposition(np.log, dec_bm)
    s0_tensorized = _log_trace_exp(log_am + log_bm) / m
    pinched = pinch(PinchOperator(dec_bm), a_m)
    log_pinched = herm_log(pinched, policy)
    return s0_tensorized, _log_trace_exp(log_pinched + log_bm) / m


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
        if ct.full_matrix_tier:
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
    """One ChainTrace per power, for an ascending list of powers.

    Each row equals ``chain_trace(a, b, m, policy, cap=cap)``; A and B are
    decomposed once and the power-independent terms computed once.
    """
    ms = [int(m) for m in m_list]
    if not ms:
        raise ValueError("m_list must be non-empty")
    if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise ValueError(f"m_list must be strictly ascending, got {ms}")
    return _chain_rows(a, b, ms, policy, cap)


def finite_power_certificate(
    dec_a: SpectralDecomposition,
    dec_b: SpectralDecomposition,
    m: int,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Check:
    """Finite-m certificate: tr exp(log A + log B) <= N_m^(1/m) tr(AB).

    Takes the decompositions of the PD pair A, B. N_m is the
    distinct-spectrum count of the m-th tensor power of A; the residual is
    lhs - rhs. The certificate's m -> infinity limit is the trace
    inequality itself; fed exp A and exp B (always PD) for arbitrary
    Hermitian A, B, that limit is tr exp(A+B) <= tr(exp A exp B). Never
    materializes tensor powers.
    """
    _require_power(m)
    w, target = _pd_pair_terms(dec_a, dec_b, policy)
    spectrum = count_distinct_spectrum(dec_a, m, policy)
    lhs = float(np.sum(np.exp(w)))
    rhs = spectrum.distinct_count ** (1.0 / m) * math.exp(target)
    return Check("finite_power_certificate", lhs - rhs, GT_GAP_TOL * (abs(lhs) + abs(rhs)))
