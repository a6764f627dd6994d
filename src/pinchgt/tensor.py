"""Tensor powers and spectrum counting for powers.

The m-fold tensor power of a d x d matrix has dimension d^m but only
polynomially many *distinct* eigenvalues: every eigenvalue is an m-fold
product of base eigenvalues, so the count is bounded by the number of
size-m multisets over the n distinct base values, C(m+n-1, n-1). The
counting here is combinatorial (over eigenvalue multisets, in the log
domain) and never materializes the d^m matrix.
"""

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .core import HermitianMatrix
from .errors import SizeOverflow
from .policy import DEFAULT_POLICY, NumericPolicy
from .spectral import SpectralDecomposition, require_positive_definite

__all__ = [
    "DIM_CAP",
    "SpectrumCount",
    "tensor_power",
    "binomial_bound",
    "count_distinct_spectrum",
]

# full-matrix work stays at desk scale; combinatorial counting has no cap
DIM_CAP = 4096

# hard stop for multiset enumeration (count of candidates, not matrix size)
_ENUMERATION_CAP = 2_000_000


def tensor_power(a: HermitianMatrix, m: int, cap: int = DIM_CAP) -> HermitianMatrix:
    """m-fold Kronecker power of a Hermitian matrix."""
    if m < 1:
        raise ValueError(f"power must be a positive integer, got {m}")
    if a.dim**m > cap:
        raise SizeOverflow(f"tensor power dimension {a.dim}**{m} exceeds cap {cap}")
    out = a.mat
    for _ in range(m - 1):
        out = np.kron(out, a.mat)
    return HermitianMatrix(out)


def binomial_bound(m: int, n_distinct: int) -> tuple[int, float]:
    """C(m+n-1, n-1) exactly, plus its log via log-gamma.

    This bounds the distinct eigenvalue count of an m-fold tensor power
    whose base has n distinct eigenvalues; log_value / m -> 0 as m grows,
    which is the polynomial-growth fact the convergence argument needs.
    """
    if m < 1 or n_distinct < 1:
        raise ValueError("arguments must be positive")
    exact = math.comb(m + n_distinct - 1, n_distinct - 1)
    log_value = (
        math.lgamma(m + n_distinct) - math.lgamma(m + 1) - math.lgamma(n_distinct)
    )
    return exact, log_value


@dataclass(frozen=True)
class SpectrumCount:
    """Distinct-eigenvalue count of an m-fold tensor power, with its bound.

    ``distinct_count`` is the exact clustered count, ``d_distinct`` the
    number of distinct base eigenvalues n, and ``log_bound`` the log of
    C(m+n-1, n-1) >= distinct_count.
    """

    m: int
    distinct_count: int
    log_bound: float
    d_distinct: int

    @property
    def log_count(self) -> float:
        return math.log(self.distinct_count)


def count_distinct_spectrum(
    dec: SpectralDecomposition, m: int, policy: NumericPolicy = DEFAULT_POLICY
) -> SpectrumCount:
    """Count the distinct eigenvalues of the m-fold power of a PD base.

    Enumerates the C(m+n-1, n-1) size-m multisets over the n distinct base
    eigenvalues, sums their logs, and clusters the sums with absolute
    tolerance ``m * cluster_tol`` (products compound error multiplicatively,
    so the log-domain tolerance scales with m). The d^m matrix is never
    formed.
    """
    if m < 1:
        raise ValueError(f"power must be a positive integer, got {m}")
    # the sums below are taken in the log domain
    require_positive_definite(dec, policy, what="tensor-power base")
    n = dec.n
    exact_bound, log_bound = binomial_bound(m, n)
    if exact_bound > _ENUMERATION_CAP:
        raise SizeOverflow(
            f"{exact_bound} candidate multisets exceed the enumeration cap "
            f"{_ENUMERATION_CAP}"
        )
    logs = np.log(dec.eigenvalues)
    sums = np.fromiter(
        (sum(combo) for combo in combinations_with_replacement(logs, m)),
        dtype=np.float64,
        count=exact_bound,
    )
    sums.sort()
    tol = m * policy.cluster_tol
    count = 1 + int(np.count_nonzero(np.diff(sums) > tol))
    return SpectrumCount(m=m, distinct_count=count, log_bound=log_bound, d_distinct=n)
