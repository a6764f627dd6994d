"""Dense complex Hermitian matrices.

Construction gate, basic algebra, Loewner-order comparison, and seeded
random test instances. Everything here is immutable after construction, so
any operation may run concurrently on shared inputs.
"""

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotHermitian, NotSquare
from .policy import DEFAULT_POLICY, NumericPolicy

__all__ = [
    "HermitianMatrix",
    "construct_hermitian",
    "identity",
    "scale",
    "loewner_leq",
    "random_pd",
    "random_hermitian",
    "random_unitary",
    "as_array",
]


def as_array(x) -> np.ndarray:
    """Entries of `x` as a complex ndarray (HermitianMatrix or array-like)."""
    if isinstance(x, HermitianMatrix):
        return x.mat
    return np.asarray(x, dtype=np.complex128)


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    """(M + M†)/2 with the diagonal imaginary parts zeroed exactly."""
    sym = 0.5 * (mat + mat.conj().T)
    idx = np.arange(sym.shape[0])
    sym[idx, idx] = sym[idx, idx].real
    return sym


class HermitianMatrix:
    """Immutable d x d complex matrix with exact Hermitian symmetry.

    Entries satisfy ``mat[i, j] == conj(mat[j, i])`` bit-exactly and the
    diagonal is exactly real: the constructor symmetrizes unconditionally.
    It trusts its input to be Hermitian up to roundoff; untrusted input
    must go through :func:`construct_hermitian`, which enforces the
    asymmetry tolerance before symmetrizing.
    """

    __slots__ = ("_mat",)

    def __init__(self, mat):
        arr = np.array(mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NotSquare(f"expected a square matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NotFinite("matrix entries must be finite (no NaN/inf)")
        arr = _symmetrized(arr)
        arr.flags.writeable = False
        self._mat = arr

    @property
    def mat(self) -> np.ndarray:
        """Read-only view of the entries."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return np.array(self._mat, copy=True)
        return self._mat.astype(dtype)

    def __add__(self, other):
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        _require_same_dim(self, other)
        return HermitianMatrix(self._mat + other._mat)

    def __sub__(self, other):
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        _require_same_dim(self, other)
        return HermitianMatrix(self._mat - other._mat)

    def __mul__(self, c):
        return scale(c, self)

    __rmul__ = __mul__

    def __matmul__(self, other):
        # product of two Hermitian matrices is general; return a plain array
        other = as_array(other)
        if other.shape[0] != self.dim:
            raise DimensionMismatch(
                f"cannot multiply shapes {self._mat.shape} and {other.shape}"
            )
        return self._mat @ other

    def __rmatmul__(self, other):
        return as_array(other) @ self._mat

    def trace(self) -> float:
        return float(np.trace(self._mat).real)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self._mat))

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"


def _require_same_dim(a: HermitianMatrix, b: HermitianMatrix):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")


def construct_hermitian(raw, policy: NumericPolicy = DEFAULT_POLICY) -> HermitianMatrix:
    """Validating gate from an untrusted complex grid to a HermitianMatrix.

    Accepts input whose asymmetry satisfies
    ``||raw - raw†||_F <= herm_tol * (1 + ||raw||_F)`` and returns the
    exact symmetrization (raw + raw†)/2. Anything worse raises
    NotHermitian: the caller supplied an invalid operand, not a matrix
    perturbed by round-tripping.
    """
    arr = np.asarray(raw, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NotFinite("matrix entries must be finite (no NaN/inf)")
    asym = np.linalg.norm(arr - arr.conj().T)
    limit = policy.herm_tol * (1.0 + np.linalg.norm(arr))
    if asym > limit:
        raise NotHermitian(
            f"asymmetry {asym:.3e} exceeds tolerance {limit:.3e}; "
            "input is not Hermitian"
        )
    return HermitianMatrix(arr)


def identity(dim: int) -> HermitianMatrix:
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return HermitianMatrix(np.eye(dim, dtype=np.complex128))


def scale(c: float, a: HermitianMatrix) -> HermitianMatrix:
    """Real scalar multiple of a Hermitian matrix."""
    c = float(c)
    return HermitianMatrix(c * a.mat)


def loewner_leq(
    a: HermitianMatrix, b: HermitianMatrix, policy: NumericPolicy = DEFAULT_POLICY
) -> bool:
    """Whether a <= b in the Loewner order, i.e. b - a is PSD up to slack.

    The slack is relative to the spectral scale of the difference:
    min eig(b - a) >= -psd_tol * max(1, max |eig(b - a)|).
    """
    _require_same_dim(a, b)
    w = np.linalg.eigvalsh(b.mat - a.mat)
    spectral_scale = max(1.0, abs(float(w[0])), abs(float(w[-1])))
    return float(w[0]) >= -policy.psd_tol * spectral_scale


def _generator(seed: int) -> np.random.Generator:
    # counter-based generator: trials seeded independently stay reproducible
    # regardless of execution order
    return np.random.Generator(np.random.Philox(key=seed))


def random_pd(dim: int, seed: int, floor: float = 1.0) -> HermitianMatrix:
    """Seeded random positive definite matrix G G† + floor I.

    Deterministic function of (dim, seed, floor); the smallest eigenvalue
    is at least `floor`.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if not floor > 0:
        raise ValueError("floor must be strictly positive")
    rng = _generator(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(g @ g.conj().T + floor * np.eye(dim))


def random_hermitian(dim: int, seed: int) -> HermitianMatrix:
    """Seeded random Hermitian matrix (M + M†)/2 with complex normal M."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    rng = _generator(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(m)  # constructor symmetrizes


def random_psd(dim: int, seed: int) -> HermitianMatrix:
    """Seeded random positive semidefinite matrix G G† (no floor)."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    rng = _generator(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(g @ g.conj().T)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-ish random unitary via QR with phase normalization."""
    rng = _generator(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
