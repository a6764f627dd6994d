"""Dense complex Hermitian matrices.

Construction gate, basic algebra, and seeded random test instances.
Everything here is immutable after construction, so any operation may run
concurrently on shared inputs.

The seeded generators draw from one Philox generator per thread, held in a
``threading.local`` and re-keyed on every call: counter 0, key ``seed``
(split into two 64-bit words), empty output buffer. That is exactly the
state of a fresh ``Generator(Philox(key=seed))``, so each draw is a pure
function of its seed, as before, without building a generator and an
unused entropy ``SeedSequence`` per call. Threads never share the
generator, so concurrent draws do not interleave.
"""

import operator
import threading

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotHermitian, NotSquare
from .policy import DEFAULT_POLICY, NumericPolicy

__all__ = [
    "HermitianMatrix",
    "construct_hermitian",
    "identity",
    "scale",
    "random_pd",
    "random_hermitian",
    "random_psd",
    "random_unitary",
]


def as_array(x) -> np.ndarray:
    """Entries of `x` as a complex ndarray (HermitianMatrix or array-like)."""
    if isinstance(x, HermitianMatrix):
        return x.mat
    return np.asarray(x, dtype=np.complex128)


class HermitianMatrix:
    """Immutable d x d complex matrix with exact Hermitian symmetry.

    Entries satisfy ``mat[i, j] == conj(mat[j, i])`` exactly and the
    diagonal is exactly real (imaginary part +0.0): the constructor
    symmetrizes unconditionally.
    It trusts its input to be Hermitian up to roundoff; untrusted input
    must go through :func:`construct_hermitian`, which enforces the
    asymmetry tolerance before symmetrizing.
    """

    __slots__ = ("_mat",)

    def __init__(self, mat):
        arr = np.asarray(mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NotSquare(f"expected a square matrix, got shape {arr.shape}")
        # a new array, so the caller's input is never aliased; for finite
        # input the diagonal's imaginary part is b + (-b) = +0.0 exactly
        sym = 0.5 * (arr + arr.conj().T)
        # checked after the sum, which overflows for entries above ~8.99e307
        if not np.isfinite(sym).all():
            raise NotFinite("matrix entries must be finite (no NaN/inf)")
        sym.flags.writeable = False
        self._mat = sym

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
    perturbed by round-tripping. Both sides are divided by
    s = max(1, max |raw_ij|) first, so the norms cannot overflow.
    """
    arr = np.asarray(raw, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NotFinite("matrix entries must be finite (no NaN/inf)")
    s = float(np.abs(arr).max(initial=1.0))
    scaled = arr / s
    asym = np.linalg.norm(scaled - scaled.conj().T)
    limit = policy.herm_tol * (1.0 / s + np.linalg.norm(scaled))
    if asym > limit:
        raise NotHermitian(
            f"asymmetry {asym * s:.3e} exceeds tolerance {limit * s:.3e}; "
            "input is not Hermitian"
        )
    # entries above ~8.99e307 overflow the symmetrization, which raises NotFinite
    with np.errstate(over="ignore", invalid="ignore"):
        return HermitianMatrix(arr)


def identity(dim: int) -> HermitianMatrix:
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return HermitianMatrix(np.eye(dim, dtype=np.complex128))


def scale(c: float, a: HermitianMatrix) -> HermitianMatrix:
    """Real scalar multiple of a Hermitian matrix."""
    c = float(c)
    return HermitianMatrix(c * a.mat)


_KEY_LIMIT = 1 << 128  # Philox keys are two 64-bit words
_WORD = (1 << 64) - 1
_thread_state = threading.local()


def _generator(seed: int) -> np.random.Generator:
    """This thread's generator, in the state of ``Generator(Philox(key=seed))``."""
    # counter-based generator: trials seeded independently stay reproducible
    # regardless of execution order
    seed = operator.index(seed)
    if not 0 <= seed < _KEY_LIMIT:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    rng = getattr(_thread_state, "rng", None)
    if rng is None:
        rng = _thread_state.rng = np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed & _WORD, seed >> 64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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
