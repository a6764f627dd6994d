"""Dense complex Hermitian matrices, single or stacked.

Construction gate and seeded random test instances.
Everything here is immutable after construction, so any operation may run
concurrently on shared inputs. A ``HermitianMatrix`` holds one ``d x d``
matrix or a stack ``(..., d, d)`` of them (see ``policy.py`` for the
convention); the seeded generators return a stack when given a sequence of
seeds, one matrix per seed, each bit-identical to its single-seed draw.

The seeded generators draw from one Philox generator per thread, held in a
``threading.local`` and re-keyed in place for every seed: counter 0, key
``seed`` (split into two 64-bit words), empty output buffer. That is exactly
the state of a fresh ``Generator(Philox(key=seed))``, so each draw is a pure
function of its seed, without building a generator and an unused entropy
``SeedSequence`` per seed. A seed must be an ``int`` in ``[0, 2**128)``; a
``bool`` is refused, not read as 0 or 1. Threads never share the generator,
so concurrent draws do not interleave.
"""

import operator
import threading

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotHermitian, NotSquare
from .policy import DEFAULT_POLICY, NumericPolicy

__all__ = [
    "HermitianMatrix",
    "construct_hermitian",
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
    """Immutable d x d complex matrix, or stack of them, with exact Hermitian symmetry.

    Entries satisfy ``mat[..., i, j] == conj(mat[..., j, i])`` exactly and
    the diagonal is exactly real (imaginary part +0.0): the constructor
    symmetrizes unconditionally.
    It trusts its input to be Hermitian up to roundoff; untrusted input
    must go through :func:`construct_hermitian`, which enforces the
    asymmetry tolerance before symmetrizing.
    """

    __slots__ = ("_mat",)

    def __init__(self, mat):
        arr = np.asarray(mat, dtype=np.complex128)
        if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
            raise NotSquare(f"expected a square matrix or a stack of them, got shape {arr.shape}")
        # a new array, so the caller's input is never aliased; for finite
        # input the diagonal's imaginary part is b + (-b) = +0.0 exactly
        sym = 0.5 * (arr + arr.conj().swapaxes(-1, -2))
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
        return self._mat.shape[-1]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """Leading stack axes; () for a single matrix."""
        return self._mat.shape[:-2]

    def __repr__(self):
        batch = f", batch_shape={self.batch_shape}" if self.batch_shape else ""
        return f"HermitianMatrix(dim={self.dim}{batch})"


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


_KEY_LIMIT = 1 << 128  # Philox keys are two 64-bit words
_WORD = (1 << 64) - 1
_thread_state = threading.local()


def _generator() -> np.random.Generator:
    """This thread's Philox generator, created on its first use."""
    rng = getattr(_thread_state, "rng", None)
    if rng is None:
        rng = _thread_state.rng = np.random.Generator(np.random.Philox(key=0))
    return rng


def _key(seed) -> int:
    """`seed` as a Philox key; a bool or a seed outside [0, 2**128) is refused."""
    if isinstance(seed, (bool, np.bool_)):
        raise TypeError(f"seed must be an int, not a bool: {seed!r}")
    seed = operator.index(seed)
    if not 0 <= seed < _KEY_LIMIT:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    return seed


def _complex_normal(dim: int, seed) -> np.ndarray:
    """G + iH with independent standard normal G, H: one dim x dim draw per seed.

    An int seed gives one matrix; a sequence of seeds gives the stack of
    their draws, each bit-identical to the draw of that seed alone. Every
    seed is checked before the first draw. For each seed the thread's
    generator is re-keyed to the state of ``Generator(Philox(key=seed))``
    and fills G, then H.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    single = np.ndim(seed) == 0
    keys = [_key(s) for s in ([seed] if single else seed)]
    rng = _generator()
    bits = rng.bit_generator
    # the state setter copies the words out, so one record serves every
    # seed; plain ints convert faster there than numpy scalars
    key = [0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    draws = np.empty((len(keys), 2, dim, dim))
    for out, k in zip(draws, keys):
        key[0], key[1] = k & _WORD, k >> 64
        bits.state = state
        rng.standard_normal(out=out)
    g = np.empty((len(keys), dim, dim), dtype=np.complex128)
    g.real = draws[:, 0]
    g.imag = draws[:, 1]
    return g[0] if single else g


def _gram(g: np.ndarray) -> np.ndarray:
    """G G† for a matrix or each matrix of a stack."""
    return g @ g.conj().swapaxes(-1, -2)


def random_pd(dim: int, seed) -> HermitianMatrix:
    """Seeded random positive definite matrix G G† + I.

    Deterministic function of (dim, seed); the smallest eigenvalue is at
    least 1. A sequence of seeds gives a stack.
    """
    return HermitianMatrix(_gram(_complex_normal(dim, seed)) + np.eye(dim))


def random_hermitian(dim: int, seed) -> HermitianMatrix:
    """Seeded random Hermitian matrix (M + M†)/2 with complex normal M.

    A sequence of seeds gives a stack.
    """
    return HermitianMatrix(_complex_normal(dim, seed))  # constructor symmetrizes


def random_psd(dim: int, seed) -> HermitianMatrix:
    """Seeded random positive semidefinite matrix G G† (no floor).

    A sequence of seeds gives a stack.
    """
    return HermitianMatrix(_gram(_complex_normal(dim, seed)))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Seeded Haar-ish random unitary via QR with phase normalization.

    A sequence of seeds gives a stack.
    """
    q, r = np.linalg.qr(_complex_normal(dim, seed))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
