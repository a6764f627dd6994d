"""JSON matrix files.

A matrix document is a JSON object with keys:

* ``dim``: positive integer n
* ``re``: n x n nested list of real parts
* ``im``: optional n x n nested list of imaginary parts (omitted = zero)

Loading runs the full Hermiticity gate, so a file that round-trips through
:func:`load_matrix` is certified Hermitian under the active policy.
"""

import hashlib
import json

import numpy as np

from .core import HermitianMatrix, construct_hermitian
from .errors import MatrixFileError
from .policy import DEFAULT_POLICY, NumericPolicy

__all__ = [
    "load_matrix",
    "write_matrix",
    "matrix_digest",
]


def _grid(doc: dict, key: str, dim: int) -> np.ndarray:
    rows = doc[key]
    if not isinstance(rows, list) or len(rows) != dim:
        raise MatrixFileError(f"'{key}' must be a list of {dim} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise MatrixFileError(f"'{key}' row {i} must hold {dim} numbers")
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise MatrixFileError(f"'{key}'[{i}][{j}] is not a number")
    return np.asarray(rows, dtype=float)


def parse_matrix(doc: dict) -> np.ndarray:
    """Raw complex array from a parsed matrix document. No Hermiticity gate."""
    if not isinstance(doc, dict):
        raise MatrixFileError("matrix document must be a JSON object")
    if "dim" not in doc:
        raise MatrixFileError("missing 'dim'")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MatrixFileError(f"'dim' must be a positive integer, got {dim!r}")
    if "re" not in doc:
        raise MatrixFileError("missing 're'")
    re = _grid(doc, "re", dim)
    im = _grid(doc, "im", dim) if "im" in doc else np.zeros((dim, dim))
    return re + 1j * im


def load_matrix(path, policy: NumericPolicy = DEFAULT_POLICY) -> HermitianMatrix:
    """Read a matrix document and pass it through the Hermiticity gate."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path} is not valid JSON: {exc}") from exc
    return construct_hermitian(parse_matrix(doc), policy)


def serialize_matrix(a: HermitianMatrix) -> dict:
    doc = {"dim": a.dim, "re": a.mat.real.tolist()}
    if np.any(a.mat.imag != 0.0):
        doc["im"] = a.mat.imag.tolist()
    return doc


def write_matrix(path, a: HermitianMatrix) -> None:
    with open(path, "w") as fh:
        json.dump(serialize_matrix(a), fh, indent=1)
        fh.write("\n")


def matrix_digest(path) -> str:
    """Hex sha256 of the file bytes, recorded in certificates."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
