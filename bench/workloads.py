"""Seeded inputs for the three benchmark workloads.

Each op is one ``pinchgt.cli.main(argv)`` call. Its inputs are a pure
function of (workload, seed, op index): the same seed gives byte-identical
matrix files. Generation uses numpy only, so the program under test sees
nothing but the files and the argv.

Why these workloads:

* ``chain_full`` runs the dense d^m tier of ``chain`` (eigh with residual
  checks, eigvalsh, pinch, functional calculus, symmetrizing). Its two
  shapes reach the same top dimension 1024 with very different spectra:
  d=4, m=5 has 56 distinct reference eigenvalues in small blocks, d=2,
  m=10 has 11 in blocks of up to 252.
* ``check_batch`` runs ``check``, which never forms a tensor power. At
  d=128 most of its time is the multiset enumeration in
  ``count_distinct_spectrum``; the rest is the dephasing mixture and JSON.
* ``random_suite`` runs ``random-suite`` on tiny matrices, so it measures
  per-call overhead and reads no files.
"""

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("chain_full", "check_batch", "random_suite")

# (d, top m) of the chain ops, alternating; both reach dimension 1024
CHAIN_SHAPES = ((4, 5), (2, 10))
# chain eigenvalues are log-uniform on [1, CHAIN_COND], so condition <= 100
CHAIN_COND = 100.0
CHECK_DIMS = (32, 64, 128)
CHECK_POWER = 3
SUITE_DIMS = (2, 8)
SUITE_TRIALS = 20
SUITE_OPS_PER_SEED = 1 << 20  # random-suite seeds of two workload seeds never overlap

# ops per cycle; a run always ends on a cycle boundary so every shape is
# sampled equally often
CYCLE = {"chain_full": len(CHAIN_SHAPES), "check_batch": len(CHECK_DIMS), "random_suite": 1}

_TAG = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the files it reads, and its input properties."""

    argv: list
    files: dict = field(default_factory=dict)  # role -> path
    props: dict = field(default_factory=dict)


def _rng(workload: str, seed, k: int) -> np.random.Generator:
    # the warm-up op (seed None) draws from its own stream, fixed for all seeds
    entropy = [_TAG[workload], 0, k] if seed is None else [_TAG[workload], 1, seed, k]
    return np.random.default_rng(entropy)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2, bit-exactly Hermitian with an exactly real diagonal."""
    h = 0.5 * (m + m.conj().T)
    idx = np.arange(h.shape[0])
    h[idx, idx] = h[idx, idx].real
    return h


def random_pd(rng: np.random.Generator, d: int) -> np.ndarray:
    """U diag(w) U† with Haar U and w log-uniform on [1, CHAIN_COND]."""
    w = np.exp(rng.uniform(0.0, np.log(CHAIN_COND), d))
    u = _haar_unitary(rng, d)
    return _hermitian_part((u * w) @ u.conj().T)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """(Z + Z†)/(2 sqrt d) with complex normal Z: spectrum close to [-2, 2]."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _hermitian_part(z / np.sqrt(d))


def matrix_bytes(m: np.ndarray) -> bytes:
    doc = {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}
    return (json.dumps(doc) + "\n").encode()


def spectrum_props(m: np.ndarray) -> dict:
    """Condition number and smallest relative gap between adjacent eigenvalues."""
    w = np.linalg.eigvalsh(m)
    mag = np.abs(w)
    gaps = np.diff(w) / np.maximum(mag[:-1], mag[1:])
    return {
        "cond": float(mag.max() / mag.min()),
        "min_rel_gap": float(gaps.min()) if len(gaps) else None,
    }


def _write_pair(workdir: Path, k, a: np.ndarray, b: np.ndarray) -> tuple[dict, dict]:
    files, props = {}, {"d": int(a.shape[0])}
    for role, m in (("a", a), ("b", b)):
        data = matrix_bytes(m)
        path = workdir / f"op{k}_{role}.json"
        path.write_bytes(data)
        files[role] = str(path)
        props[role] = {"sha256": hashlib.sha256(data).hexdigest(), **spectrum_props(m)}
    return files, props


def write_op(workload: str, seed, k: int, workdir: Path) -> Op:
    """Generate op k of `workload` for `seed`, writing its files into workdir.

    ``seed=None`` gives the warm-up op, which is the same for every seed.
    """
    if workload == "random_suite":
        # op k sweeps trial seeds [suite_seed, suite_seed + 140); no two ops share one
        base = 0 if seed is None else seed * SUITE_OPS_PER_SEED + k + 1
        suite_seed = base * SUITE_TRIALS * (SUITE_DIMS[1] - SUITE_DIMS[0] + 1)
        dims = f"{SUITE_DIMS[0]}..{SUITE_DIMS[1]}"
        argv = ["random-suite", "--dims", dims, "--trials", str(SUITE_TRIALS),
                "--seed", str(suite_seed)]
        return Op(argv, props={"dims": dims, "trials": SUITE_TRIALS, "seed": suite_seed})

    rng = _rng(workload, seed, k)
    tag = "warmup" if seed is None else k
    if workload == "chain_full":
        d, top = CHAIN_SHAPES[k % len(CHAIN_SHAPES)]
        files, props = _write_pair(workdir, tag, random_pd(rng, d), random_pd(rng, d))
        ms = list(range(1, top + 1))
        props["m"] = ms
        argv = ["chain", files["a"], files["b"], "--m", ",".join(map(str, ms))]
    elif workload == "check_batch":
        d = CHECK_DIMS[k % len(CHECK_DIMS)]
        files, props = _write_pair(
            workdir, tag, random_hermitian(rng, d), random_hermitian(rng, d)
        )
        props["m"] = [CHECK_POWER]
        argv = ["check", files["a"], files["b"], "--m", str(CHECK_POWER)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Op(argv, files, props)
