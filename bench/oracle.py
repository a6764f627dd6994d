"""Independent checks of every op's output. Uses numpy and scipy, never pinchgt.

``judge`` returns None when the output is accepted and a one-line reason
otherwise. An op is accepted only when it exited 0 and every printed value
agrees with a quantity recomputed here from the raw input matrices.
"""

import csv
import hashlib
import io
import json
import math

import numpy as np
from scipy.linalg import expm, logm

from workloads import SUITE_DIMS, SUITE_TRIALS

# the chain's own relative tolerances (pinchgt.verify), restated so the
# oracle stays independent of the package it checks
TENSORIZATION_TOL = 1e-8
COLLAPSE_TOL = 1e-7
CHAIN_BOUND_TOL = 1e-8
# slack on the Golden-Thompson sides, relative to |lhs| + |rhs|
GT_TOL = 1e-9
# pinchgt's default policy and check tolerances (pinchgt.policy,
# pinchgt.pinching, pinchgt.verify), restated for the same reason
CLUSTER_TOL = 1e-8
PSD_TOL = 1e-9
COMMUTING_TOL = 1e-10
COMMUTATION_TOL = 1e-10
TRACE_TOL = 1e-10
MIXTURE_TOL = 1e-11
# relative agreement required between a certificate's tolerance and the
# recomputed one; both are products of norms, equal up to rounding
TOL_AGREEMENT = 1e-6
# relative nudge of the spectrum-count threshold (see distinct_power_count)
COUNT_EDGE = 1e-6
CHAIN_HEADER = ["m", "s0", "s0_tensorized", "t_pinched", "target", "bound", "gap_bound"]


def load(path) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


def _logsumexp(w: np.ndarray) -> float:
    top = float(np.max(w))
    return top + math.log(float(np.sum(np.exp(w - top))))


def chain_reference(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(s0, target) = (log tr exp(log A + log B), log tr(AB)) from raw eigenvalues."""
    h = logm(a) + logm(b)
    s0 = _logsumexp(np.linalg.eigvalsh(0.5 * (h + h.conj().T)))
    target = math.log(float(np.trace(a @ b).real))
    return s0, target


def chain_reason(a, b, ms, rc, out: str):
    if rc != 0:
        return f"exit code {rc}"
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != CHAIN_HEADER:
        return "bad CSV header"
    if [r[0] for r in rows[1:]] != [str(m) for m in ms]:
        return "CSV rows do not match the requested powers"
    s0, target = chain_reference(a, b)
    d = a.shape[0]
    s0_tol = TENSORIZATION_TOL * (1.0 + abs(s0))
    target_tol = COLLAPSE_TOL * (1.0 + abs(target))
    for row in rows[1:]:
        m = int(row[0])
        if len(row) != len(CHAIN_HEADER):
            return f"m={m}: expected {len(CHAIN_HEADER)} cells"
        try:
            v = {name: float(cell) for name, cell in zip(CHAIN_HEADER[1:], row[1:])}
        except ValueError:
            return f"m={m}: unparsable or missing value"
        for name, ref, tol in (
            ("s0", s0, s0_tol),
            ("s0_tensorized", s0, s0_tol),
            ("target", target, target_tol),
            ("t_pinched", target, target_tol),
        ):
            if not abs(v[name] - ref) <= tol:
                return f"m={m}: {name} {v[name]!r} differs from {ref!r} by more than {tol:.1e}"
        # N_m <= C(m+d-1, d-1), so the bound sits between target and target + gap_max
        gap_max = math.log(math.comb(m + d - 1, d - 1)) / m
        bound_tol = CHAIN_BOUND_TOL * (1.0 + abs(s0) + abs(v["bound"]))
        if not v["bound"] >= s0 - bound_tol:
            return f"m={m}: bound {v['bound']!r} below s0 {s0!r}"
        if not target - bound_tol <= v["bound"] <= target + gap_max + bound_tol:
            return f"m={m}: bound {v['bound']!r} outside [target, target + {gap_max:.6g}]"
        if not -bound_tol <= v["gap_bound"] <= gap_max + bound_tol:
            return f"m={m}: gap_bound {v['gap_bound']!r} above {gap_max!r}"
    return None


def _hermitian(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().T)


def clustered_eigh(x: np.ndarray):
    """(cluster means, multiplicities, eigenvectors) of a Hermitian matrix under
    pinchgt's clustering rule: adjacent eigenvalues merge transitively while
    their gap is at most CLUSTER_TOL * max(1, spectral radius)."""
    w, v = np.linalg.eigh(x)
    gap = CLUSTER_TOL * max(1.0, abs(w[0]), abs(w[-1]))
    edges = np.concatenate(([0], np.flatnonzero(np.diff(w) > gap) + 1, [len(w)]))
    means = np.array([w[lo:hi].mean() for lo, hi in zip(edges, edges[1:])])
    return means, np.diff(edges), v


def multiset_sums(logs: np.ndarray, m: int) -> np.ndarray:
    """Sum over every size-m multiset of `logs`, added in ascending index order."""
    n = len(logs)
    sums, last = logs.copy(), np.arange(n)
    for _ in range(m - 1):
        reps = n - last
        parent = np.repeat(np.arange(len(sums)), reps)
        offset = np.arange(len(parent)) - np.repeat(np.cumsum(reps) - reps, reps)
        last = last[parent] + offset
        sums = sums[parent] + logs[last]
    return sums


def distinct_power_count(eigenvalues: np.ndarray, m: int) -> tuple[int, int]:
    """Bounds (low, high) on the distinct eigenvalue count of the m-th tensor
    power of a PD matrix with these clustered eigenvalues: m-fold log sums
    merge while their gap is at most m * CLUSTER_TOL. The two bounds use that
    threshold nudged up and down by COUNT_EDGE, so a gap that sits on the
    threshold up to rounding may be counted either way."""
    gaps = np.diff(np.sort(multiset_sums(np.log(eigenvalues), m)))
    tol = m * CLUSTER_TOL
    low = 1 + int(np.count_nonzero(gaps > tol * (1.0 + COUNT_EDGE)))
    high = 1 + int(np.count_nonzero(gaps > tol * (1.0 - COUNT_EDGE)))
    return low, high


def pinch(mults, v, x: np.ndarray) -> np.ndarray:
    """Block-diagonal part of x in the eigenbasis v, one block per cluster."""
    y = v.conj().T @ x @ v
    out = np.zeros_like(y)
    for lo, hi in zip(np.cumsum(mults) - mults, np.cumsum(mults)):
        out[lo:hi, lo:hi] = y[lo:hi, lo:hi]
    return v @ out @ v.conj().T


def _norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def _rounding(tol: float):
    """(tolerance, test) for a residual that is pure rounding: it can only be
    held to [0, tolerance]."""
    return tol, lambda r: 0.0 <= r <= tol


def check_expectations(a: np.ndarray, b: np.ndarray, m: int):
    """Golden-Thompson sides and, per certificate check, what its residual must be.

    Returns (lhs, rhs, commuting, checks) where checks maps each expected
    check name to (tolerance, test); test(residual) is True when the residual
    agrees with the one recomputed here. The commutation, trace-preservation
    and route-agreement residuals are pure rounding; the others are
    recomputed and compared.
    """
    ea, eb = _hermitian(expm(a)), _hermitian(expm(b))
    lhs = float(np.trace(expm(a + b)).real)
    rhs = float(np.trace(ea @ eb).real)
    slack = GT_TOL * (abs(lhs) + abs(rhs))
    checks = {"golden_thompson_gap": (slack, lambda r: abs(r - (lhs - rhs)) <= slack)}
    comm_scale = (1.0 + _norm(a)) * (1.0 + _norm(b))
    commuting = _norm(a @ b - b @ a) <= COMMUTING_TOL * comm_scale
    if commuting:
        checks["commuting_equality"] = (slack, lambda r: abs(r - abs(rhs - lhs)) <= slack)

    # pinching of exp(A) by exp(B)
    means_b, mults_b, vb = clustered_eigh(eb)
    n = len(means_b)
    bilinear = (1.0 + _norm(eb)) * (1.0 + _norm(ea))
    px = pinch(mults_b, vb, ea)
    dw = np.linalg.eigvalsh(_hermitian(px - ea / n))
    radius = max(1.0, abs(dw[0]), abs(dw[-1]))
    margin_slack = GT_TOL * radius
    checks["pinch_commutes_with_base"] = _rounding(COMMUTATION_TOL * bilinear)
    checks["pinch_preserves_weighted_trace"] = _rounding(TRACE_TOL * bilinear)
    checks["pinch_dominates_scaled_operand"] = (
        PSD_TOL * radius, lambda r: abs(r + dw[0]) <= margin_slack
    )
    checks["pinch_equals_dephasing_mixture"] = _rounding(MIXTURE_TOL * n * (1.0 + _norm(ea)))

    # finite-power certificate on (exp A, exp B)
    means_a, mults_a, va = clustered_eigh(ea)
    log_ea = (va * np.repeat(np.log(means_a), mults_a)) @ va.conj().T
    log_eb = (vb * np.repeat(np.log(means_b), mults_b)) @ vb.conj().T
    lhs_m = float(np.sum(np.exp(np.linalg.eigvalsh(_hermitian(log_ea + log_eb)))))
    low, high = distinct_power_count(means_a, m)
    rhs_lo, rhs_hi = low ** (1.0 / m) * rhs, high ** (1.0 / m) * rhs
    power_slack = GT_TOL * (abs(lhs_m) + abs(rhs_hi))
    checks["finite_power_certificate"] = (
        GT_TOL * (abs(lhs_m) + abs(rhs_lo)),
        lambda r: lhs_m - rhs_hi - power_slack <= r <= lhs_m - rhs_lo + power_slack,
    )
    return lhs, rhs, commuting, checks


def check_reason(paths: dict, m: int, rc, out: str):
    if rc != 0:
        return f"exit code {rc}"
    try:
        cert = json.loads(out)
        inputs, gt, cert_checks = cert["inputs"], cert["golden_thompson"], cert["checks"]
        by_name = {c["name"]: c for c in cert_checks}
    except (json.JSONDecodeError, KeyError, TypeError):
        return "certificate is not the expected JSON"
    a, b = load(paths["a"]), load(paths["b"])
    for role, key, mat in (("a", "matrix_a", a), ("b", "matrix_b", b)):
        with open(paths[role], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if inputs[key].get("sha256") != digest:
            return f"{key} digest does not match the input file"
        if inputs[key].get("dim") != mat.shape[0]:
            return f"{key} dim is wrong"
    if inputs.get("power") != m:
        return "power is wrong"
    lhs, rhs, commuting, expected = check_expectations(a, b, m)
    slack = GT_TOL * (abs(lhs) + abs(rhs))
    for name, ref in (("lhs", lhs), ("rhs", rhs), ("gap", rhs - lhs)):
        if not abs(gt.get(name, math.nan) - ref) <= slack:
            return f"golden_thompson.{name} {gt.get(name)!r} differs from {ref!r}"
    if gt.get("commuting") is not commuting:
        return f"golden_thompson.commuting is not {commuting}"
    if [c.get("name") for c in cert_checks] != list(expected) or len(by_name) != len(expected):
        return f"checks {[c.get('name') for c in cert_checks]} are not {list(expected)}"
    for name, (tol, test) in expected.items():
        c = by_name[name]
        residual, tolerance = c.get("residual"), c.get("tolerance")
        if not (isinstance(residual, float) and isinstance(tolerance, float)):
            return f"check {name}: residual and tolerance must be numbers"
        if not abs(tolerance - tol) <= TOL_AGREEMENT * tol:
            return f"check {name}: tolerance {tolerance!r} differs from {tol!r}"
        if not test(residual):
            return f"check {name}: residual {residual!r} disagrees with the recomputed one"
        if c.get("passed") is not True or not residual <= tolerance:
            return f"check {name} did not pass"
    if cert.get("verdict") != "pass":
        return f"verdict {cert.get('verdict')!r}"
    return None


def suite_text(trials: int = SUITE_TRIALS, dims=SUITE_DIMS) -> str:
    lines = [f"dim {d}: {trials} trials, 0 violations" for d in range(dims[0], dims[1] + 1)]
    lines.append(f"total: {trials * (dims[1] - dims[0] + 1)} trials, 0 violations")
    return "\n".join(lines) + "\n"


def judge(workload: str, op, rc, out: str):
    """None if the op's output is accepted, else the reason it is rejected."""
    if workload == "chain_full":
        return chain_reason(load(op.files["a"]), load(op.files["b"]), op.props["m"], rc, out)
    if workload == "check_batch":
        return check_reason(op.files, op.props["m"][0], rc, out)
    if rc != 0:
        return f"exit code {rc}"
    return None if out == suite_text() else "random-suite output differs from the expected text"
