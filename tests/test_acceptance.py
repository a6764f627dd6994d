"""Acceptance gate.

One test per acceptance criterion, each printing a [PASS]/[FAIL] line with
the measured quantity before asserting, so `pytest -s tests/test_acceptance.py`
reads as a checklist. Oracle values are computed independently of the
library (plain numpy on raw arrays, or closed-form scalars) and frozen.
"""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinchgt import (
    HermitianMatrix,
    NotHermitian,
    PinchError,
    PinchOperator,
    binomial_bound,
    chain_checks,
    construct_hermitian,
    convergence_study,
    count_distinct_spectrum,
    decompose,
    gt_check,
    pinching_checks,
    random_hermitian,
    random_pd,
    random_psd,
    random_unitary,
    tensor_power,
    write_matrix,
)
from pinchgt.cli import main


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rotated(values, seed):
    u = random_unitary(len(values), seed)
    return construct_hermitian(u @ np.diag(np.asarray(values, dtype=float)) @ u.conj().T)


def test_inequality_holds_on_random_bulk():
    """7000 random Hermitian pairs across dimensions 2..8, within 60 s."""
    t0 = time.monotonic()
    failures = 0
    total = 0
    for dim in range(2, 9):
        for k in range(1000):
            seed = dim * 100000 + k
            r = gt_check(
                random_hermitian(dim, seed), random_hermitian(dim, seed + 50000)
            )
            failures += 0 if r.holds else 1
            total += 1
    elapsed = time.monotonic() - t0
    _verdict(
        "gt_random_bulk",
        failures == 0 and elapsed < 60.0,
        f"{total} pairs, {failures} violations, {elapsed:.1f}s",
    )


def test_commuting_pair_equality():
    """For commuting operands both sides equal e^2 + 1 exactly."""
    a = construct_hermitian(np.diag([1.0, -1.0]))
    r = gt_check(a, HermitianMatrix(np.eye(2)))
    expect = math.e**2 + 1.0
    ok = (
        abs(r.lhs - expect) <= 1e-10 * expect
        and abs(r.rhs - expect) <= 1e-10 * expect
        and r.commuting
        and r.holds
    )
    _verdict(
        "commuting_equality",
        ok,
        f"lhs={r.lhs!r} rhs={r.rhs!r} expected={expect!r}",
    )


def test_pauli_pair_closed_form():
    """Anticommuting spin pair: 2cosh(sqrt 2) strictly below 2cosh^2(1)."""
    x = construct_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    z = construct_hermitian(np.diag([1.0, -1.0]))
    r = gt_check(x, z)
    lhs_expect = 2.0 * math.cosh(math.sqrt(2.0))
    rhs_expect = 2.0 * math.cosh(1.0) ** 2
    ok = (
        abs(r.lhs - lhs_expect) <= 1e-10 * lhs_expect
        and abs(r.rhs - rhs_expect) <= 1e-10 * rhs_expect
        and r.holds
        and not r.commuting
        and r.gap > 0.0
    )
    _verdict(
        "pauli_closed_form",
        ok,
        f"lhs={r.lhs!r} (want {lhs_expect!r}), rhs={r.rhs!r} (want {rhs_expect!r})",
    )


def test_pinching_property_suite():
    """All three pinching properties plus the mixture identity over 500
    random (base, operand) pairs, dimensions 2..8."""
    failures = 0
    total = 0
    for k in range(500):
        dim = 2 + k % 7
        base = random_pd(dim, 7000 + k)
        x = random_psd(dim, 9000 + k)
        op = PinchOperator(decompose(base))
        ok = all(c.passed for c in pinching_checks(op, x))
        failures += 0 if ok else 1
        total += 1
    _verdict("pinch_property_suite", failures == 0, f"{total} pairs, {failures} failures")


def naive_distinct_spectrum(a_mat, m, cluster_tol=1e-8):
    """Materialized oracle: np.kron powers, eigvalsh, gap clustering."""
    power = a_mat
    for _ in range(m - 1):
        power = np.kron(power, a_mat)
    w = np.sort(np.linalg.eigvalsh(power))
    gap = cluster_tol * max(1.0, float(np.abs(w).max()))
    return 1 + int(np.count_nonzero(np.diff(w) > gap))


def test_spectrum_count_vs_materialized():
    """Combinatorial counts match materialized tensor-power spectra for
    1..4 distinct eigenvalues and every power up to 6, and never exceed
    the binomial bound; includes the full 4096-dimensional case."""
    cases = [
        ("n1", construct_hermitian(2.5 * np.eye(2)), 1),
        ("n2", _rotated([1.0, 2.3], 31), 2),
        ("n3", _rotated([1.0, 2.3, 3.7], 32), 3),
        ("n4", _rotated([1.0, 2.3, 3.7, 5.2], 33), 4),
        ("n3_collisions", _rotated([1.0, 2.0, 4.0], 34), 3),
    ]
    checked = 0
    largest = 0
    for label, a, n_expect in cases:
        dec = decompose(a)
        assert dec.n == n_expect
        for m in range(1, 7):
            sc = count_distinct_spectrum(dec, m)
            exact_bound, log_bound = binomial_bound(m, dec.n)
            assert sc.distinct_count <= exact_bound, (label, m)
            assert sc.log_count <= log_bound + 1e-12, (label, m)
            materialized = naive_distinct_spectrum(a.mat, m)
            assert sc.distinct_count == materialized, (
                f"{label} m={m}: combinatorial {sc.distinct_count} "
                f"!= materialized {materialized}"
            )
            if label == "n3_collisions" and m >= 2:
                assert sc.distinct_count == 2 * m + 1 < exact_bound
            checked += 1
            largest = max(largest, a.dim**m)
    _verdict(
        "spectrum_count",
        checked == 30 and largest == 4096,
        f"{checked} (matrix, power) cases agree; largest materialized dim {largest}",
    )


def test_chain_collapse_and_tensorization():
    """At every power the tensorized term reproduces s0 and the pinched
    term collapses onto log tr(AB)."""
    pairs = [
        (
            construct_hermitian(np.diag([1.0, 2.0])),
            construct_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]])),
        ),
        (random_pd(2, 61), random_pd(2, 62)),
        (random_pd(2, 63), random_pd(2, 64)),
    ]
    worst_collapse = 0.0
    worst_tensor = 0.0
    for a, b in pairs:
        for m in (1, 2, 3):
            ct = convergence_study(a, b, [m])[0]
            assert ct.s0_tensorized is not None
            collapse = abs(ct.t_pinched - ct.target) / (1.0 + abs(ct.target))
            tensor = abs(ct.s0_tensorized - ct.s0) / (1.0 + abs(ct.s0))
            worst_collapse = max(worst_collapse, collapse)
            worst_tensor = max(worst_tensor, tensor)
            assert ct.s0 <= ct.bound + 1e-8 * (1.0 + abs(ct.s0) + abs(ct.bound))
    ok = worst_collapse <= 1e-7 and worst_tensor <= 1e-8
    _verdict(
        "chain_collapse",
        ok,
        f"max collapse residual {worst_collapse:.3e} (tol 1e-7), "
        f"max tensorization residual {worst_tensor:.3e} (tol 1e-8)",
    )


def test_convergence_rate_scalars():
    """For two distinct eigenvalues the analytic correction is log(m+1)/m;
    frozen values at m = 1, 2, 4, 8, and a non-increasing bound column."""
    frozen = {
        1: 0.6931471805599453,
        2: 0.5493061443340549,
        4: 0.4023594781085251,
        8: 0.2746530721670275,
    }
    worst = max(abs(binomial_bound(m, 2)[1] / m - v) for m, v in frozen.items())

    a = construct_hermitian(np.diag([1.0, 2.0]))
    b = construct_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
    rows = convergence_study(a, b, [1, 2, 4, 8])
    same = max(abs(ct.gap_bound - frozen[ct.m]) for ct in rows)
    bounds = [ct.bound for ct in rows]
    monotone = all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
    ok = worst <= 1e-9 and same <= 1e-9 and monotone
    _verdict(
        "convergence_scalars",
        ok,
        f"max scalar error {max(worst, same):.3e} (tol 1e-9), "
        f"bounds {['%.6f' % x for x in bounds]} non-increasing={monotone}",
    )


def test_non_hermitian_input_is_rejected(tmp_path):
    """The documented non-normal example must be refused by the constructor
    and by the CLI with exit code 2."""
    raw = np.array([[1.0, 1.0], [0.0, 2.0]])
    try:
        construct_hermitian(raw)
        constructor_rejected = False
    except NotHermitian:
        constructor_rejected = True

    import json

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "re": raw.tolist()}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"dim": 2, "re": [[3.0, 2.0], [2.0, 3.0]]}))
    code_a = main(["check", str(bad), str(good)])
    code_b = main(["check", str(good), str(bad)])
    ok = constructor_rejected and code_a == 2 and code_b == 2
    _verdict(
        "non_hermitian_gate",
        ok,
        f"constructor rejected={constructor_rejected}, "
        f"cli exits=({code_a}, {code_b})",
    )


@pytest.mark.parametrize("d, seeds", [(32, range(5)), (128, (0, 4))])
def test_one_clustering_per_operand(tmp_path, d, seeds):
    """On the library's own wide-spectrum pairs, e^A and e^B keep the
    clusters of A and B bit for bit, and check certifies the pair."""
    import json

    pa, pb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "cert.json"
    results = []
    for s in seeds:
        a, b = random_hermitian(d, 2 * s), random_hermitian(d, 2 * s + 1)
        report = gt_check(a, b)
        kept = all(
            np.array_equal(e.labels, decompose(x).labels)
            for e, x in ((report.exp_a, a), (report.exp_b, b))
        )
        write_matrix(pa, a)
        write_matrix(pb, b)
        rc = main(["check", str(pa), str(pb), "--out", str(out)])
        verdict = json.loads(out.read_text())["verdict"] if rc != 2 else None
        results.append((s, kept, rc, verdict))
    ok = all(kept and rc == 0 and verdict == "pass" for _, kept, rc, verdict in results)
    _verdict(
        "one_clustering_per_operand",
        ok,
        f"d={d}, (seed, clusters kept, exit, verdict): {results}",
    )


def test_pinching_checks_see_a_coarse_clustering(tmp_path):
    """At --tol-cluster 0.05, B's eigenvalues 1 and 1.03, a relative gap of
    0.03, share a cluster. The pinch by that partition does not commute with
    exp B itself, and check reports it rather than judging against the
    clustered matrix."""
    import json

    pa, pb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "cert.json"
    write_matrix(pa, _rotated([0.2, 0.5, 1.3], 1))
    write_matrix(pb, _rotated([1.0, 1.03, 2.0], 2))
    rc = main(["check", str(pa), str(pb), "--tol-cluster", "0.05", "--out", str(out)])
    failed = [c for c in json.loads(out.read_text())["checks"] if not c["passed"]]
    ok = (
        rc == 1
        and [c["name"] for c in failed] == ["pinch_commutes_with_base"]
        and failed[0]["residual"] > 1e6 * failed[0]["tolerance"]
    )
    _verdict("pinching_checks_see_a_coarse_clustering", ok, f"exit {rc}, failed {failed}")


def test_default_clustering_keeps_a_small_true_gap(tmp_path):
    """B = W diag(0, g, 1) W† has the true gap g, below cluster_tol = 1e-8 but
    far above both merge thresholds of 0 and g, the relative cluster_tol * g
    and the rounding 2 d eps. A merge there is no rounding effect, so check
    must keep the two eigenvalues apart and certify the pair."""
    import json

    pa, pb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "cert.json"
    write_matrix(pa, _rotated([0.2, 0.5, 1.3], 1))
    results = []
    for g in (2e-9, 5e-9, 9e-9):
        write_matrix(pb, _rotated([0.0, g, 1.0], 2))
        rc = main(["check", str(pa), str(pb), "--out", str(out)])
        cert = json.loads(out.read_text())
        failed = [(c["name"], c["residual"], c["tolerance"])
                  for c in cert["checks"] if not c["passed"]]
        results.append((g, rc, cert["verdict"], failed))
    ok = all(rc == 0 and verdict == "pass" for _, rc, verdict, _ in results)
    _verdict(
        "default_clustering_keeps_a_small_true_gap",
        ok,
        f"(g, exit, verdict, failed): {results}",
    )


def test_tensorization_ignores_the_clustering():
    """A^(x)m and B^(x)m of A = U diag(1, 30) U†, B = W diag(30, 0.7) W† span
    up to 30^m, 6.6e11 at m = 8. Their logs take the computed eigenvalues,
    whatever the clustering merged, so the tensorization identity holds at
    m = 6, 7, 8."""
    rows = convergence_study(_rotated([1.0, 30.0], 2), _rotated([30.0, 0.7], 12), [6, 7, 8])
    tens = [
        (m, c.residual, c.tolerance, c.passed)
        for m, c in chain_checks(rows)
        if c.name == "tensorization_identity"
    ]
    ok = len(tens) == 3 and all(passed for *_, passed in tens)
    _verdict(
        "tensorization_ignores_the_clustering",
        ok,
        f"(m, residual, tolerance, passed): {tens}",
    )


def test_tensor_power_clusters_equal_the_count():
    """A = U diag(1, 1.001, 1000) U†: the m-fold products 1, 1.001, 1.001^2,
    ... are relatively 1e-3 apart, far above cluster_tol, however large the
    radius 1000^m. The clusters of A^(x)m number the combinatorial count."""
    a = _rotated([1.0, 1.001, 1000.0], 1)
    dec = decompose(a)
    got = [(decompose(tensor_power(a, m)).n, count_distinct_spectrum(dec, m).distinct_count)
           for m in (2, 3)]
    _verdict("tensor_power_clusters_equal_the_count", got == [(6, 6), (10, 10)],
             f"(clusters of A^(x)m, count) at m = 2, 3: {got}")


def _clear_of_both_thresholds(w, m, cluster_tol=1e-8):
    """Whether every gap between distinct true m-fold products of w clears
    both merge thresholds by a factor of 10: the count's log gap m *
    cluster_tol, and decompose's relative gap cluster_tol * max(p_i, p_{i+1})
    with its rounding floor 2 d^m eps radius. Products that agree to 1e-12
    are one eigenvalue (1 * 4 = 2 * 2)."""
    p = np.sort([math.prod(c) for c in itertools.combinations_with_replacement(w, m)])
    lo, hi = p[:-1], p[1:]
    distinct = hi - lo > 1e-12 * hi
    rounding = 2 * len(w) ** m * np.finfo(float).eps * hi[-1]
    clear = (np.log(hi / lo) > 10 * m * cluster_tol) & (
        hi - lo > 10 * np.maximum(cluster_tol * hi, rounding)
    )
    return bool(np.all(clear | ~distinct))


# a PD spectrum scale * (1, 1 + gap, then d - 2 values log-spaced up to cond),
# whose smallest relative gap is gap
PD_SPECTRA = dict(
    d=st.integers(3, 4),
    log_gap=st.floats(-6.0, -1.0),
    log_cond=st.floats(0.0, 6.0),
    log_scale=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32),
)


def _pd_pair(d, log_gap, log_cond, log_scale, seed):
    gap, cond = 10.0**log_gap, 10.0**log_cond
    top = max(cond / (1.0 + gap), (1.0 + gap) ** (d - 2))
    w = 10.0**log_scale * np.append(1.0, (1.0 + gap) * np.geomspace(1.0, top, d - 1))
    return w, _rotated(w, seed), _rotated(w, seed + 1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 4), **PD_SPECTRA)
def test_clustering_sweep_counts_the_clusters(m, **draw):
    """Over the smallest relative gap 1e-6 to 1e-1 and cond 1 to 1e6, the
    positivity gate passes every pair at cond <= 1e4, and A^(x)m has as many
    clusters as the count wherever the true gaps between its distinct
    products clear both merge thresholds."""
    w, a, b = _pd_pair(**draw)
    if w[-1] / w[0] <= 1e4:
        convergence_study(a, b, [m], cap=1)  # the gate and the count, no dense tier
    assume(_clear_of_both_thresholds(w, m))
    n = decompose(tensor_power(a, m)).n
    assert n == count_distinct_spectrum(decompose(a), m).distinct_count, (w, m, n)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the dense tier decomposes A^(x)m and B^(x)m, whose spectra span cond^m "
    "(ROADMAP item 4)",
)
def test_chain_at_small_powers_over_conditioning():
    """On the same spectra (gap 1e-3), the chain refuses no pair at cond <= 1e4
    and the tensorization identity holds at m = 1..4. At cond 1e3 and up the
    smallest eigenvalue of a tensor power sits 1e12 and more below its largest,
    near what eigh resolves in a d^m matrix: its log is inaccurate, or undefined
    when the computed eigenvalue is <= 0 (DomainError, a refusal)."""
    results = []
    for d, log_cond, seed in itertools.product((3, 4), (2.0, 3.0, 3.5, 4.0), range(2)):
        _, a, b = _pd_pair(d, -3.0, log_cond, 0.0, seed)
        try:
            rows = convergence_study(a, b, [1, 2, 3, 4])
        except PinchError as exc:
            results.append((d, log_cond, seed, type(exc).__name__))
            continue
        tens = [c for _, c in chain_checks(rows) if c.name == "tensorization_identity"]
        results.append((d, log_cond, seed, max(c.residual / c.tolerance for c in tens)))
    _verdict(
        "chain_at_small_powers_over_conditioning",
        all(isinstance(r, float) and r <= 1.0 for *_, r in results),
        f"(d, log10 cond, seed, worst tensorization residual / tolerance, or the "
        f"refusal): {results}",
    )
