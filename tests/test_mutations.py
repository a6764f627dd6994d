"""Seeded defects against the ``check`` certificate.

Each defect patches one step of the computation behind ``check`` and the
test records which named checks it flips from pass to fail, on a fixed
generic pair and on a fixed commuting pair. The table below is the
certificate's detection power:

* a merge of two clusters of e^B is seen only by the commutation check,
  since a coarser pinching still dominates X/n, keeps the weighted trace,
  and shares its partition with the mixture route;
* one off N_m is seen by nothing: ``finite_power_certificate`` is implied by
  ``golden_thompson_gap`` (rhs > 0 and N_m^(1/m) >= 1), so no defect flips
  it alone.
"""

import json

import numpy as np
import pytest

import pinchgt.cli as cli
import pinchgt.pinching as pinching
import pinchgt.verify as verify
from pinchgt import (
    Check,
    HermitianMatrix,
    PinchOperator,
    SpectrumCount,
    construct_hermitian,
    random_hermitian,
    random_unitary,
    write_matrix,
)
from pinchgt.cli import main

CHECK_NAMES = {
    "golden_thompson_gap",
    "commuting_equality",
    "pinch_commutes_with_base",
    "pinch_preserves_weighted_trace",
    "pinch_dominates_scaled_operand",
    "pinch_equals_dephasing_mixture",
    "finite_power_certificate",
}


def _commuting_pair():
    """Two matrices diagonal in one random basis."""
    u = random_unitary(4, 13)
    return tuple(
        construct_hermitian((u * np.array(w)) @ u.conj().T)
        for w in ([0.5, 1.0, 1.5, 3.0], [2.0, -1.0, 0.25, 0.0])
    )


PAIRS = {
    "generic": lambda: (random_hermitian(4, 3), random_hermitian(4, 5)),
    "commuting": _commuting_pair,
}


def _pinch_by(transform):
    """cli.PinchOperator with e^B's decomposition passed through `transform` first."""
    return lambda dec: PinchOperator(transform(dec))


def merge_two_clusters(monkeypatch):
    """Clusters 0 and 1 of e^B become one."""

    def merged(dec):
        labels = np.where(dec.labels >= 1, dec.labels - 1, dec.labels)
        return type(dec)(dec.source, dec.values, dec.vectors, labels)

    monkeypatch.setattr(cli, "PinchOperator", _pinch_by(merged))


def rotate_the_eigenbasis(monkeypatch):
    """e^B's eigenbasis V becomes R V, with R = exp(i 1e-6 H) for a unit-norm H."""
    h = random_hermitian(4, 99).mat
    w, v = np.linalg.eigh(h / np.linalg.norm(h))
    r = (v * np.exp(1e-6j * w)) @ v.conj().T

    def rotated(dec):
        return type(dec)(dec.source, dec.values, r @ dec.vectors, dec.labels)

    monkeypatch.setattr(cli, "PinchOperator", _pinch_by(rotated))


def mixture_over_n_plus_one(monkeypatch):
    """The dephasing mixture is divided by n + 1 instead of n."""
    real = pinching.pinch_via_mixture

    def wrong(op, x):
        n = op.base.n
        return HermitianMatrix(real(op, x).mat * (n / (n + 1)))

    monkeypatch.setattr(pinching, "pinch_via_mixture", wrong)


def one_off_the_count(monkeypatch):
    """N_m, the count of distinct eigenvalues of the m-th tensor power, is one short."""
    real = verify.count_distinct_spectrum

    def short(dec, m, policy):
        count = real(dec, m, policy)
        return SpectrumCount(m, count.distinct_count - 1, count.log_bound, count.d_distinct)

    monkeypatch.setattr(verify, "count_distinct_spectrum", short)


def swap_the_sides(monkeypatch):
    """golden_thompson_gap compares tr(exp A exp B) <= tr exp(A + B), the wrong way round."""

    def swapped(name, residual, tolerance):
        return Check(name, -residual if name == "golden_thompson_gap" else residual, tolerance)

    monkeypatch.setattr(verify, "Check", swapped)


def drop_a_block(monkeypatch):
    """The pinch keeps every diagonal block but the first."""

    def pinch(op, x):
        v, labels = op.base.vectors, op.base.labels
        vh = v.conj().T
        keep = (labels[:, None] == labels[None, :]) & (labels[:, None] > 0)
        return HermitianMatrix(v @ np.where(keep, vh @ x.mat @ v, 0) @ vh)

    monkeypatch.setattr(pinching, "pinch", pinch)


def inflate_the_exponentials(monkeypatch):
    """exp A and exp B come out a relative 1e-6 too large, so the right side does too."""
    real = verify._map_spectrum

    def inflated(f, dec):
        return real(lambda w: f(w) * (1.0 + 1e-6), dec)

    monkeypatch.setattr(verify, "_map_spectrum", inflated)


# defect -> pair -> the checks it flips from pass to fail
FLIPS = {
    merge_two_clusters: {
        "generic": {"pinch_commutes_with_base"},
        # A is diagonal in B's basis, so any coarser pinching of exp A keeps it
        "commuting": set(),
    },
    rotate_the_eigenbasis: {
        "generic": {"pinch_commutes_with_base", "pinch_preserves_weighted_trace"},
        # the trace moves by tr(exp A [K, exp B]) = 0 to first order when exp A
        # and exp B commute, and the second order is below its tolerance
        "commuting": {"pinch_commutes_with_base"},
    },
    mixture_over_n_plus_one: {
        "generic": {"pinch_equals_dephasing_mixture"},
        "commuting": {"pinch_equals_dephasing_mixture"},
    },
    one_off_the_count: {"generic": set(), "commuting": set()},
    swap_the_sides: {
        "generic": {"golden_thompson_gap"},
        # the two sides agree, so their order does not matter
        "commuting": set(),
    },
    drop_a_block: {
        "generic": {
            "pinch_preserves_weighted_trace",
            "pinch_dominates_scaled_operand",
            "pinch_equals_dephasing_mixture",
        },
        "commuting": {
            "pinch_preserves_weighted_trace",
            "pinch_dominates_scaled_operand",
            "pinch_equals_dephasing_mixture",
        },
    },
    inflate_the_exponentials: {"generic": set(), "commuting": {"commuting_equality"}},
}


def _verdicts(tmp_path, pair):
    """{check name: passed} of `check` on the named pair, with whatever is patched."""
    paths = [str(tmp_path / f"{pair}_{side}.json") for side in "ab"]
    for path, x in zip(paths, PAIRS[pair]()):
        write_matrix(path, x)
    out = tmp_path / f"{pair}.cert.json"
    rc = main(["check", *paths, "--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    assert rc == (0 if all(c["passed"] for c in checks) else 1)
    return {c["name"]: c["passed"] for c in checks}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("clean")
    return {pair: _verdicts(tmp_path, pair) for pair in PAIRS}


def test_the_clean_certificates_pass(clean):
    assert all(all(v.values()) for v in clean.values())
    assert set(clean["generic"]) == CHECK_NAMES - {"commuting_equality"}
    assert set(clean["commuting"]) == CHECK_NAMES


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("defect", list(FLIPS), ids=lambda d: d.__name__)
def test_defect_flips_exactly(defect, pair, clean, tmp_path, monkeypatch):
    defect(monkeypatch)
    verdicts = _verdicts(tmp_path, pair)
    assert set(verdicts) == set(clean[pair])
    assert {name for name, passed in verdicts.items() if not passed} == FLIPS[defect][pair]


def test_every_check_but_the_finite_power_certificate_is_flipped():
    flipped = set().union(*(s for flips in FLIPS.values() for s in flips.values()))
    assert flipped == CHECK_NAMES - {"finite_power_certificate"}


def test_finite_power_certificate_never_flips_alone():
    """It is implied by golden_thompson_gap, so it fails only where that check fails."""
    for flips in FLIPS.values():
        for names in flips.values():
            assert "finite_power_certificate" not in names or "golden_thompson_gap" in names
