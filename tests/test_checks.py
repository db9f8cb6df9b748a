"""Negative controls: each breaks one clause of a registered check's
verdict through a monkeypatched route, and the verdict must turn False
with the detail showing the broken clause.  The check functions, their
inputs and their bounds are the registry's own."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from gravitunnel import (checks, cycloid, dimensional_time,
                         family_from_separation, oracle, timing)

INPUTS = {c.name: c.inputs for c in checks.REGISTRY}
SMALL_ARC = INPUTS["small-arc-limit"]["full"]
CHORD = INPUTS["chord-time-quadrature"]["reduced"]
TRIANGLE = INPUTS["oracle-triangle"]["reduced"]
STATIONARITY = INPUTS["stationarity"]["reduced"]
DRIFT = INPUTS["energy-drift"]["reduced"]


def _small_arc_with(monkeypatch, times=None, devs=None):
    """checks.small_arc with compare_small_arc's time difference and
    geometry deviation at each separation replaced where given."""
    real = cycloid.compare_small_arc
    separations = SMALL_ARC["separations"]

    def patched(delta):
        i = separations.index(delta)
        report = real(delta)
        return SimpleNamespace(
            relative_time_difference=(report.relative_time_difference
                                      if times is None else times[i]),
            max_geometry_deviation=(report.max_geometry_deviation
                                    if devs is None else devs[i]))

    monkeypatch.setattr(cycloid, "compare_small_arc", patched)
    return checks.small_arc(**SMALL_ARC)


def test_small_arc_passes_unpatched(monkeypatch):
    passed, _, _, detail = _small_arc_with(monkeypatch)
    assert passed and detail.startswith("monotone: True")


def test_small_arc_rejects_a_series_of_order_one_half(monkeypatch):
    # monotone, and 0.00799 at 0.1 rad as the real series, but of order 0.5
    d = np.array(SMALL_ARC["separations"])
    at_tenth = cycloid.compare_small_arc(0.1).relative_time_difference
    times = at_tenth * np.sqrt(d / 0.1)
    passed, measure, _, detail = _small_arc_with(monkeypatch, times=times)
    assert not passed
    assert measure == at_tenth
    assert detail.startswith("monotone: True, orders 0.50/")


def test_small_arc_rejects_a_series_that_is_not_monotone(monkeypatch):
    # of fitted order 1.8, but larger at 0.05 rad than at 0.1 rad
    devs = [0.04, 0.01, 0.0101, 0.000625]
    passed, _, _, detail = _small_arc_with(monkeypatch, devs=devs)
    assert not passed
    assert detail.startswith("monotone: False, orders 1.00/1.80 >= 1")


def test_chord_time_rejects_earth_seconds_one_percent_off(monkeypatch):
    monkeypatch.setattr(checks, "dimensional_time",
                        lambda tau, body: 1.01 * dimensional_time(tau, body))
    passed, measure, threshold, detail = checks.chord_time(**CHORD)
    assert not passed
    assert measure < threshold                  # the quadrature clause holds
    seconds = 1.01 * dimensional_time(np.pi, checks.EARTH)
    assert f"Earth {seconds:.1f} s" in detail
    assert seconds == pytest.approx(1.01 * 2531.9, rel=5e-4)


def _triangle_with(monkeypatch, optimizer_gap, bead_factor):
    """checks.oracle_triangle with the optimizer's time optimizer_gap
    under the quadrature and the bead's bead_factor times it."""
    def quadrature(delta):
        return 2.0 * timing.half_transit_time(
            family_from_separation(delta)).tau

    (delta,) = TRIANGLE["separations"]
    monkeypatch.setattr(oracle, "optimize_path", lambda d, m: SimpleNamespace(
        best_time=quadrature(d) - optimizer_gap))
    monkeypatch.setattr(oracle, "simulate_bead", lambda path: SimpleNamespace(
        transit_time=bead_factor * quadrature(delta)))
    return checks.oracle_triangle(**TRIANGLE)


def test_oracle_triangle_rejects_an_optimizer_undercut(monkeypatch):
    # the bead lands on the quadrature and the optimizer 1e-3 under it:
    # pairwise within 4e-4, so only the minimality clause can fail
    passed, measure, threshold, detail = _triangle_with(monkeypatch, 1e-3, 1.0)
    assert not passed
    assert measure < threshold
    assert detail.endswith("optimizer undercut 1.0e-03 <= 1.0e-06")


def test_oracle_triangle_rejects_a_pairwise_miss(monkeypatch):
    # the optimizer sits on the quadrature and the bead 1% above it: no
    # undercut, so only the pairwise clause can fail
    passed, measure, threshold, detail = _triangle_with(monkeypatch, 0.0, 1.01)
    assert not passed
    assert measure >= threshold
    assert detail.startswith("quadrature/optimizer/bead pairwise within "
                             "1.00e-02 < 5.0e-03")
    assert detail.endswith("optimizer undercut 0.0e+00 <= 1.0e-06")


def test_energy_drift_rejects_a_drift_of_2e_8(monkeypatch):
    monkeypatch.setattr(oracle, "simulate_bead",
                        lambda path: SimpleNamespace(max_energy_drift=2e-8))
    passed, measure, threshold, detail = checks.energy_drift(**DRIFT)
    assert not passed
    assert measure == 2e-8 and measure >= threshold
    assert detail == "bead energy drift 2.0e-08 < 1.0e-08 on all test paths"


def test_stationarity_rejects_a_doubling_ratio_of_4_5(monkeypatch):
    # a positive delta growing like amplitude^log2(4.5): never below
    # zero, so only the doubling-ratio clause can fail
    monkeypatch.setattr(oracle, "perturbation_test",
                        lambda fam, amp, mode: amp ** math.log2(4.5))
    passed, measure, _, detail = checks.stationarity(**STATIONARITY)
    assert not passed
    assert measure == 0.0
    assert detail.endswith("doubling ratio within 4.0 +/- 0.50 (limit 0.3)")
