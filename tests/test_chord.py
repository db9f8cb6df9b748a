import math

import numpy as np
import pytest

from gravitunnel import (ChordSpec, DomainError, PhysicalParams, chord_path,
                         chord_transit_time, dimensional_time,
                         path_transit_time)


def test_chord_spec_values():
    diameter = ChordSpec(math.pi)
    assert diameter.half_chord == pytest.approx(1.0, abs=1e-15)
    assert diameter.midpoint_radius == pytest.approx(0.0, abs=1e-15)
    right = ChordSpec(math.pi / 2)
    assert right.half_chord == pytest.approx(math.sqrt(2) / 2, rel=1e-15)
    sixty = ChordSpec(math.pi / 3)
    assert sixty.half_chord == pytest.approx(0.5, rel=1e-15)


def test_chord_geometry_identity():
    for delta in np.linspace(1e-3, math.pi, 50):
        spec = ChordSpec(float(delta))
        assert spec.half_chord**2 + spec.midpoint_radius**2 == pytest.approx(
            1.0, abs=1e-15)


@pytest.mark.parametrize("bad", [0.0, -0.5, math.pi + 0.2, math.nan])
def test_chord_separation_domain(bad):
    with pytest.raises(DomainError):
        ChordSpec(bad)


def test_transit_time_is_pi_bitwise():
    for delta in (0.1, math.pi / 3, math.pi / 2, math.pi):
        assert chord_transit_time(ChordSpec(delta)) == math.pi


def test_transit_time_earth_minutes():
    earth = PhysicalParams(6.371e6, 9.80665)
    minutes = dimensional_time(chord_transit_time(ChordSpec(1.0)),
                               earth) / 60.0
    assert minutes == pytest.approx(42.2, abs=0.1)


def test_chord_path_samples():
    diameter = chord_path(ChordSpec(math.pi), 3)
    assert diameter.rho[0] == 1.0 and diameter.rho[-1] == 1.0
    assert diameter.rho[1] < 1e-15
    quarter = chord_path(ChordSpec(math.pi / 2), 3)
    assert quarter.rho[1] == pytest.approx(math.cos(math.pi / 4), rel=1e-12)
    rise, fall = np.diff(quarter.depth)
    assert rise > 0.0 > fall
    with pytest.raises(DomainError):
        chord_path(ChordSpec(1.0), 1)


def test_chord_path_endpoints_exact():
    for delta in (0.1, 1.0, math.pi):
        path = chord_path(ChordSpec(delta), 101)
        assert path.rho[0] == 1.0 and path.rho[-1] == 1.0
        assert path.theta[0] == 0.0
        assert path.theta[-1] == -delta


def test_chord_path_depth():
    for delta in (1e-9, 1.0, math.pi):
        path = chord_path(ChordSpec(delta), 101)
        assert path.depth[0] == 0.0 and path.depth[-1] == 0.0
        assert np.all(path.depth[1:-1] > 0.0)
        assert np.max(np.abs(path.depth - (1.0 - path.rho))) <= 1e-15
    # the midpoint sits at cos(delta/2), 1.25e-13 below the surface here
    mid = chord_path(ChordSpec(1e-6), 3).depth[1]
    assert mid == pytest.approx(2.0 * math.sin(2.5e-7) ** 2, rel=1e-15)


# rho cannot order these samples (at 1e-12 every one rounds to 1.0); the
# depth marks the midpoint as the deepest
@pytest.mark.parametrize("delta", [1e-12, 1e-6, 0.1, math.pi])
def test_chord_path_min_index_is_midpoint(delta):
    depth = chord_path(ChordSpec(delta), 201).depth
    assert int(np.argmax(depth)) == 100


# 1e-9 to 1e-4 are too shallow for rho alone; the path's depth times them
@pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-4, 0.1, math.pi / 4,
                                   math.pi / 2, math.pi])
def test_quadrature_reproduces_shm_half_period(delta):
    path = chord_path(ChordSpec(delta), 10_000)
    result = path_transit_time(path)
    assert abs(result.tau - math.pi) / math.pi < 1e-4
