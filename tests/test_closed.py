import math

import pytest

from gravitunnel import DomainError, PhysicalParams, dimensional_time
from gravitunnel.closed import EARTH


def test_units_of_the_unit_sphere():
    body = PhysicalParams(1.0, 1.0)
    assert body.time_unit_s == 1.0
    assert body.speed_unit_m_s == 1.0
    assert body.length_unit_m == 1.0


def test_units_of_perfect_squares():
    body = PhysicalParams(4.0, 1.0)
    assert body.time_unit_s == 2.0
    assert body.speed_unit_m_s == 2.0


def test_units_of_earth():
    assert EARTH == PhysicalParams(radius_m=6.371e6, gravity_m_s2=9.80665)
    # sqrt(6.371e6 / 9.80665), frozen from direct evaluation
    assert EARTH.time_unit_s == pytest.approx(806.0156321612119, rel=1e-12)
    assert EARTH.length_unit_m == 6.371e6


@pytest.mark.parametrize("radius,gravity", [(0.0, 9.8), (-1.0, 9.8),
                                            (6e6, 0.0), (6e6, -9.8),
                                            (math.nan, 9.8)])
def test_params_validation(radius, gravity):
    with pytest.raises(DomainError):
        PhysicalParams(radius, gravity)


def test_units_product_identity():
    for body in (EARTH, PhysicalParams(1.0, 1.0), PhysicalParams(3.39e6, 3.71),
                 PhysicalParams(0.5, 123.0)):
        product = body.time_unit_s * body.speed_unit_m_s
        assert abs(product - body.length_unit_m) <= 4 * math.ulp(
            body.length_unit_m)


def test_dimensional_time():
    # pi * sqrt(R/g), frozen; the classic "about 42 minutes"
    t = dimensional_time(math.pi, EARTH)
    assert t == pytest.approx(2532.1727886761964, rel=1e-12)
    assert 42.0 < t / 60.0 < 42.5
    assert dimensional_time(0.0, EARTH) == 0.0
    assert dimensional_time(1.0, PhysicalParams(1, 1)) == 1.0
