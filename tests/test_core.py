import math
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from gravitunnel import (DiscretePath, DomainError, PhysicalParams,
                         dimensional_time, family_from_separation,
                         make_scaling, rho_at_theta, sample_path)

EARTH = PhysicalParams(radius_m=6.371e6, gravity_m_s2=9.80665)


def test_make_scaling_unit_sphere():
    s = make_scaling(PhysicalParams(1.0, 1.0))
    assert s.time_unit_s == 1.0
    assert s.speed_unit_m_s == 1.0
    assert s.length_unit_m == 1.0


def test_make_scaling_perfect_squares():
    s = make_scaling(PhysicalParams(4.0, 1.0))
    assert s.time_unit_s == 2.0
    assert s.speed_unit_m_s == 2.0


def test_make_scaling_earth():
    # sqrt(6.371e6 / 9.80665), frozen from direct evaluation
    s = make_scaling(EARTH)
    assert s.time_unit_s == pytest.approx(806.0156321612119, rel=1e-12)


@pytest.mark.parametrize("radius,gravity", [(0.0, 9.8), (-1.0, 9.8),
                                            (6e6, 0.0), (6e6, -9.8),
                                            (math.nan, 9.8)])
def test_params_validation(radius, gravity):
    with pytest.raises(DomainError):
        PhysicalParams(radius, gravity)


def test_scaling_product_identity():
    for params in (EARTH, PhysicalParams(1.0, 1.0), PhysicalParams(3.39e6, 3.71),
                   PhysicalParams(0.5, 123.0)):
        s = make_scaling(params)
        product = s.time_unit_s * s.speed_unit_m_s
        assert abs(product - s.length_unit_m) <= 4 * math.ulp(s.length_unit_m)


def test_dimensional_time():
    s = make_scaling(EARTH)
    # pi * sqrt(R/g), frozen; the classic "about 42 minutes"
    t = dimensional_time(math.pi, s)
    assert t == pytest.approx(2532.1727886761964, rel=1e-12)
    assert 42.0 < t / 60.0 < 42.5
    assert dimensional_time(0.0, s) == 0.0
    assert dimensional_time(1.0, make_scaling(PhysicalParams(1, 1))) == 1.0


class TestDiscretePath:
    def test_from_arrays_basics(self):
        path = DiscretePath.from_arrays([1.0, 0.5, 1.0], [0.0, -0.5, -1.0])
        assert len(path) == 3
        assert path.endpoint_separation() == 1.0

    def test_arrays_are_read_only(self):
        path = DiscretePath.from_arrays([1.0, 0.5, 1.0], [0.0, -0.5, -1.0])
        with pytest.raises(ValueError):
            path.rho[0] = 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            DiscretePath.from_arrays([1.0], [0.0])
        with pytest.raises(DomainError):
            DiscretePath.from_arrays([1.0, 0.5], [0.0])
        with pytest.raises(DomainError):
            DiscretePath.from_arrays([1.0, 1.2], [0.0, -0.5])
        with pytest.raises(DomainError):
            DiscretePath.from_arrays([1.0, 0.5], [0.0, math.inf])

    def test_depth(self):
        plain = DiscretePath.from_arrays([1.0, 0.5, 1.0], [0.0, -0.5, -1.0])
        assert np.array_equal(plain.depth, 1.0 - plain.rho)
        path = DiscretePath.from_arrays([1.0, 0.5, 1.0], [0.0, -0.5, -1.0],
                                        [0.0, 0.5, 0.0])
        assert path.depth.tolist() == [0.0, 0.5, 0.0]
        with pytest.raises(ValueError):
            path.depth[0] = 0.5
        with pytest.raises(DomainError):
            DiscretePath.from_arrays([1.0, 0.5], [0.0, -0.5], [0.0])
        with pytest.raises(DomainError):
            DiscretePath.from_arrays([1.0, 0.5], [0.0, -0.5], [0.0, 1.5])
        # a depth that contradicts rho would decide the surface wrongly
        with pytest.raises(DomainError,
                           match=r"depth\[0\] = 0\.5.*rho\[0\] = 1\.0"):
            DiscretePath.from_arrays([1.0, 0.5, 1.0], [0.0, -0.5, -1.0],
                                     [0.5, 0.5, 0.5])
        near = DiscretePath.from_arrays([1.0, 0.5], [0.0, -0.5],
                                        [1e-13, 0.5])
        assert near.depth[0] == 1e-13

    def test_xy_and_arclength(self):
        path = DiscretePath.from_arrays([1.0, 0.0, 1.0], [0.0, -0.1, -math.pi])
        x, y = path.xy()
        assert x[0] == 1.0 and abs(y[0]) == 0.0
        s = path.cumulative_arclength()
        assert s[0] == 0.0
        assert s[-1] == pytest.approx(2.0, rel=1e-15)

    def test_chord_lengths_below_an_ulp_of_rho(self):
        # the first segments of a 1e-12 tunnel are ~1e-20 long
        path = sample_path(family_from_separation(1e-12), 100)
        with mpmath.workdps(50):
            r = [1 - mpmath.mpf(d) for d in path.depth]
            t = [mpmath.mpf(a) for a in path.theta]
            ref = np.array([mpmath.sqrt((r[i + 1] - r[i]) ** 2
                                        + 4 * r[i] * r[i + 1]
                                        * mpmath.sin((t[i + 1] - t[i]) / 2) ** 2)
                            for i in range(len(path) - 1)], dtype=float)
        assert np.max(np.abs(path.chord_lengths() - ref) / ref) < 1e-14


def test_pure_functions_are_thread_safe():
    fam = family_from_separation(1.0)
    theta = np.linspace(0.0, -1.0, 10001)
    expected = rho_at_theta(fam, theta)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: rho_at_theta(fam, theta), range(16)))
    for r in results:
        assert np.array_equal(r, expected)
