import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravitunnel import (CycloidSolution, DomainError, compare_small_arc,
                         cycloid, cycloid_time,
                         family_from_separation)


class TestCycloidBetween:
    def test_level_endpoints_full_arch(self):
        sol = CycloidSolution(1.0)
        assert sol.horizontal_span == 1.0
        assert sol.rolling_radius == pytest.approx(1 / (2 * math.pi), rel=1e-15)

    def test_residuals_on_grid(self):
        worst = 0.0
        for span in np.linspace(0.05, 3.0, 10):
            sol = CycloidSolution(float(span))
            a, phi = sol.rolling_radius, 2 * math.pi
            worst = max(worst,
                        abs(a * (phi - math.sin(phi)) - span),
                        abs(a * (1 - math.cos(phi))))
        assert worst < 1e-12

    @pytest.mark.parametrize("span", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, span):
        with pytest.raises(DomainError):
            CycloidSolution(span)


class TestCycloidTime:
    def test_level_unit_span(self):
        sol = CycloidSolution(1.0)
        assert cycloid_time(sol) == pytest.approx(math.sqrt(2 * math.pi),
                                                  rel=1e-14)

    def test_scaling_in_rolling_radius(self):
        sol = CycloidSolution(horizontal_span=0.2 * math.pi)
        doubled = CycloidSolution(horizontal_span=0.4 * math.pi)
        assert cycloid_time(doubled) == pytest.approx(
            math.sqrt(2) * cycloid_time(sol), rel=1e-14)


class TestSmallArc:
    def test_gate(self):
        with pytest.raises(DomainError):
            compare_small_arc(0.25)
        with pytest.raises(DomainError):
            compare_small_arc(0.0)

    @pytest.mark.parametrize("delta", [1e-13, 1e-20, 1e-300, 5e-324])
    def test_below_the_floor_names_the_separation(self, delta):
        # below 1e-12 the stations' round-off swamps the mismatch
        with pytest.raises(DomainError, match=f"separation {delta!r}$"):
            compare_small_arc(delta)

    def test_tenth_radian_regression(self):
        report = compare_small_arc(0.1)
        assert report.relative_time_difference < 1e-2
        # frozen after the first calibration run
        assert report.relative_time_difference == pytest.approx(0.00799,
                                                                abs=3e-4)
        assert report.max_geometry_deviation == pytest.approx(0.00129,
                                                              abs=2e-4)

    @pytest.mark.parametrize("delta", [0.2, 0.1, 0.05, 0.025,
                                       1e-3, 1e-6, 1e-9, 1e-12])
    def test_geometry_deviation_against_mpmath(self, delta):
        # The float stations carry ~eps q of round-off in a mismatch of
        # ~q^2/8, q = delta/pi: about 5e-15/delta relative.
        got = compare_small_arc(delta).max_geometry_deviation
        exact = _geometry_deviation_50_digits(delta)
        assert abs(got - exact) <= 3e-14 / delta * exact

    @settings(max_examples=50, deadline=None)
    @given(st.floats(math.log10(1e-12), math.log10(0.2)))
    @example(math.log10(1e-12))
    @example(math.log10(0.2))
    def test_relative_time_difference_within_4_ulp(self, log_delta):
        delta = min(10.0 ** log_delta, 0.2)
        diff = compare_small_arc(delta).relative_time_difference
        with mpmath.workdps(50):
            x = mpmath.mpf(delta) / (2 * mpmath.pi)
            exact = 1 - mpmath.sqrt(1 - x)
            assert abs(diff - exact) <= 4 * math.ulp(float(exact))

    def test_depth_to_span_ratio_is_exactly_one_over_pi(self):
        for delta in np.linspace(0.01, math.pi, 40):
            fam = family_from_separation(float(delta))
            assert abs((1 - fam.rho_min) / delta - 1 / math.pi) < 1e-12


def _geometry_deviation_50_digits(delta):
    """compare_small_arc's mismatch at 50 digits over the same stations:
    each tunnel station in mpmath, the cycloid's rolling angle there by
    mpmath Newton from the station's hypocycloid angle."""
    n = cycloid._SAMPLES_PER_HALF
    with mpmath.workdps(50):
        q = mpmath.mpf(delta) / mpmath.pi
        b, width = q / 2, q * (2 - q)
        step = 2 * mpmath.asin(mpmath.sqrt(q / 2)) / (n - 1)
        worst = 0
        for i in range(1, n - 1):
            depth = 2 * mpmath.sin(i * step / 2) ** 2
            s = mpmath.sqrt(depth * (2 - depth) / width)
            c = mpmath.sqrt((q - depth) * ((2 - q) - depth) / width)
            half_phi = mpmath.atan2(s, c)
            x = q * half_phi - mpmath.atan2(q * s * c, (1 - q) + q * c * c)
            p = 2 * half_phi
            for _ in range(20):
                p_step = (b * (p - mpmath.sin(p)) - x) / (b * (1 - mpmath.cos(p)))
                p -= p_step
                if abs(p_step) <= mpmath.mpf(10) ** -40 * p:
                    break
            else:
                raise AssertionError(f"no Newton convergence at station {i}")
            worst = max(worst, abs(depth - 2 * b * mpmath.sin(p / 2) ** 2))
        return float(worst / delta)
