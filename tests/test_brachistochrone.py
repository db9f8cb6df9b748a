import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import bisect_root, fd4, quad_half_length, quad_slope_sweep
from gravitunnel import (BrachFamily, DomainError, arc_length,
                         family_from_separation, rho_at_theta, rho_min,
                         sample_path, separation_angle, theta_of_rho,
                         theta_prime)
from gravitunnel import brachistochrone
from gravitunnel.brachistochrone import _bisect_bits, _theta_closed_form

K_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)


class TestRhoMin:
    @pytest.mark.parametrize("k", K_GRID)
    def test_matches_bisection_root_of_slope_denominator(self, k):
        root = bisect_root(lambda r: (k * k + 1.0) * r * r - k * k, 0.0, 1.0)
        assert abs(rho_min(k) - root) < 1e-12

    def test_limits(self):
        assert rho_min(0.0) == 0.0
        assert rho_min(1.0) == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert rho_min(1e9) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            rho_min(-0.1)


class TestThetaPrime:
    def test_zero_at_surface(self):
        for k in K_GRID:
            assert theta_prime(1.0, k) == 0.0

    def test_direct_value(self):
        # sqrt(0.19) / (0.9 * sqrt(0.62)), frozen from direct evaluation and
        # confirmed by the quadrature consistency test below
        assert theta_prime(0.9, 1.0) == pytest.approx(0.6150896882340685,
                                                      rel=1e-12)
        # theta'(c k) scales as 1/k for tiny k, also below k ~ 1e-154 where
        # (k^2+1)(rho - rm)(rho + rm) underflows
        assert theta_prime(1.5e-200, 1e-200) == pytest.approx(
            1e100 * theta_prime(1.5e-100, 1e-100), rel=1e-12)

    def test_diverges_at_minimum_radius(self):
        k = 1.0
        assert theta_prime(rho_min(k) + 1e-12, k) > 1e4

    def test_domain_errors_carry_offender(self):
        with pytest.raises(DomainError) as err:
            theta_prime(0.5, 1.0)   # below rho_min(1) = 0.707...
        assert "0.5" in str(err.value)
        with pytest.raises(DomainError):
            theta_prime(0.9, 0.0)
        with pytest.raises(DomainError):
            theta_prime(1.1, 1.0)


class TestThetaOfRho:
    def test_zero_at_surface(self):
        for k in K_GRID:
            assert theta_of_rho(1.0, k) == 0.0

    def test_turnaround_value_k1(self):
        # (1/sqrt(2) - 1) * pi/2, frozen
        assert theta_of_rho(rho_min(1.0), 1.0) == pytest.approx(
            -0.46007559225530514, abs=1e-10)

    @pytest.mark.parametrize("k", K_GRID)
    def test_endpoint_identity(self, k):
        rm = rho_min(k)
        assert theta_of_rho(rm, k) == pytest.approx((rm - 1) * math.pi / 2,
                                                    abs=1e-10)

    @pytest.mark.parametrize("k", (0.5, 1.0, 2.0))
    def test_quadrature_consistency(self, k):
        # theta(rho) - theta(1) == -integral of the slope from rho to 1
        rm = rho_min(k)
        for rho in np.linspace(rm + 0.05 * (1 - rm), 0.999, 7):
            integral, _ = quad(lambda r: theta_prime(r, k), rho, 1.0,
                               limit=200, epsabs=1e-12, epsrel=1e-12)
            assert theta_of_rho(float(rho), k) == pytest.approx(-integral,
                                                                abs=1e-8)

    @pytest.mark.parametrize("k", K_GRID)
    def test_derivative_matches_slope_field(self, k):
        # the decisive coefficient check: d theta/d rho must reproduce
        # theta_prime to 1e-6 relative across the open interval
        rm = rho_min(k)
        grid = np.linspace(rm + 1e-4, 1.0 - 1e-4, 500)
        fd = fd4(lambda r: np.asarray(theta_of_rho(r, k)), grid, 2e-6)
        rel = np.abs(fd - theta_prime(grid, k)) / np.abs(theta_prime(grid, k))
        assert np.max(rel) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            theta_of_rho(0.5, 1.0)
        with pytest.raises(DomainError):
            theta_of_rho(1.2, 1.0)

    def test_degenerate_diameter(self):
        assert theta_of_rho(0.5, 0.0) == 0.0
        assert theta_of_rho(0.0, 0.0) == -math.pi / 2
        # a tiny k > 0 is no diameter: theta(c k) does not depend on k
        for k in (1e-100, 1e-200, 1e-300):
            assert theta_of_rho(1.5 * k, k) == pytest.approx(
                -0.7297276562269663, rel=1e-12)


class TestSeparationAngle:
    def test_limits(self):
        assert separation_angle(0.0) == math.pi
        assert separation_angle(1.0) == pytest.approx(
            math.pi * (1 - 1 / math.sqrt(2)), rel=1e-12)
        assert separation_angle(1e8) < 1e-7

    @pytest.mark.parametrize("k", (0.5, 1.0, 2.0))
    def test_matches_slope_quadrature(self, k):
        assert separation_angle(k) == pytest.approx(quad_slope_sweep(k),
                                                    abs=1e-8)


class TestFamily:
    def test_through_center(self):
        fam = family_from_separation(math.pi)
        assert fam.k == 0.0 and fam.rho_min == 0.0

    def test_right_angle(self):
        fam = family_from_separation(math.pi / 2)
        assert fam.rho_min == pytest.approx(0.5, rel=1e-14)
        assert fam.k == pytest.approx(1 / math.sqrt(3), rel=1e-14)

    def test_round_trip_bijection(self):
        for delta in np.linspace(1e-6, math.pi, 60):
            fam = family_from_separation(float(delta))
            assert separation_angle(fam.k) == pytest.approx(float(delta),
                                                            abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.pi + 1e-6, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            family_from_separation(bad)

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(DomainError):
            BrachFamily(k=1.0, rho_min=0.3, separation_angle=1.0)


class TestSamplePath:
    def test_degenerate_diameter_three_points(self):
        path = sample_path(BrachFamily.from_momentum(0.0), 2)
        assert len(path) == 3
        assert list(path.rho) == [1.0, 0.0, 1.0]
        assert path.theta[0] == 0.0
        assert path.theta[-1] == pytest.approx(-math.pi, rel=1e-15)

    @pytest.mark.parametrize("k", (0.3, 1.0, 5.0))
    def test_midpoint_is_turnaround(self, k):
        fam = BrachFamily.from_momentum(k)
        path = sample_path(fam, 50)
        assert len(path) == 99
        assert path.min_index == 49
        assert path.rho[49] == fam.rho_min

    def test_mirror_congruence(self):
        path = sample_path(BrachFamily.from_momentum(1.0), 100)
        mid_theta = path.theta[99]
        assert np.max(np.abs(path.rho - path.rho[::-1])) < 1e-12
        folded = 2 * mid_theta - path.theta[::-1]
        assert np.max(np.abs(path.theta - folded)) < 1e-12

    @pytest.mark.parametrize("k", (0.0, 0.3, 1.0, 5.0))
    def test_monotone_dip_and_separation(self, k):
        fam = BrachFamily.from_momentum(k)
        path = sample_path(fam, 200)
        assert path.is_monotone_dip(tol=1e-15)
        assert path.rho[0] == 1.0 and path.rho[-1] == 1.0
        assert path.endpoint_separation() == pytest.approx(
            fam.separation_angle, abs=1e-10)

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            sample_path(BrachFamily.from_momentum(1.0), 1)


class TestArcLength:
    def test_diameter(self):
        assert arc_length(BrachFamily.from_momentum(0.0)) == 2.0

    def test_k1_against_quadpack_and_chord_bound(self):
        fam = BrachFamily.from_momentum(1.0)
        value = arc_length(fam)
        assert value == pytest.approx(2.0 * quad_half_length(1.0), abs=1e-9)
        assert value > 2.0 * math.sin(fam.separation_angle / 2.0)

    def test_monotone_in_k_and_chord_lower_bound(self):
        ks = np.geomspace(0.05, 20.0, 12)
        lengths = []
        for k in ks:
            fam = BrachFamily.from_momentum(float(k))
            value = arc_length(fam)
            assert value >= 2.0 * math.sin(fam.separation_angle / 2.0)
            lengths.append(value)
        assert np.all(np.diff(lengths) < 0)

    def test_short_tunnel_limit(self):
        assert arc_length(BrachFamily.from_momentum(1e-6)) == pytest.approx(
            2.0, abs=1e-6)


class TestRhoAtTheta:
    def test_inverts_theta_of_rho(self):
        fam = BrachFamily.from_momentum(1.0)
        for rho in np.linspace(fam.rho_min + 1e-6, 1.0, 9):
            theta = theta_of_rho(float(rho), fam.k)
            assert rho_at_theta(fam, theta) == pytest.approx(float(rho),
                                                             abs=1e-12)

    def test_mirror_half(self):
        fam = BrachFamily.from_momentum(1.0)
        sep = fam.separation_angle
        assert rho_at_theta(fam, -sep + 0.1) == pytest.approx(
            rho_at_theta(fam, -0.1), abs=1e-12)
        assert rho_at_theta(fam, 0.0) == 1.0
        assert rho_at_theta(fam, -sep / 2) == pytest.approx(fam.rho_min,
                                                            abs=1e-12)

    def test_domain(self):
        fam = BrachFamily.from_momentum(1.0)
        with pytest.raises(DomainError):
            rho_at_theta(fam, 0.5)


@st.composite
def family_and_angle(draw):
    # bulk separations, plus momenta so small that (k^2+1)(rho^2 - rm^2)
    # underflows near the turnaround
    if draw(st.booleans()):
        fam = family_from_separation(draw(st.floats(1e-9, math.pi)))
    else:
        fam = BrachFamily.from_momentum(10.0 ** draw(st.floats(-300, -100)))
    return fam, draw(st.floats(-fam.separation_angle, 0.0))


def assert_adjacent_float_brackets(fam, thetas, rho):
    """Each interior radius closes its target's bracket on adjacent floats.

    It must also lie within a few floats of a bisection over the whole of
    [rho_min, 1]; the two can differ only where the computed angle is not
    monotone.  The angle is the closed form on the family's own rho_min,
    which for a family built from its separation can differ in the last
    bit from the rho_min(k) that theta_of_rho derives.
    """
    sep, k, rm = fam.separation_angle, fam.k, fam.rho_min
    target = np.where(thetas < -sep / 2.0, -sep - thetas, thetas)
    inner = (target < 0.0) & (rho > rm)
    r, t = rho[inner], target[inner]
    assert np.all(_theta_closed_form(np.nextafter(r, 0.0), k, rm) < t)
    assert np.all(_theta_closed_form(r, k, rm) >= t)
    whole = _bisect_bits(np.full(r.size, rm).view(np.int64),
                         np.ones(r.size).view(np.int64), t, k, rm)
    ulps = np.abs(r.view(np.int64) - whole)
    assert ulps.max() <= 4, f"largest difference {ulps.max()} floats"


class TestRhoAtThetaSolve:
    """The vectorized bisection behind rho_at_theta, over its whole domain."""

    @settings(max_examples=400, deadline=None)
    @given(family_and_angle())
    def test_brackets_the_target(self, case):
        fam, theta = case
        sep, rm, k = fam.separation_angle, fam.rho_min, fam.k
        r = rho_at_theta(fam, theta)
        assert rm <= r <= 1.0
        target = -sep - theta if theta < -sep / 2.0 else theta
        slack = max(1e-15 * r, 5e-324)   # relative, so tiny radii count too
        # the bisector maps to exactly rho_min, whose computed angle may
        # round to either side of -sep/2: nothing lies below it to compare
        below = theta_of_rho(max(r - slack, rm), k) if r > rm else -math.inf
        above = theta_of_rho(min(r + slack, 1.0), k)
        assert below <= target <= above
        if k > 0.0 and r > rm:   # theta is continuous: tight in angle too
            assert above - below <= 1e-6

    @pytest.mark.parametrize("sep", (1e-12, 1e-6, 0.1, 1.5, 3.0,
                                     math.pi - 1e-9))
    def test_matches_per_angle_brentq(self, sep):
        # the per-angle root finder this solve replaced, as the reference;
        # its stopping rule xtol=1e-15, rtol=8.9e-16 bounds the gap
        fam = family_from_separation(sep)
        thetas = np.linspace(-sep / 2.0, 0.0, 52)[1:-1]
        ref = [brentq(lambda r, t=t: theta_of_rho(r, fam.k) - t, fam.rho_min,
                      1.0, xtol=1e-15, rtol=8.9e-16) for t in thetas]
        assert np.max(np.abs(rho_at_theta(fam, thetas) - ref)) <= 2e-15

    def test_scalar_and_array_shapes(self):
        fam = family_from_separation(1.0)
        for scalar in (-0.3, np.float64(-0.3), np.array(-0.3)):
            assert type(rho_at_theta(fam, scalar)) is float
        grid = np.linspace(-1.0, 0.0, 12).reshape(3, 4)
        out = rho_at_theta(fam, grid)
        assert out.shape == (3, 4)
        assert out[1, 2] == rho_at_theta(fam, float(grid[1, 2]))

    @pytest.mark.parametrize("sep", (1e-9, 1e-6, 0.01, 0.7, 2.498, 3.1,
                                     math.pi - 1e-6, math.pi))
    def test_mirror_symmetry_on_dense_grid(self, sep):
        fam = family_from_separation(sep)
        thetas = np.linspace(-sep, 0.0, 1000)
        rho = rho_at_theta(fam, thetas)
        assert np.max(np.abs(rho - rho[::-1])) <= 1e-12
        assert rho[0] == rho[-1] == 1.0
        if fam.k > 0.0:
            assert_adjacent_float_brackets(fam, thetas, rho)

    @pytest.mark.parametrize("sep", (1e-9, 0.01, 3.1))
    def test_missed_seeds_bisect_the_whole_bracket(self, sep, monkeypatch):
        # with no Newton steps the linear seed misses most brackets, so
        # those angles are bisected again over the whole of [rho_min, 1]
        fam = family_from_separation(sep)
        thetas = np.linspace(-sep, 0.0, 1000)
        whole_bracket = []

        def spy(lo, hi, target, k, rm):
            whole_bracket.append(int(np.sum((lo.view(float) == rm)
                                            & (hi.view(float) == 1.0))))
            return _bisect_bits(lo, hi, target, k, rm)
        monkeypatch.setattr(brachistochrone, "_NEWTON_STEPS", 0)
        monkeypatch.setattr(brachistochrone, "_bisect_bits", spy)
        rho = rho_at_theta(fam, thetas)
        assert whole_bracket[-1] > 0
        assert_adjacent_float_brackets(fam, thetas, rho)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_angle_is_named(self, bad):
        fam = family_from_separation(1.0)
        with pytest.raises(DomainError, match=repr(bad)):
            rho_at_theta(fam, bad)
        with pytest.raises(DomainError, match=repr(bad)):
            rho_at_theta(fam, np.array([-0.5, bad, -0.2]))

    def test_out_of_range_angle_is_named(self):
        fam = family_from_separation(1.0)
        with pytest.raises(DomainError, match="0.5"):
            rho_at_theta(fam, 0.5)
        with pytest.raises(DomainError, match="-1.25"):
            rho_at_theta(fam, np.array([-0.5, -1.25]))
