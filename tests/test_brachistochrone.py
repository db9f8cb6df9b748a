import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import quad_half_length, quad_slope_sweep
from gravitunnel import (BrachFamily, DomainError, arc_length,
                         family_from_separation, path_transit_time,
                         rho_at_theta, rho_min, sample_path, separation_angle,
                         theta_of_rho, theta_prime, total_transit_time)
from gravitunnel import brachistochrone
from gravitunnel.brachistochrone import _bisect_bits, _theta_closed_form
from gravitunnel.closed import tunnel_step

K_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)
# the largest k, and the smallest separation, whose turnaround depth
# is a normal float
K_LIMIT = 4.740375954054588e+153
SEP_LIMIT = 6.990275687580919e-308


def assert_one_formula(fam):
    """Each quantity of the family is its module formula of k, bit for
    bit, and its turnaround is where theta_of_rho puts it."""
    assert fam.rho_min == rho_min(fam.k)
    assert fam.separation_angle == separation_angle(fam.k)
    assert fam.separation_angle == math.pi * fam.depth
    turn = theta_of_rho(fam.rho_min, fam.k)
    assert abs(turn + fam.separation_angle / 2) <= 1e-15


class TestRhoMin:
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
        # k from x = delta/pi, not from the rounded rho_min = 1 - x, which
        # holds only ~16 - log10(1/x) of x's digits
        for delta in (1e-12, 1e-9, 1e-6):
            fam = family_from_separation(delta)
            assert separation_angle(fam.k) == pytest.approx(delta, rel=1e-14)
            with mpmath.workdps(50):
                x = mpmath.mpf(delta) / mpmath.pi
                k = (1 - x) / mpmath.sqrt(x * (2 - x))
            assert fam.k == pytest.approx(float(k), rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.pi + 1e-6, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            family_from_separation(bad)

    @settings(max_examples=400, deadline=None)
    @given(st.floats(-300.0, 160.0))
    @example(3.0)
    @example(5.0)
    @example(math.log10(3e7))
    @example(math.log10(6.7e7))
    @example(8.0)
    @example(12.0)
    @example(math.log10(K_LIMIT))
    @example(math.log10(1.3e154))
    def test_momentum_within_4_ulp_or_names_k(self, log_k):
        # 1 - rho_min = 1/(h (h + k)) with h = sqrt(k^2 + 1), the transit
        # time pi sqrt(1 - rho_min^2) is pi/h and the arc length 2/h^2:
        # all free of cancellation, so exact at 50 digits.  Past K_LIMIT
        # the depth is no longer a normal float.
        k = 10.0 ** log_k
        if k > K_LIMIT:
            with pytest.raises(DomainError, match=re.escape(repr(k))):
                BrachFamily(k)
            return
        fam = BrachFamily(k)
        with mpmath.workdps(50):
            h = mpmath.sqrt(mpmath.mpf(k) ** 2 + 1)
            for value, exact in ((fam.separation_angle, mpmath.pi / (h * (h + k))),
                                 (fam.depth, 1 / (h * (h + k))),
                                 (fam.rho_min, k / h),
                                 (total_transit_time(fam).tau, mpmath.pi / h),
                                 (arc_length(fam), 2 / h ** 2)):
                assert abs(mpmath.mpf(value) - exact) <= 4 * math.ulp(float(exact))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.just(0.0), st.floats(-300.0, 12.0).map(lambda e: 10.0 ** e)))
    def test_each_quantity_has_one_formula_from_k(self, k):
        assert_one_formula(BrachFamily(k))

    @settings(max_examples=400, deadline=None)
    @given(st.floats(math.log(1e-12), math.log(math.pi)))
    @example(math.log(math.pi))
    @example(math.log(1e-4))
    def test_each_quantity_has_one_formula_from_separation(self, log_sep):
        sep = min(math.exp(log_sep), math.pi)
        fam = family_from_separation(sep)
        assert_one_formula(fam)
        x = sep / math.pi
        assert fam.k == (1.0 - x) / math.sqrt(x * (2.0 - x))
        assert abs(fam.separation_angle - sep) <= 8 * math.ulp(sep)

    def test_domain_ends_name_the_input(self):
        # the depth separation/pi, and 1/(h (h + k)), stay normal floats
        for sep in (SEP_LIMIT, 1e-300, 1e-200):
            fam = family_from_separation(sep)
            assert fam.depth >= sys.float_info.min
            assert abs(fam.separation_angle - sep) <= 8 * math.ulp(sep)
        for sep in (5e-324, 1e-310, math.nextafter(SEP_LIMIT, 0.0)):
            with pytest.raises(DomainError, match=re.escape(repr(sep))):
                family_from_separation(sep)
        assert BrachFamily(K_LIMIT).depth >= sys.float_info.min
        for k in (math.nextafter(K_LIMIT, math.inf), 1e200, sys.float_info.max):
            with pytest.raises(DomainError, match=re.escape(repr(k))):
                BrachFamily(k)


class TestSamplePath:
    def test_degenerate_diameter_three_points(self):
        path = sample_path(BrachFamily(0.0), 2)
        assert len(path) == 3
        assert list(path.rho) == [1.0, 0.0, 1.0]
        assert path.theta[0] == 0.0
        assert path.theta[-1] == pytest.approx(-math.pi, rel=1e-15)

    @pytest.mark.parametrize("fam", [
        *(pytest.param(BrachFamily(k), id=str(k))
          for k in (0.3, 1.0, 5.0)),
        pytest.param(family_from_separation(1e-4), id="sep1e-4")])
    def test_midpoint_is_turnaround(self, fam):
        path = sample_path(fam, 50)
        assert len(path) == 99
        assert int(np.argmax(path.depth)) == 49
        assert path.rho[49] == fam.rho_min
        assert path.theta[49] == -fam.separation_angle / 2
        assert path.depth[49] == fam.depth
        reference = total_transit_time(fam).tau
        tau = path_transit_time(sample_path(fam, 10_000)).tau
        assert 0.0 <= tau - reference <= 1e-6 * reference

    def test_mirror_congruence(self):
        path = sample_path(BrachFamily(1.0), 100)
        mid_theta = path.theta[99]
        assert np.max(np.abs(path.rho - path.rho[::-1])) < 1e-12
        folded = 2 * mid_theta - path.theta[::-1]
        assert np.max(np.abs(path.theta - folded)) < 1e-12

    @pytest.mark.parametrize("k", (0.0, 0.3, 1.0, 5.0))
    def test_monotone_dip_and_separation(self, k):
        fam = BrachFamily(k)
        path = sample_path(fam, 200)
        steps = np.diff(path.depth)             # deepest at sample 199
        assert np.all(steps[:199] > 0.0) and np.all(steps[199:] < 0.0)
        assert path.rho[0] == 1.0 and path.rho[-1] == 1.0
        assert path.endpoint_separation() == pytest.approx(
            fam.separation_angle, abs=1e-10)

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            sample_path(BrachFamily(1.0), 1)


class TestHypocycloid:
    """sample_path's angles against 50 digits and against theta_of_rho."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(math.log(1e-12), math.log(math.pi)),
           st.integers(2, 2000))
    @example(math.log(math.pi), 2000)
    @example(math.log(3.1), 2000)
    @example(math.log(1e-12), 2000)
    def test_theta_against_references(self, log_sep, n):
        fam = family_from_separation(min(math.exp(log_sep), math.pi))
        sep = fam.separation_angle
        path = sample_path(fam, n)
        assert path.theta[n - 1] == -sep / 2
        assert path.depth[n - 1] == fam.depth
        step = tunnel_step(fam.depth, n)
        # the hypocycloid at the samples' own angles beta = i * step:
        # s = sin(phi/2) = sin(beta) / sqrt(1 - rho_min^2)
        picks = sorted({*range(0, n - 1, max(1, n // 16)),
                        *range(max(0, n - 4), n - 1)})
        with mpmath.workdps(50):
            q = mpmath.mpf(sep) / mpmath.pi
            for i in picks:
                s = mpmath.sin(mpmath.mpf(i * step)) / mpmath.sqrt(q * (2 - q))
                c = mpmath.sqrt(1 - s * s)
                exact = (mpmath.atan2(q * s * c, 1 - q * s * s)
                         - q * mpmath.atan2(s, c))
                assert abs(path.theta[i] - exact) <= 1e-13 * sep
        if 1e-3 <= sep <= 3.1:
            betas = np.arange(n - 1) * step
            paper = theta_of_rho(np.cos(betas), fam.k)
            assert np.max(np.abs(path.theta[:n - 1] - paper)) <= 1e-12

    def test_diameter(self):
        # b = 1/2: the straight diameter, theta 0 down to the center
        fam = BrachFamily(0.0)
        path = sample_path(fam, 1000)
        assert np.max(np.abs(path.theta[:999])) <= 1e-15
        assert path.theta[999] == -math.pi / 2
        assert path_transit_time(path).tau == pytest.approx(math.pi,
                                                            rel=1e-14)


class TestArcLength:
    def test_diameter(self):
        assert arc_length(BrachFamily(0.0)) == 2.0

    def test_k1_against_quadpack_and_chord_bound(self):
        fam = BrachFamily(1.0)
        value = arc_length(fam)
        assert value == pytest.approx(2.0 * quad_half_length(1.0), abs=1e-9)
        assert value > 2.0 * math.sin(fam.separation_angle / 2.0)

    def test_monotone_in_k_and_chord_lower_bound(self):
        ks = np.geomspace(0.05, 20.0, 12)
        lengths = []
        for k in ks:
            fam = BrachFamily(float(k))
            value = arc_length(fam)
            assert value >= 2.0 * math.sin(fam.separation_angle / 2.0)
            lengths.append(value)
        assert np.all(np.diff(lengths) < 0)

    def test_short_tunnel_limit(self):
        assert arc_length(BrachFamily(1e-6)) == pytest.approx(
            2.0, abs=1e-6)


class TestRhoAtTheta:
    def test_inverts_theta_of_rho(self):
        fam = BrachFamily(1.0)
        for rho in np.linspace(fam.rho_min + 1e-6, 1.0, 9):
            theta = theta_of_rho(float(rho), fam.k)
            assert rho_at_theta(fam, theta) == pytest.approx(float(rho),
                                                             abs=1e-12)

    def test_mirror_half(self):
        fam = BrachFamily(1.0)
        sep = fam.separation_angle
        assert rho_at_theta(fam, -sep + 0.1) == pytest.approx(
            rho_at_theta(fam, -0.1), abs=1e-12)
        assert rho_at_theta(fam, 0.0) == 1.0
        assert rho_at_theta(fam, -sep / 2) == pytest.approx(fam.rho_min,
                                                            abs=1e-12)

    def test_domain(self):
        fam = BrachFamily(1.0)
        with pytest.raises(DomainError):
            rho_at_theta(fam, 0.5)


def test_pure_functions_are_thread_safe():
    fam = family_from_separation(1.0)
    theta = np.linspace(0.0, -1.0, 10001)
    expected = rho_at_theta(fam, theta)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: rho_at_theta(fam, theta), range(16)))
    for r in results:
        assert np.array_equal(r, expected)


@st.composite
def family_and_angle(draw):
    # bulk separations, plus momenta so small that (k^2+1)(rho^2 - rm^2)
    # underflows near the turnaround
    if draw(st.booleans()):
        fam = family_from_separation(draw(st.floats(1e-12, math.pi)))
    else:
        fam = BrachFamily(10.0 ** draw(st.floats(-300, -100)))
    return fam, draw(st.floats(-fam.separation_angle, 0.0))


def assert_adjacent_float_brackets(fam, thetas, rho):
    """Each interior radius closes its target's bracket on adjacent floats.

    It must also lie within a few floats of a bisection over the whole of
    [rho_min, 1]; the two can differ only where the computed angle is not
    monotone.
    """
    sep, k, rm = fam.separation_angle, fam.k, fam.rho_min
    target = np.where(thetas < -sep / 2.0, -sep - thetas, thetas)
    inner = (target < 0.0) & (rho > rm)
    r, t = rho[inner], target[inner]
    assert np.all(_theta_closed_form(np.nextafter(r, 0.0), k, rm) < t)
    assert np.all(_theta_closed_form(r, k, rm) >= t)
    ends = np.array([rm, 1.0]).view(np.int64)
    whole = _bisect_bits(np.full(r.size, ends[0]), int(ends[1] - ends[0]),
                         t, k, rm) + 1
    ulps = np.abs(r.view(np.int64) - whole)
    assert ulps.max() <= 4, f"largest difference {ulps.max()} floats"


def spy_whole_bisections(monkeypatch, fam):
    """Record the angle count of each bisection over all of [rho_min, 1]."""
    whole = int(np.subtract(*np.array([1.0, fam.rho_min]).view(np.int64)))
    sizes = []

    def spy(lo, width, target, k, rm):
        if width == whole:
            sizes.append(lo.size)
        return _bisect_bits(lo, width, target, k, rm)
    monkeypatch.setattr(brachistochrone, "_bisect_bits", spy)
    return sizes


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

    @pytest.mark.parametrize("sep", (1e-12, 1e-9, 1e-6, 0.01, 0.7, 2.498,
                                     3.1, math.pi - 1e-6, math.pi))
    def test_mirror_symmetry_on_dense_grid(self, sep):
        fam = family_from_separation(sep)
        sep = fam.separation_angle
        thetas = np.linspace(-sep, 0.0, 1000)
        rho = rho_at_theta(fam, thetas)
        assert np.max(np.abs(rho - rho[::-1])) <= 1e-12
        assert rho[0] == rho[-1] == 1.0
        if fam.k > 0.0:
            assert_adjacent_float_brackets(fam, thetas, rho)

    @pytest.mark.parametrize("sep", (1e-9, 0.01, 3.1))
    def test_missed_seeds_bisect_the_whole_bracket(self, sep, monkeypatch):
        # with no Newton steps the table's seeds miss most brackets, so
        # those angles are bisected again over the whole of [rho_min, 1]
        fam = family_from_separation(sep)
        thetas = np.linspace(-sep, 0.0, 1000)
        bisected_whole = spy_whole_bisections(monkeypatch, fam)
        monkeypatch.setattr(brachistochrone, "_NEWTON_STEPS", 0)
        rho = rho_at_theta(fam, thetas)
        assert bisected_whole and bisected_whole[-1] > 0
        assert_adjacent_float_brackets(fam, thetas, rho)

    @pytest.mark.parametrize("sep", (1e-12, 1e-6, 1.0, 2.498,
                                     math.pi - 1e-6))
    def test_cost_per_angle(self, sep, monkeypatch):
        # four halvings of each seed's bracket, one closed-form
        # evaluation each; at most 1% of angles bisected whole
        fam = family_from_separation(sep)
        thetas = np.linspace(-fam.separation_angle, 0.0, 1000)
        bisected_whole = spy_whole_bisections(monkeypatch, fam)
        evaluated = []

        def count(rho, k, rm):
            evaluated.append(np.size(rho))
            return _theta_closed_form(rho, k, rm)
        monkeypatch.setattr(brachistochrone, "_theta_closed_form", count)
        rho = rho_at_theta(fam, thetas)
        assert sum(bisected_whole) <= 10
        assert sum(evaluated) <= 4.1 * thetas.size
        assert_adjacent_float_brackets(fam, thetas, rho)

    def test_shallow_turnaround_band_maps_to_rho_min(self):
        # at 1e-12 the closed form puts rho_min a little above the
        # bisector; the angles in between have nothing below rho_min
        fam = family_from_separation(1e-12)
        sep, rm = fam.separation_angle, fam.rho_min
        turn = float(_theta_closed_form(rm, fam.k, rm))
        assert turn > -sep / 2.0
        thetas = np.linspace(-sep, 0.0, 100001)
        rho = rho_at_theta(fam, thetas)
        band = (thetas <= turn) & (thetas >= -sep - turn)
        assert band.sum() > 2
        assert np.all(rho[band] == rm)
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
