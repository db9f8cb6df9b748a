import math
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import quad_half_time
from gravitunnel import (BrachFamily, ChordSpec, DegenerateSegmentError,
                         DiscretePath, DomainError, QuadratureError,
                         arc_integral, arc_length, chord_path,
                         cumulative_path_times, family_from_separation,
                         half_transit_time, path_transit_time, sample_path,
                         timing, total_transit_time)
from gravitunnel.timing import _segment_time_partials, _segment_times

K_SWEEP = np.geomspace(0.05, 20.0, 20)


class TestHalfTransit:
    def test_through_center_closed_form(self):
        result = half_transit_time(BrachFamily(0.0))
        assert result.tau == math.pi / 2
        assert result.error_estimate == 0.0
        assert result.evaluations == 0

    def test_k1(self):
        result = half_transit_time(BrachFamily(1.0))
        assert 2 * result.tau == pytest.approx(math.pi / math.sqrt(2), abs=1e-8)
        assert result.error_estimate < 1e-10 * result.tau + 1e-10
        assert result.evaluations > 0

    @pytest.mark.parametrize("k", (0.3, 1.0, 3.0))
    def test_against_quadpack(self, k):
        # in-house tanh-sinh vs scipy QUADPACK on the same integrand
        result = half_transit_time(BrachFamily(k))
        assert result.tau == pytest.approx(quad_half_time(k), abs=1e-9)

    def test_vanishing_tunnel(self):
        assert 2 * half_transit_time(BrachFamily(100.0)).tau < 0.05

    def test_nonconvergence_raises_at_the_level_cap(self, monkeypatch):
        # one halving of the step cannot agree with the first level to 1e-10
        monkeypatch.setattr(timing, "_MAX_LEVEL", 1)
        with pytest.raises(QuadratureError, match="time integral") as err:
            half_transit_time(BrachFamily(1.0))
        assert err.value.evaluations > 0
        assert err.value.error_estimate > 0


def within_ulps(value, exact, ulps):
    """|value - exact| <= ulps units in the last place of float(exact)."""
    return abs(mpmath.mpf(value) - exact) <= ulps * math.ulp(float(exact))


class TestTotalTransit:
    def test_closed_form_record(self):
        # nothing is integrated; the quadrature route agrees to round-off
        fam = BrachFamily(0.7)
        total = total_transit_time(fam)
        assert total.error_estimate == 0.0
        assert total.evaluations == 0
        assert total.tau == pytest.approx(2 * half_transit_time(fam).tau,
                                          rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-12, math.pi))
    @example(1e-12)
    @example(1e-9)
    @example(math.pi)
    def test_closed_forms_within_4_ulp(self, delta):
        fam = family_from_separation(delta)
        with mpmath.workdps(50):
            q = mpmath.mpf(fam.separation_angle) / mpmath.pi
            assert within_ulps(total_transit_time(fam).tau,
                               mpmath.pi * mpmath.sqrt(q * (2 - q)), 4)
            assert within_ulps(arc_length(fam), 2 * q * (2 - q), 4)

    def test_monotone_decreasing_in_k(self):
        taus = [2 * half_transit_time(BrachFamily(float(k))).tau
                for k in K_SWEEP]
        assert np.all(np.diff(taus) < 0)

    def test_beats_chord_baseline(self):
        for delta in np.linspace(0.2, math.pi - 1e-9, 12):
            fam = family_from_separation(float(delta))
            assert total_transit_time(fam).tau < math.pi
        assert total_transit_time(family_from_separation(math.pi)).tau == \
            pytest.approx(math.pi, abs=1e-9)


class TestArcIntegral:
    def test_degenerate_closed_forms(self):
        fam0 = BrachFamily(0.0)
        assert arc_integral(fam0) == 1.0
        assert half_transit_time(fam0).tau == math.pi / 2

    def test_length_selector_against_closed_form(self):
        for k in K_SWEEP:
            fam = BrachFamily(float(k))
            q = fam.separation_angle / math.pi
            assert abs(arc_integral(fam) - q * (2 - q)) < 1e-9

    @pytest.mark.parametrize("delta", (1e-12, 1e-9, 1e-6))
    @pytest.mark.parametrize("selector", ("length", "time"))
    def test_tiny_separation_is_accurate_or_raises(self, delta, selector):
        # the integrals are ~delta (length) and ~sqrt(delta) (time), so
        # only a relative stop test holds them to 1e-12
        fam = family_from_separation(delta)
        if selector == "length":
            value, exact = arc_integral(fam), arc_length(fam)
        else:
            value, exact = half_transit_time(fam).tau, total_transit_time(fam).tau
        assert abs(2 * value - exact) <= 1e-12 * exact

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.floats(-300.0, 153.6).map(
            lambda e: BrachFamily(10.0 ** e)),
        st.floats(-300.0, math.log10(math.pi)).map(
            lambda e: family_from_separation(min(10.0 ** e, math.pi))),
        st.integers(1, 16).map(
            lambda j: family_from_separation(math.pi - 10.0 ** -j))))
    @example(BrachFamily(1e-8))
    @example(BrachFamily(3e-8))
    @example(BrachFamily(1e-10))
    @example(BrachFamily(1e8))
    @example(BrachFamily(6e7))
    @example(family_from_separation(1e-17))
    @example(family_from_separation(3.16e-8))
    @pytest.mark.parametrize("selector", ("time", "length"))
    def test_quadrature_within_1e12_of_mpmath(self, selector, fam):
        # log k over [-300, 153.6] and separations from 1e-300 to pi,
        # against pi sqrt(q (2 - q))/2 and q (2 - q) with q from k, in at
        # most 205 evaluations: four halvings of the first step
        result = half_transit_time(fam)
        assert result.evaluations <= 205
        value = result.tau if selector == "time" else arc_integral(fam)
        with mpmath.workdps(50):
            k = mpmath.mpf(fam.k)
            h = mpmath.sqrt(k * k + 1)
            q = 1 / (h * (h + k))
            exact = q * (2 - q)
            if selector == "time":
                exact = mpmath.pi * mpmath.sqrt(exact) / 2
            assert abs(value - exact) <= 1e-12 * exact


class TestDiscretePath:
    def test_basics(self):
        path = DiscretePath([1.0, 0.5, 1.0], [0.0, -0.5, -1.0])
        assert len(path) == 3
        assert path.endpoint_separation() == 1.0

    def test_arrays_are_read_only(self):
        path = DiscretePath([1.0, 0.5, 1.0], [0.0, -0.5, -1.0])
        with pytest.raises(ValueError):
            path.rho[0] = 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            DiscretePath([1.0], [0.0])
        with pytest.raises(DomainError):
            DiscretePath([1.0, 0.5], [0.0])
        with pytest.raises(DomainError):
            DiscretePath([1.0, 1.2], [0.0, -0.5])
        with pytest.raises(DomainError):
            DiscretePath([1.0, 0.5], [0.0, math.inf])

    def test_depth(self):
        plain = DiscretePath([1.0, 0.5, 1.0], [0.0, -0.5, -1.0])
        assert np.array_equal(plain.depth, 1.0 - plain.rho)
        path = DiscretePath([1.0, 0.5, 1.0], [0.0, -0.5, -1.0],
                            [0.0, 0.5, 0.0])
        assert path.depth.tolist() == [0.0, 0.5, 0.0]
        with pytest.raises(ValueError):
            path.depth[0] = 0.5
        with pytest.raises(DomainError):
            DiscretePath([1.0, 0.5], [0.0, -0.5], [0.0])
        with pytest.raises(DomainError):
            DiscretePath([1.0, 0.5], [0.0, -0.5], [0.0, 1.5])
        # a depth that contradicts rho would decide the surface wrongly
        with pytest.raises(DomainError,
                           match=r"depth\[0\] = 0\.5.*rho\[0\] = 1\.0"):
            DiscretePath([1.0, 0.5, 1.0], [0.0, -0.5, -1.0],
                         [0.5, 0.5, 0.5])
        near = DiscretePath([1.0, 0.5], [0.0, -0.5],
                            [1e-13, 0.5])
        assert near.depth[0] == 1e-13

    def test_xy_and_arclength(self):
        path = DiscretePath([1.0, 0.0, 1.0], [0.0, -0.1, -math.pi])
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


class TestPathTransit:
    def test_sampled_family_matches_quadrature(self):
        fam = BrachFamily(1.0)
        reference = total_transit_time(fam).tau
        result = path_transit_time(sample_path(fam, 10_000))
        assert abs(result.tau - reference) / reference < 1e-4
        assert result.error_estimate >= 0.0
        assert result.evaluations > 0

    @pytest.mark.parametrize("k", (0.25, 1.0, 4.0))
    def test_self_consistency(self, k):
        fam = BrachFamily(k)
        reference = total_transit_time(fam).tau
        result = path_transit_time(sample_path(fam, 10_000))
        assert abs(result.tau - reference) / reference < 1e-3

    # The first sample below the surface lies ~delta/(pi n^2) deep, as
    # little as 3e-21 at (1e-12, 10^4): rho cannot hold it, but the path
    # carries each sample's depth, so every segment is timed.  The
    # polyline's own error is 2.97e-6 at 10^3 per half below 1e-3 rad
    # (order 1.5 in n), so those inputs are held to 1e-5.  At pi the
    # tunnel is the diameter, timed to pi, which round-off must not undercut.
    @pytest.mark.parametrize("delta, n", [(1e-6, 10_000), (1e-4, 10_000),
                                          (3e-4, 10_000), (1e-3, 100_000),
                                          (3e-3, 100_000), (1e-6, 30_000),
                                          (1e-8, 3_000), (1e-12, 10_000),
                                          (1e-9, 1_000), (1e-9, 10_000),
                                          (1e-12, 1_000), (math.pi, 1_000),
                                          (math.pi, 10_000)])
    def test_shallow_sampled_tunnels(self, delta, n):
        fam = family_from_separation(delta)
        reference = total_transit_time(fam).tau
        tau = path_transit_time(sample_path(fam, n)).tau
        assert tau == pytest.approx(reference, rel=1e-5 if n < 3_000 else 1e-6)
        assert tau >= reference

    def test_convergence_order_on_curved_paths(self):
        fam = BrachFamily(1.0)
        reference = total_transit_time(fam).tau
        errors = []
        for n in (200, 400, 800, 1600):
            errors.append(abs(path_transit_time(sample_path(fam, n)).tau
                              - reference))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
        assert min(orders) >= 1.0

    def test_error_estimate_tracks_refinement(self):
        fam = BrachFamily(1.0)
        reference = total_transit_time(fam).tau
        result = path_transit_time(sample_path(fam, 2000))
        true_error = abs(result.tau - reference)
        assert result.error_estimate > true_error / 10

    def test_degenerate_two_point_path(self):
        path = DiscretePath([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(DegenerateSegmentError):
            path_transit_time(path)

    @pytest.mark.parametrize("timer", (path_transit_time,
                                       cumulative_path_times))
    def test_arrays_are_refused(self, timer):
        arrays = ([1.0, 0.5, 1.0], [0.0, -0.5, -1.0])
        with pytest.raises(DomainError,
                           match=f"{timer.__name__} expects a DiscretePath"):
            timer(arrays)

    @pytest.mark.parametrize("delta", (1e-12, 1e-9, 1e-6, 1e-3, 1.0, math.pi))
    def test_two_point_chord_takes_pi(self, delta):
        # one segment between two surface points: the gravity train
        tau = path_transit_time(chord_path(ChordSpec(delta), 2)).tau
        assert abs(tau - math.pi) <= math.ulp(math.pi)

    def test_zero_length_interior_segment_is_skipped(self):
        base = DiscretePath([1.0, 0.5, 1.0], [0.0, -0.5, -1.0])
        doubled = DiscretePath([1.0, 0.5, 0.5, 1.0],
                               [0.0, -0.5, -0.5, -1.0])
        assert path_transit_time(doubled).tau == pytest.approx(
            path_transit_time(base).tau, rel=1e-15)


def reference_segment_time(r0, t0, r1, t1):
    """One segment's SHM traversal time, as a 50-digit mpmath number.

    The polar ends (floats, or mpmath radii) are taken as exact and the
    Cartesian arcsine form t = asin((L + b)/c) - asin(b/c) is evaluated
    with no float round-off.
    """
    with mpmath.workdps(50):
        r0, t0, r1, t1 = (mpmath.mpf(v) for v in (r0, t0, r1, t1))
        x0, y0 = r0 * mpmath.cos(t0), r0 * mpmath.sin(t0)
        dx, dy = r1 * mpmath.cos(t1) - x0, r1 * mpmath.sin(t1) - y0
        length = mpmath.sqrt(dx * dx + dy * dy)
        if length == 0:
            return mpmath.mpf(0)
        b = (x0 * dx + y0 * dy) / length
        c = mpmath.sqrt((1 - r0) * (1 + r0) + b * b)
        start = -mpmath.pi / 2 if r0 == 1 else mpmath.asin(b / c)
        end = mpmath.pi / 2 if r1 == 1 else mpmath.asin((length + b) / c)
        return end - start


@st.composite
def polar_polyline(draw):
    """Points inside, some 1e-16 to 1e-12 below the surface, and on it
    (forced at either end or both, adjacent ones too, down to a 2-point
    chord), with repeats below the surface."""
    n = draw(st.integers(2, 12))
    radius = st.one_of(st.floats(0.0, 0.99),
                       st.floats(1e-16, 1e-12).map(lambda d: 1.0 - d),
                       st.just(1.0))
    rho = draw(st.lists(radius, min_size=n, max_size=n))
    for i in draw(st.sampled_from(((), (0,), (-1,), (0, -1)))):
        rho[i] = 1.0
    steps = draw(st.lists(st.floats(-0.8, 0.8), min_size=n, max_size=n))
    for i in range(1, n):
        # two surface samples at one angle have no time
        if rho[i - 1] == rho[i] == 1.0:
            steps[i] = draw(st.floats(1e-6, 0.8))
    theta = np.cumsum(steps)
    # repeat some interior points, giving zero-length segments
    repeats = draw(st.lists(st.integers(1, max(n - 2, 1)), max_size=3))
    idx = sorted(list(range(n)) + [i for i in repeats
                                   if 0 < i < n - 1 and rho[i] < 1.0])
    return np.asarray(rho)[idx], theta[idx]


@settings(max_examples=300, deadline=None)
@given(polar_polyline())
@example((np.array([1.0, 1.0]), np.array([0.0, -1.0])))
def test_segment_times_match_scalar_reference(case):
    rho, theta = case
    times = _segment_times(rho, theta, 1.0 - rho)
    ref = [float(reference_segment_time(rho[i], theta[i], rho[i + 1],
                                        theta[i + 1]))
           for i in range(rho.size - 1)]
    assert times == pytest.approx(ref, rel=1e-12, abs=1e-12)
    repeated = (rho[1:] == rho[:-1]) & (theta[1:] == theta[:-1])
    assert np.all(times[repeated] == 0.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 1.0 - 1e-9), st.floats(1e-3, 1.0 - 1e-9),
       st.floats(1e-3, math.pi / 2))
@example(1.0 - 1e-9, 1.0 - 1e-9, 1e-3)
@example(1e-3, 1.0 - 1e-9, math.pi / 2)
def test_segment_time_partials_match_central_differences(r0, r1, dtheta):
    theta = np.array([0.0, -dtheta])

    def t(a, b):
        r = np.array([a, b])
        return float(_segment_times(r, theta, 1.0 - r)[0])

    # each step well inside the radius' distance to 0, to the surface and
    # the segment length, and exact in floating point; the noise term
    # bounds ulp-sized errors in t divided by the difference's step
    length = math.sqrt((r1 - r0) ** 2 + 4 * r0 * r1 * math.sin(dtheta / 2) ** 2)
    h0 = (r0 + 1e-4 * min(r0, 1.0 - r0, length)) - r0
    h1 = (r1 + 1e-4 * min(r1, 1.0 - r1, length)) - r1
    center = t(r0, r1)
    fd = [(t(r0 + h0, r1) - t(r0 - h0, r1)) / (2 * h0),
          (t(r0, r1 + h1) - t(r0, r1 - h1)) / (2 * h1),
          (t(r0 + h0, r1) - 2 * center + t(r0 - h0, r1)) / h0 ** 2,
          (t(r0 + h0, r1 + h1) - t(r0 + h0, r1 - h1)
           - t(r0 - h0, r1 + h1) + t(r0 - h0, r1 - h1)) / (4 * h0 * h1),
          (t(r0, r1 + h1) - 2 * center + t(r0, r1 - h1)) / h1 ** 2]
    noise = [1e-15 / h0, 1e-15 / h1, 4e-15 / h0 ** 2, 4e-15 / (h0 * h1),
             4e-15 / h1 ** 2]
    r = np.array([r0, r1])
    exact = [float(p[0]) for p in _segment_time_partials(r, theta, 1.0 - r)]
    # a mixed partial is measured against sqrt(|t00 t11|), its natural size
    scale = [abs(e) for e in exact]
    scale[3] = max(scale[3], math.sqrt(abs(exact[2] * exact[4])))
    for got, want, size, floor in zip(exact, fd, scale, noise):
        assert abs(got - want) <= 1e-3 * size + floor


# Segments 3e-16 (at 1e-12) to 3e-4 (at 1.0) long, where a Cartesian
# difference x1 - x0 cancels up to all of its digits, and the surface-end
# ones; each radius is 1 - depth, exactly as the path defines it.
@pytest.mark.parametrize("delta", (1e-12, 1e-9, 1e-6, 1e-3, 0.01, 1.0))
def test_segment_times_match_mpmath_on_a_short_tunnel(delta):
    path = sample_path(family_from_separation(delta), 2_000)
    times = _segment_times(path.rho, path.theta, path.depth)
    with mpmath.workdps(50):
        radii = [1 - mpmath.mpf(d) for d in path.depth]
    ref = [reference_segment_time(radii[i], path.theta[i], radii[i + 1],
                                  path.theta[i + 1])
           for i in range(len(path) - 1)]
    nearest = np.array(ref, dtype=float)
    assert np.max(np.abs(times - nearest) / nearest) < 1e-10
    with mpmath.workdps(50):
        polyline = mpmath.fsum(ref)
        assert abs(path_transit_time(path).tau - polyline) <= 1e-14 * polyline


def test_rho_only_segment_times_match_mpmath_on_a_short_tunnel():
    # ~5e-7-long segments given by radii alone, the form the optimizer
    # times, with the depth taken as 1 - rho
    path = sample_path(family_from_separation(0.01), 10_000)
    times = _segment_times(path.rho, path.theta, 1.0 - path.rho)
    ref = np.array([reference_segment_time(path.rho[i], path.theta[i],
                                           path.rho[i + 1], path.theta[i + 1])
                    for i in range(len(path) - 1)], dtype=float)
    assert np.max(np.abs(times - ref) / ref) < 1e-10


@pytest.mark.parametrize("n", (79, 78))
def test_error_estimate_is_the_every_other_sample_gap(n):
    # sample_path(family, 40) has 79 samples; dropping the second leaves 78
    path = sample_path(BrachFamily(1.0), 40)
    keep = [i for i in range(79) if n == 79 or i != 1]
    rho, theta = path.rho[keep], path.theta[keep]
    idx = sorted(set(range(0, n, 2)) | {n - 1})
    result = path_transit_time(DiscretePath(rho, theta))
    coarse = path_transit_time(DiscretePath(rho[idx], theta[idx]))
    assert result.error_estimate == abs(result.tau - coarse.tau)
    assert result.evaluations == (n - 1) + (len(idx) - 1)


def test_degenerate_segment_is_named_from_the_path_start():
    # a zero-length surface segment far from the start of a long path
    m = 24_576
    j = 16_389
    depth = np.full(m + 1, 0.5)
    theta = np.linspace(0.0, -1.0, m + 1)
    depth[[0, j, j + 1, m]] = 0.0
    theta[j + 1] = theta[j]
    with pytest.raises(DegenerateSegmentError, match=f"^segment {j} "):
        _segment_times(1.0 - depth, theta, depth)


def test_sampled_path_runs_the_kernel_once(monkeypatch):
    path = sample_path(BrachFamily(1.0), 10_000)
    calls = []

    def counted(rho, theta, depth):
        calls.append(len(rho))
        return _segment_times(rho, theta, depth)

    monkeypatch.setattr(timing, "_segment_times", counted)
    result = path_transit_time(path)
    cumulative = cumulative_path_times(path)
    # one pass over the mirrored path's first half, shared, and one over
    # the first half of the coarse estimate's every-other subsample
    assert calls == [10_000, 5001]
    assert cumulative[-1] == pytest.approx(result.tau, rel=1e-15)
    assert not path.segment_times.flags.writeable


@pytest.mark.parametrize("time_first", (True, False))
def test_direct_path_keeps_its_times_when_the_caller_writes(time_first):
    rho = np.array([1.0, 0.5, 0.4, 1.0])
    theta = np.array([0.0, -0.4, -0.6, -1.0])
    depth = 1.0 - rho
    reference = path_transit_time(DiscretePath(rho, theta))
    path = DiscretePath(rho=rho, theta=theta, depth=depth)
    if time_first:
        path_transit_time(path)
    rho[1], depth[1], theta[2] = 0.9, 0.1, -0.9
    assert path_transit_time(path) == reference
    assert cumulative_path_times(path)[-1] == pytest.approx(reference.tau,
                                                            rel=1e-15)
    assert path.rho[1] == 0.5 and path.theta[2] == -0.6
    for values in (path.rho, path.theta, path.depth, path.segment_times):
        assert not values.flags.writeable


def test_views_of_writable_arrays_are_copied():
    writable = np.array([1.0, 0.5, 1.0])
    view = writable.view()
    view.setflags(write=False)
    copied = DiscretePath(view, np.array([0.0, -0.5, -1.0]), 1.0 - view)
    writable[1] = 0.9
    assert copied.rho[1] == 0.5


def test_cumulative_path_times():
    fam = BrachFamily(1.0)
    path = sample_path(fam, 500)
    cumulative = cumulative_path_times(path)
    assert cumulative[0] == 0.0
    assert np.all(np.diff(cumulative) >= 0)
    assert cumulative[-1] == pytest.approx(path_transit_time(path).tau,
                                           rel=1e-15)


def test_transit_result_positive():
    for k in (0.0, 0.5, 5.0):
        assert total_transit_time(BrachFamily(k)).tau > 0


def test_concurrent_sweep_matches_serial():
    families = [BrachFamily(float(k)) for k in K_SWEEP]
    serial = [half_transit_time(f).tau for f in families]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda f: half_transit_time(f).tau, families))
    assert threaded == serial


MIRROR_SEPARATIONS = (1e-12, 1e-6, 1e-3, 1.0, 2.498, math.pi - 1e-6, math.pi)


@pytest.mark.parametrize("n", (2, 3, 40, 41, 1500, 10_000))
@pytest.mark.parametrize("separation", MIRROR_SEPARATIONS)
def test_mirrored_times_match_the_kernel_on_the_stored_arrays(separation, n):
    # a sampled tunnel times its first half and mirrors it; its stored
    # second-half angles are rounded, so the kernel on them differs by
    # round-off only
    path = sample_path(family_from_separation(separation), n)
    plain = DiscretePath(path.rho, path.theta, path.depth)
    reference = _segment_times(path.rho, path.theta, path.depth)
    times = path.segment_times
    assert np.all(np.abs(times - reference) <= 1e-11 * reference)
    result, expected = path_transit_time(path), path_transit_time(plain)
    ulp = math.ulp(expected.tau + expected.error_estimate)
    assert abs(result.tau - expected.tau) <= 4 * ulp
    assert abs(result.error_estimate - expected.error_estimate) <= 8 * ulp
    cumulative = cumulative_path_times(path)[1:]
    assert np.all(np.abs(cumulative - cumulative_path_times(plain)[1:])
                  <= 1e-13 * cumulative)


@pytest.mark.parametrize("n", (3, 40, 41, 1500))
def test_sampled_path_reports_the_kernel_evaluations_made(n):
    # 2n - 2 segments and n - 1 coarse ones, each timed over its first half
    path = sample_path(BrachFamily(1.0), n)
    plain = DiscretePath(path.rho, path.theta, path.depth)
    assert path_transit_time(path).evaluations == (n - 1) + n // 2
    assert path_transit_time(plain).evaluations == 3 * (n - 1)


@settings(max_examples=60, deadline=None)
@given(st.floats(-12.0, math.log10(3.1)), st.integers(100, 10_000))
def test_error_estimate_is_calibrated(log_separation, n):
    # the every-other-sample gap against tau - T, the closed form, over
    # [1e-12, 3.1]: 2.98-3.02 at an even n per half, where the subsample
    # skips the turnaround, and 1.83-2.99 at an odd n, where it is
    # sample_path at (n + 1) / 2 and the gap is 2^p - 1 times the error
    # of local order p
    family = family_from_separation(10.0 ** log_separation)
    result = path_transit_time(sample_path(family, n))
    error = result.tau - total_transit_time(family).tau
    low, high = (2.5, 3.5) if n % 2 == 0 else (1.7, 3.1)
    assert low <= result.error_estimate / error <= high
