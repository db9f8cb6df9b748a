import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quad_half_time
from gravitunnel import (BrachFamily, DegenerateSegmentError, DiscretePath,
                         DomainError, InfiniteTimeError, QuadratureConfig,
                         QuadratureError, arc_integral, chord_from_separation,
                         chord_path, cumulative_path_times,
                         family_from_separation, half_transit_time,
                         path_transit_time, sample_path, total_transit_time)
from gravitunnel.timing import _segment_times

K_SWEEP = np.geomspace(0.05, 20.0, 20)


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_subdivisions=0)


class TestHalfTransit:
    def test_through_center_closed_form(self):
        result = half_transit_time(BrachFamily.from_momentum(0.0))
        assert result.tau == math.pi / 2
        assert result.error_estimate == 0.0
        assert result.evaluations == 0

    def test_k1(self):
        result = half_transit_time(BrachFamily.from_momentum(1.0))
        assert 2 * result.tau == pytest.approx(math.pi / math.sqrt(2), abs=1e-8)
        assert result.error_estimate < 1e-10 * result.tau + 1e-10
        assert result.evaluations > 0

    @pytest.mark.parametrize("k", (0.3, 1.0, 3.0))
    def test_against_quadpack(self, k):
        # in-house Gauss-Kronrod vs scipy QUADPACK on the same integrand
        result = half_transit_time(BrachFamily.from_momentum(k))
        assert result.tau == pytest.approx(quad_half_time(k), abs=1e-9)

    def test_vanishing_tunnel(self):
        assert total_transit_time(BrachFamily.from_momentum(100.0)).tau < 0.05

    def test_nonconvergence_reports_worst_interval(self):
        cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=2)
        with pytest.raises(QuadratureError) as err:
            half_transit_time(BrachFamily.from_momentum(1.0), cfg)
        assert err.value.worst_interval is not None
        assert err.value.evaluations > 0
        assert err.value.error_estimate > 0


class TestTotalTransit:
    def test_doubles_half(self):
        fam = BrachFamily.from_momentum(0.7)
        half = half_transit_time(fam)
        total = total_transit_time(fam)
        assert total.tau == 2 * half.tau

    def test_closed_form_conjecture_sweep(self):
        # regression promoted from the verified conjecture pi*sqrt(1-rho_m^2)
        for k in K_SWEEP:
            fam = BrachFamily.from_momentum(float(k))
            tau = total_transit_time(fam).tau
            assert abs(tau - math.pi * math.sqrt(1 - fam.rho_min**2)) < 1e-7

    def test_monotone_decreasing_in_k(self):
        taus = [total_transit_time(BrachFamily.from_momentum(float(k))).tau
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
        fam0 = BrachFamily.from_momentum(0.0)
        assert arc_integral(fam0, "length") == 1.0
        assert arc_integral(fam0, "time") == math.pi / 2

    def test_time_selector_matches_half_transit(self):
        fam = BrachFamily.from_momentum(1.0)
        assert arc_integral(fam, "time") == half_transit_time(fam).tau

    def test_bad_selector(self):
        with pytest.raises(DomainError):
            arc_integral(BrachFamily.from_momentum(1.0), "speed")


class TestPathTransit:
    def test_sampled_family_matches_quadrature(self):
        fam = BrachFamily.from_momentum(1.0)
        reference = total_transit_time(fam).tau
        result = path_transit_time(sample_path(fam, 10_000))
        assert abs(result.tau - reference) / reference < 1e-4
        assert result.error_estimate >= 0.0
        assert result.evaluations > 0

    @pytest.mark.parametrize("k", (0.25, 1.0, 4.0))
    def test_self_consistency(self, k):
        fam = BrachFamily.from_momentum(k)
        reference = total_transit_time(fam).tau
        result = path_transit_time(sample_path(fam, 10_000))
        assert abs(result.tau - reference) / reference < 1e-3

    def test_convergence_order_on_curved_paths(self):
        fam = BrachFamily.from_momentum(1.0)
        reference = total_transit_time(fam).tau
        errors = []
        for n in (200, 400, 800, 1600):
            errors.append(abs(path_transit_time(sample_path(fam, n)).tau
                              - reference))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
        assert min(orders) >= 1.0

    def test_error_estimate_tracks_refinement(self):
        fam = BrachFamily.from_momentum(1.0)
        reference = total_transit_time(fam).tau
        result = path_transit_time(sample_path(fam, 2000))
        true_error = abs(result.tau - reference)
        assert result.error_estimate > true_error / 10

    def test_degenerate_two_point_path(self):
        path = DiscretePath.from_arrays([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(DegenerateSegmentError):
            path_transit_time(path)

    def test_surface_to_surface_segment_is_infinite(self):
        path = chord_path(chord_from_separation(1.0), 2)
        with pytest.raises(InfiniteTimeError):
            path_transit_time(path)

    def test_zero_length_interior_segment_is_skipped(self):
        base = DiscretePath.from_arrays([1.0, 0.5, 1.0], [0.0, -0.5, -1.0])
        doubled = DiscretePath.from_arrays([1.0, 0.5, 0.5, 1.0],
                                           [0.0, -0.5, -0.5, -1.0])
        assert path_transit_time(doubled).tau == pytest.approx(
            path_transit_time(base).tau, rel=1e-15)


def reference_segment_time(r0, t0, r1, t1):
    """One segment's SHM traversal time, written with scalar math."""
    x0, y0 = r0 * math.cos(t0), r0 * math.sin(t0)
    dx, dy = r1 * math.cos(t1) - x0, r1 * math.sin(t1) - y0
    length = math.hypot(dx, dy)
    if length <= 1e-15:
        return 0.0
    b = (x0 * dx + y0 * dy) / length
    c = math.sqrt(max((1.0 - r0) * (1.0 + r0), 0.0) + b * b) or 1e-15
    start = (-math.pi / 2 if r0 == 1.0
             else math.asin(max(-1.0, min(1.0, b / c))))
    end = (math.pi / 2 if r1 == 1.0
           else math.asin(max(-1.0, min(1.0, (length + b) / c))))
    return end - start


@st.composite
def polar_polyline(draw):
    """Interior points, a surface point at either end or both, repeats."""
    n = draw(st.integers(2, 12))
    rho = draw(st.lists(st.floats(0.0, 0.99), min_size=n, max_size=n))
    theta = np.cumsum(draw(st.lists(st.floats(-0.8, 0.8), min_size=n,
                                    max_size=n)))
    ends = draw(st.sampled_from(((), (0,), (-1,), (0, -1))))
    for i in ends if n > 2 else ends[:1]:
        rho[i] = 1.0
    # repeat some interior points, giving zero-length segments
    repeats = draw(st.lists(st.integers(1, max(n - 2, 1)), max_size=3))
    idx = sorted(list(range(n)) + [i for i in repeats if 0 < i < n - 1])
    return np.asarray(rho)[idx], theta[idx]


@settings(max_examples=300, deadline=None)
@given(polar_polyline())
def test_segment_times_match_scalar_reference(case):
    rho, theta = case
    times = _segment_times(rho, theta)
    ref = [reference_segment_time(rho[i], theta[i], rho[i + 1], theta[i + 1])
           for i in range(rho.size - 1)]
    assert times == pytest.approx(ref, rel=1e-12, abs=1e-12)
    repeated = (rho[1:] == rho[:-1]) & (theta[1:] == theta[:-1])
    assert np.all(times[repeated] == 0.0)


@pytest.mark.parametrize("n", (79, 78))
def test_error_estimate_is_the_every_other_sample_gap(n):
    # sample_path(family, 40) has 79 samples; dropping the second leaves 78
    path = sample_path(BrachFamily.from_momentum(1.0), 40)
    keep = [i for i in range(79) if n == 79 or i != 1]
    rho, theta = path.rho[keep], path.theta[keep]
    idx = sorted(set(range(0, n, 2)) | {n - 1})
    result = path_transit_time(DiscretePath.from_arrays(rho, theta))
    coarse = path_transit_time(DiscretePath.from_arrays(rho[idx], theta[idx]))
    assert result.error_estimate == abs(result.tau - coarse.tau)
    assert result.evaluations == (n - 1) + (len(idx) - 1)


def test_cumulative_path_times():
    fam = BrachFamily.from_momentum(1.0)
    path = sample_path(fam, 500)
    cumulative = cumulative_path_times(path)
    assert cumulative[0] == 0.0
    assert np.all(np.diff(cumulative) >= 0)
    assert cumulative[-1] == pytest.approx(path_transit_time(path).tau,
                                           rel=1e-15)


def test_transit_result_positive():
    for k in (0.0, 0.5, 5.0):
        assert total_transit_time(BrachFamily.from_momentum(k)).tau > 0


def test_concurrent_sweep_matches_serial():
    families = [BrachFamily.from_momentum(float(k)) for k in K_SWEEP]
    serial = [total_transit_time(f).tau for f in families]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda f: total_transit_time(f).tau, families))
    assert threaded == serial
