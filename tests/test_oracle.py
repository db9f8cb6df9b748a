import math

import numpy as np
import pytest

from gravitunnel import (BrachFamily, DiscretePath, DomainError,
                         StalledTrajectoryError, StepControl,
                         chord_from_separation, chord_path,
                         family_from_separation, optimize_path,
                         path_transit_time, perturbation_test, rho_at_theta,
                         sample_path, simulate_bead, total_transit_time)


class TestOptimizePath:
    def test_contract_at_right_angle(self):
        delta = math.pi / 2
        fam = family_from_separation(delta)
        reference = total_transit_time(fam).tau
        report = optimize_path(delta, 96)
        assert report.converged
        assert report.first_order_residual < 1e-6
        assert abs(report.best_time - reference) / reference < 5e-3
        assert report.best_time >= reference - 1e-6
        stations = report.best_path.theta[1:-1]
        closed = np.array([rho_at_theta(fam, t) for t in stations])
        assert np.max(np.abs(report.best_path.rho[1:-1] - closed)) <= 1e-2

    def test_example_resolution_times(self):
        delta = math.pi / 2
        reference = total_transit_time(family_from_separation(delta)).tau
        report = optimize_path(delta, 64)
        assert abs(report.best_time - reference) / reference < 5e-3
        assert report.best_time >= reference - 1e-6

    def test_degenerate_limit_near_diameter(self):
        report = optimize_path(math.pi - 1e-3, 32)
        assert abs(report.best_time - math.pi) < 1e-2
        assert report.best_time >= \
            total_transit_time(family_from_separation(math.pi - 1e-3)).tau - 1e-6

    def test_closed_form_start_is_stationary(self):
        delta = math.pi / 2
        fam = family_from_separation(delta)
        thetas = np.linspace(0.0, -delta, 66)
        init = np.array([rho_at_theta(fam, t) for t in thetas[1:-1]])
        init_path = DiscretePath.from_arrays(
            np.concatenate(([1.0], init, [1.0])), thetas)
        init_time = path_transit_time(init_path).tau
        report = optimize_path(delta, 64, initial_rho=init)
        improvement = init_time - report.best_time
        assert improvement >= -1e-12
        assert improvement / init_time < 5e-4
        assert report.converged

    def test_non_convergence_reports_instead_of_raising(self):
        from gravitunnel import OptimizeConfig
        cfg = OptimizeConfig(max_iterations=1, polish_iterations=0,
                             residual_threshold=1e-12)
        report = optimize_path(math.pi / 2, 32, cfg=cfg)
        assert not report.converged
        assert report.first_order_residual > 1e-12
        assert report.best_time > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            optimize_path(0.0, 16)
        with pytest.raises(DomainError):
            optimize_path(math.pi, 16)
        with pytest.raises(DomainError):
            optimize_path(1.0, 2)
        with pytest.raises(DomainError):
            optimize_path(1.0, 16, initial_rho=np.full(5, 0.9))


class TestPerturbation:
    def test_zero_amplitude(self):
        assert perturbation_test(BrachFamily.from_momentum(1.0), 0.0, 1) == 0.0

    def test_quadratic_scaling(self):
        fam = BrachFamily.from_momentum(1.0)
        for mode in (1, 3, 5):
            d1 = perturbation_test(fam, 1e-3, mode)
            d2 = perturbation_test(fam, 2e-3, mode)
            assert d1 > 0
            assert d2 / d1 == pytest.approx(4.0, abs=0.3)

    def test_sign_flip_agrees_to_leading_order(self):
        fam = BrachFamily.from_momentum(1.0)
        plus = perturbation_test(fam, 1e-3, 1)
        minus = perturbation_test(fam, -1e-3, 1)
        assert minus == pytest.approx(plus, rel=0.05)

    def test_domain(self):
        fam = BrachFamily.from_momentum(1.0)
        with pytest.raises(DomainError):
            perturbation_test(fam, 0.05, 1)
        with pytest.raises(DomainError):
            perturbation_test(fam, 1e-3, 0)

    def test_bump_outside_sphere_rejected(self):
        # pushing the center of the diameter below rho = 0
        with pytest.raises(DomainError):
            perturbation_test(BrachFamily.from_momentum(0.0), -1e-2, 1)


class TestSimulateBead:
    def test_diameter_chord_is_shm(self):
        trace = simulate_bead(chord_path(chord_from_separation(math.pi), 10_000))
        assert trace.transit_time == pytest.approx(math.pi, rel=1e-4)
        assert trace.max_energy_drift < 1e-8

    def test_family_path_matches_quadrature(self):
        fam = BrachFamily.from_momentum(1.0)
        reference = total_transit_time(fam).tau
        trace = simulate_bead(sample_path(fam, 10_000))
        assert abs(trace.transit_time - reference) / reference < 1e-3
        assert trace.max_energy_drift < 1e-8

    def test_trace_invariants(self):
        trace = simulate_bead(sample_path(BrachFamily.from_momentum(1.0), 2000))
        assert np.all(trace.speed >= 0)
        assert np.all(np.diff(trace.tau) > 0)
        assert trace.arclength[0] == 0.0
        assert trace.transit_time > 0
        first = trace.samples[0]
        assert first[0] == 0.0 and first[3] == pytest.approx(0.0, abs=1e-12)

    def test_run_counters_and_end_correction(self):
        # the diameter ends on the surface, where the bead arrives at zero
        # speed and the end sliver is closed analytically; a path ending
        # inside the sphere is reached with speed and needs no correction
        surface = simulate_bead(chord_path(chord_from_separation(math.pi), 50))
        assert surface.rhs_evaluations > surface.steps > 0
        assert surface.end_correction != 0.0
        assert abs(surface.end_correction) < 1e-3
        interior = simulate_bead(DiscretePath.from_arrays(
            [1.0, 0.8, 0.6, 0.5], [0.0, -0.1, -0.2, -0.3]))
        assert interior.rhs_evaluations > interior.steps > 0
        assert interior.end_correction == 0.0

    def test_point_above_surface_rejected_at_validation(self):
        with pytest.raises(DomainError):
            DiscretePath.from_arrays([1.0, 1.05, 1.0], [0.0, -0.5, -1.0])

    def test_rising_path_stalls_with_turning_point(self):
        path = DiscretePath.from_arrays([0.8, 0.82, 0.95],
                                        [0.0, -0.3, -0.6])
        with pytest.raises(StalledTrajectoryError) as err:
            simulate_bead(path, max_tau=20.0)
        assert err.value.rho is not None
        assert err.value.arclength is not None
        assert err.value.tau is not None
        # the bead can never climb above its release radius
        assert err.value.rho <= 0.8 + 1e-6

    def test_step_control_validation(self):
        with pytest.raises(DomainError):
            StepControl(rtol=0.0)
