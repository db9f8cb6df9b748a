import math

import numpy as np
import pytest

from gravitunnel import oracle
from gravitunnel import (BrachFamily, ChordSpec, DiscretePath, DomainError,
                         PathError, StalledTrajectoryError, chord_path,
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
        # from the chord, the optimizer ends at most 5e-4 below the time
        # of the closed-form radii at its stations, and never above it
        delta = math.pi / 2
        fam = family_from_separation(delta)
        thetas = np.linspace(0.0, -delta, 66)
        init = np.array([rho_at_theta(fam, t) for t in thetas[1:-1]])
        init_path = DiscretePath(
            np.concatenate(([1.0], init, [1.0])), thetas)
        init_time = path_transit_time(init_path).tau
        report = optimize_path(delta, 64)
        improvement = init_time - report.best_time
        assert improvement >= -1e-12
        assert improvement / init_time < 5e-4
        assert report.converged

    def test_non_convergence_reports_instead_of_raising(self, monkeypatch):
        monkeypatch.setattr(oracle, "_NEWTON_STEPS", 1)
        report = optimize_path(math.pi / 2, 32)
        assert report.iterations == 1
        assert not report.converged
        assert report.first_order_residual > 1e-6
        assert report.best_time > 0

    def test_step_cap_short_of_the_residual_threshold(self, monkeypatch):
        # seven steps leave a residual of ~8e-5 at m = 24, close enough
        # to converged that only a threshold of 1e-6 refuses it
        monkeypatch.setattr(oracle, "_NEWTON_STEPS", 7)
        report = optimize_path(1.0, 24)
        assert report.iterations == 7
        assert not report.converged
        assert 1e-6 < report.first_order_residual < 1e-3

    @pytest.mark.parametrize("interior_points", (24, 64))
    @pytest.mark.parametrize("delta", (1e-3, 0.01, 0.1, 0.7, 1.0, math.pi / 2,
                                       2.0, 2.498, 3.0, math.pi - 1e-3))
    def test_converges_across_separations(self, delta, interior_points):
        report = optimize_path(delta, interior_points)
        assert report.converged
        reference = total_transit_time(family_from_separation(delta)).tau
        assert report.best_time >= reference - 1e-6
        assert report.best_time < math.pi          # every chord takes pi

    def test_thousand_stations(self):
        report = optimize_path(math.pi / 2, 1024)
        assert report.converged
        reference = total_transit_time(family_from_separation(math.pi / 2)).tau
        assert 0.0 <= report.best_time - reference < 1e-3

    def test_collapsed_stations_stop_at_once(self):
        # at 1e-300 the angle step underflows, segments have zero length
        # and the Hessian is not finite
        with np.errstate(all="ignore"):
            report = optimize_path(1e-300, 24)
        assert not report.converged
        assert report.iterations == 0

    def test_tridiagonal_newton_step(self):
        rng = np.random.default_rng(0)
        diag = rng.uniform(2.0, 3.0, 7)
        off = rng.uniform(-1.0, 1.0, 6)
        rhs = rng.normal(size=7)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        np.testing.assert_allclose(oracle._tridiagonal_solve(diag, off, rhs),
                                   np.linalg.solve(dense, rhs), rtol=1e-12)
        # an indefinite Hessian has a non-positive pivot; the shifted
        # Newton step is still a descent direction for the gradient
        diag[3] = -5.0
        assert oracle._tridiagonal_solve(diag, off, rhs) is None
        assert oracle._newton_step(rhs, diag, off) @ rhs < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            optimize_path(0.0, 16)
        with pytest.raises(DomainError):
            optimize_path(math.pi, 16)
        with pytest.raises(DomainError):
            optimize_path(1.0, 2)


class TestPerturbation:
    def test_zero_amplitude(self):
        assert perturbation_test(BrachFamily(1.0), 0.0, 1) == 0.0

    def test_quadratic_scaling(self):
        fam = BrachFamily(1.0)
        for mode in (1, 3, 5):
            d1 = perturbation_test(fam, 1e-3, mode)
            d2 = perturbation_test(fam, 2e-3, mode)
            assert d1 > 0
            assert d2 / d1 == pytest.approx(4.0, abs=0.3)

    def test_sign_flip_agrees_to_leading_order(self):
        fam = BrachFamily(1.0)
        plus = perturbation_test(fam, 1e-3, 1)
        minus = perturbation_test(fam, -1e-3, 1)
        assert minus == pytest.approx(plus, rel=0.05)

    def test_domain(self):
        fam = BrachFamily(1.0)
        with pytest.raises(DomainError):
            perturbation_test(fam, 0.05, 1)
        with pytest.raises(DomainError):
            perturbation_test(fam, 1e-3, 0)

    def test_bump_outside_sphere_rejected(self):
        # pushing the center of the diameter below rho = 0
        with pytest.raises(DomainError, match=r"through the centre \(rho < 0\)"
                           r".* 1\.0 deep"):
            perturbation_test(BrachFamily(0.0), -1e-2, 1)

    def test_bump_above_shallow_tunnel_names_its_inputs(self):
        # a 1e-3 bump lifts a tunnel 3.2e-4 deep out of the sphere
        with pytest.raises(DomainError, match=r"amplitude 0\.001 in mode 1 .*"
                           r"above the surface .*"
                           r"0\.000318309886\d* deep \(separation/pi\)"):
            perturbation_test(family_from_separation(1e-3), 1e-3, 1)

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_bump_on_a_tunnel_too_shallow_for_rho(self, sign):
        # Near their ends the samples of a 1e-12 tunnel round to rho = 1,
        # so both paths are timed from their depth.  Shallow tunnels are
        # self-similar: the bump of a third of the depth costs the same
        # share of the transit time as at 1e-6, to O(separation).
        def share(delta):
            fam = family_from_separation(delta)
            bump = sign * delta / (3.0 * math.pi)
            return perturbation_test(fam, bump, 1) / total_transit_time(fam).tau
        shallow = share(1e-12)
        assert 0.0 < shallow < 0.05
        assert shallow == pytest.approx(share(1e-6), rel=1e-5)


class TestSimulateBead:
    def test_diameter_chord_is_shm(self):
        trace = simulate_bead(chord_path(ChordSpec(math.pi), 10_000))
        assert trace.transit_time == pytest.approx(math.pi, rel=1e-4)
        assert trace.max_energy_drift < 1e-8

    @pytest.mark.slow
    def test_family_path_matches_quadrature(self):
        fam = BrachFamily(1.0)
        reference = total_transit_time(fam).tau
        trace = simulate_bead(sample_path(fam, 10_000))
        assert abs(trace.transit_time - reference) / reference < 1e-3
        assert trace.max_energy_drift < 1e-8

    @pytest.mark.slow
    def test_trace_invariants(self):
        trace = simulate_bead(sample_path(BrachFamily(1.0), 2000))
        assert np.all(trace.speed >= 0)
        assert np.all(np.diff(trace.tau) > 0)
        assert trace.transit_time > 0
        assert trace.tau[0] == 0.0
        assert trace.speed[0] == pytest.approx(0.0, abs=1e-12)

    def test_run_counters_and_end_correction(self):
        # the diameter ends on the surface, where the bead arrives at zero
        # speed and turns around a round-off gap from the end; that
        # turnaround is the arrival, with no correction added; a path
        # ending inside the sphere is reached with speed and has no gap
        surface = simulate_bead(chord_path(ChordSpec(math.pi), 50))
        assert surface.rhs_evaluations > surface.steps > 0
        assert type(surface.end_gap) is float
        assert surface.end_gap != 0.0
        assert abs(surface.end_gap) < 1e-6
        assert surface.tau[-1] == surface.transit_time
        interior = simulate_bead(DiscretePath(
            [1.0, 0.8, 0.6, 0.5], [0.0, -0.1, -0.2, -0.3]))
        assert interior.rhs_evaluations > interior.steps > 0
        assert type(interior.end_gap) is float
        assert interior.end_gap == 0.0

    @pytest.mark.slow
    def test_arrival_is_the_turnaround_time(self):
        # a zero-speed arrival is the integrator's turnaround event, which
        # is ~4e-11 off the closed form here
        fam = family_from_separation(2.498)
        trace = simulate_bead(sample_path(fam, 1500))
        reference = total_transit_time(fam).tau
        assert abs(trace.transit_time - reference) / reference < 1e-8

    @pytest.mark.parametrize("fam", [BrachFamily(1e9),
                                     family_from_separation(1e-12),
                                     family_from_separation(2e-9)])
    def test_too_shallow_path_is_refused(self, fam):
        # the first two ran to 2.8e-5 against 3.1e-9 and to 0.0; the
        # third lies just under the bound
        with pytest.raises(PathError, match="depth"):
            simulate_bead(sample_path(fam, 200))

    def test_point_above_surface_rejected_at_validation(self):
        with pytest.raises(DomainError):
            DiscretePath([1.0, 1.05, 1.0], [0.0, -0.5, -1.0])

    def test_turnaround_just_short_of_the_end_stalls(self):
        # released 1e-4 deeper than the far end, the bead turns around
        # 7.0e-5 of the chordwise arc short of it: far outside the
        # round-off gap that counts as arrival
        path = DiscretePath([0.9, 0.5, 0.9 + 1e-4],
                            [0.0, -0.5, -1.0])
        with pytest.raises(StalledTrajectoryError, match="turned around"):
            simulate_bead(path)

    def test_rising_path_stalls_with_turning_point(self):
        path = DiscretePath([0.8, 0.82, 0.95],
                            [0.0, -0.3, -0.6])
        with pytest.raises(StalledTrajectoryError) as err:
            simulate_bead(path)
        assert err.value.rho is not None
        assert err.value.arclength is not None
        assert err.value.tau is not None
        # the bead can never climb above its release radius
        assert err.value.rho <= 0.8 + 1e-6
