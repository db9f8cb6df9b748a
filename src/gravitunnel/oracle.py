"""Independent numerical checks on the closed-form tunnel family.

Nothing in this module consults the closed-form antiderivative to
produce its answer.  The transcription optimizer searches over discrete
paths directly, by Newton's method on the exact derivatives of the
polyline time (numpy only), and the bead simulator integrates Newton's
law along an interpolated tunnel (the one user of scipy here); both
have to land on the same transit times as the quadrature of the closed
form, or something upstream is wrong.  Each run returns a named tuple
of what it measured.
"""

import math
from collections import namedtuple

import numpy as np

from .brachistochrone import sample_path
from .closed import DOMAIN_EPS, BrachFamily, _count, _number
from .errors import DomainError, PathError, StalledTrajectoryError
from .timing import DiscretePath, _segment_time_partials, _segment_times

_BOUND_MARGIN = 1e-9
_RESIDUAL_THRESHOLD = 1e-6


class OptimizationReport(namedtuple(
        "OptimizationReport",
        "best_path best_time iterations first_order_residual")):
    """Outcome of a direct transcription run: the best path, its time, the
    Newton steps taken and the gradient's max norm, which ``converged``
    holds to at most 1e-6."""

    __slots__ = ()

    converged = property(
        lambda self: self.first_order_residual <= _RESIDUAL_THRESHOLD)

_NEWTON_STEPS = 100
_HALVINGS = 40
# sampling of the tunnel that perturbation_test bumps
_SAMPLES_PER_HALF = 2001


def _tridiagonal_solve(diag, off, rhs):
    """Solve a symmetric tridiagonal system by an LDL^T (Thomas) sweep.

    Returns None when a pivot is not positive, i.e. the matrix is not
    positive definite.
    """
    m = diag.size
    pivot = np.empty(m)
    ratio = np.empty(m - 1)
    y = np.empty(m)
    pivot[0], y[0] = diag[0], rhs[0]
    for i in range(1, m):
        if not pivot[i - 1] > 0.0:
            return None
        ratio[i - 1] = off[i - 1] / pivot[i - 1]
        pivot[i] = diag[i] - ratio[i - 1] * off[i - 1]
        y[i] = rhs[i] - ratio[i - 1] * y[i - 1]
    if not pivot[-1] > 0.0:
        return None
    x = y / pivot
    for i in range(m - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return x


def _newton_step(gradient, diag, off):
    """Newton step on the tridiagonal Hessian, Levenberg-shifted if needed.

    Returns None when a Hessian entry is not finite.
    """
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        return None
    shift = 0.0
    while True:
        step = _tridiagonal_solve(diag + shift, off, -gradient)
        if step is not None:
            return step
        shift = (10.0 * shift if shift
                 else 1e-8 * max(float(np.max(np.abs(diag))), 1.0))


def optimize_path(delta_theta: float, interior_points: int) -> OptimizationReport:
    """Minimize the transit time over discretized tunnels directly.

    Endpoints are pinned at (rho=1, theta=0) and (rho=1, theta=-delta_theta);
    the interior points sit on a uniform angular grid with only their radii
    free, which keeps every candidate single-valued in theta.  The objective
    is the exact polyline transit time, so the optimum can never undercut
    the true continuum minimum.  Starts from the straight chord.

    Each segment time depends only on its two end radii, so the gradient
    is a sum of two closed-form partials per station and the Hessian is
    exactly tridiagonal (`timing._segment_time_partials`).  Damped Newton
    steps, backtracked on the exact objective and Levenberg-shifted where
    the Hessian is not positive definite, run until no step lowers the
    time; once the gradient is settled, the first full step that does not
    lower it ends the run.  The first-order residual is the max norm of
    the exact gradient, and the run counts as converged (and settled)
    when it is at most 1e-6.  Returns a report rather than raising when
    it is not.
    """
    delta_theta = _number(delta_theta, "delta_theta")
    if not (math.isfinite(delta_theta) and 0.0 < delta_theta < math.pi):
        raise DomainError("optimize_path needs a separation in (0, pi); got "
                          f"{delta_theta!r}")
    interior_points = _count(interior_points, "interior_points")
    if interior_points < 3:
        raise DomainError("optimize_path needs at least 3 interior points; "
                          f"got {interior_points}")

    thetas = np.linspace(0.0, -delta_theta, interior_points + 2)
    lo, hi = _BOUND_MARGIN, 1.0 - _BOUND_MARGIN
    # polar equation of the straight chord between the endpoints
    x0 = math.cos(delta_theta / 2.0) / np.cos(thetas[1:-1] + delta_theta / 2.0)
    rho = np.ones(interior_points + 2)
    rho[1:-1] = np.clip(x0, lo, hi)

    def objective(r):
        return float(np.sum(_segment_times(r, thetas, 1.0 - r)))

    def derivatives(r):
        t0, t1, t00, t01, t11 = _segment_time_partials(r, thetas, 1.0 - r)
        return t1[:-1] + t0[1:], t11[:-1] + t00[1:], t01[1:-1]

    best = objective(rho)
    gradient, diag, off = derivatives(rho)
    steps = 0
    while steps < _NEWTON_STEPS:
        step = _newton_step(gradient, diag, off)
        if step is None:
            break
        settled = np.max(np.abs(gradient)) <= _RESIDUAL_THRESHOLD
        candidate = rho.copy()
        for _ in range(_HALVINGS):
            candidate[1:-1] = np.clip(rho[1:-1] + step, lo, hi)
            trial = objective(candidate)
            # Once the gradient is settled, a full step that fails to
            # lower the time has met the objective's round-off: stop.
            if trial < best or settled:
                break
            step *= 0.5
        if not trial < best:
            break
        rho, best = candidate, trial
        gradient, diag, off = derivatives(rho)
        steps += 1
    return OptimizationReport(
        best_path=DiscretePath(rho, thetas), best_time=best, iterations=steps,
        first_order_residual=float(np.max(np.abs(gradient))))


def perturbation_test(family: BrachFamily, amplitude: float,
                      mode: int) -> float:
    """Transit-time change from a sinusoidal radial bump on a tunnel.

    The bump amplitude * sin(mode * pi * s / s_total) is applied to the
    radii of the family member sampled at 2001 points per half, with s
    the cumulative arclength, so it vanishes at both endpoints.  At a
    minimizer the returned delta is non-negative up to discretization
    noise and scales quadratically in the amplitude.  A bump that moves
    an interior sample onto or above the surface, or through the
    centre, raises DomainError.
    """
    if not isinstance(family, BrachFamily):
        raise DomainError("perturbation_test expects a BrachFamily")
    amplitude = _number(amplitude, "amplitude")
    if not (math.isfinite(amplitude) and abs(amplitude) <= 1e-2):
        raise DomainError("perturbation amplitude must satisfy |a| <= 1e-2; "
                          f"got {amplitude!r}")
    mode = _count(mode, "mode")
    if mode < 1:
        raise DomainError(f"mode must be a positive integer; got {mode}")
    path = sample_path(family, _SAMPLES_PER_HALF)
    s = path.cumulative_arclength()
    bump = amplitude * np.sin(mode * math.pi * s / s[-1])
    bump[0] = 0.0
    bump[-1] = 0.0
    # Both paths are timed from their depth, which rho cannot resolve on
    # a shallow tunnel.  A sample lifted onto the surface is refused, not
    # clipped: clipping would time another path, with pi for each
    # segment between two surface samples.
    rho = path.rho + bump
    depth = path.depth - bump
    above = bool(np.any(depth[1:-1] <= 0.0))
    if above or np.any(rho < -DOMAIN_EPS):
        where = ("onto or above the surface (rho >= 1)" if above
                 else "through the centre (rho < 0)")
        raise DomainError(
            f"perturbation of amplitude {amplitude!r} in mode {mode} pushes "
            f"the path {where}; the tunnel is "
            f"{family.depth!r} deep (separation/pi)")
    np.clip(rho, 0.0, 1.0, out=rho)
    np.clip(depth, 0.0, 1.0, out=depth)
    base = float(np.sum(_segment_times(path.rho, path.theta, path.depth)))
    moved = float(np.sum(_segment_times(rho, path.theta, depth)))
    return moved - base


# Bead integrator: DOP853 at these tolerances leaves the energy drift
# near 1e-10, two orders under the acceptance bar.  A bead that has not
# arrived by _MAX_TAU (four chord transits) has stalled, and the trace
# is reported at _TRACE_SAMPLES even times plus the accepted steps.
_RTOL = 1e-13
_ATOL = 1e-13
_MAX_TAU = 8.0 * math.pi
_TRACE_SAMPLES = 2001
# _ATOL on the arclength of a tunnel of depth q, ~4 q long, moves the
# arrival by up to ~_ATOL/q relative: past 1e-4 below this depth.
_MIN_DEPTH = 1e4 * _ATOL


class SimulationTrace(namedtuple(
        "SimulationTrace", "tau rho speed transit_time max_energy_drift "
        "rhs_evaluations steps end_gap")):
    """Sampled history of a bead run plus its summary numbers.

    ``tau``, ``rho`` and ``speed`` are read-only arrays, sampled where
    the drift is taken.  ``rhs_evaluations`` and ``steps`` count the
    integrator's right-hand side calls and accepted steps.  ``end_gap``
    is the signed chordwise distance from a zero-speed turnaround, timed
    as the arrival, to the far end (positive when the bead stopped
    short), and 0.0 when the bead crossed the end with speed.
    """

    __slots__ = ()


def _end_slope(sigma, values, at_start):
    """Derivative of a quadratic through the three points nearest one end."""
    if sigma.size == 2:
        return (values[1] - values[0]) / (sigma[1] - sigma[0])
    idx = (0, 1, 2) if at_start else (-3, -2, -1)
    s0, s1, s2 = sigma[list(idx)]
    f0, f1, f2 = values[list(idx)]
    at = s0 if at_start else s2
    # derivative of the Lagrange parabola at the end node
    return (f0 * (2 * at - s1 - s2) / ((s0 - s1) * (s0 - s2))
            + f1 * (2 * at - s0 - s2) / ((s1 - s0) * (s1 - s2))
            + f2 * (2 * at - s0 - s1) / ((s2 - s0) * (s2 - s1)))


def simulate_bead(path: DiscretePath) -> SimulationTrace:
    """Integrate a bead sliding from rest along an interpolated tunnel.

    The path is interpolated as a clamped cubic (x, y) spline against its
    chordwise parameter and the constrained equation of motion is solved
    in that parameter, which conserves the continuum energy identically;
    the reported drift max |nu^2/2 - (1 - rho^2)/2| therefore isolates
    integrator error.  Raises StalledTrajectoryError, carrying the
    turning point, if the bead fails to reach the far end by tau = 8 pi,
    and PathError for a path shallower than _MIN_DEPTH (separation ~3e-9).
    """
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline

    if not isinstance(path, DiscretePath):
        raise DomainError("simulate_bead expects a DiscretePath")
    if not path.depth.max() >= _MIN_DEPTH:
        raise PathError(f"path depth {path.depth.max():.3e} is below "
                        f"{_MIN_DEPTH:.0e}, too shallow for the bead")
    x, y = path.xy()
    seg = np.hypot(np.diff(x), np.diff(y))
    keep = np.concatenate(([True], seg > 0.0))
    x, y = x[keep], y[keep]
    if x.size < 2:
        raise PathError("path has no extent after removing duplicate points")
    # a dropped point equals the one before it: no second hypot pass
    sigma = np.concatenate(([0.0], np.cumsum(seg[keep[1:]])))
    pts = np.column_stack((x, y))
    d_start = np.array([_end_slope(sigma, x, True), _end_slope(sigma, y, True)])
    d_end = np.array([_end_slope(sigma, x, False), _end_slope(sigma, y, False)])
    spline = CubicSpline(sigma, pts, bc_type=((1, d_start), (1, d_end)))
    dspline = spline.derivative()
    ddspline = dspline.derivative()
    sigma_end = sigma[-1]

    def rhs(_, state):
        s, w = state
        p = spline(s)
        g1 = dspline(s)
        g2 = ddspline(s)
        gram = g1 @ g1
        return (w, (-(p @ g1) - (g1 @ g2) * w * w) / gram)

    def reach_end(_, state):
        return state[0] - sigma_end
    reach_end.terminal = True
    reach_end.direction = 1.0

    def turnaround(_, state):
        return state[1]
    turnaround.terminal = True
    turnaround.direction = -1.0

    sol = solve_ivp(rhs, (0.0, _MAX_TAU), (0.0, 0.0), method="DOP853",
                    rtol=_RTOL, atol=_ATOL, dense_output=True,
                    events=(reach_end, turnaround))
    end_gap = 0.0
    if sol.t_events[0].size:
        t_end = float(sol.t_events[0][0])
    elif sol.t_events[1].size:
        # The far endpoint of a surface-to-surface tunnel is reached with
        # exactly zero speed, so the bead turns around there, a round-off
        # sliver short of or past the end: the turnaround is the arrival.
        t_end = float(sol.t_events[1][0])
        s_turn = float(sol.y_events[1][0][0])
        gap = sigma_end - s_turn
        g1_end = dspline(sigma_end)
        decel = (spline(sigma_end) @ g1_end) / math.hypot(*g1_end)
        if abs(gap) <= 1e-6 * max(sigma_end, 1.0) and decel > 0.0:
            end_gap = float(gap)
        else:
            rho_turn = float(np.hypot(*spline(s_turn)))
            raise StalledTrajectoryError(
                "bead turned around before the far end: turning point at "
                f"tau = {t_end:.6g}, arclength parameter {s_turn:.6g} of "
                f"{sigma_end:.6g}, rho = {rho_turn:.6g}",
                tau=t_end, arclength=s_turn, rho=rho_turn)
    else:
        probe = np.linspace(0.0, sol.t[-1], 2001)
        s_probe, w_probe = sol.sol(probe)
        i = int(np.argmax(s_probe))
        rho_turn = float(np.hypot(*spline(s_probe[i])))
        raise StalledTrajectoryError(
            "bead failed to reach the far end within tau = "
            f"{_MAX_TAU:.6g}; deepest progress at tau = {probe[i]:.6g}, "
            f"sigma = {s_probe[i]:.6g}, rho = {rho_turn:.6g} "
            f"(residual speed parameter {w_probe[i]:.2e})",
            tau=float(probe[i]), arclength=float(s_probe[i]), rho=rho_turn)

    taus = np.unique(np.concatenate((np.linspace(0.0, t_end, _TRACE_SAMPLES),
                                     sol.t[sol.t <= t_end])))
    s_tau, w_tau = sol.sol(taus)
    s_tau = np.clip(s_tau, 0.0, sigma_end)
    p = spline(s_tau)
    g1 = dspline(s_tau)
    speed = np.abs(np.linalg.norm(g1, axis=1) * w_tau)
    rho = np.hypot(p[:, 0], p[:, 1])
    drift = float(np.max(np.abs(0.5 * speed**2 - 0.5 * (1.0 - rho**2))))
    for arr in (taus, rho, speed):
        arr.setflags(write=False)
    return SimulationTrace(tau=taus, rho=rho, speed=speed, transit_time=t_end,
                           max_energy_drift=drift,
                           rhs_evaluations=int(sol.nfev), steps=sol.t.size - 1,
                           end_gap=end_gap)
