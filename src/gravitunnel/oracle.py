"""Independent numerical checks on the closed-form tunnel family.

Nothing in this module consults the closed-form antiderivative to
produce its answer.  The transcription optimizer searches over discrete
paths directly, and the bead simulator integrates Newton's law along an
interpolated tunnel; both have to land on the same transit times as the
quadrature of the closed form, or something upstream is wrong.
"""

import math
from dataclasses import dataclass

import numpy as np

from .brachistochrone import BrachFamily, sample_path
from .core import DOMAIN_EPS, DiscretePath
from .errors import DomainError, PathError, StalledTrajectoryError
from .timing import _segment_times


@dataclass(frozen=True)
class OptimizeConfig:
    """Knobs for the direct path optimizer."""

    max_iterations: int = 1000
    gradient_tol: float = 1e-10
    residual_threshold: float = 1e-6
    bound_margin: float = 1e-9
    polish_iterations: int = 12


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of a direct transcription run."""

    best_path: DiscretePath
    best_time: float
    iterations: int
    converged: bool
    first_order_residual: float


_GRAD_STEP = 1e-7
_HESS_STEP = 1e-5


def _fd_gradient(objective, x):
    g = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += _GRAD_STEP
        xm = x.copy()
        xm[i] -= _GRAD_STEP
        g[i] = (objective(xp) - objective(xm)) / (2.0 * _GRAD_STEP)
    return g


def _newton_polish(objective, x, lo, hi, max_iter):
    """Damped Newton steps using the objective's tridiagonal Hessian.

    Each free radius couples only to its two neighboring segments, so the
    Hessian is tridiagonal and cheap to difference and solve.  Stops at
    the finite-difference noise floor (~1e-8 on the gradient).
    """
    from scipy.linalg import solve_banded

    m = x.size
    iterations = 0
    for _ in range(max_iter):
        g = _fd_gradient(objective, x)
        if np.max(np.abs(g)) < 1e-8:
            break
        f0 = objective(x)
        diag = np.empty(m)
        off = np.empty(m - 1)
        h = _HESS_STEP
        for i in range(m):
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            diag[i] = (objective(xp) - 2.0 * f0 + objective(xm)) / h**2
        for i in range(m - 1):
            corners = 0.0
            for s1, s2, sign in ((h, h, 1.0), (h, -h, -1.0),
                                 (-h, h, -1.0), (-h, -h, 1.0)):
                xc = x.copy()
                xc[i] += s1
                xc[i + 1] += s2
                corners += sign * objective(xc)
            off[i] = corners / (4.0 * h * h)
        banded = np.zeros((3, m))
        banded[0, 1:] = off
        banded[1] = diag
        banded[2, :-1] = off
        try:
            step = solve_banded((1, 1), banded, -g)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(25):
            candidate = np.clip(x + scale * step, lo, hi)
            if objective(candidate) <= f0:
                x = candidate
                break
            scale *= 0.5
        else:
            break
        iterations += 1
    return x, iterations


def optimize_path(delta_theta: float, interior_points: int,
                  cfg: OptimizeConfig | None = None,
                  initial_rho=None) -> OptimizationReport:
    """Minimize the transit time over discretized tunnels directly.

    Endpoints are pinned at (rho=1, theta=0) and (rho=1, theta=-delta_theta);
    the interior points sit on a uniform angular grid with only their radii
    free, which keeps every candidate single-valued in theta.  The objective
    is the exact polyline transit time, so the optimum can never undercut
    the true continuum minimum.  Starts from the straight chord unless
    ``initial_rho`` supplies radii for the interior stations.  L-BFGS-B does
    the descent and a damped tridiagonal Newton polish grinds the
    first-order residual to the finite-difference floor.

    Returns a report rather than raising when the optimizer stops without
    meeting the first-order threshold.
    """
    from scipy.optimize import minimize

    delta_theta = float(delta_theta)
    if not (math.isfinite(delta_theta) and 0.0 < delta_theta < math.pi):
        raise DomainError("optimize_path needs a separation in (0, pi); got "
                          f"{delta_theta!r}")
    interior_points = int(interior_points)
    if interior_points < 3:
        raise DomainError("optimize_path needs at least 3 interior points")
    cfg = cfg or OptimizeConfig()

    thetas = np.linspace(0.0, -delta_theta, interior_points + 2)
    lo, hi = cfg.bound_margin, 1.0 - cfg.bound_margin
    if initial_rho is None:
        # polar equation of the straight chord between the endpoints
        d = math.cos(delta_theta / 2.0)
        x0 = d / np.cos(thetas[1:-1] + delta_theta / 2.0)
    else:
        x0 = np.asarray(initial_rho, dtype=float)
        if x0.shape != (interior_points,):
            raise DomainError("initial_rho must supply one radius per "
                              "interior point")
    x0 = np.clip(x0, lo, hi)

    full_rho = np.empty(interior_points + 2)
    full_rho[0] = full_rho[-1] = 1.0

    def objective(r):
        full_rho[1:-1] = r
        return float(np.sum(_segment_times(full_rho, thetas)))

    res = minimize(objective, x0, method="L-BFGS-B", jac="3-point",
                   bounds=[(lo, hi)] * interior_points,
                   options={"maxiter": cfg.max_iterations,
                            "maxfun": 500000,
                            "ftol": 1e-15,
                            "gtol": cfg.gradient_tol,
                            "maxcor": 50})
    x, polish_iters = _newton_polish(objective, res.x.copy(), lo, hi,
                                     cfg.polish_iterations)
    residual = float(np.max(np.abs(_fd_gradient(objective, x))))
    best = np.concatenate(([1.0], x, [1.0]))
    path = DiscretePath.from_arrays(best, thetas)
    return OptimizationReport(best_path=path,
                              best_time=objective(x),
                              iterations=int(res.nit) + polish_iters,
                              converged=residual <= cfg.residual_threshold,
                              first_order_residual=residual)


def perturbation_test(family: BrachFamily, amplitude: float, mode: int,
                      samples_per_half: int = 2001) -> float:
    """Transit-time change from a sinusoidal radial bump on a tunnel.

    The bump amplitude * sin(mode * pi * s / s_total) is applied to the
    radii of a densely sampled family member, with s the cumulative
    arclength, so it vanishes at both endpoints.  At a minimizer the
    returned delta is non-negative up to discretization noise and scales
    quadratically in the amplitude.
    """
    if not isinstance(family, BrachFamily):
        raise DomainError("perturbation_test expects a BrachFamily")
    amplitude = float(amplitude)
    if not (math.isfinite(amplitude) and abs(amplitude) <= 1e-2):
        raise DomainError("perturbation amplitude must satisfy |a| <= 1e-2; "
                          f"got {amplitude!r}")
    mode = int(mode)
    if mode < 1:
        raise DomainError(f"mode must be a positive integer; got {mode}")
    path = sample_path(family, samples_per_half)
    s = path.cumulative_arclength()
    bump = amplitude * np.sin(mode * math.pi * s / s[-1])
    bump[0] = 0.0
    bump[-1] = 0.0
    perturbed = path.rho + bump
    if np.any(perturbed > 1.0 + DOMAIN_EPS) or np.any(perturbed < -DOMAIN_EPS):
        raise DomainError("perturbation pushes the path outside rho in [0, 1]")
    perturbed = np.clip(perturbed, 0.0, 1.0)
    base = float(np.sum(_segment_times(path.rho, path.theta)))
    moved = float(np.sum(_segment_times(perturbed, path.theta)))
    return moved - base


@dataclass(frozen=True)
class StepControl:
    """Integrator settings for the bead simulation.

    Defaults leave the energy drift near 1e-10, two orders under the
    acceptance bar; drift near a zero-speed endpoint is amplified into
    arrival-time error by a square root, so the margin is not free.
    """

    rtol: float = 1e-13
    atol: float = 1e-13
    method: str = "DOP853"

    def __post_init__(self):
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise DomainError("step control tolerances must be positive")


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled history of a bead run plus its summary numbers."""

    tau: np.ndarray
    arclength: np.ndarray
    rho: np.ndarray
    speed: np.ndarray
    transit_time: float
    max_energy_drift: float

    @property
    def samples(self):
        """(tau, arclength, rho, speed) tuples in time order."""
        return list(zip(self.tau, self.arclength, self.rho, self.speed))


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


def simulate_bead(path: DiscretePath, step_control: StepControl | None = None,
                  max_tau: float = 8.0 * math.pi,
                  trace_samples: int = 2001) -> SimulationTrace:
    """Integrate a bead sliding from rest along an interpolated tunnel.

    The path is interpolated as a clamped cubic (x, y) spline against its
    chordwise parameter and the constrained equation of motion is solved
    in that parameter, which conserves the continuum energy identically;
    the reported drift max |nu^2/2 - (1 - rho^2)/2| therefore isolates
    integrator error.  Raises StalledTrajectoryError, carrying the
    turning point, if the bead fails to reach the far end by ``max_tau``.
    """
    from scipy.integrate import cumulative_trapezoid, solve_ivp
    from scipy.interpolate import CubicSpline

    if not isinstance(path, DiscretePath):
        raise DomainError("simulate_bead expects a DiscretePath")
    ctrl = step_control or StepControl()
    x, y = path.xy()
    seg = np.hypot(np.diff(x), np.diff(y))
    keep = np.concatenate(([True], seg > 0.0))
    x, y = x[keep], y[keep]
    if x.size < 2:
        raise PathError("path has no extent after removing duplicate points")
    sigma = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(x), np.diff(y)))))
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

    def escaped_back(_, state):
        return state[0] + 0.05 * sigma_end
    escaped_back.terminal = True
    escaped_back.direction = -1.0

    sol = solve_ivp(rhs, (0.0, float(max_tau)), (0.0, 0.0), method=ctrl.method,
                    rtol=ctrl.rtol, atol=ctrl.atol, dense_output=True,
                    events=(reach_end, turnaround, escaped_back))
    if sol.t_events[0].size:
        t_end = float(sol.t_events[0][0])
    elif sol.t_events[1].size:
        # The far endpoint of a surface-to-surface tunnel is reached with
        # exactly zero speed, so integrator round-off can park the bead a
        # sliver short; close that sliver with the local analytic time.
        t_turn = float(sol.t_events[1][0])
        s_turn = float(sol.y_events[1][0][0])
        gap = sigma_end - s_turn
        g1_end = dspline(sigma_end)
        decel = (spline(sigma_end) @ g1_end) / math.hypot(*g1_end)
        if abs(gap) <= 1e-6 * max(sigma_end, 1.0) and decel > 0.0:
            # positive gap: fell short, add the time over the sliver;
            # negative gap: overshot inside one step, subtract it back
            t_end = t_turn + math.copysign(math.sqrt(2.0 * abs(gap) / decel),
                                           gap)
        else:
            p_turn = spline(s_turn)
            raise StalledTrajectoryError(
                "bead turned around before the far end: turning point at "
                f"tau = {t_turn:.6g}, arclength parameter {s_turn:.6g} of "
                f"{sigma_end:.6g}, rho = {float(np.hypot(*p_turn)):.6g}",
                tau=t_turn, arclength=s_turn,
                rho=float(np.hypot(*p_turn)))
    else:
        probe = np.linspace(0.0, sol.t[-1], 2001)
        s_probe, w_probe = sol.sol(probe)
        i = int(np.argmax(s_probe))
        p_turn = spline(s_probe[i])
        raise StalledTrajectoryError(
            "bead failed to reach the far end within max_tau = "
            f"{float(max_tau):.6g}; deepest progress at tau = {probe[i]:.6g}, "
            f"sigma = {s_probe[i]:.6g}, rho = {float(np.hypot(*p_turn)):.6g} "
            f"(residual speed parameter {w_probe[i]:.2e})",
            tau=float(probe[i]),
            arclength=float(s_probe[i]),
            rho=float(np.hypot(*p_turn)))

    taus = np.unique(np.concatenate((np.linspace(0.0, t_end, trace_samples),
                                     sol.t[sol.t <= t_end])))
    s_tau, w_tau = sol.sol(taus)
    s_tau = np.clip(s_tau, 0.0, sigma_end)
    p = spline(s_tau)
    g1 = dspline(s_tau)
    speed = np.linalg.norm(g1, axis=1) * w_tau
    rho = np.hypot(p[:, 0], p[:, 1])
    # chordwise parameter -> true arclength, tabulated once
    fine = np.linspace(0.0, sigma_end, max(4 * sigma.size, 1000))
    speed_of_sigma = np.linalg.norm(dspline(fine), axis=1)
    arclen_table = cumulative_trapezoid(speed_of_sigma, fine, initial=0.0)
    arclength = np.interp(s_tau, fine, arclen_table)
    drift = float(np.max(np.abs(0.5 * speed**2 - 0.5 * (1.0 - rho**2))))
    for arr in (taus, arclength, rho, speed):
        arr.setflags(write=False)
    return SimulationTrace(tau=taus, arclength=arclength, rho=rho,
                           speed=np.abs(speed), transit_time=t_end,
                           max_energy_drift=drift)
