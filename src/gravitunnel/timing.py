"""Transit-time and arc-length evaluation, with singular endpoints tamed.

The half-tunnel time of a family member k is

    integral from rho_m to 1 of sqrt(1 + rho^2 theta'^2) / sqrt(1-rho^2),

which diverges integrably at both ends: like 1/sqrt(1-rho) at the
zero-speed surface release and like 1/sqrt(rho - rho_m) where the slope
turns vertical.  Both are removed by substitution before any quadrature
runs: rho = sin(alpha) flattens the surface end (the Jacobian cos(alpha)
cancels sqrt(1 - rho^2) exactly) and u = sqrt(rho - rho_m) flattens the
turnaround end.  The smooth remainders go to an adaptive Gauss-Kronrod
(G7, K15) engine.

Discrete paths are timed segment by segment.  Along any straight segment
the motion is simple harmonic (the field is linear in position), so the
traversal time of a segment from P0 with entry speed nu0 is elementary:

    t = asin((L + b)/c) - asin(b/c),   b = P0 . t_hat,  c = sqrt(nu0^2 + b^2),

where L is the segment length and t_hat its direction.  Segment times
are therefore exact for the polyline itself; the only error left in a
discrete transit time is the polyline's geometric deviation from the
curve it samples, which vanishes quadratically under refinement.  At a
surface endpoint the formula's leading behavior reduces to the local
model nu ~ sqrt(2 (1 - rho)).
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .brachistochrone import BrachFamily
from .core import DOMAIN_EPS, DiscretePath
from .errors import (DegenerateSegmentError, DomainError, InfiniteTimeError,
                     QuadratureError)

_ZERO_LENGTH = 1e-15


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for the adaptive quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 60

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class TransitResult:
    """A transit time with its error estimate and evaluation count."""

    tau: float
    error_estimate: float
    evaluations: int


# 15-point Kronrod extension of 7-point Gauss, positive abscissae.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))          # 15 ascending
_KRONROD_W = np.concatenate((_WGK[:-1], _WGK[::-1]))
_GAUSS_IDX = np.arange(1, 15, 2)                            # Gauss subset
_GAUSS_W = _WG[[0, 1, 2, 3, 2, 1, 0]]


def _gk15(f, a, b):
    """One Gauss-Kronrod panel: (integral, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fv = np.asarray(f(mid + half * _NODES), dtype=float)
    resk = float(_KRONROD_W @ fv)
    resg = float(_GAUSS_W @ fv[_GAUSS_IDX])
    result = resk * half
    resabs = float(_KRONROD_W @ np.abs(fv)) * abs(half)
    reskh = 0.5 * resk
    resasc = float(_KRONROD_W @ np.abs(fv - reskh)) * abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    eps50 = 50.0 * np.finfo(float).eps
    if resabs > np.finfo(float).tiny / eps50:
        err = max(eps50 * resabs, err)
    return result, err


def _adaptive(f, a, b, cfg, label):
    """Adaptive bisection over [a, b]; returns (value, error, evaluations)."""
    if a == b:
        return 0.0, 0.0, 0
    val, err = _gk15(f, a, b)
    evals = 15
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    for _ in range(cfg.max_subdivisions):
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
            return total_val, total_err, evals
        neg_err, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        evals += 30
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
    if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
        return total_val, total_err, evals
    worst = max(heap)                       # heap of negated errors
    raise QuadratureError(
        f"{label}: no convergence within {cfg.max_subdivisions} subdivisions "
        f"(error estimate {total_err:.3e}, worst subinterval "
        f"[{worst[1]:.6g}, {worst[2]:.6g}] with error {worst[4]:.3e})",
        worst_interval=(worst[1], worst[2], worst[4]),
        error_estimate=total_err,
        evaluations=evals,
    )


def _smooth_factor(rho, k, rm):
    """sqrt(1 + rho^2 theta'^2) written without the theta' singularities.

    Simplifies to rho / sqrt((k^2+1)(rho^2 - rho_m^2)); equals 1 at the
    surface.  Singular only at rho_m, which the caller substitutes away.
    """
    return rho / np.sqrt((k * k + 1.0) * (rho - rm) * (rho + rm))


def _integral(family, selector, cfg):
    """Half-tunnel integral of the chosen integrand, with substitutions."""
    k, rm = family.k, family.rho_min
    rho_c = 0.5 * (1.0 + rm)
    alpha_c = math.asin(rho_c)
    u_max = math.sqrt(rho_c - rm)
    piece_cfg = QuadratureConfig(abs_tol=cfg.abs_tol / 2.0,
                                 rel_tol=cfg.rel_tol,
                                 max_subdivisions=cfg.max_subdivisions)

    if selector == "time":
        def upper(alpha):
            return _smooth_factor(np.sin(alpha), k, rm)

        def lower(u):
            rho = rm + u * u
            return 2.0 * rho / (np.sqrt((k * k + 1.0) * (rho + rm))
                                * np.sqrt((1.0 - rho) * (1.0 + rho)))
    else:
        def upper(alpha):
            return _smooth_factor(np.sin(alpha), k, rm) * np.cos(alpha)

        def lower(u):
            rho = rm + u * u
            return 2.0 * rho / np.sqrt((k * k + 1.0) * (rho + rm))

    v1, e1, n1 = _adaptive(upper, alpha_c, math.pi / 2.0, piece_cfg,
                           f"{selector} integral, surface piece")
    v2, e2, n2 = _adaptive(lower, 0.0, u_max, piece_cfg,
                           f"{selector} integral, turnaround piece")
    return v1 + v2, e1 + e2, n1 + n2


def arc_integral(family: BrachFamily, selector: str, cfg=None) -> float:
    """Half-tunnel integral for one family member.

    selector "time" gives the half transit time, "length" the half arc
    length.  The degenerate k = 0 diameter is returned in closed form
    (pi/2 and 1 respectively).
    """
    if selector not in ("time", "length"):
        raise DomainError(f"selector must be 'time' or 'length'; got {selector!r}")
    if not isinstance(family, BrachFamily):
        raise DomainError("arc_integral expects a BrachFamily")
    if family.k == 0.0:
        return math.pi / 2.0 if selector == "time" else 1.0
    cfg = cfg or QuadratureConfig()
    value, _, _ = _integral(family, selector, cfg)
    return value


def half_transit_time(family: BrachFamily, cfg=None) -> TransitResult:
    """Time from the surface to the minimum radius, by singular quadrature."""
    if not isinstance(family, BrachFamily):
        raise DomainError("half_transit_time expects a BrachFamily")
    if family.k == 0.0:
        return TransitResult(tau=math.pi / 2.0, error_estimate=0.0, evaluations=0)
    cfg = cfg or QuadratureConfig()
    value, err, evals = _integral(family, "time", cfg)
    return TransitResult(tau=value, error_estimate=err, evaluations=evals)


def total_transit_time(family: BrachFamily, cfg=None) -> TransitResult:
    """Full surface-to-surface time: twice the half by mirror symmetry."""
    half = half_transit_time(family, cfg)
    return TransitResult(tau=2.0 * half.tau,
                         error_estimate=2.0 * half.error_estimate,
                         evaluations=half.evaluations)


def _segment_times(rho, theta):
    """Exact traversal times of each straight segment of a polar polyline.

    Raises DegenerateSegmentError for a zero-length segment with both
    ends on the surface and InfiniteTimeError for a positive-length
    segment with both ends on the surface (the evaluator has no basis to
    assume such a segment dips below zero speed).  Other zero-length
    segments contribute exactly zero time.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return _cartesian_segment_times(rho * np.cos(theta), rho * np.sin(theta),
                                    rho)


def _cartesian_segment_times(x, y, rho):
    """_segment_times on the polyline's points (x, y) and their radii rho.

    One pass over whole arrays: every segment runs the same vector math,
    a zero-length one divided by 1 instead of 0, and the entries it must
    not use are overwritten afterwards (+-pi/2 at surface ends, 0 for
    zero-length segments), so no masked copy of the inputs is made.
    """
    dx = np.diff(x)
    dy = np.diff(y)
    length = np.hypot(dx, dy)
    on_surface = rho >= 1.0 - DOMAIN_EPS
    start_surface = on_surface[:-1]
    end_surface = on_surface[1:]
    both_surface = start_surface & end_surface
    zero = length <= _ZERO_LENGTH
    if np.any(zero & both_surface):
        i = int(np.flatnonzero(zero & both_surface)[0])
        raise DegenerateSegmentError(
            f"segment {i} has zero length at the surface, where speed is zero")
    if np.any(~zero & both_surface):
        i = int(np.flatnonzero(~zero & both_surface)[0])
        raise InfiniteTimeError(
            f"segment {i} of positive length has both endpoints at rho = 1; "
            "its traversal time is unbounded for this evaluator")
    divisor = np.where(zero, 1.0, length)
    tx = dx / divisor
    ty = dy / divisor
    b = x[:-1] * tx + y[:-1] * ty
    rho0 = rho[:-1]
    nu0sq = np.maximum((1.0 - rho0) * (1.0 + rho0), 0.0)
    c = np.sqrt(nu0sq + b * b)
    c[c == 0.0] = _ZERO_LENGTH
    # A segment end sitting exactly on the surface has zero speed, so
    # its arcsine argument is exactly +-1; writing +-pi/2 directly
    # avoids amplifying round-off through the arcsine's vertical slope.
    asin0 = np.arcsin(np.clip(b / c, -1.0, 1.0))
    asin0[start_surface] = -math.pi / 2.0
    asin1 = np.arcsin(np.clip((length + b) / c, -1.0, 1.0))
    asin1[end_surface] = math.pi / 2.0
    times = asin1 - asin0
    times[zero] = 0.0
    return times


def _every_other(a):
    """Samples 0, 2, 4, ... of a, plus the last one when a's length is even."""
    return a[::2] if a.size % 2 else np.append(a[::2], a[-1])


def path_transit_time(path: DiscretePath) -> TransitResult:
    """Transit time of a discrete path, exact per straight segment.

    The per-segment evaluation is closed form and needs no tolerance.
    The error estimate is |tau - tau_coarse|, where tau_coarse times the
    same path through samples 0, 2, 4, ... and the last one, so it
    reflects how converged the path's geometry is, not floating-point
    noise.  Both passes share one evaluation of the points' cosines and
    sines.  Paths under 5 samples, and paths whose coarse subsample
    cannot be timed (a segment between two surface samples), report only
    a round-off bound.
    """
    if not isinstance(path, DiscretePath):
        path = DiscretePath.from_arrays(*path)
    rho = path.rho
    x = rho * np.cos(path.theta)
    y = rho * np.sin(path.theta)
    times = _cartesian_segment_times(x, y, rho)
    tau = float(np.sum(times))
    evaluations = times.size
    n = len(path)
    error = float(n * np.finfo(float).eps * max(abs(tau), 1.0))
    if n >= 5:
        try:
            coarse = _cartesian_segment_times(_every_other(x), _every_other(y),
                                              _every_other(rho))
            error = abs(tau - float(np.sum(coarse)))
            evaluations += coarse.size
        except (DegenerateSegmentError, InfiniteTimeError):
            pass
    return TransitResult(tau=tau, error_estimate=error, evaluations=evaluations)


def cumulative_path_times(path: DiscretePath) -> np.ndarray:
    """Running transit time at each sample of a path, starting at 0."""
    if not isinstance(path, DiscretePath):
        path = DiscretePath.from_arrays(*path)
    return np.concatenate(([0.0], np.cumsum(_segment_times(path.rho, path.theta))))
