"""Uniform-field minimum-time curve and the small-arc limit check.

Seen from inside a short, shallow tunnel the sphere's interior field is
indistinguishable from a uniform downward pull of surface strength, so
the spherical minimum-time tunnel must flatten onto the classical
cycloid solution as the surface separation shrinks.  This module carries
the standard cycloid machinery (boundary solve and transit time) and the
comparison that demonstrates the convergence.

Cycloid conventions: a point on a circle of radius a rolling under a
horizontal line traces x = a (phi - sin phi), y = a (1 - cos phi) with
depth y positive downward; release is from rest at the cusp phi = 0 and
the time to reach parameter phi in a field of strength g is
phi * sqrt(a / g).
"""

import math
from dataclasses import dataclass

import numpy as np

from .brachistochrone import BrachFamily, sample_path
from .errors import DomainError, RootFindError
from .timing import total_transit_time


@dataclass(frozen=True)
class CycloidSolution:
    """A cycloid arc through two prescribed points."""

    rolling_radius: float
    end_angle: float
    horizontal_span: float

    def __post_init__(self):
        if not (self.rolling_radius > 0.0):
            raise DomainError("rolling_radius must be positive")
        if not (0.0 < self.end_angle <= 2.0 * math.pi):
            raise DomainError("end_angle must lie in (0, 2*pi]")


def _one_minus_cos(phi):
    return 2.0 * math.sin(phi / 2.0) ** 2


def _phi_minus_sin(phi):
    if phi < 0.5:
        # nested series, accurate to double precision on this range
        p2 = phi * phi
        inner = 1.0 - p2 / 110.0 * (1.0 - p2 / 156.0)
        return (phi * p2 / 6.0) * (1.0 - p2 / 20.0
                                   * (1.0 - p2 / 42.0
                                      * (1.0 - p2 / 72.0 * inner)))
    return phi - math.sin(phi)


def cycloid_between(horizontal_span: float, vertical_drop: float) -> CycloidSolution:
    """Solve a(phi - sin phi) = span, a(1 - cos phi) = drop for (a, phi).

    The ratio (phi - sin phi)/(1 - cos phi) is strictly increasing on
    (0, 2*pi), so for a positive drop the end angle is found by scipy's
    bracketed root finder; a zero drop gives the full arch phi = 2*pi in
    closed form and needs numpy alone.  Residuals of both boundary
    equations are verified below 1e-12.
    """
    span = float(horizontal_span)
    drop = float(vertical_drop)
    if not (math.isfinite(span) and span > 0.0):
        raise DomainError(f"horizontal_span must be positive; got {span!r}")
    if not (math.isfinite(drop) and drop >= 0.0):
        raise DomainError(f"vertical_drop must be non-negative; got {drop!r}")
    if drop == 0.0:
        phi = 2.0 * math.pi
        a = span / (2.0 * math.pi)
    else:
        from scipy.optimize import brentq

        def g(phi):
            return drop * _phi_minus_sin(phi) - span * _one_minus_cos(phi)

        # g < 0 just above 0 and g(2*pi) = 2*pi*drop > 0: one sign change
        phi = brentq(g, 1e-12, 2.0 * math.pi, xtol=1e-15, rtol=8.9e-16)
        # Guarded Newton polish: residuals divide by phi - sin(phi), which
        # is tiny for deep drops, so the root must sit at the evaluation
        # noise floor; steps that fail to shrink |g| are rejected.
        g0 = g(phi)
        for _ in range(3):
            slope = drop * _one_minus_cos(phi) - span * math.sin(phi)
            if slope == 0.0 or g0 == 0.0:
                break
            candidate = phi - g0 / slope
            if not (0.0 < candidate < 2.0 * math.pi):
                break
            g1 = g(candidate)
            if abs(g1) >= abs(g0):
                break
            phi, g0 = candidate, g1
        a = span / _phi_minus_sin(phi)
    r1 = abs(a * _phi_minus_sin(phi) - span)
    r2 = abs(a * _one_minus_cos(phi) - drop)
    tol = 1e-12 * max(1.0, span, drop)
    if r1 > tol or r2 > tol:
        raise RootFindError("cycloid boundary solve missed its residual "
                            f"tolerance: {r1:.2e}, {r2:.2e}")
    return CycloidSolution(rolling_radius=a, end_angle=phi,
                           horizontal_span=span)


def cycloid_time(sol: CycloidSolution, field_strength: float = 1.0) -> float:
    """Transit time phi * sqrt(a/g) for release at rest from the cusp."""
    g = float(field_strength)
    if not (math.isfinite(g) and g > 0.0):
        raise DomainError(f"field_strength must be positive; got {g!r}")
    return sol.end_angle * math.sqrt(sol.rolling_radius / g)


def cycloid_xy(sol: CycloidSolution, phi):
    """Cycloid coordinates at rolling angle(s) phi; depth positive downward."""
    phi = np.asarray(phi, dtype=float)
    a = sol.rolling_radius
    return a * (phi - np.sin(phi)), a * (1.0 - np.cos(phi))


@dataclass(frozen=True)
class SmallArcComparison:
    """Spherical tunnel vs uniform-field cycloid over the same endpoints."""

    delta_theta: float
    max_geometry_deviation: float     # max depth mismatch per unit span
    sphere_time: float
    cycloid_time: float
    relative_time_difference: float


def compare_small_arc(delta_theta: float,
                      samples_per_half: int = 2001) -> SmallArcComparison:
    """Compare the spherical tunnel with its flat-space cycloid twin.

    The spherical path for the given separation is mapped to local
    tangent-plane coordinates (x = angle offset, y = depth 1 - rho) and
    compared to the level-endpoint cycloid spanning the same mouths in a
    uniform field of surface strength.  Both the depth mismatch per unit
    span and the relative transit-time difference vanish at least
    linearly as the separation shrinks.

    Separations above 0.2 rad are outside the small-arc regime; use the
    family and timing tools directly to compare large tunnels.
    """
    delta_theta = float(delta_theta)
    if not (math.isfinite(delta_theta) and 0.0 < delta_theta <= 0.2):
        raise DomainError("compare_small_arc covers separations in (0, 0.2] "
                          f"rad; got {delta_theta!r}")
    family = BrachFamily.from_separation(delta_theta)
    path = sample_path(family, samples_per_half)
    x_sphere = -path.theta
    y_sphere = 1.0 - path.rho

    flat = cycloid_between(delta_theta, 0.0)
    phis = np.linspace(0.0, flat.end_angle, 8 * samples_per_half)
    x_cyc, y_cyc = cycloid_xy(flat, phis)
    y_on_stations = np.interp(x_sphere, x_cyc, y_cyc)
    deviation = float(np.max(np.abs(y_sphere - y_on_stations))) / delta_theta

    t_sphere = total_transit_time(family).tau
    t_cyc = cycloid_time(flat, 1.0)
    return SmallArcComparison(delta_theta=delta_theta,
                              max_geometry_deviation=deviation,
                              sphere_time=t_sphere,
                              cycloid_time=t_cyc,
                              relative_time_difference=abs(t_sphere - t_cyc) / t_cyc)
