"""Uniform-field minimum-time curve and the small-arc limit check.

Seen from inside a short, shallow tunnel the sphere's interior field is
indistinguishable from a uniform downward pull of surface strength, so
the spherical minimum-time tunnel must flatten onto the classical
cycloid solution as the surface separation shrinks.  This module carries
the level-endpoint cycloid arch, its transit time and the comparison
that demonstrates the convergence, matching the two curves station by
station in their rolling angles.

Cycloid conventions: a point on a circle of radius a rolling under a
horizontal line traces x = a (phi - sin phi), y = a (1 - cos phi) with
depth y positive downward; release is from rest at the cusp phi = 0 and
the time to reach parameter phi in a field of strength g is
phi * sqrt(a / g).  The arch between two level points a span apart is
`CycloidSolution(span)`, the record's one constructor.  A comparison
stores its separation and measured mismatch; its times are properties.
"""

import math
from collections import namedtuple

from .closed import _number, tunnel_half, tunnel_time
from .errors import DomainError

# samples per half of the spherical tunnel in compare_small_arc
_SAMPLES_PER_HALF = 2001
# Smallest separation compare_small_arc takes.  Its stations carry
# ~eps delta of round-off on a mismatch of ~delta^2/80, which stops
# resolving it below here: the mismatch per unit span, ~0.01267, reads
# 0.0136 at 1e-13 and 1.33 at 1e-16.
_MIN_SEPARATION = 1e-12


class CycloidSolution(namedtuple("CycloidSolution", "horizontal_span")):
    """The full cycloid arch between two level points a horizontal_span
    apart; a span that is not a finite positive number raises
    DomainError naming it.

    Level endpoints are the two cusps of one arch, phi = 0 and 2*pi, so
    the rolling radius is span / (2*pi) in closed form.
    """

    __slots__ = ()

    def __new__(cls, horizontal_span):
        span = _number(horizontal_span, "horizontal_span")
        if not (math.isfinite(span) and span > 0.0):
            raise DomainError("horizontal_span must be finite and positive; "
                              f"got {span!r}")
        return super().__new__(cls, span)

    rolling_radius = property(
        lambda self: self.horizontal_span / (2.0 * math.pi))


def cycloid_time(sol: CycloidSolution) -> float:
    """Transit time 2 pi sqrt(a/g) from the cusp, released at rest, to the
    arch's far cusp, in the unit field g = 1 of the sphere's surface."""
    return 2.0 * math.pi * math.sqrt(sol.rolling_radius)


class SmallArcComparison(namedtuple(
        "SmallArcComparison", "delta_theta max_geometry_deviation")):
    """Spherical tunnel vs uniform-field cycloid over the same endpoints.

    max_geometry_deviation is the largest depth mismatch per unit span;
    the two transit times and their relative difference follow from
    delta_theta.
    """

    __slots__ = ()

    sphere_time = property(lambda self: tunnel_time(self.delta_theta / math.pi))
    cycloid_time = property(
        lambda self: cycloid_time(CycloidSolution(self.delta_theta)))

    @property
    def relative_time_difference(self):
        """1 - sqrt(1 - x), x = delta_theta/(2 pi), as x / (1 + sqrt(1 - x)),
        which does not cancel: within a few ulps at every separation."""
        x = self.delta_theta / (2.0 * math.pi)
        return x / (1.0 + math.sqrt(1.0 - x))


def compare_small_arc(delta_theta: float) -> SmallArcComparison:
    """Compare the spherical tunnel with its flat-space cycloid twin.

    The spherical path for the given separation is mapped to local
    tangent-plane coordinates (x = angle offset, y = depth 1 - rho) and
    compared to the level-endpoint cycloid spanning the same mouths in a
    uniform field of surface strength.  Both the depth mismatch per unit
    span and the relative transit-time difference vanish at least
    linearly as the separation shrinks.

    The tunnel's stations come from the hypocycloid in closed form
    (`closed.tunnel_half`, 2001 per half), with their depth free of
    cancellation.  Its rolling circle has the cycloid's radius
    b = delta_theta/(2 pi), so at each station a few Newton steps from
    its own rolling angle solve b (p - sin p) = x for the cycloid's, whose
    depth there is 2b sin^2(p/2).  The curves are symmetric about the
    turnaround, where they meet, so one half is compared; the mismatch
    (~delta_theta^2/80) is exact to the stations' round-off (~eps
    delta_theta).  Their depth is the input's delta_theta/pi, not the
    family's few-ulp-off formula of k, which would move the (cancelling)
    depth differences.

    Separations above 0.2 rad are outside the small-arc regime; use the
    family and timing tools directly to compare large tunnels.  Below
    1e-12 the stations' round-off swamps the mismatch; a separation
    outside [1e-12, 0.2] raises DomainError naming it.
    """
    delta_theta = _number(delta_theta, "delta_theta")
    if not _MIN_SEPARATION <= delta_theta <= 0.2:
        raise DomainError("compare_small_arc covers separations in "
                          f"[{_MIN_SEPARATION!r}, 0.2] rad; got separation "
                          f"{delta_theta!r}")
    q = delta_theta / math.pi
    flat = CycloidSolution(delta_theta)
    b, sin = flat.rolling_radius, math.sin
    scale = math.sqrt(b * (1.0 - b))
    worst = 0.0
    for depth, theta, tau, _ in tunnel_half(q, _SAMPLES_PER_HALF)[1:-1]:
        # done once the step moves the depth, b sin(p) per unit p, < 1e-15 b
        p = tau / scale
        for _ in range(8):
            half, sin_p = sin(0.5 * p), sin(p)
            step = (b * (p - sin_p) + theta) / (2.0 * b * half * half)
            p -= step
            if abs(step * sin_p) <= 1e-15:
                break
        half = sin(0.5 * p)
        worst = max(worst, abs(depth - 2.0 * b * half * half))
    return SmallArcComparison(delta_theta, worst / delta_theta)
