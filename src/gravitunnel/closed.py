"""Closed forms of the tunnel family, the chord baseline and body units.

Every answer the `time` and `sweep` commands print is a closed form:

    rho_m = k / sqrt(k^2 + 1),           separation = pi (1 - rho_m),
    T     = pi sqrt(1 - rho_m^2),        arc length  = 2 (1 - rho_m^2),

for the minimum-time tunnel of momentum k (derivation in
`brachistochrone`), and T = pi for every straight chord.  The tunnel
itself is a hypocycloid, so each of its points, with the time and arc
length to reach it, is a closed form too (`tunnel_point`), and so is
each point of a chord (`chord_point`).  This module holds them, with
the records they fill and the physical units, in plain `math`, so
``import gravitunnel`` and every command but `verify` load no numpy.
The same point formulas run on numpy arrays for `sample_path` and
`chord_path`.  The numerical routes that check the same numbers live
in `timing`, `oracle` and `checks`.

Each record has one constructor, the record itself: `BrachFamily(k)`,
`ChordSpec(separation_angle)`, `PhysicalParams(radius_m, gravity_m_s2)`
and `cycloid.CycloidSolution(horizontal_span)`.  Every record of the
package, results too, is a named tuple of what it was given or
measured, with what follows from that as properties; `dataclasses`
would pull in `inspect`, costing a CLI process more than the package.

Every public function and record constructor checks each argument
with one call to one of four gates, and raises DomainError whose text
names the argument and the value's repr as the caller gave it:

- a number (`_real`) goes through float(), then must lie in its closed
  domain [lo, hi] with finite bounds, so nan and +-inf fail the same
  test; an open end is passed as the nearest float inside it;
- a count (`_count`) is a number that is an integer, at least its
  least value: 10.0 is a count, 2.5 is not;
- a record (`_record`) must be an instance of its type; the message
  names the function and the record it expects;
- an array (`timing._array`) becomes a fresh float array whose
  elements must lie in the domain; one within DOMAIN_EPS past a closed
  end is clamped onto it.  On any failure the first bad element, as
  given ('x', None, nan), goes to the number gate, so every message
  has one format.

The one argument left unchecked is `dimensional_time`'s tau, a float
or an array that is only multiplied.

Everything in the package is computed dimensionless: lengths in units
of the sphere radius R, times in sqrt(R/g) and speeds in sqrt(g*R),
where g is the gravitational acceleration at the surface.  In these
units the interior field pulls inward with magnitude rho (linear in
radius), the potential energy per unit mass is -(1 - rho^2)/2 with its
zero on the surface, and a particle released at rest on the surface
moves with speed sqrt(1 - rho^2) wherever a frictionless tunnel takes
it, because its total energy is exactly zero.  Physical units enter
only at the boundary, through `PhysicalParams` and `dimensional_time`.
"""

import math
import sys
from collections import namedtuple

from .errors import DomainError


# The largest float: a number gate's default bound, so nan and +-inf fail.
_MAX = sys.float_info.max
# The nearest float inside an open end at 0.
_ABOVE_ZERO = math.nextafter(0.0, 1.0)


def _real(value, name: str, lo: float = -_MAX, hi: float = _MAX) -> float:
    """float(value) in [lo, hi], or DomainError naming name and value."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a number; got {value!r}") from None
    if not lo <= number <= hi:
        raise DomainError(f"{name} must lie in [{lo!r}, {hi!r}]; "
                          f"got {value!r}")
    return number


def _count(value, name: str, least: int) -> int:
    """int of an integral number >= least, or DomainError naming it."""
    count = _real(value, name, least)
    if not count.is_integer():
        raise DomainError(f"{name} must be an integer; got {value!r}")
    return int(count)


def _record(value, kind: type, name: str, caller: str):
    """value if it is a kind, or DomainError naming caller and kind."""
    if not isinstance(value, kind):
        raise DomainError(f"{caller} expects a {kind.__name__} as {name}; "
                          f"got {value!r}")
    return value


def rho_min(k: float) -> float:
    """Minimum radius k / sqrt(k^2 + 1) reached by the family member k."""
    k = _real(k, "k", 0.0)
    return k / math.hypot(k, 1.0)


def _depth(k: float) -> float:
    """Turnaround depth q = 1 - rho_m of the family member k, taken as
    1 / (h (h + k)), h = hypot(k, 1), past rho_m = 1/2, where 1 - k/h
    cancels (q, pi q, pi sqrt(q (2 - q)) and 2 q (2 - q) are within 4
    ulp of 50-digit values over k from 1e-300 to 1e12)."""
    k = _real(k, "k", 0.0)
    rm = rho_min(k)
    if rm <= 0.5:
        return 1.0 - rm
    h = math.hypot(k, 1.0)
    return 1.0 / (h * (h + k))


def separation_angle(k: float) -> float:
    """Total angle pi (1 - rho_m) swept between the two surface endpoints."""
    return math.pi * _depth(k)


# The largest k, and the least separation, whose turnaround depth is
# at least the least normal float: a shallower one keeps fewer digits.
_K_MAX = 4.740375954054588e+153
_SEPARATION_MIN = 6.990275687580919e-308
# Values this near a domain boundary are clamped onto it: solvers land there.
DOMAIN_EPS = 1e-12


class BrachFamily(namedtuple("BrachFamily", "k")):
    """One member of the minimum-time tunnel family: its momentum k >= 0.

    Its turnaround radius `rho_min`, turnaround depth `depth` = 1 -
    rho_min and surface sweep `separation_angle` = pi depth are the
    module's formulas of k.  Built for k from 0 up to about 4.7e153,
    where the depth is still a normal float; a k outside that range, or
    one that float() refuses, raises DomainError naming it.
    """

    __slots__ = ()

    def __new__(cls, k):
        return super().__new__(cls, _real(k, "k", 0.0, _K_MAX))

    rho_min = property(lambda self: rho_min(self.k))
    depth = property(lambda self: _depth(self.k))
    separation_angle = property(lambda self: separation_angle(self.k))


def family_from_separation(delta_theta: float) -> BrachFamily:
    """Family member whose surface endpoints are delta_theta apart,
    for delta_theta in (0, pi] down to about 7e-308, where the depth
    delta_theta/pi is still a normal float; else DomainError."""
    delta_theta = _real(delta_theta, "delta_theta", _SEPARATION_MIN,
                        math.pi)
    # k = rho_min / sqrt(1 - rho_min^2) in x = 1 - rho_min, which the
    # rounded rho_min no longer holds at tiny separations
    x = delta_theta / math.pi
    return BrachFamily((1.0 - x) / math.sqrt(x * (2.0 - x)))


def arc_length(family: BrachFamily) -> float:
    """Tunnel length 2 * integral of sqrt(1 + rho^2 theta'^2) d rho.

    Closed form 2 (1 - rho_min^2), written as 2 q (2 - q) for the
    family's depth q so tiny separations keep full relative precision:
    2 for the k = 0 diameter and strictly longer than the straight chord
    otherwise.  ``2 * timing.arc_integral(family)`` is the
    singular-quadrature route to the same number.
    """
    q = _record(family, BrachFamily, "family", "arc_length").depth
    return 2.0 * q * (2.0 - q)


def tunnel_time(q: float) -> float:
    """Transit time pi sqrt(q (2 - q)) = pi sqrt(1 - rho_min^2) of the
    tunnel whose turnaround depth is q."""
    return math.pi * math.sqrt(q * (2.0 - q))


def tunnel_point(q: float, beta, sin=math.sin, sqrt=math.sqrt,
                 atan2=math.atan2):
    """Depth, angle, time and arc length at radius cos(beta) of the
    tunnel whose turnaround depth (`BrachFamily.depth`) is q.

    The tunnel is a hypocycloid: a circle of radius b = q/2, with
    q = separation/pi, rolls inside the unit circle (Venezian 1966;
    Cooper 1966).  At depth d = 2 sin^2(beta/2) its rolling angle phi
    has, with q (2 - q) = 1 - rho_min^2,

        s = sin(phi/2) = sqrt(d (2 - d) / (q (2 - q))),
        c = cos(phi/2) = sqrt((q - d) (2 - q - d) / (q (2 - q))),
        theta = atan2(2b s c, (1 - 2b) + 2b c^2) - b phi,
        tau   = phi sqrt(b (1 - b)),     arc = 4b (1 - b) s^2 / (1 + c).

    Taken from the depth, s, c, tau and arc keep full relative
    precision at any separation and next to the turnaround.  theta's
    two terms cancel near the surface, which costs a few ulps of the
    separation; its denominator (1 - 2b s^2 as a sum of non-negative
    terms) stays accurate near the diameter, where b = 1/2 gives
    theta = 0.  The expression has no branch, so beta may be a float
    (with the `math` functions, the default) or an array (pass numpy's
    sin, sqrt and arctan2).  Valid for beta in [0, acos(rho_min));
    `tunnel_turnaround` gives the turnaround exactly.
    """
    half = sin(0.5 * beta)
    depth = 2.0 * half * half
    width = q * (2.0 - q)
    s = sqrt(depth * (2.0 - depth) / width)
    c = sqrt((q - depth) * ((2.0 - q) - depth) / width)
    half_phi = atan2(s, c)
    return (depth,
            atan2(q * s * c, (1.0 - q) + q * c * c) - q * half_phi,
            half_phi * sqrt(width),
            width * s * s / (1.0 + c))


def tunnel_turnaround(q: float):
    """`tunnel_point`'s values at the turnaround of the tunnel of depth q,
    exactly: depth q, angle -pi q/2 (half the separation), half the
    transit time and half the arc length."""
    return q, -0.5 * (math.pi * q), 0.5 * tunnel_time(q), q * (2.0 - q)


def tunnel_step(q: float, n: int) -> float:
    """Angle step acos(1 - q) / (n - 1) of n samples per half of the
    tunnel whose turnaround depth is q.

    Sample i lies at beta = i * step, numpy's ``linspace`` from 0 to the
    turnaround bit for bit.  acos(rho_min) is taken as 2 asin(sqrt(q/2)),
    which keeps its relative precision at tiny separations.  Raises
    DomainError for n < 2 or q outside (0, 1].
    """
    q = _real(q, "q", _ABOVE_ZERO, 1.0)
    n = _count(n, "n", 2)
    return 2.0 * math.asin(math.sqrt(0.5 * q)) / (n - 1)


def tunnel_half(q: float, n: int):
    """`tunnel_point` at the n samples of one half of the tunnel whose
    turnaround depth is q (`BrachFamily.depth`), surface to turnaround.

    The second half is the mirror image about theta = -pi q/2.
    """
    step = tunnel_step(q, n)
    points = [tunnel_point(q, i * step) for i in range(n - 1)]
    points.append(tunnel_turnaround(q))
    return points


class TransitResult(namedtuple("TransitResult",
                               "tau error_estimate evaluations")):
    """A transit time with its error estimate and evaluation count.

    ``evaluations`` counts the integrand or segment-kernel evaluations
    actually made (a sampled tunnel's mirrored half makes none).
    """

    __slots__ = ()


def total_transit_time(family: BrachFamily) -> TransitResult:
    """Full surface-to-surface time, in closed form.

    pi * sqrt(1 - rho_min^2), with 1 - rho_min^2 written as q (2 - q) for
    the family's depth q, which keeps full relative precision at tiny
    separations.  Nothing is integrated: the error estimate and the
    evaluation count are 0.  ``2 * timing.half_transit_time(family).tau``
    is the singular-quadrature route to the same number.
    """
    family = _record(family, BrachFamily, "family", "total_transit_time")
    return TransitResult(tau=tunnel_time(family.depth),
                         error_estimate=0.0, evaluations=0)


class ChordSpec(namedtuple("ChordSpec", "separation_angle")):
    """Geometry of one straight surface-to-surface chord, its endpoints
    separation_angle in (0, pi] apart; else DomainError naming it.

    half_chord = sin(separation_angle/2) is half the chord's length and
    midpoint_radius = cos(separation_angle/2) its closest approach to the
    center; the two are cosine/sine of the same angle, so their squares
    sum to one.
    """

    __slots__ = ()

    def __new__(cls, separation_angle):
        return super().__new__(cls, _real(separation_angle, "separation_angle",
                                          _ABOVE_ZERO, math.pi))

    half_chord = property(lambda self: math.sin(self.separation_angle / 2.0))
    midpoint_radius = property(
        lambda self: math.cos(self.separation_angle / 2.0))


def chord_point(spec: ChordSpec, t, hypot=math.hypot, atan2=math.atan2):
    """Radius, angle and depth at fraction t of the way along a chord.

    The chord runs from (1, 0) to (1, -separation_angle).  The depth
    1 - rho is taken from rho^2 = 1 - 4 t (1 - t) sin^2(separation/2),
    so it stays exact where rho cannot resolve it.  Like `tunnel_point`
    this runs on a float t with the `math` defaults or on an array with
    numpy's hypot and arctan2.
    """
    end = -spec.separation_angle
    x = (1.0 - t) + t * math.cos(end)
    y = t * math.sin(end)
    rho = hypot(x, y)
    return (rho, atan2(y, x),
            t * (1.0 - t) * (4.0 * math.sin(end / 2.0) ** 2) / (1.0 + rho))


def chord_transit_time(spec: ChordSpec) -> float:
    """One-way transit time of any chord: pi, half the oscillation period.

    Returned as the exact constant; the quadrature route that must agree
    with it is exercised separately through `timing.path_transit_time`.
    """
    _record(spec, ChordSpec, "spec", "chord_transit_time")
    return math.pi


class PhysicalParams(namedtuple("PhysicalParams", "radius_m gravity_m_s2")):
    """Sphere radius (m) and surface gravity (m/s^2) of a physical body,
    each a positive finite number, else DomainError naming it, with its
    units: time_unit_s = sqrt(R/g), speed_unit_m_s = sqrt(g*R) and
    length_unit_m = R, where the product of the first two reproduces the
    third to round-off."""

    __slots__ = ()

    def __new__(cls, radius_m, gravity_m_s2):
        return super().__new__(cls, _real(radius_m, "radius_m", _ABOVE_ZERO),
                               _real(gravity_m_s2, "gravity_m_s2",
                                     _ABOVE_ZERO))

    time_unit_s = property(
        lambda self: math.sqrt(self.radius_m / self.gravity_m_s2))
    speed_unit_m_s = property(
        lambda self: math.sqrt(self.gravity_m_s2 * self.radius_m))
    length_unit_m = property(lambda self: self.radius_m)


# Mean radius and standard gravity; `gravitunnel --body earth` uses these.
EARTH = PhysicalParams(radius_m=6.371e6, gravity_m_s2=9.80665)


def dimensional_time(tau, body: PhysicalParams):
    """Seconds of a dimensionless time, a float or a numpy array, on body."""
    return tau * _record(body, PhysicalParams, "body",
                         "dimensional_time").time_unit_s
