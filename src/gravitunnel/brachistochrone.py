"""Closed-form family of minimum-time tunnels through a uniform sphere.

Write the trajectory as theta(rho) and measure time in units of
sqrt(R/g).  The transit-time integrand sqrt(1 + rho^2 theta'^2) /
sqrt(1 - rho^2) does not involve theta itself, so the momentum conjugate
to theta,

    k = rho^2 theta' / (sqrt(1 - rho^2) sqrt(1 + rho^2 theta'^2)),

is constant along every minimizer.  Solving for the slope gives the
one-parameter field

    theta'(rho) = sqrt(1 - rho^2) / (rho sqrt(((k^2+1)/k^2) rho^2 - 1)),

whose denominator vanishes at the minimum radius

    rho_m = k / sqrt(k^2 + 1).

Each k >= 0 selects one family member: the tunnel leaves the surface
radially, flattens out at rho_m where the slope diverges, and returns to
the surface as the mirror image of its first half.  The slope integrates
in closed form to

    theta(rho) = -atan( sqrt(1-rho^2) / sqrt(((k^2+1)/k^2) rho^2 - 1) )
                 + rho_m * asin( sqrt(k^2+1) * sqrt(1-rho^2) ),

with theta(1) = 0 and theta(rho_m) = (rho_m - 1) pi/2, so the full
surface-to-surface sweep is pi (1 - rho_m).  The arcsine coefficient
rho_m is forced: differentiating with any other constant (in particular
k) fails to reproduce the slope field.  The minimum radius and the
coefficient are both pinned by independent numerics in the test suite
(bisection on the slope denominator; finite differences and direct
quadrature of the antiderivative).

k = 0 is admitted by continuity as the degenerate through-center member
(the straight diameter), which keeps `family_from_separation` total on
separations up to and including pi.

The closed forms that need no array (`rho_min`, `separation_angle`,
`BrachFamily`, `family_from_separation`, `arc_length`) live in `closed`;
a `BrachFamily(k)` stores k alone and derives rho_m, the depth 1 - rho_m
and the separation by those formulas.  `family_from_separation` and
`arc_length` are re-exported here, where the benchmark times them.  This
module adds the curve itself: its slope, its angle at a radius, its
radius at an angle and its samples.
"""

import math

import numpy as np

from .closed import (DOMAIN_EPS, BrachFamily, _count,  # noqa: F401
                     _number, arc_length, family_from_separation, rho_min,
                     tunnel_point, tunnel_step, tunnel_turnaround)
from .errors import DomainError
from .timing import DiscretePath


def theta_prime(rho, k: float):
    """Slope d theta / d rho of the family member k, for rho in (rho_m, 1].

    Positive and finite on the open interval; tends to 0 at the surface
    and diverges at the minimum radius.  Accepts scalar or array rho.
    """
    k = _number(k, "k")
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"theta_prime needs k > 0; got {k!r}")
    rm = rho_min(k)
    arr = np.asarray(rho, dtype=float)
    if np.any(arr <= rm) or np.any(arr > 1.0 + DOMAIN_EPS):
        offender = float(np.ravel(arr[(arr <= rm) | (arr > 1.0 + DOMAIN_EPS)])[0])
        raise DomainError("theta_prime is defined for rho_min < rho <= 1 "
                          f"(rho_min = {rm!r}); got rho = {offender!r}")
    arr = np.clip(arr, rm, 1.0)
    u = np.sqrt((1.0 - arr) * (1.0 + arr))
    w = _w(arr, k, rm)
    out = u / (arr * w)
    return float(out) if np.ndim(rho) == 0 else out


def theta_of_rho(rho, k: float):
    """Polar angle of the family member k at radius rho, with theta(1) = 0.

    Antiderivative of -theta_prime along descending rho: theta decreases
    from 0 at the surface to (rho_m - 1) pi/2 at the minimum radius.  For
    the degenerate k = 0 diameter the angle is 0 above the center and
    -pi/2 (the symmetry bisector) at the center itself.
    """
    k = _number(k, "k")
    rm = rho_min(k)
    arr = np.asarray(rho, dtype=float)
    if np.any(arr < rm - DOMAIN_EPS) or np.any(arr > 1.0 + DOMAIN_EPS):
        bad = (arr < rm - DOMAIN_EPS) | (arr > 1.0 + DOMAIN_EPS)
        offender = float(np.ravel(arr[bad])[0])
        raise DomainError("theta_of_rho is defined for rho_min <= rho <= 1 "
                          f"(rho_min = {rm!r}); got rho = {offender!r}")
    arr = np.clip(arr, rm, 1.0)
    if k == 0.0:
        out = np.where(arr > 0.0, 0.0, -math.pi / 2.0)
    else:
        out = _theta_closed_form(arr, k, rm)
    return float(out) if np.ndim(rho) == 0 else out


def _w(rho, k, rm):
    """sqrt(((k^2+1)/k^2) rho^2 - 1) for rho in [rm, 1].

    (k^2+1) rho^2 - k^2 is factored as (k^2+1)(rho - rm)(rho + rm) to
    avoid cancellation near rho_m, and each factor takes its own square
    root so the product cannot underflow near the turnaround of a family
    with a tiny rho_m.
    """
    return math.sqrt(k * k + 1.0) * np.sqrt(rho - rm) * np.sqrt(rho + rm) / k


def _theta_closed_form(rho, k, rm):
    """theta_of_rho for k > 0 and rho already inside [rm, 1], unchecked."""
    u = np.sqrt((1.0 - rho) * (1.0 + rho))
    w = _w(rho, k, rm)
    # the arcsine of sqrt(k^2+1)*u evaluated as atan2: its sine and cosine
    # (sqrt(k^2+1) u, k w) form an exact unit pair, so no clamping is
    # needed and the vertical arcsine slope at the turnaround is harmless
    h = math.sqrt(k * k + 1.0)
    return rm * np.arctan2(h * u, k * w) - np.arctan2(u, w)


def sample_path(family: BrachFamily, n: int) -> DiscretePath:
    """Sample one full tunnel as 2n-1 polar points.

    The first half descends from (1, 0) to the turnaround at angles
    beta uniform on [0, acos(rho_min)], with rho = cos(beta), which
    clusters points quadratically near the zero-speed release and keeps
    discrete time estimates accurate.  Each sample's depth and angle
    come from the hypocycloid `closed.tunnel_point`, so the path carries
    its depth (`DiscretePath.depth`) and tunnels too shallow for rho to
    resolve are still timed.  The turnaround sample is exact: depth
    separation/pi and angle -separation/2.  The second half is the
    first's mirror image about that angle, ending at
    (1, -separation_angle), with angles 2 theta_m - theta rounded.  The
    path records that it is a mirror image, so it is timed over its
    first half (`timing._mirrored_times`: ~3.4e-12 per segment, 3 ulps).
    """
    q = family.depth
    n = _count(n, "n")
    step = tunnel_step(q, n)
    half_depth, half_theta, _, _ = tunnel_point(
        q, np.arange(n - 1) * step, np.sin, np.sqrt, np.arctan2)
    depth_mid, theta_mid, _, _ = tunnel_turnaround(q)
    # Built unchecked: the closed form already meets every condition
    # the `DiscretePath` constructor checks, and the checks' full-length
    # copies cost more than the formula.  One block holds the three
    # arrays; three separate ones page-faulted more in the timing calls
    # that follow (glibc returns freed heap tops to the system).  The
    # block ends read-only, so the path holds its rows without a copy.
    block = np.empty((3, 2 * n - 1))
    rho, theta, depth = block
    depth[:n - 1] = half_depth
    depth[n - 1] = depth_mid
    depth[n:] = half_depth[::-1]
    theta[:n - 1] = half_theta
    theta[n - 1] = theta_mid
    np.subtract(2.0 * theta_mid, half_theta[::-1], out=theta[n:])
    np.subtract(1.0, depth, out=rho)
    rho[n - 1] = family.rho_min
    block.setflags(write=False)
    return DiscretePath._mirror_image(*block)


def rho_at_theta(family: BrachFamily, theta):
    """Radius of the tunnel at polar angle theta in [-separation_angle, 0].

    Angles past the bisector use the mirror symmetry.  theta_of_rho
    increases with rho, so all angles are inverted at once: Newton in
    the tunnel's own angle (`_seed_radius`) puts a seed within a few
    floats of each root, and bisection on the float bit patterns closes
    the bracket of _ULPS floats either side of it on adjacent floats of
    the closed form.  Only the angles whose bracket the halvings do not
    prove are bisected over the whole of [rho_min, 1].  So each result
    brackets its target on adjacent floats and depends on its own angle
    alone.  Theta 0 maps to exactly 1.0, and the bisector, with any
    angle at or below the closed form's value at rho_min (above the
    bisector on some shallow tunnels), to exactly rho_min; for the
    k = 0 diameter every interior angle maps to the center.  Returns a
    float for scalar theta and an array of theta's shape otherwise.  A
    non-finite or out-of-range angle raises DomainError naming it.
    """
    k, rm, sep = family.k, family.rho_min, family.separation_angle
    arr = np.asarray(theta, dtype=float)
    good = (arr <= DOMAIN_EPS) & (arr >= -sep - DOMAIN_EPS)   # not nan
    if not good.all():
        offender = float(np.ravel(arr[~good])[0])
        raise DomainError("theta must be a finite angle in "
                          f"[-separation_angle, 0] (separation_angle = "
                          f"{sep!r}); got theta = {offender!r}")
    arr = np.clip(arr, -sep, 0.0)
    mid = -sep / 2.0
    target = np.maximum(arr, 2.0 * mid - arr)   # the mirror image
    if k == 0.0:
        out = np.where(target >= 0.0, 1.0, 0.0)
        return float(out) if np.ndim(theta) == 0 else out
    out = np.where(target >= 0.0, 1.0, rm)
    turn = max(mid, _theta_closed_form(rm, k, rm))
    inner = (target < 0.0) & (target > turn)
    t = target[inner]
    # Bit patterns order non-negative doubles; theta(rm) < t <= theta(1).
    ends = np.array([rm, 1.0]).view(np.int64)
    start = np.maximum(_seed_radius(t, rm).view(np.int64) - _ULPS,
                       ends[0])
    lo = _bisect_bits(start, 2 * _ULPS, t, k, rm)
    # theta(lo) < t is proven where a halving moved lo or lo is rho_min,
    # and theta(lo + 1) >= t unless every halving moved lo
    redo = np.flatnonzero(((lo == start) & (start > ends[0]))
                          | (lo == start + 2 * _ULPS - 1))
    if redo.size:
        lo[redo] = _bisect_bits(np.full(redo.size, ends[0]),
                                int(ends[1] - ends[0]), t[redo], k, rm)
    out[inner] = (lo + 1).view(float)
    return float(out) if np.ndim(theta) == 0 else out


# Half-width, in floats, of the bracket bisected around each seed.  Over
# 350 separations from 1e-12 to pi (10^3 angles each) the seeds fell -6
# to +6 floats from their roots: 0.05% outside +-4, each costing its call
# a whole-interval bisection (~1 ms), and none outside +-8.
_ULPS = 8
_NEWTON_STEPS = 2
# Seed-table nodes in psi, cubed towards the surface, where theta starts
# like -psi^3 and, on wide tunnels, turns within psi ~ rho_min.
_NODES = (0.5 * math.pi) * np.linspace(0.0, 1.0, 256) ** 3


def _theta_of_psi(psi, rm):
    """theta and d theta / d psi of the tunnel at its own angle psi.

    psi = atan2(u, w), the angle between the tunnel and the radius
    (tan psi = rho theta'), runs from 0 at the surface to pi/2 at the
    turnaround.  There theta = rm atan(tan(psi) / rm) - psi, taken with
    T = tan psi and the depth q = 1 - rm factored out of both terms:

        theta = rm atan(q T / (rm + T^2)) - q psi,
        d theta / d psi = -(1 - rm^2) T^2 / (T^2 + rm^2),

    a slope of size at most 1; and rho^2 = rm^2 (1 + T^2) / (T^2 + rm^2).
    """
    q = 1.0 - rm
    tan = np.tan(psi)
    tan2 = tan * tan
    theta = rm * np.arctan(q * tan / (rm + tan2)) - q * psi
    return theta, (-q * (1.0 + rm)) * tan2 / (tan2 + rm * rm)


def _seed_radius(target, rm):
    """Radii near the roots of theta_of_rho = target in (mid, 0).

    psi is read off a table of theta at the fixed _NODES, linearly in
    (-theta)^(1/3), in which psi is linear at the surface and, on wide
    tunnels, cubic beyond psi ~ rm; _NEWTON_STEPS Newton steps on
    theta(psi) = target refine it.  The result is only a seed, maybe a
    float or two outside [rm, 1] or nan.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        theta, _ = _theta_of_psi(_NODES, rm)
        psi = np.interp(np.cbrt(-target), np.cbrt(-theta), _NODES)
        for _ in range(_NEWTON_STEPS):
            theta, slope = _theta_of_psi(psi, rm)
            psi -= (theta - target) / slope
        tan = np.tan(psi)
        return rm * np.sqrt(1.0 + (1.0 - rm) * (1.0 + rm)
                            / (tan * tan + rm * rm))


def _bisect_bits(lo, width, target, k, rm):
    """Close the bit-pattern brackets [lo, lo + width] on adjacent floats.

    Returns lo with theta(lo) < target <= theta(lo + 1) where the
    bracket held the target.  Each halving moves lo up by a power of two
    where the probe's angle is below the target; a probe above 1.0 gives
    nan, never below, so a bracket may reach past 1.0.
    """
    with np.errstate(invalid="ignore"):
        for bit in reversed(range(int(width - 1).bit_length())):
            probe = (lo + (1 << bit)).view(float)
            lo = lo + (_theta_closed_form(probe, k, rm) < target) * (1 << bit)
    return lo
