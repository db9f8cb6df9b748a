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
`BrachFamily`, `family_from_separation`, `arc_length`) live in `closed`
and are re-exported here; a `BrachFamily` stores k alone and derives
rho_m, the depth 1 - rho_m and the separation by those formulas.  This
module adds the curve itself: its slope, its angle at a radius, its
radius at an angle and its samples.
"""

import math

import numpy as np

from .closed import (BrachFamily, arc_length, family_from_separation,  # noqa: F401
                     rho_min, separation_angle, tunnel_point, tunnel_step,
                     tunnel_turnaround)
from .core import DOMAIN_EPS, DiscretePath
from .errors import DomainError


def theta_prime(rho, k: float):
    """Slope d theta / d rho of the family member k, for rho in (rho_m, 1].

    Positive and finite on the open interval; tends to 0 at the surface
    and diverges at the minimum radius.  Accepts scalar or array rho.
    """
    k = float(k)
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
    k = float(k)
    if not (math.isfinite(k) and k >= 0.0):
        raise DomainError(f"k must be a finite number >= 0; got {k!r}")
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
    return -np.arctan2(u, w) + rm * np.arctan2(math.sqrt(k * k + 1.0) * u,
                                               k * w)


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
    (1, -separation_angle).
    """
    q = family.depth
    step = tunnel_step(q, n)
    half_depth, half_theta, _, _ = tunnel_point(
        q, np.arange(n - 1) * step, np.sin, np.sqrt, np.arctan2)
    depth_mid, theta_mid, _, _ = tunnel_turnaround(q)
    # Built directly: the closed form already meets every condition
    # `DiscretePath.from_arrays` checks, and the checks' full-length
    # copies cost more than the formula.  One block holds the three
    # arrays; three separate ones page-faulted more in the timing calls
    # that follow (glibc returns freed heap tops to the system).  The
    # block ends read-only, so the path owns its rows without a copy.
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
    return DiscretePath(*block)


def rho_at_theta(family: BrachFamily, theta):
    """Radius of the tunnel at polar angle theta in [-separation_angle, 0].

    Angles past the bisector use the mirror symmetry.  theta_of_rho
    increases with rho, so all angles are inverted at once.  A few
    Newton steps (`_newton_seed`) place each radius near its root; the
    bracket of _SEED_ULPS floats either side of that seed is checked
    against the closed form, and bisection on the float bit patterns
    then closes every bracket that holds its target on two adjacent
    floats.  The angles whose bracket fails the check, and only those,
    are bisected over the whole of [rho_min, 1].  So each result
    brackets its target on adjacent floats and depends on its own angle
    alone.  Theta 0 maps to exactly 1.0 and the bisector to exactly
    rho_min; for the k = 0 diameter every interior angle maps to the
    center.  Returns a float for scalar theta and an array of theta's
    shape otherwise.  A non-finite or out-of-range angle raises
    DomainError naming the value.
    """
    k, rm, sep = family.k, family.rho_min, family.separation_angle
    arr = np.asarray(theta, dtype=float)
    bad = ~np.isfinite(arr) | (arr > DOMAIN_EPS) | (arr < -sep - DOMAIN_EPS)
    if np.any(bad):
        offender = float(np.ravel(arr[bad])[0])
        raise DomainError("theta must be a finite angle in "
                          f"[-separation_angle, 0] (separation_angle = "
                          f"{sep!r}); got theta = {offender!r}")
    arr = np.clip(arr, -sep, 0.0)
    mid = -sep / 2.0
    target = np.where(arr < mid, 2.0 * mid - arr, arr)
    at_surface = target >= 0.0
    if k == 0.0:
        out = np.where(at_surface, 1.0, 0.0)
        return float(out) if np.ndim(theta) == 0 else out
    # Brackets are bit patterns, which order non-negative doubles.
    # Invariant: theta(lo) < target <= theta(hi); a closed bracket stays.
    lo = np.where(at_surface, 1.0, rm).view(np.int64)
    hi = np.where((target <= mid) & ~at_surface, rm, 1.0).view(np.int64)
    solve = lo != hi
    t = target[solve]
    seed = _newton_seed(t, k, rm, mid).view(np.int64)
    lo_s = np.maximum(seed - _SEED_ULPS, lo[solve])
    hi_s = np.minimum(seed + _SEED_ULPS, hi[solve])
    held = ((_theta_closed_form(lo_s.view(float), k, rm) < t)
            & (_theta_closed_form(hi_s.view(float), k, rm) >= t))
    missed = ~held
    root = np.empty_like(seed)
    root[held] = _bisect_bits(lo_s[held], hi_s[held], t[held], k, rm)
    root[missed] = _bisect_bits(lo[solve][missed], hi[solve][missed],
                                t[missed], k, rm)
    hi[solve] = root
    out = hi.view(float)
    return float(out) if np.ndim(theta) == 0 else out


# Half-width, in floats, of the bracket checked around each Newton seed.
# Four steps put the seed within a few floats of its root for all but 3
# of 1.8 million angles tried (separations 1e-12 to pi, k 1e-300 to 1e6;
# the 3 sat within 1e-12 of an end of a separation near 1e-12), so the
# bisection closes almost every bracket in 5 halvings instead of up to 64.
_SEED_ULPS = 16
_NEWTON_STEPS = 4


def _newton_seed(target, k, rm, mid):
    """Radii near the roots of theta_of_rho = target, for targets in (mid, 0).

    Newton runs in sigma = asin(rm / rho), which goes from asin(rm) at
    the surface to pi/2 at the turnaround.  Along the tunnel

        d theta / d sigma = -sqrt(1 - rho^2),

    which is finite at the turnaround and, on wide tunnels (small rm),
    close to -1 wherever the tunnel passes near the center, where theta
    turns fastest against rho.  At the surface theta vanishes like
    (sigma - asin(rm))^(3/2), so the steps solve (-theta)^(2/3) =
    (-target)^(2/3), regular at both ends, starting from sigma linear in
    the target.  A step that leaves the bracket set by the signs seen so
    far is replaced by that bracket's midpoint.  The result is only a
    seed; rho_at_theta checks it.
    """
    s_lo, s_hi = math.asin(rm), math.pi / 2.0
    goal = np.cbrt(target * target)
    sigma = s_lo + (s_hi - s_lo) * (target / mid)
    lo = np.full_like(sigma, s_lo)
    hi = np.full_like(sigma, s_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            rho = rm / np.sin(sigma)
            theta = _theta_closed_form(rho, k, rm)
            excess = np.cbrt(theta * theta) - goal      # increases with sigma
            step = 1.5 * excess * np.cbrt(-theta) / np.sqrt((1.0 - rho)
                                                             * (1.0 + rho))
            short = excess < 0.0
            lo = np.where(short, sigma, lo)
            hi = np.where(short, hi, sigma)
            sigma = sigma - step
            sigma = np.where((sigma >= lo) & (sigma <= hi), sigma,
                             0.5 * (lo + hi))
    return np.clip(rm / np.sin(sigma), rm, 1.0)


def _bisect_bits(lo, hi, target, k, rm):
    """Bisect bit-pattern brackets until each closes on adjacent floats.

    Each halving splits the floats left in a bracket, so every bracket
    closes within 64 halvings however small rho_min is.
    """
    for _ in range(64):
        half = lo + (hi - lo) // 2
        split = half > lo
        if not np.any(split):
            break
        below = _theta_closed_form(half.view(float), k, rm) < target
        lo = np.where(split & below, half, lo)
        hi = np.where(split & ~below, half, hi)
    return hi
