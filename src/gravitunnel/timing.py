"""Transit-time and arc-length evaluation, with singular endpoints tamed.

A family member's full transit time has the closed form

    T = pi * sqrt(1 - rho_m^2) = pi * sqrt(q (2 - q)),   q = separation / pi,

which `closed.total_transit_time` returns (re-exported here with
`TransitResult`).  The singular quadrature below is kept as an
independent route to the same number.  The half-tunnel time of a
family member k, and its half length without the 1/sqrt(1 - rho^2), is

    integral from rho_m to 1 of
        rho / sqrt((k^2+1)(rho^2 - rho_m^2)(1 - rho^2)) drho,

which diverges integrably: like 1/sqrt(1-rho) at the zero-speed surface
release and like 1/sqrt(rho - rho_m) where the slope turns vertical.
One substitution in the depth, 1 - rho = q cos^2(chi) and so
rho - rho_m = q sin^2(chi), cancels both, leaving on chi in [0, pi/2]

    time    2 rho / sqrt((k^2+1)(2 rho_m + q sin^2 chi)(1 + rho)),
    length  2 sqrt(q) cos(chi) rho / sqrt((k^2+1)(2 rho_m + q sin^2 chi)),

with rho = rho_m + q sin^2(chi), so neither end cancels at any depth.
The turnaround is chi = 0, where floats are dense.  One tanh-sinh rule
(Takahasi & Mori 1974) integrates them; its nodes crowd both ends, so a
near-diameter tunnel's layer at the turnaround needs no special case.
The route uses the integrand and q, never the closed-form time.

Discrete paths are timed segment by segment.  Along any straight segment
the motion is simple harmonic (the field is linear in position), so the
traversal time of a segment is elementary.  Written from its polar ends
(r0, theta0) and (r1, theta1), with depth d = 1 - rho at each end,
s2 = sin((theta1 - theta0)/2)^2 and nu = sqrt(d (2 - d)) the speed,

    L  = sqrt((d0 - d1)^2 + 4 r0 r1 s2),   s0 = r0 (d0 - d1 - 2 r1 s2) / L,
    s1 = s0 + L,   nu0 - nu1 = (d0 - d1)(r0 + r1) / (nu0 + nu1),
    t  = atan2(L nu0 + s0 (nu0 - nu1), nu0 nu1 + s0 s1),

where L is the segment length and s0, s1 the ends' positions along it.
This is the difference of the two ends' phases atan2(s, nu), written as
one arctangent with no cancellation left, so segment times are exact
for the polyline itself to a few ulps; the only error left in a
discrete transit time is the polyline's geometric deviation from the
curve it samples, which vanishes under refinement.  The surface, where
a released particle has zero speed, is depth 0 exactly and needs no
special case: a segment between two surface points takes pi, the
gravity train.  The same geometry feeds the closed-form partials of a
segment time in its end radii, which the transcription optimizer uses.

Each path is timed once: a `DiscretePath`, a tunnel's polar samples,
checked and copied by its one constructor, caches its segment times,
which `path_transit_time` and `cumulative_path_times` share.  Its
arrays make it a plain class, equal and hashed by identity.

A sampled tunnel (`brachistochrone.sample_path`) is its first half and
that half's mirror image, and a segment's time depends only on its end
depths and |theta1 - theta0|.  So its segments, and those of its
every-other-sample subsample, which is mirrored too, are timed over the
first half and the times reversed for the second (`_mirrored_times`):
half the kernel work.  The stored second-half angles are 2 theta_m -
theta rounded, so a mirrored segment time is within ~3.4e-12 relative
of the kernel on the stored arrays, and tau within 3 ulps (measured over
42 separations from 1e-12 to pi, 2 to 10^4 samples per half).  Such a
path is built by `DiscretePath._mirror_image`, which skips the checks
the closed form already meets; paths from the constructor run the
kernel on every segment (`_path_kernel`).
"""

import math
from functools import cached_property

import numpy as np

from .closed import (_MAX, DOMAIN_EPS, BrachFamily,  # noqa: F401
                     TransitResult, _real, _record, total_transit_time)
from .errors import DegenerateSegmentError, DomainError, QuadratureError


# Tanh-sinh quadrature: the trapezoid rule in t over |t| <= _T_MAX, from
# step 1/2, halved at each level up to _MAX_LEVEL times, stops once two
# successive levels agree within _REL_TOL relative.
_REL_TOL = 1e-10
_T_MAX = 3.2
_MAX_LEVEL = 6


def _integral(family, selector):
    """Half-tunnel integral of the chosen integrand, by tanh-sinh in chi.

    In chi = pi/2 - psi, rho - rho_m = q sin^2(chi), so the turnaround is
    chi = 0, where floats are dense.  The nodes chi = b/(1 + exp(-pi
    sinh t)), b = pi/2, crowd both ends doubly exponentially and give the
    distance to the turnaround with no cancellation, down to chi ~ 1e-17
    at t = -_T_MAX.  So a near-diameter tunnel's layer at
    sin(chi) ~ sqrt(rho_m / q) needs no special case: a layer thinner than
    that moves the integral, which vanishes like chi^2 there, by less
    than an ulp.  Returns (value, |last level - previous|, evaluations).
    """
    h, rm, q = math.hypot(family.k, 1.0), family.rho_min, family.depth
    length_scale = 2.0 * math.sqrt(q) / h
    b = 0.5 * math.pi

    def integrand(chi):
        above = q * np.sin(chi) ** 2                    # rho - rho_m
        rho = rm + above
        if selector == "time":
            return 2.0 * rho / (h * np.sqrt((2.0 * rm + above) * (1.0 + rho)))
        return length_scale * np.cos(chi) * rho / np.sqrt(2.0 * rm + above)

    def weighted_sum(t):
        # sum of f(chi) dchi/dt over the nodes t
        e = np.exp(-math.pi * np.sinh(t))
        chi = b / (1.0 + e)
        return float(np.sum(integrand(chi) * np.cosh(t) * e / (1.0 + e) ** 2)
                     * math.pi * b)

    step = 0.5
    t = step * np.arange(-int(_T_MAX / step), int(_T_MAX / step) + 1)
    total, evals = weighted_sum(t), t.size
    value = error = step * total
    for _ in range(_MAX_LEVEL):
        step *= 0.5
        t = step * np.arange(1, int(_T_MAX / step) + 1, 2)  # the new nodes
        total += weighted_sum(np.concatenate((-t, t)))
        evals += 2 * t.size
        previous, value = value, step * total
        error = abs(value - previous)
        if error <= _REL_TOL * value:
            return value, error, evals
    raise QuadratureError(
        f"{selector} integral: no convergence within {_MAX_LEVEL} levels "
        f"(last two levels differ by {error:.3e})",
        error_estimate=error, evaluations=evals)


def arc_integral(family: BrachFamily) -> float:
    """Half arc length of one family member, by singular quadrature.

    Within 1e-12 relative for every family member, from k = 0 to the
    largest `BrachFamily` holds, by one tanh-sinh rule in at most 205
    evaluations; the quadrature reference for `closed.arc_length`.  The
    degenerate k = 0 diameter is returned in closed form (1).  Raises
    QuadratureError if the rule's levels do not agree within its level
    cap.
    """
    family = _record(family, BrachFamily, "family", "arc_integral")
    if family.k == 0.0:
        return 1.0
    value, _, _ = _integral(family, "length")
    return value


def half_transit_time(family: BrachFamily) -> TransitResult:
    """Time from the surface to the minimum radius, by singular quadrature."""
    family = _record(family, BrachFamily, "family", "half_transit_time")
    if family.k == 0.0:
        return TransitResult(tau=math.pi / 2.0, error_estimate=0.0, evaluations=0)
    value, err, evals = _integral(family, "time")
    return TransitResult(tau=value, error_estimate=err, evaluations=evals)


# Floor of a divisor that is 0 only where its dividend is 0 too: a
# positive segment length or nu0 + nu1 is a square root of at least the
# least subnormal, >= ~2e-162, far above it.
_DIVISOR_FLOOR = 1e-300


def _segment_geometry(rho, theta, depth):
    """Length, end projections and speeds of each segment of a polyline.

    With s2 = sin(dtheta/2)^2 and every radial difference taken from the
    depth d = 1 - rho, a segment from (r0, theta0) to (r1, theta1) has

        L  = sqrt((d0 - d1)^2 + 4 r0 r1 s2),
        s0 = r0 (d0 - d1 - 2 r1 s2) / L,     s1 = s0 + L,
        nu = sqrt(d (2 - d)),
        nu0 - nu1 = (nu0^2 - nu1^2) / (nu0 + nu1)
                  = (d0 - d1)(r0 + r1) / (nu0 + nu1),

    the length, the ends' positions along the segment measured from the
    foot of the perpendicular from the centre, the speed at each sample
    and the speed drop along the segment, all free of cancellation.
    ``depth`` supplies d (see `DiscretePath`).  A zero length divides as
    _DIVISOR_FLOOR, where s0's dividend is 0, and so does nu0 + nu1 = 0,
    which needs d0 = d1 = 0.  Returns fresh arrays (L, s0, s1, nu, drop),
    nu per sample and the rest per segment.
    """
    rho = np.asarray(rho, dtype=float)
    depth = np.asarray(depth, dtype=float)
    r0, r1 = rho[:-1], rho[1:]
    d0, d1 = depth[:-1], depth[1:]
    theta = np.asarray(theta, dtype=float)
    s2 = theta[1:] - theta[:-1]                         # np.diff, cheaper
    s2 *= 0.5
    np.sin(s2, out=s2)
    s2 *= s2
    dr = d0 - d1                                        # r1 - r0
    s0 = r1 * s2
    length = r0 * s0
    length *= 4.0
    s1 = dr * dr
    length += s1
    np.sqrt(length, out=length)
    s0 *= -2.0
    s0 += dr
    s0 *= r0
    np.maximum(length, _DIVISOR_FLOOR, out=s1)
    s0 /= s1
    np.add(s0, length, out=s1)
    nu = 2.0 - depth
    nu *= depth
    np.sqrt(nu, out=nu)
    drop = np.add(r0, r1, out=s2)
    drop *= dr
    np.add(nu[:-1], nu[1:], out=dr)
    np.maximum(dr, _DIVISOR_FLOOR, out=dr)
    drop /= dr
    return length, s0, s1, nu, drop


def _segment_times(rho, theta, depth):
    """Exact traversal times of each straight segment of a polar polyline.

    Along a straight segment the motion is simple harmonic, and
    nu^2 + s^2 is constant, so each end's phase is atan2(s, nu) and the
    segment time is their difference, taken as one arctangent of the
    angle-difference identity in `_segment_geometry`'s terms:

        t = atan2(L nu0 + s0 (nu0 - nu1), nu0 nu1 + s0 s1).

    Both arguments are free of cancellation where it matters, so t is
    accurate to a few ulps relative on any segment, however short or
    shallow.  An end on the surface needs no special case: it has
    nu = 0, and a segment with both ends there (s0 < 0 < s1) takes
    atan2(+0, s0 s1) = pi, the gravity train.  A repeated sample has
    L = s0 = nu0 - nu1 = 0 and takes exactly zero time.

    Raises DegenerateSegmentError for a zero-length segment on the
    surface, where the speed is zero and no time is defined, naming its
    index from the start of the path.
    """
    length, s0, s1, nu, drop = _segment_geometry(rho, theta, depth)
    nu0, nu1 = nu[:-1], nu[1:]
    if not length.all():
        stuck = np.flatnonzero((length == 0.0) & (nu0 == 0.0))
        if stuck.size:
            raise DegenerateSegmentError(
                f"segment {int(stuck[0])} has zero length at the surface, "
                "where speed is zero")
    # numerator L nu0 + s0 drop in length, denominator nu0 nu1 + s0 s1 in s1
    length *= nu0
    drop *= s0
    length += drop
    s1 *= s0
    np.multiply(nu0, nu1, out=s0)
    s1 += s0
    return np.arctan2(length, s1, out=length)


def _mirrored_times(rho, theta, depth):
    """`_segment_times` of a polyline whose sample -1 - i mirrors sample
    i: the first half's segments (with the middle one when their count
    is odd) are timed, and the second half takes those times reversed."""
    head = rho.size // 2 + 1
    half = _segment_times(rho[:head], theta[:head], depth[:head])
    return np.concatenate((half, half[:(rho.size - 1) // 2][::-1]))


def _path_kernel(path):
    """The kernel that times a path and its every-other subsample:
    `_mirrored_times` on a mirror image, `_segment_times` on any other."""
    return _mirrored_times if path._mirrored else _segment_times


def _array(value, name, lo, hi, lo_slack=DOMAIN_EPS):
    """value as a fresh float array of elements in [lo, hi], any within
    lo_slack below lo or DOMAIN_EPS above hi clamped onto the end.

    Otherwise the first element outside, as the caller gave it, goes to
    `closed._real` with those widened bounds, which names it in its
    DomainError.  A domain open at its lower end passes the nearest
    float inside it as lo, with lo_slack 0.
    """
    lo_in, hi_in = lo - lo_slack, hi + DOMAIN_EPS
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = np.array(math.nan)
    if arr.size:
        least, most = arr.min(), arr.max()
        if not (lo_in <= least and most <= hi_in):
            for item in np.ravel(np.array(value, dtype=object)):
                _real(item, name, lo_in, hi_in)
        if least < lo or most > hi:
            np.clip(arr, lo, hi, out=arr)
    return arr


class DiscretePath:
    """Ordered polar samples of a tunnel, normally surface to surface.

    ``DiscretePath(rho, theta, depth=None)`` checks its input and raises
    DomainError naming the first bad value: each rho and depth must lie
    in [0, 1] (DOMAIN_EPS overshoot is clipped), each theta must be
    finite, the arrays must have one length of at least 2, and a given
    depth must agree with 1 - rho to within DOMAIN_EPS.  It stores fresh
    read-only float copies, so no later write by the caller reaches the
    path.  Paths produced by the library (`sample_path`, `chord_path`,
    `optimize_path`) dip monotonically to a single interior minimum and
    rise back; arbitrary point lists (e.g. perturbed paths) need not.

    ``depth`` holds 1 - rho per sample.  A caller that knows the
    geometry (`sample_path`, `chord_path`) passes it, computed without
    cancellation, since rho cannot resolve a depth much below 1e-16;
    without it the depth is 1 - rho.  The timing kernel puts a sample on
    the zero-speed surface exactly when its depth is 0.

    ``segment_times`` holds each segment's exact traversal time as a
    read-only array, computed on first use by `_path_kernel`'s kernel
    and cached, so a path is timed once however many of
    `path_transit_time` and `cumulative_path_times` run on it.  The
    cache is sound because no one can write the path's arrays.

    A path is immutable, and equal only to itself.
    """

    # True only on the paths `_mirror_image` builds
    _mirrored = False

    def __init__(self, rho, theta, depth=None):
        rho = np.atleast_1d(_array(rho, "rho", 0.0, 1.0))
        theta = _array(theta, "theta", -_MAX, _MAX).reshape(-1)
        if rho.shape != theta.shape:
            raise DomainError("rho and theta must have the same length; "
                              f"got {rho.size} and {theta.size}")
        if rho.size < 2:
            raise DomainError(f"a path needs at least 2 points; got {rho.size}")
        if depth is None:
            depth = 1.0 - rho
        else:
            depth = _array(depth, "depth", 0.0, 1.0).reshape(-1)
            if depth.shape != rho.shape:
                raise DomainError("depth and rho must have the same length; "
                                  f"got {depth.size} and {rho.size}")
            off = 1.0 - rho
            off -= depth
            if np.abs(off, out=off).max() > DOMAIN_EPS:
                i = int(np.argmax(off > DOMAIN_EPS))
                raise DomainError(f"depth[{i}] = {float(depth[i])!r} "
                                  f"contradicts rho[{i}] = {float(rho[i])!r}:"
                                  " depth must be 1 - rho")
        for values in (rho, theta, depth):
            values.setflags(write=False)
        vars(self).update(rho=rho, theta=theta, depth=depth)

    @classmethod
    def _mirror_image(cls, rho, theta, depth):
        """The path of `sample_path`'s arrays, whose sample -1 - i mirrors
        sample i, without the constructor's checks and copies: they meet
        every condition it checks, are read-only and only view memory that
        no writable array holds.  Timed over its first half."""
        path = cls.__new__(cls)
        vars(path).update(rho=rho, theta=theta, depth=depth, _mirrored=True)
        return path

    def __setattr__(self, name, *_):
        raise AttributeError(f"DiscretePath.{name} is read-only")

    __delattr__ = __setattr__

    def __len__(self):
        return self.rho.size

    @cached_property
    def segment_times(self):
        """Exact traversal time of each segment, computed once per path."""
        times = _path_kernel(self)(self.rho, self.theta, self.depth)
        times.setflags(write=False)
        return times

    def xy(self):
        """Cartesian coordinates of the samples in the tunnel plane."""
        return self.rho * np.cos(self.theta), self.rho * np.sin(self.theta)

    def chord_lengths(self):
        """Length of each segment, sqrt((d1 - d0)^2 + 4 r0 r1 s2) with
        s2 = sin(dtheta/2)^2, which keeps the digits of a segment far
        shorter than an ulp of rho that Cartesian differences lose."""
        across = np.sin(0.5 * np.diff(self.theta))
        across *= 2.0 * np.sqrt(self.rho[:-1] * self.rho[1:])
        return np.hypot(np.diff(self.depth), across)

    def cumulative_arclength(self):
        return np.concatenate(([0.0], np.cumsum(self.chord_lengths())))

    def endpoint_separation(self):
        return abs(float(self.theta[-1] - self.theta[0]))


def _segment_time_partials(rho, theta, depth):
    """First and second partials of each segment time in its end radii.

    With the angles held fixed a segment time depends only on its end
    radii r0 and r1.  In `_segment_geometry`'s terms (L, s0, s1, nu and
    nu1 - nu0 = -(nu0 - nu1)), c2 = (r0 - s0)(r0 + s0) is the squared
    distance from the centre to the segment's line and
    A2 = 1 - c2 = nu0^2 + s0^2.  Then

        dt/dr1 = ( s1/(r1 nu1) + c2 (nu1 - nu0)/(r1 L)) / A2
        dt/dr0 = (-s0/(r0 nu0) - c2 (nu1 - nu0)/(r0 L)) / A2

    and the second partials follow by the chain rule from

        d/dr1:  ds0 = c2/(r1 L),  ds1 = s1/r1 + c2/(r1 L),  dL = s1/r1,
                dc2 = -2 c2 s0/(r1 L),  dnu1 = -r1/nu1;
        d/dr0:  ds0 = s0/r0 - c2/(r0 L),  ds1 = -c2/(r0 L),  dL = -s0/r0,
                dc2 = 2 c2 s1/(r0 L),  dnu0 = -r0/nu0.

    Returns per-segment arrays (dt/dr0, dt/dr1, d2t/dr0^2, d2t/dr0dr1,
    d2t/dr1^2).  A partial in the radius of an end on the surface, where
    the speed is zero, is not finite and comes back as inf or nan.
    """
    rho = np.asarray(rho, dtype=float)
    r0, r1 = rho[:-1], rho[1:]
    length, s0, s1, nu, drop = _segment_geometry(rho, theta, depth)
    nu0, nu1 = nu[:-1], nu[1:]
    nu_diff = -drop                                     # nu1 - nu0
    c2 = (r0 - s0) * (r0 + s0)
    a2 = nu0 * nu0 + s0 * s0

    def g(r, s, nu_end):
        # dt/dr1 is g at end 1 and dt/dr0 is -g at end 0
        return (s / (r * nu_end) + c2 * nu_diff / (r * length)) / a2

    def dg(r, s, nu_end, g_end, dr, ds, dnu_end, dlength, dc2, dnu_diff):
        # g's derivative along a direction that moves its inputs by the d*
        rel = dr / r
        return ((ds - s * (rel + dnu_end / nu_end)) / (r * nu_end)
                + (dc2 * nu_diff + c2 * dnu_diff
                   - c2 * nu_diff * (rel + dlength / length)) / (r * length)
                + g_end * dc2) / a2

    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = g(r1, s1, nu1)
        t0 = -g(r0, s0, nu0)
        dnu1 = -r1 / nu1                                # along r1
        dnu0 = -r0 / nu0                                # along r0
        q1 = c2 / (r1 * length)
        q0 = c2 / (r0 * length)
        t11 = dg(r1, s1, nu1, t1, 1.0, s1 / r1 + q1, dnu1, s1 / r1,
                 -2.0 * s0 * q1, dnu1)
        t01 = dg(r1, s1, nu1, t1, 0.0, -q0, 0.0, -s0 / r0,
                 2.0 * s1 * q0, -dnu0)
        t00 = -dg(r0, s0, nu0, -t0, 1.0, s0 / r0 - q0, dnu0, -s0 / r0,
                  2.0 * s1 * q0, -dnu0)
    return t0, t1, t00, t01, t11


def _every_other(a):
    """Samples 0, 2, 4, ... of a, plus the last one when a's length is even."""
    return a[::2] if a.size % 2 else np.append(a[::2], a[-1])


def path_transit_time(path: DiscretePath) -> TransitResult:
    """Transit time of a discrete path, exact per straight segment.

    The per-segment evaluation is closed form and needs no tolerance.
    The error estimate is |tau - tau_coarse|, where tau_coarse times the
    same path through samples 0, 2, 4, ... and the last one, so it
    reflects how converged the path's geometry is, not floating-point
    noise.  On a sampled tunnel over separations 1e-12 to 3.1 at 100 to
    10^4 samples per half it is 2.98-3.02 times the error tau - T
    against the closed form at an even n per half, where the subsample
    skips the turnaround, and 1.83-2.99 times it at an odd n, where the
    subsample is the sampled tunnel at (n + 1) / 2.  Paths under 5
    samples, and paths whose coarse subsample cannot be timed (a
    zero-length segment on the surface), report only a round-off bound.
    ``evaluations`` counts the segment-kernel evaluations of both
    passes, the cached one included; a mirrored path's are half.
    """
    path = _record(path, DiscretePath, "path", "path_transit_time")
    kernel = _path_kernel(path)
    mirrored = kernel is _mirrored_times
    times = path.segment_times
    tau = float(np.sum(times))
    evaluations = (times.size + 1) // 2 if mirrored else times.size
    n = len(path)
    error = float(n * np.finfo(float).eps * max(abs(tau), 1.0))
    if n >= 5:
        try:
            coarse = kernel(_every_other(path.rho), _every_other(path.theta),
                            _every_other(path.depth))
            error = abs(tau - float(np.sum(coarse)))
            evaluations += (coarse.size + 1) // 2 if mirrored else coarse.size
        except DegenerateSegmentError:
            pass
    return TransitResult(tau=tau, error_estimate=error, evaluations=evaluations)


def cumulative_path_times(path: DiscretePath) -> np.ndarray:
    """Running transit time at each sample of a path, starting at 0."""
    path = _record(path, DiscretePath, "path", "cumulative_path_times")
    return np.concatenate(([0.0], np.cumsum(path.segment_times)))
