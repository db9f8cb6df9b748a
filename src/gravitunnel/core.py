"""Shared physics of frictionless motion inside a uniform-density sphere.

Everything in this package is computed dimensionless.  Lengths are
measured in units of the sphere radius R, times in units of sqrt(R/g)
and speeds in units of sqrt(g*R), where g is the gravitational
acceleration at the surface.  In these units the interior field pulls
inward with magnitude rho (linear in radius), the potential energy per
unit mass is -(1 - rho^2)/2 with its zero on the surface, and a particle
released at rest on the surface moves with speed sqrt(1 - rho^2)
wherever a frictionless tunnel takes it, because its total energy is
exactly zero.

Physical units enter only at the boundary of the library, through
`make_scaling` (defined with `PhysicalParams`, `EARTH` and `Scaling` in
`closed`, re-exported here) and `dimensional_time`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .closed import (DOMAIN_EPS, EARTH, PhysicalParams, Scaling,  # noqa: F401
                     make_scaling)
from .errors import DomainError


def _unit_interval(value, name):
    """A fresh float copy of value(s) in [0, 1], DOMAIN_EPS overshoot
    clipped in place."""
    arr = np.array(value, dtype=float)
    if arr.size and not (arr.min() >= -DOMAIN_EPS
                         and arr.max() <= 1.0 + DOMAIN_EPS):
        bad = ~((arr >= -DOMAIN_EPS) & (arr <= 1.0 + DOMAIN_EPS))
        raise DomainError(f"{name} must lie in [0, 1]; "
                          f"got {float(np.ravel(arr[bad])[0])!r}")
    np.clip(arr, 0.0, 1.0, out=arr)
    return float(arr) if arr.ndim == 0 else arr


def _owned(values):
    """Whether values is a read-only float array that owns its memory,
    or views one through read-only arrays only, so no writable array
    can change it."""
    if not (isinstance(values, np.ndarray) and values.dtype == float):
        return False
    while isinstance(values, np.ndarray) and not values.flags.writeable:
        if values.base is None:
            return True
        values = values.base
    return False


@dataclass(frozen=True)
class DiscretePath:
    """Ordered polar samples of a tunnel, normally surface to surface.

    ``rho``, ``theta`` and ``depth`` are equal-length float arrays,
    read-only and owned by the path: each owns its memory, or views
    memory owned by a read-only array through read-only arrays only.
    The library constructors build them so; anything else passed in
    directly (a caller's writable array or a view of one, a list) is
    copied, so no later write by the caller reaches the path.  Paths
    produced by the library constructors dip monotonically to a single
    interior minimum and rise back; arbitrary point lists (e.g.
    perturbed paths) need not.

    ``depth`` holds 1 - rho per sample.  A constructor that knows the
    geometry (`sample_path`, `chord_path`) computes it without
    cancellation, since rho cannot resolve a depth much below 1e-16;
    it must agree with 1 - rho to within DOMAIN_EPS.  For paths given
    by radii alone it is 1 - rho.  The timing kernel puts a sample on
    the zero-speed surface exactly when its depth is 0.

    ``segment_times`` holds each segment's exact traversal time
    (`timing._segment_times`) as a read-only array, computed on first
    use and cached, so a path is timed once however many of
    `timing.path_transit_time` and `timing.cumulative_path_times` run
    on it.  The cache is sound because the path owns its arrays.

    A path that `brachistochrone.sample_path` builds as a mirror image
    is timed over its first half (`timing._mirrored_times`, within
    ~3.4e-12 per segment and 3 ulps of the whole); any other path runs
    the kernel on every segment.
    """

    rho: np.ndarray
    theta: np.ndarray
    depth: np.ndarray

    # True only on the paths `sample_path` sets it on; not a field, so
    # neither the constructor nor `dataclasses.replace` carries it over
    _mirrored = False

    def __post_init__(self):
        for name in ("rho", "theta", "depth"):
            values = getattr(self, name)
            if not _owned(values):
                values = np.array(values, dtype=float)
                values.setflags(write=False)
                object.__setattr__(self, name, values)

    @classmethod
    def from_arrays(cls, rho, theta, depth=None):
        rho = _unit_interval(np.atleast_1d(rho), "rho")
        theta = np.array(np.reshape(theta, -1), dtype=float)
        if rho.shape != theta.shape:
            raise DomainError("rho and theta must have the same length; "
                              f"got {rho.size} and {theta.size}")
        if rho.size < 2:
            raise DomainError(f"a path needs at least 2 points; got {rho.size}")
        if not np.isfinite(theta).all():
            i = int(np.argmin(np.isfinite(theta)))
            raise DomainError("theta samples must be finite; "
                              f"theta[{i}] = {float(theta[i])!r}")
        if depth is None:
            depth = 1.0 - rho
        else:
            depth = _unit_interval(np.reshape(depth, -1), "depth")
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
        return cls(rho=rho, theta=theta, depth=depth)

    def __len__(self):
        return self.rho.size

    @cached_property
    def segment_times(self):
        """Exact traversal time of each segment, computed once per path."""
        from .timing import _mirrored_times, _segment_times
        kernel = _mirrored_times if self._mirrored else _segment_times
        times = kernel(self.rho, self.theta, self.depth)
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


def dimensional_time(tau, scaling: Scaling):
    """Convert a dimensionless time to seconds using a body's scaling."""
    arr = np.asarray(tau, dtype=float) * scaling.time_unit_s
    return float(arr) if arr.ndim == 0 else arr
