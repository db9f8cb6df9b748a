"""Straight-tunnel baseline: the classic gravity train.

Projecting the interior force -rho r_hat onto any straight chord of the
sphere gives simple harmonic motion with unit angular frequency in
dimensionless units, so the one-way trip takes exactly pi no matter
which two surface points the chord connects.  These chords are the
benchmark the curved minimum-time tunnels have to beat.

Chord endpoints follow the same convention as the curved family: the
release point sits at (rho=1, theta=0) and the destination at
(rho=1, theta=-separation_angle), so chord and tunnel samples can be fed
to the same integrators and plotted on the same axes.  `ChordSpec`,
`chord_from_separation` and `chord_transit_time` are closed forms and
live in `closed`; this module samples and positions along a chord.
"""

import math

import numpy as np

from .closed import ChordSpec, chord_from_separation, chord_transit_time  # noqa: F401
from .core import DiscretePath
from .errors import DomainError


def chord_position(tau, spec: ChordSpec):
    """Along-chord coordinate x(tau) = half_chord * cos(tau).

    Measured from the chord midpoint, for release from rest at one end at
    tau = 0.  Accepts scalar or array tau.
    """
    arr = spec.half_chord * np.cos(np.asarray(tau, dtype=float))
    return float(arr) if arr.ndim == 0 else arr


def chord_path(spec: ChordSpec, n: int) -> DiscretePath:
    """Sample the straight chord as n points in polar coordinates.

    Points are spaced uniformly along the chord from (1, 0) to
    (1, -separation_angle); both endpoints sit exactly on the surface.
    The path carries each sample's depth below the surface, taken from
    rho^2 = 1 - 4 t (1 - t) sin^2(separation/2) at chord fraction t, so
    a chord too shallow for rho to resolve (separation below ~1e-5) is
    still timed.
    """
    if not isinstance(spec, ChordSpec):
        raise DomainError("chord_path expects a ChordSpec")
    n = int(n)
    if n < 2:
        raise DomainError(f"chord_path needs n >= 2 samples; got {n}")
    end = -spec.separation_angle
    t = np.linspace(0.0, 1.0, n)
    x = (1.0 - t) * 1.0 + t * math.cos(end)
    y = t * math.sin(end)
    rho = np.hypot(x, y)
    theta = np.arctan2(y, x)
    rho[0] = 1.0
    rho[-1] = 1.0
    theta[0] = 0.0
    theta[-1] = end
    # 1 - rho = (1 - rho^2) / (1 + rho), exactly 0 at both ends
    depth = t * (1.0 - t)
    depth *= 4.0 * math.sin(end / 2.0) ** 2
    depth /= 1.0 + rho
    return DiscretePath.from_arrays(rho, theta, depth)
