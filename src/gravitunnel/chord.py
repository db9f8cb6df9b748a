"""Straight-tunnel baseline: the classic gravity train.

Projecting the interior force -rho r_hat onto any straight chord of the
sphere gives simple harmonic motion with unit angular frequency in
dimensionless units, so the one-way trip takes exactly pi no matter
which two surface points the chord connects.  These chords are the
benchmark the curved minimum-time tunnels have to beat.

Chord endpoints follow the same convention as the curved family: the
release point sits at (rho=1, theta=0) and the destination at
(rho=1, theta=-separation_angle), so chord and tunnel samples can be fed
to the same integrators and plotted on the same axes.  A chord is
`closed.ChordSpec(separation_angle)`, and its transit time
`closed.chord_transit_time`; this module samples a chord.
"""

import numpy as np

from .closed import ChordSpec, _count, chord_point
from .errors import DomainError
from .timing import DiscretePath


def chord_path(spec: ChordSpec, n: int) -> DiscretePath:
    """Sample the straight chord as n points in polar coordinates.

    Points are spaced uniformly along the chord from (1, 0) to
    (1, -separation_angle); both endpoints sit exactly on the surface.
    The path carries each sample's depth below the surface
    (`closed.chord_point`), so a chord too shallow for rho to resolve
    (separation below ~1e-5) is still timed.
    """
    if not isinstance(spec, ChordSpec):
        raise DomainError("chord_path expects a ChordSpec")
    n = _count(n, "n")
    if n < 2:
        raise DomainError(f"chord_path needs n >= 2 samples; got {n}")
    t = np.linspace(0.0, 1.0, n)
    rho, theta, depth = chord_point(spec, t, np.hypot, np.arctan2)
    rho[0] = 1.0
    rho[-1] = 1.0
    theta[0] = 0.0
    theta[-1] = -spec.separation_angle
    return DiscretePath(rho, theta, depth)
