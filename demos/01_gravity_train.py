"""The gravity train: every straight tunnel takes the same time.

Drop a bead into a frictionless straight tunnel between any two points
on the surface of a uniform-density sphere.  The pull along the tunnel
is proportional to the distance from the tunnel midpoint, so the bead
executes simple harmonic motion with unit angular frequency in units of
sqrt(R/g), and the one-way trip always takes pi, about 42 minutes on
Earth, whether the tunnel crosses the center or barely dips below a
city block.

This script shows the invariance three ways: the closed form, a line
integral of ds/speed along sampled chords, and a dynamics simulation.
"""

import math

from gravitunnel import (ChordSpec, PhysicalParams, chord_path,
                         chord_transit_time, dimensional_time,
                         path_transit_time, simulate_bead)

earth = PhysicalParams(radius_m=6.371e6, gravity_m_s2=9.80665)
print(f"Earth time unit sqrt(R/g) = {earth.time_unit_s:.2f} s")
print()

print(f"{'separation':>12} {'closed form':>12} {'quadrature':>14} "
      f"{'bead':>12} {'minutes':>9}")
for degrees in (5, 30, 90, 150, 180):
    delta = math.radians(degrees)
    spec = ChordSpec(delta)
    exact = chord_transit_time(spec)
    sampled = chord_path(spec, 10_000)
    quad = path_transit_time(sampled).tau
    bead = simulate_bead(sampled).transit_time
    minutes = dimensional_time(exact, earth) / 60.0
    print(f"{degrees:>11}d {exact:>12.9f} {quad:>14.9f} {bead:>12.8f} "
          f"{minutes:>9.2f}")

print()
print("The transit time never moves: the amplitude of the oscillation")
print("shrinks exactly as fast as the restoring force does.")
