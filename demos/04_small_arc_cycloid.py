"""Short tunnels forget the sphere: the cycloid limit.

Inside a short, shallow tunnel the interior field is indistinguishable
from a uniform downward pull of surface strength, so the spherical
minimum-time tunnel should converge to the classical uniform-field
answer, the cycloid, as the surface separation shrinks.

The table halves the separation four times.  Both the worst depth
mismatch (per unit span) and the relative transit-time difference fall
linearly with the separation, and the depth-to-span ratio of the
spherical tunnel is exactly 1/pi for every member, the same ratio a
full cycloid arch has between its height 2a and its span 2 pi a.

A second table follows the mismatch down to 1e-12 rad: divided by the
separation it settles near 0.01267, its leading coefficient.  The last
row's excess, under 1%, is the float round-off of the tunnel's
stations.
"""

import math

import numpy as np

from gravitunnel import CycloidSolution, compare_small_arc, cycloid_time

sol = CycloidSolution(1.0)
print(f"Reference cycloid through level endpoints one unit apart: "
      f"rolling radius {sol.rolling_radius:.6f}, transit "
      f"{cycloid_time(sol):.6f} = sqrt(2 pi).")
print()

deltas = (0.2, 0.1, 0.05, 0.025)
print(f"{'separation':>11} {'depth mismatch':>15} {'time diff':>11}")
reports = []
for d in deltas:
    r = compare_small_arc(d)
    reports.append(r)
    print(f"{d:>11.3f} {r.max_geometry_deviation:>15.6f} "
          f"{r.relative_time_difference:>11.6f}")

for label, series in (("geometry", [r.max_geometry_deviation for r in reports]),
                      ("time", [r.relative_time_difference for r in reports])):
    order = np.polyfit(np.log(deltas), np.log(series), 1)[0]
    print(f"fitted convergence order in the separation, {label}: {order:.2f}")

print()
print(f"{'separation':>11} {'mismatch / separation':>22}")
for d in (1e-3, 1e-6, 1e-9, 1e-12):
    ratio = compare_small_arc(d).max_geometry_deviation / d
    print(f"{d:>11.0e} {ratio:>22.7f}")
