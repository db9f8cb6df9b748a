"""The fastest tunnels: a one-parameter family of curved paths.

Straight chords are not optimal.  Writing the path as theta(rho), the
momentum conjugate to theta is conserved, and each value k >= 0 of that
constant picks out one minimum-time tunnel: it dives radially from the
surface, turns around at rho_min = k/sqrt(k^2+1), and climbs back out as
its own mirror image, sweeping a surface angle pi(1 - rho_min).

The sweep below runs the family from nearly-through-center (k small) to
shallow scratches (k large).  The time column is the closed form
pi*sqrt(1 - rho_min^2) (`total_transit_time`); it always beats the
chord's pi.  `timing.half_transit_time` is the singular-quadrature route
to half of it, which `gravitunnel verify` checks against the closed form.
"""

import math

import numpy as np

from gravitunnel import (BrachFamily, arc_length, family_from_separation,
                         sample_path, total_transit_time)

print(f"{'k':>8} {'rho_min':>9} {'sweep (deg)':>12} {'arc len':>9} "
      f"{'time':>10} {'vs chord':>9}")
for k in np.geomspace(0.05, 20.0, 9):
    fam = BrachFamily(k)
    tau = total_transit_time(fam).tau
    print(f"{fam.k:>8.3f} {fam.rho_min:>9.5f} "
          f"{math.degrees(fam.separation_angle):>12.3f} "
          f"{arc_length(fam):>9.5f} {tau:>10.6f} {tau / math.pi:>9.5f}")

print()
fam = family_from_separation(math.pi / 2)
print(f"A quarter-turn tunnel (k = {fam.k:.6f}) dips to rho = "
      f"{fam.rho_min:.3f} and takes {total_transit_time(fam).tau:.6f};")
print(f"the straight chord between the same mouths takes pi = {math.pi:.6f}.")
print()

path = sample_path(fam, 9)
print("Sampled quarter-turn tunnel (17 points, polar):")
print(f"{'theta (deg)':>12} {'rho':>9}")
for theta, rho in zip(path.theta, path.rho):
    print(f"{math.degrees(theta):>12.3f} {rho:>9.5f}")
