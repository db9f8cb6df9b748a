"""Three routes to one number, and two formula traps.

Nothing in the closed-form family is taken on faith.  For a quarter-turn
tunnel this script computes the transit time by (a) singular quadrature
of the time functional, (b) direct transcription: minimizing over
discrete paths with 64 free radii, and (c) integrating Newton's law for
a bead on the interpolated tunnel.  The three must agree, and the
optimizer must never beat the variational answer.

It then shows why two tempting variants of the closed forms are wrong:
the minimum radius must be the root of the slope denominator, and the
antiderivative's arcsine coefficient must be rho_min, because any other
choice fails to differentiate back to the slope field.
"""

import math

import numpy as np

from gravitunnel import (family_from_separation, half_transit_time,
                         optimize_path, rho_min, sample_path, simulate_bead,
                         theta_of_rho, theta_prime)
from gravitunnel.checks import antiderivative_with_coefficient, fd4

delta = math.pi / 2
fam = family_from_separation(delta)

quad_tau = 2 * half_transit_time(fam).tau
report = optimize_path(delta, 64)
bead_tau = simulate_bead(sample_path(fam, 10_000)).transit_time

print("Quarter-turn tunnel, three independent routes:")
print(f"  singular quadrature     {quad_tau:.8f}")
print(f"  64-point transcription  {report.best_time:.8f} "
      f"(residual {report.first_order_residual:.1e}, "
      f"converged={report.converged})")
print(f"  bead dynamics           {bead_tau:.8f}")
print(f"  optimizer excess over the variational time: "
      f"{report.best_time - quad_tau:+.2e}  (never negative)")
print()

k = 1.0
root = rho_min(k)
print(f"Minimum radius at k = 1: the slope denominator "
      f"(k^2+1) rho^2 - k^2 vanishes at rho = {root:.15f}")
print(f"  k/sqrt(k^2+1)  = {1/math.sqrt(2):.15f}   <- matches")
print(f"  k^2/(k^2+1)    = {0.5:.15f}   <- does not")
print()

grid = np.linspace(root + 1e-4, 1 - 1e-4, 200)
slope = theta_prime(grid, k)


def misfit(c):
    fd = fd4(lambda r: antiderivative_with_coefficient(r, k, c), grid, 2e-6)
    return np.max(np.abs(fd - slope) / np.abs(slope))


good, bad = misfit(root), misfit(k)
print("Differentiating the angle antiderivative back to the slope field:")
print(f"  arcsine coefficient rho_min: max relative error {good:.1e}")
print(f"  arcsine coefficient k:       max relative error {bad:.1e}")
print()
print(f"Sanity: the library's theta_of_rho(0.9, 1) = "
      f"{theta_of_rho(0.9, 1.0):.10f} uses the rho_min coefficient.")
