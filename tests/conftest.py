"""Shared independent oracles for the test suite.

These deliberately avoid the package's own quadrature and closed forms:
scipy's QUADPACK for integrals.  The QUADPACK slope sweep is the one
`gravitunnel.checks` runs for ``gravitunnel verify`` and the acceptance
suite, re-used here; the two QUADPACK integrals below are needed by the
unit tests alone.
"""

import numpy as np
from scipy.integrate import quad

from gravitunnel.checks import quad_slope_sweep  # noqa: F401


def quad_half_time(k):
    """Half transit time by QUADPACK in rho, in two pieces.

    The surface piece runs in rho = sin(alpha) and the turnaround piece
    in u = sqrt(rho - rho_m), unlike `timing`'s single integral in psi
    with depth q sin^2(psi); the different substitutions keep this an
    independent reference for it.
    """
    rm = k / np.hypot(k, 1.0)
    rho_c = 0.5 * (1.0 + rm)

    def upper(alpha):
        rho = np.sin(alpha)
        return rho / np.sqrt((k * k + 1.0) * (rho - rm) * (rho + rm))

    def lower(u):
        rho = rm + u * u
        return (2.0 * rho / (np.sqrt((k * k + 1.0) * (rho + rm))
                             * np.sqrt((1.0 - rho) * (1.0 + rho))))

    hi, _ = quad(upper, np.arcsin(rho_c), np.pi / 2, limit=200,
                 epsabs=1e-13, epsrel=1e-13)
    lo, _ = quad(lower, 0.0, np.sqrt(rho_c - rm), limit=200,
                 epsabs=1e-13, epsrel=1e-13)
    return hi + lo


def quad_half_length(k):
    """Half arc length by QUADPACK with the turnaround substitution."""
    rm = k / np.hypot(k, 1.0)

    def integrand(u):
        rho = rm + u * u
        return 2.0 * rho / np.sqrt((k * k + 1.0) * (rho + rm))

    val, _ = quad(integrand, 0.0, np.sqrt(1.0 - rm), limit=200,
                  epsabs=1e-13, epsrel=1e-13)
    return val
