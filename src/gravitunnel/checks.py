"""Verification registry: each checked claim written once, run at two sizes.

Every check sets a closed form of the package against an independent
route (bisection, fourth-order finite differences, scipy's QUADPACK, the
transcription optimizer, the bead simulator).  Each is registered with
two input tables: ``reduced``, run by ``gravitunnel verify``, and
``full``, run by the acceptance suite; conditions and bounds are the same
at both.  The package does not import this module, and scipy loads
only inside the functions that use it.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from . import brachistochrone as brach
from . import chord as chord_mod
from . import closed
from . import cycloid as cycloid_mod
from . import oracle as oracle_mod
from . import timing
from .closed import (EARTH, BrachFamily, ChordSpec, chord_transit_time,
                     dimensional_time, family_from_separation, rho_min,
                     separation_angle)
from .errors import TunnelError

# Acceptance criteria by number; every check is tagged with one of them.
CRITERIA = {
    1: "gravity-elevator",
    2: "min-radius-erratum",
    3: "antiderivative-erratum",
    4: "angular-sweep-law",
    5: "transit-time-conjecture",
    6: "oracle-triangle",
    7: "stationarity",
    8: "energy-conservation",
    9: "small-arc-limit",
    10: "depth-span-ratio",
}


# --- independent helpers ------------------------------------------------

def bisect_root(f, lo, hi, iterations=200):
    """Root of f on [lo, hi] by plain bisection; f(lo), f(hi) differ in sign."""
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def fd4(f, x, h):
    """Fourth-order central finite difference of f at x (scalar or array)."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def quad_slope_sweep(k):
    """Surface sweep 2 * integral of the slope field, by QUADPACK.

    Uses the substitution rho = rho_m + u^2 so the turnaround inverse
    square root disappears before quad sees it.
    """
    from scipy.integrate import quad
    rm = k / np.hypot(k, 1.0)

    def integrand(u):
        rho = rm + u * u
        return (2.0 * k * np.sqrt((1.0 - rho) * (1.0 + rho))
                / (rho * np.sqrt((k * k + 1.0) * (rho + rm))))

    val, _ = quad(integrand, 0.0, np.sqrt(1.0 - rm), limit=200,
                  epsabs=1e-13, epsrel=1e-13)
    return 2.0 * val


def antiderivative_with_coefficient(rho, k, c):
    """The family's angle antiderivative with arcsine coefficient c.

    c = rho_min gives `theta_of_rho`; any other constant, k in
    particular, fails to differentiate back to the slope field.  The
    arcsine is evaluated as atan2, as in `theta_of_rho`.
    """
    rm = rho_min(k)
    s = math.sqrt(k * k + 1.0)
    u = np.sqrt((1.0 - rho) * (1.0 + rho))
    w = s * np.sqrt(rho - rm) * np.sqrt(rho + rm) / k
    return -np.arctan2(u, w) + c * np.arctan2(s * u, k * w)


def _denominator_root(k):
    return bisect_root(lambda r: (k * k + 1.0) * r * r - k * k, 0.0, 1.0)


def _slope_misfit(antiderivative, k, points):
    """Worst relative gap between fd4 of an antiderivative and theta_prime."""
    grid = np.linspace(rho_min(k) + 1e-4, 1.0 - 1e-4, points)
    slope = brach.theta_prime(grid, k)
    fd = fd4(lambda r: antiderivative(r, k), grid, 2e-6)
    return float(np.max(np.abs(fd - slope) / np.abs(slope)))


# --- registry -------------------------------------------------------------

class CheckResult(NamedTuple):
    name: str
    criterion: int
    passed: bool
    measure: float
    threshold: float
    detail: str


class Check(NamedTuple):
    """A check function with its input tables, keyed "reduced" and "full"."""

    name: str
    criterion: int
    func: Callable
    inputs: dict


REGISTRY = []


def _register(name, criterion, reduced, full):
    def add(func):
        REGISTRY.append(Check(name, criterion, func,
                              {"reduced": reduced, "full": full}))
        return func
    return add


def run(size="reduced", criterion=None):
    """Results of every registered check (or one criterion's), in order."""
    results = []
    for name, number, func, inputs in REGISTRY:
        if criterion not in (None, number):
            continue
        try:
            passed, measure, threshold, detail = func(**inputs[size])
        except TunnelError as exc:
            passed, measure, threshold = False, math.nan, math.nan
            detail = f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, number, bool(passed), float(measure),
                                   float(threshold), detail))
    return results


K_THREE = (0.5, 1.0, 2.0)
K_FIVE = (0.1, 0.5, 1.0, 2.0, 10.0)
K_SEVEN = tuple(np.geomspace(0.05, 20.0, 7))
K_SWEEP = tuple(np.geomspace(0.05, 20.0, 20))


@_register("chord-time-quadrature", 1,
           reduced=dict(separations=(2.0,), samples=4001),
           full=dict(separations=(0.1, math.pi / 4, math.pi / 2, math.pi),
                     samples=10_000))
def chord_time(separations, samples):
    specs = [ChordSpec(d) for d in separations]
    exact = all(chord_transit_time(s) == math.pi for s in specs)
    seconds = dimensional_time(math.pi, EARTH)
    earth_ok = abs(seconds - 2531.9) / 2531.9 < 5e-4
    worst = max(abs(timing.path_transit_time(chord_mod.chord_path(s, samples)).tau
                    - math.pi) / math.pi for s in specs)
    threshold = 1e-4
    return (exact and earth_ok and worst < threshold, worst, threshold,
            f"chord tau is pi bitwise: {exact}, Earth {seconds:.1f} s, "
            f"quadrature rel err {worst:.2e} < {threshold:.1e}")


@_register("min-radius-root", 2,
           reduced=dict(ks=K_THREE), full=dict(ks=K_FIVE))
def min_radius_root(ks):
    worst = max(abs(_denominator_root(k) - rho_min(k)) for k in ks)
    threshold = 1e-12
    return (worst < threshold, worst, threshold,
            f"root vs k/sqrt(k^2+1) off {worst:.1e} < {threshold:.1e}")


@_register("alt-min-radius-rejected", 2,
           reduced=dict(ks=K_THREE), full=dict(ks=K_FIVE))
def alt_min_radius(ks):
    gap = min(abs(_denominator_root(k) - k * k / (k * k + 1.0)) for k in ks)
    return (gap > 1e-3, gap, 1e-3,
            f"squared-ratio alternative differs by >= {gap:.2e} > 1e-3")


@_register("slope-antiderivative", 3,
           reduced=dict(ks=K_THREE, points=200), full=dict(ks=K_FIVE, points=500))
def slope_antiderivative(ks, points):
    worst = max(_slope_misfit(lambda r, k: np.asarray(brach.theta_of_rho(r, k)),
                              k, points) for k in ks)
    threshold = 1e-6
    return (worst < threshold, worst, threshold,
            f"correct coefficient rel err {worst:.2e} < {threshold:.1e}")


@_register("alt-coefficient-misfit", 3,
           reduced=dict(ks=K_THREE, points=200), full=dict(ks=K_FIVE, points=500))
def alt_coefficient(ks, points):
    ratio = min(_slope_misfit(lambda r, k: antiderivative_with_coefficient(r, k, k),
                              k, points) / (math.sqrt(1.0 + 1.0 / (k * k)) - 1.0)
                for k in ks)
    return (ratio >= 1.0, ratio, 1.0,
            "arcsine coefficient k misfits the slope by at least "
            f"sqrt(1+1/k^2)-1 (worst margin x{ratio:.1f})")


@_register("separation-quadrature", 4,
           reduced=dict(ks=K_SEVEN), full=dict(ks=K_SWEEP))
def separation_quadrature(ks):
    worst = max(abs(separation_angle(k) - quad_slope_sweep(float(k)))
                for k in ks)
    threshold = 1e-8
    return (worst < threshold, worst, threshold,
            f"pi(1 - rho_min) vs slope quadrature off {worst:.1e} "
            f"< {threshold:.1e}")


@_register("transit-closed-form", 5,
           reduced=dict(ks=K_SEVEN), full=dict(ks=K_SWEEP))
def transit_closed_form(ks):
    worst = 0.0
    for k in ks:
        fam = BrachFamily(k)
        worst = max(worst, abs(2.0 * timing.half_transit_time(fam).tau
                               - closed.tunnel_time(fam.depth)))
    k0 = 2.0 * timing.half_transit_time(BrachFamily(0.0)).tau
    worst = max(worst, abs(k0 - math.pi))
    threshold = 1e-7
    return (worst < threshold and k0 == math.pi, worst, threshold,
            f"quadrature vs pi*sqrt(1-rho_min^2) off {worst:.1e} "
            f"< {threshold:.1e}; k=0 gives pi exactly: {k0 == math.pi}")


@_register("oracle-triangle", 6,
           reduced=dict(separations=(math.pi / 2,), interior_points=24,
                        samples=1500),
           full=dict(separations=(math.pi / 6, math.pi / 2, 5 * math.pi / 6),
                     interior_points=64, samples=10_000))
def oracle_triangle(separations, interior_points, samples):
    worst = 0.0
    undercut = -math.inf
    for delta in separations:
        fam = family_from_separation(delta)
        t_quad = 2.0 * timing.half_transit_time(fam).tau
        report = oracle_mod.optimize_path(delta, interior_points)
        t_bead = oracle_mod.simulate_bead(brach.sample_path(fam, samples)).transit_time
        times = (t_quad, report.best_time, t_bead)
        worst = max(worst, max(abs(a - b) / t_quad for a in times for b in times))
        undercut = max(undercut, t_quad - report.best_time)
    threshold = 5e-3
    limit = 1e-6
    return (worst < threshold and undercut <= limit, worst, threshold,
            f"quadrature/optimizer/bead pairwise within {worst:.2e} "
            f"< {threshold:.1e}; optimizer undercut {undercut:.1e} <= {limit:.1e}")


@_register("stationarity", 7,
           reduced=dict(ks=(1.0,), modes=(1, 3), amplitudes=(1e-3, 2e-3),
                        ratio_amplitudes=(1e-3,)),
           full=dict(ks=K_THREE, modes=(1, 2, 3, 4, 5),
                     amplitudes=(1e-4, 1e-3, 1e-2), ratio_amplitudes=(5e-4, 5e-3)))
def stationarity(ks, modes, amplitudes, ratio_amplitudes):
    worst_delta = 0.0
    ratio_off = 0.0
    for k in ks:
        fam = BrachFamily(k)
        for mode in modes:
            for amp in amplitudes:
                worst_delta = min(worst_delta,
                                  oracle_mod.perturbation_test(fam, amp, mode))
            for amp in ratio_amplitudes:
                ratio = (oracle_mod.perturbation_test(fam, 2 * amp, mode)
                         / oracle_mod.perturbation_test(fam, amp, mode))
                ratio_off = max(ratio_off, abs(ratio - 4.0))
    threshold = 1e-9
    # 0.0 - x rather than -x, so a zero delta reads +0 and not -0
    return (worst_delta >= -threshold and ratio_off <= 0.3, 0.0 - worst_delta,
            threshold,
            f"most negative delta {worst_delta:.1e} >= -{threshold:.1e}; "
            f"doubling ratio within 4.0 +/- {ratio_off:.2f} (limit 0.3)")


def _drift_path(kind, value, samples):
    if kind == "chord":
        return chord_mod.chord_path(ChordSpec(value), samples)
    fam = (BrachFamily(value) if kind == "k"
           else family_from_separation(value))
    return brach.sample_path(fam, samples)


@_register("energy-drift", 8,
           reduced=dict(paths=(("chord", 2.0), ("k", 1.0)), samples=1001),
           full=dict(paths=(("chord", math.pi), ("chord", math.pi / 2),
                            ("separation", math.pi / 2), ("k", 1.0),
                            ("separation", 5 * math.pi / 6)),
                     samples=10_000))
def energy_drift(paths, samples):
    worst = max(oracle_mod.simulate_bead(_drift_path(kind, value, samples))
                .max_energy_drift for kind, value in paths)
    threshold = 1e-8
    return (worst < threshold, worst, threshold,
            f"bead energy drift {worst:.1e} < {threshold:.1e} on all test paths")


@_register("small-arc-limit", 9,
           reduced=dict(separations=(0.1, 0.05)),
           full=dict(separations=(0.2, 0.1, 0.05, 0.025)))
def small_arc(separations):
    reports = [cycloid_mod.compare_small_arc(d) for d in separations]
    times = [r.relative_time_difference for r in reports]
    devs = [r.max_geometry_deviation for r in reports]
    monotone = (all(a > b for a, b in zip(times, times[1:]))
                and all(a > b for a, b in zip(devs, devs[1:])))
    orders = [float(np.polyfit(np.log(separations), np.log(series), 1)[0])
              for series in (times, devs)]
    at_tenth = times[separations.index(0.1)]   # both tables hold 0.1 rad
    threshold = 1e-2
    passed = (monotone and min(orders) >= 1.0 and at_tenth < threshold
              and abs(at_tenth - 0.00799) < 3e-4)
    return (passed, at_tenth, threshold,
            f"monotone: {monotone}, orders {orders[0]:.2f}/{orders[1]:.2f} "
            f">= 1, rel time diff at 0.1 rad = {at_tenth:.4f} < {threshold:.1e}")


@_register("depth-span-ratio", 10,
           reduced=dict(separations=tuple(np.linspace(0.05, math.pi, 9))),
           full=dict(separations=tuple(np.linspace(0.01, math.pi, 50))))
def depth_span_ratio(separations):
    worst = max(abs((1.0 - family_from_separation(d).rho_min) / d
                    - 1.0 / math.pi) for d in separations)
    threshold = 1e-12
    return (worst < threshold, worst, threshold,
            f"(1 - rho_min)/separation vs 1/pi off {worst:.1e} < {threshold:.1e}")
