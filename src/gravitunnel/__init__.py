"""Minimum-time tunnels through a uniform-density sphere.

The package computes the straight-chord gravity-train baseline (transit
time pi in units of sqrt(R/g) for every chord), the closed-form family
of minimum-time tunnels between two surface points, and their transit
times, and verifies the closed forms with three independent numerical
routes: singular quadrature of the time functional, direct transcription
optimization over discrete paths, and constrained-bead dynamics.

Only the math-only closed forms (`closed`) and the error types load
with the package; every other name, and every submodule, is imported
on first use, so a caller that needs no array never loads numpy.
"""

import importlib

from .closed import (DOMAIN_EPS, BrachFamily, ChordSpec, PhysicalParams,
                     TransitResult, arc_length, chord_transit_time,
                     dimensional_time, family_from_separation, rho_min,
                     separation_angle, total_transit_time)
from .errors import (DegenerateSegmentError, DomainError, PathError,
                     QuadratureError, StalledTrajectoryError, TunnelError)

__version__ = "0.1.0"

# Names resolved on first access, by the submodule that defines them.
_LAZY = {
    "brachistochrone": ("rho_at_theta", "sample_path", "theta_of_rho",
                        "theta_prime"),
    "chord": ("chord_path",),
    "cycloid": ("CycloidSolution", "SmallArcComparison", "compare_small_arc",
                "cycloid_time"),
    "oracle": ("OptimizationReport", "SimulationTrace", "optimize_path",
               "perturbation_test", "simulate_bead"),
    "timing": ("DiscretePath", "arc_integral", "cumulative_path_times",
               "half_transit_time", "path_transit_time"),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = frozenset(_LAZY) | {"checks", "cli"}

# Every public name, each listed once: the eager imports above (the float
# DOMAIN_EPS has no __module__ to mark it) and the lazy names.
__all__ = [name for name, value in globals().items()
           if getattr(value, "__module__", None)
           in (f"{__name__}.closed", f"{__name__}.errors")
           ] + ["DOMAIN_EPS"] + list(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE) | _SUBMODULES)
