"""Minimum-time tunnels through a uniform-density sphere.

The package computes the straight-chord gravity-train baseline (transit
time pi in units of sqrt(R/g) for every chord), the closed-form family
of minimum-time tunnels between two surface points, and their transit
times, and verifies the closed forms with three independent numerical
routes: singular quadrature of the time functional, direct transcription
optimization over discrete paths, and constrained-bead dynamics.
"""

from .brachistochrone import (BrachFamily, arc_length, family_from_separation,
                              rho_at_theta, rho_min, sample_path,
                              separation_angle, theta_of_rho, theta_prime)
from .chord import (ChordSpec, chord_from_separation, chord_path,
                    chord_position, chord_transit_time)
from .core import (DOMAIN_EPS, DiscretePath, PhysicalParams, PolarPoint,
                   Scaling, dimensional_time, latitude_to_polar, make_scaling,
                   potential_per_mass, radial_acceleration, speed_at_radius)
from .cycloid import (CycloidSolution, SmallArcComparison, compare_small_arc,
                      cycloid_between, cycloid_time, cycloid_xy)
from .errors import (DegenerateSegmentError, DomainError, InfiniteTimeError,
                     PathError, QuadratureError, StalledTrajectoryError,
                     TunnelError)
from .oracle import (OptimizationReport, SimulationTrace, StepControl,
                     optimize_path, perturbation_test, simulate_bead)
from .timing import (QuadratureConfig, TransitResult, arc_integral,
                     cumulative_path_times, half_transit_time,
                     path_transit_time, total_transit_time)

__version__ = "0.1.0"

__all__ = [
    "BrachFamily", "ChordSpec", "CycloidSolution", "DiscretePath",
    "DegenerateSegmentError", "DomainError", "DOMAIN_EPS",
    "InfiniteTimeError", "OptimizationReport", "PathError",
    "PhysicalParams", "PolarPoint", "QuadratureConfig", "QuadratureError",
    "Scaling", "SimulationTrace", "SmallArcComparison",
    "StalledTrajectoryError", "StepControl", "TransitResult", "TunnelError",
    "arc_integral", "arc_length", "chord_from_separation", "chord_path",
    "chord_position", "chord_transit_time", "compare_small_arc",
    "cumulative_path_times", "cycloid_between", "cycloid_time", "cycloid_xy",
    "dimensional_time", "family_from_separation", "half_transit_time",
    "latitude_to_polar", "make_scaling", "optimize_path", "path_transit_time",
    "perturbation_test", "potential_per_mass", "radial_acceleration",
    "rho_at_theta", "rho_min", "sample_path", "separation_angle",
    "simulate_bead", "speed_at_radius", "theta_of_rho", "theta_prime",
    "total_transit_time",
]
