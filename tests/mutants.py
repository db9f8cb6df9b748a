"""Mutant ledger and its runner: each entry breaks one clause or constant
of the package, and names the tests that must then fail.

Run from anywhere, with pytest installed:

    python tests/mutants.py

Before the mutants, the named tests run once on an unchanged copy, and
must pass there.  Then, for each mutant, `src/` is copied to a
temporary directory, the old text, which must occur exactly once in its
file, is replaced by the new text, and only the mutant's tests run
(`pytest -x -p no:cacheprovider`) with PYTHONPATH on the copy.  A mutant
is killed when pytest exits 1, i.e. a test failed; exit 0 means it
survived, and any other exit is an error.  The script exits 1 unless
every mutant is killed.  pytest does not collect this file: its name
does not start with test_.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECKS = "tests/test_checks.py::"
CONTRACT = "tests/test_package.py::test_domain_errors_name_the_input"
TIMING = "tests/test_timing.py::"
RHO_SOLVE = "tests/test_brachistochrone.py::TestRhoAtThetaSolve::"

# (file under src/gravitunnel, old text, new text, tests that must kill it)
LEDGER = (
    ("checks.py", "min(orders) >= 1.0", "min(orders) >= -9.0",
     [CHECKS + "test_small_arc_rejects_a_series_of_order_one_half"]),
    ("checks.py", "passed = (monotone and min(orders)",
     "passed = (min(orders)",
     [CHECKS + "test_small_arc_rejects_a_series_that_is_not_monotone"]),
    ("checks.py", "worst < threshold and undercut <= limit",
     "worst < threshold",
     [CHECKS + "test_oracle_triangle_rejects_an_optimizer_undercut"]),
    ("checks.py", "worst < threshold and undercut <= limit",
     "undercut <= limit",
     [CHECKS + "test_oracle_triangle_rejects_a_pairwise_miss"]),
    ("checks.py", "(worst < threshold, worst, threshold,\n"
     "            f\"bead energy drift", "(True, worst, threshold,\n"
     "            f\"bead energy drift",
     [CHECKS + "test_energy_drift_rejects_a_drift_of_2e_8"]),
    ("checks.py", "ratio_off <= 0.3", "ratio_off <= 3.0",
     [CHECKS + "test_stationarity_rejects_a_doubling_ratio_of_4_5"]),
    ("checks.py", "/ 2531.9 < 5e-4", "/ 2531.9 < 5e-1",
     [CHECKS + "test_chord_time_rejects_earth_seconds_one_percent_off"]),
    ("oracle.py", "_RESIDUAL_THRESHOLD = 1e-6", "_RESIDUAL_THRESHOLD = 1e-2",
     ["tests/test_oracle.py::TestOptimizePath::"
      "test_step_cap_short_of_the_residual_threshold"]),
    ("oracle.py", "abs(gap) <= 1e-6 * max(", "abs(gap) <= 1e-2 * max(",
     ["tests/test_oracle.py::TestSimulateBead::"
      "test_turnaround_just_short_of_the_end_stalls"]),
    ("cycloid.py", "if abs(step * sin_p) <= 1e-15:",
     "if abs(step * sin_p) <= 1e-6:",
     ["tests/test_cycloid.py::TestSmallArc::"
      "test_geometry_deviation_against_mpmath[0.2]"]),
    ("timing.py", "error = abs(tau - float(np.sum(coarse)))",
     "error = 0.5 * abs(tau - float(np.sum(coarse)))",
     [TIMING + "test_error_estimate_is_the_every_other_sample_gap"]),
    ("timing.py", "_REL_TOL = 1e-10", "_REL_TOL = 1e-5",
     [TIMING + "TestHalfTransit::test_k1"]),
    ("timing.py", "_MAX_LEVEL = 6", "_MAX_LEVEL = 3",
     [TIMING + "TestArcIntegral::test_quadrature_within_1e12_of_mpmath"]),
    ("timing.py", "_T_MAX = 3.2", "_T_MAX = 2.5",
     [TIMING + "TestArcIntegral::test_quadrature_within_1e12_of_mpmath"]),
    ("timing.py", "(length == 0.0) & (nu0 == 0.0)", "(length == 0.0)",
     [TIMING + "TestPathTransit::"
      "test_zero_length_interior_segment_is_skipped"]),
    ("timing.py", "return _mirrored_times if path._mirrored else _segment_times",
     "return _segment_times",
     [TIMING + "test_sampled_path_runs_the_kernel_once"]),
    ("brachistochrone.py", "_ULPS = 8", "_ULPS = 2",
     [RHO_SOLVE + "test_cost_per_angle"]),
    ("brachistochrone.py", "_NEWTON_STEPS = 2", "_NEWTON_STEPS = 0",
     [RHO_SOLVE + "test_cost_per_angle"]),
    ("brachistochrone.py", "    if redo.size:\n", "    if False:\n",
     [RHO_SOLVE + "test_missed_seeds_bisect_the_whole_bracket"]),
    ("closed.py", "half_chord = property(lambda self: math.sin(",
     "half_chord = property(lambda self: math.cos(",
     ["tests/test_chord.py::test_chord_spec_values"]),
    ("cycloid.py", "self.horizontal_span / (2.0 * math.pi)",
     "self.horizontal_span / math.pi",
     ["tests/test_cycloid.py::TestCycloidBetween::"
      "test_level_endpoints_full_arch"]),
    ("closed.py", "math.sqrt(self.radius_m / self.gravity_m_s2)",
     "math.sqrt(self.gravity_m_s2 / self.radius_m)",
     ["tests/test_closed.py::test_units_of_earth"]),
    ("timing.py", "if np.abs(off, out=off).max() > DOMAIN_EPS:", "if False:",
     [TIMING + "TestDiscretePath::test_depth"]),
    ("closed.py", "math.sqrt(x * (2.0 - x))", "math.sqrt(x * (2.0 + x))",
     ["tests/test_brachistochrone.py::TestFamily::test_right_angle",
      "tests/test_brachistochrone.py::TestFamily::test_round_trip_bijection"]),
    ("closed.py", '_real(radius_m, "radius_m", _ABOVE_ZERO)', "radius_m",
     ["tests/test_package.py::test_record_fields_are_floats[PhysicalParams]",
      "tests/test_package.py::test_record_rejects_bad_fields"
      "[PhysicalParams-radius_m=six]"]),
    ("oracle.py",
     "lambda self: self.first_order_residual <= _RESIDUAL_THRESHOLD)",
     "lambda self: True)",
     ["tests/test_oracle.py::TestOptimizePath::"
      "test_non_convergence_reports_instead_of_raising"]),
    ("cycloid.py", "return x / (1.0 + math.sqrt(1.0 - x))",
     "return 1.0 - math.sqrt(1.0 - x)",
     ["tests/test_cycloid.py::TestSmallArc::"
      "test_relative_time_difference_within_4_ulp"]),
    ("closed.py", "    if not lo <= number <= hi:\n", "    if False:\n",
     [CONTRACT + "[rho_min-k=nan]",
      CONTRACT + "[compare_small_arc-delta_theta=nan]"]),
    ("closed.py", "    if not count.is_integer():\n", "    if False:\n",
     [CONTRACT + "[sample_path-n=2.5]", CONTRACT + "[chord_path-n=2.5]"]),
    ("closed.py", "    if not isinstance(value, kind):\n", "    if False:\n",
     [CONTRACT + "[cycloid_time-sol=1.0]",
      CONTRACT + "[path_transit_time-path=BrachFamily(k=1.0)]"]),
    ("timing.py", "        arr = np.array(math.nan)\n", "        raise\n",
     [CONTRACT + "[theta_of_rho-rho=[0.9, 'x']]",
      CONTRACT + "[DiscretePath-rho=[0.5, 'x']]"]),
    ("timing.py", "                _real(item, name, lo_in, hi_in)\n",
     "                pass\n",
     [CONTRACT + "[theta_prime-rho=[0.9, nan]]",
      CONTRACT + "[rho_at_theta-theta=[-0.5, None]]"]),
)


def run_tests(src, tests):
    """pytest's exit code and output for the tests, importing from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=1800)
    return done.returncode, done.stdout + done.stderr


def mutated_copy(tmp, file=None, old=None, new=None):
    """Copy src/ under tmp, with old replaced by new in file; its path."""
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if file is not None:
        path = src / "gravitunnel" / file
        text = path.read_text()
        if text.count(old) != 1:
            raise ValueError(f"{file}: {old!r} occurs {text.count(old)} "
                             "times, not once")
        path.write_text(text.replace(old, new))
    return src


def main():
    tests = sorted({test for *_, named in LEDGER for test in named})
    with tempfile.TemporaryDirectory() as tmp:
        code, output = run_tests(mutated_copy(tmp), tests)
    if code != 0:
        print(output)
        print(f"the named tests fail on the unchanged source (exit {code})")
        return 1
    failures = 0
    for number, (file, old, new, named) in enumerate(LEDGER, 1):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                code, output = run_tests(mutated_copy(tmp, file, old, new),
                                         named)
            except (ValueError, subprocess.TimeoutExpired) as err:
                code, output = None, str(err)
        verdict = {1: "killed", 0: "SURVIVED"}.get(code, "ERROR")
        print(f"{number:2d} {verdict:8s} {file}: {old.strip()!r} -> "
              f"{new.strip()!r}", flush=True)
        if code != 1:
            failures += 1
            print(output)
    print(f"{len(LEDGER) - failures} of {len(LEDGER)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
