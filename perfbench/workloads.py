"""Seeded inputs, operations and per-op correctness checks.

Every op is built from ``(workload, seed, index)`` alone, so a seed fixes
the whole input stream.  Ops come in blocks, laid out per workload by
``LAYOUTS``:

* Bulk ops take separations with the density sin(d)/2 on (0, pi], the
  distance between two uniformly random surface points.  A block holds
  one quantile in each of its equal strata, shifted within the stratum by
  the seed and by successive halvings from block to block (see
  ``Stream.op``), so every block covers the distribution evenly and runs
  of different seeds see the same mix; the seed also shuffles their order
  within a block.
* Edge ops sit at fixed slots and probe fixed points near both ends of
  the documented domain.  They are never filtered or re-drawn when they
  fail, and the failed share of a run does not depend on how many blocks
  fit in it.
* An oracle slot runs ``verify``'s oracle triangle and stationarity probe
  (``run_oracle``) at the fixed 0.9 quantile, 2.498 rad.  There the bead
  takes about 2.5 s; at mid separations it takes about 7 s.

``cli`` and ``tabulate`` use blocks of 20 with two edge ops (10%): 1e-12
and pi itself in even blocks, 1e-6 and pi - 1e-6 in odd ones.  A
``tabulate`` block also holds one oracle slot, so its 17 other bulk ops
share the block with the bead simulator and the optimizer.  An ``oracle``
op takes up to 15 s, so its block is one run: three bulk strata, the
seed moving each quantile by at most a tenth of its stratum around the
stratum's middle, and two edge ops at 1e-12 and pi.

Bounds come from the package's own checks (``gravitunnel verify`` and
the test suite) and are never looser.  They are of two kinds.  Exact
limits hold at every separation: agreement with a closed form, no
discrete path beating the optimum, energy drift, ``rho_at_theta`` in
range.  Tolerance limits are ``verify``'s agreement of discrete routes
(5e-3 pairwise, chord polyline 1e-4, stationarity), met at the points
``verify`` checks but not at every separation.  Missing either fails the
op; an op that raises or misses an exact limit is also marked wrong.
"""

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Layout:
    """How a workload's ops fill a block, and how many blocks a phase runs."""

    block: int
    # slot -> (end of the domain, offset from it) in even and in odd blocks
    edge_slots: dict
    oracle_slots: tuple     # slots that run the oracle at ORACLE_SLOT_U
    min_blocks: int         # a phase runs at least this many whole blocks
    jitter: float           # share of a stratum the seed may shift a quantile


_EDGES_20 = {9: (("low", 1e-12), ("low", 1e-6)),
             19: (("high", 0.0), ("high", 1e-6))}
LAYOUTS = {
    "cli": Layout(20, _EDGES_20, (), 3, 1.0),
    "tabulate": Layout(20, _EDGES_20, (14,), 4, 1.0),
    "oracle": Layout(5, {1: (("low", 1e-12),) * 2, 4: (("high", 0.0),) * 2},
                     (), 1, 0.2),
}
ORACLE_SLOT_U = 0.9

# bounds used by `gravitunnel verify` and the tests
TRANSIT_ABS = 1e-7          # quadrature transit time vs closed form
ARC_ABS = 1e-9              # arc length vs reference
TRIANGLE_REL = 5e-3         # pairwise agreement of discrete routes
UNDERCUT_ABS = 1e-6         # a discrete path may not beat the optimum
CHORD_REL = 1e-4            # polyline chord time vs pi
DRIFT_MAX = 1e-8            # bead energy drift
STATIONARY_MIN = -1e-9      # most negative perturbation delta
RATIO_OFF_MAX = 0.3         # |delta(2a)/delta(a) - 4|
MIRROR_ABS = 1e-12          # rho_at_theta mirror symmetry

# Resolution of a reported number: float64 in process and in structured
# output, 12 significant digits in csv.  A smaller deviation cannot be
# observed, so it is reported as the resolution.
RESOLUTION = {"float": 2.0 ** -52, "csv": 5e-12}

CYCLOID_MAX_SEP = 0.2       # compare-cycloid's documented domain is (0, 0.2]
TABULATE_SAMPLES = 10_000
TABULATE_ANGLES = 1000
ORACLE_INTERIOR = 24
ORACLE_SAMPLES = 1500

CLI_CYCLE = (("time", "csv"), ("time", "structured"),
             ("sweep", "structured"), ("sweep", "csv"),
             ("path", "csv"), ("path", "structured"),
             ("compare-cycloid", "structured"), ("compare-cycloid", "csv"))

WARMUP_SEP = math.pi / 2.0
ORACLE_WARMUP_SEP = 3.1


def closed_form_time(d):
    """pi*sqrt(1 - rho_min^2) with rho_min = 1 - d/pi, without cancellation."""
    q = d / math.pi
    return math.pi * math.sqrt(q * (2.0 - q))


def closed_form_arc(d):
    q = d / math.pi
    return 2.0 * q * (2.0 - q)


def bulk_separation(u, top=math.pi):
    """Inverse CDF of the density sin(d)/2, restricted to (0, top]."""
    return math.acos(1.0 - u * (1.0 - math.cos(top)))


@dataclass(frozen=True)
class Op:
    index: int
    edge: bool
    u: float                # bulk quantile, or -1 for an edge op
    edge_point: tuple       # (end, offset) for an edge op
    aux_seed: int           # seeds the op's other arguments
    oracle: bool = False    # runs run_oracle inside another workload

    def separation(self, top=math.pi):
        if not self.edge:
            return bulk_separation(self.u, top)
        end, offset = self.edge_point
        return offset if end == "low" else top - offset


def radical_inverse(b):
    """Base-2 van der Corput point of b: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    out, scale = 0.0, 0.5
    while b:
        b, bit = divmod(b, 2)
        out += bit * scale
        scale /= 2.0
    return out


class Stream:
    """The op stream of one workload and seed."""

    def __init__(self, workload, seed):
        self.layout = LAYOUTS[workload]
        self.seed = int(seed)
        rng = random.Random(self.seed)
        self.shift = 0.5 + self.layout.jitter * (rng.random() - 0.5)
        self.fixed = (*self.layout.edge_slots, *self.layout.oracle_slots)
        self.order = list(range(self.layout.block - len(self.fixed)))
        rng.shuffle(self.order)

    def op(self, i):
        edges = self.layout.edge_slots
        block, slot = divmod(i, self.layout.block)
        aux = self.seed * 1_000_003 + i
        if slot in edges:
            return Op(i, True, -1.0, edges[slot][block % 2], aux)
        if slot in self.layout.oracle_slots:
            return Op(i, False, ORACLE_SLOT_U, (), aux, oracle=True)
        # Each block holds one bulk quantile in each of its equal strata:
        # a lattice shifted by the seed, and by successive halvings of a
        # stratum from block to block, so blocks interleave evenly.
        k = self.order[slot - sum(1 for s in self.fixed if s < slot)]
        offset = (self.shift + radical_inverse(block)) % 1.0
        return Op(i, False, (k + offset) / len(self.order), (), aux)


@dataclass
class Outcome:
    """What one op did: pass/fail, why, and its worst relative deviation.

    ``wrong`` is set when the op raised or missed an exact limit.
    """

    passed: bool = True
    wrong: bool = False
    reasons: list = field(default_factory=list)
    deviation: float = 0.0

    def fail(self, reason, exact=True):
        self.passed = False
        self.wrong = self.wrong or exact
        self.reasons.append(reason)

    def deviate(self, value, reference, resolution):
        self.deviation = max(self.deviation,
                             abs(value - reference) / reference, resolution)


def _step(outcome, layer, fn):
    """Run one step; a raise is recorded as a failure and returns None."""
    try:
        return fn()
    except Exception as exc:  # every raise is tallied, never dropped
        outcome.fail(f"{layer}: {type(exc).__name__}")
        return None


def _check_transit(outcome, layer, tau, ref, resolution):
    outcome.deviate(tau, ref, resolution)
    if not abs(tau - ref) <= TRANSIT_ABS:
        outcome.fail(f"{layer}: off closed form")


def _check_discrete(outcome, layer, tau, ref, resolution):
    """Triangle limits for a time measured on a discrete path."""
    outcome.deviate(tau, ref, resolution)
    if not ref - tau <= UNDERCUT_ABS:
        outcome.fail(f"{layer}: undercuts the optimum")
    if not abs(tau - ref) / ref <= TRIANGLE_REL:
        outcome.fail(f"{layer}: outside triangle limits", exact=False)


# --- tabulate ---------------------------------------------------------

def run_tabulate(op, g):
    """Describe one seeded tunnel with the library, in process."""
    brach, timing = g.brachistochrone, g.timing
    d = op.separation()
    ref = closed_form_time(d)
    res = RESOLUTION["float"]
    out = Outcome()
    fam = _step(out, "brachistochrone.family_from_separation",
                lambda: brach.family_from_separation(d))
    if fam is None:
        return out
    tr = _step(out, "timing.total_transit_time",
               lambda: timing.total_transit_time(fam))
    if tr is not None:
        _check_transit(out, "timing.total_transit_time", tr.tau, ref, res)
    arc = _step(out, "brachistochrone.arc_length", lambda: brach.arc_length(fam))
    if arc is not None and not abs(arc - closed_form_arc(d)) <= ARC_ABS:
        out.fail("brachistochrone.arc_length: off closed form")
    path = _step(out, "brachistochrone.sample_path",
                 lambda: brach.sample_path(fam, TABULATE_SAMPLES))
    if path is not None:
        pt = _step(out, "timing.path_transit_time",
                   lambda: timing.path_transit_time(path))
        if pt is not None:
            _check_discrete(out, "timing.path_transit_time", pt.tau, ref, res)
        cum = _step(out, "timing.cumulative_path_times",
                    lambda: timing.cumulative_path_times(path))
        if cum is not None:
            _check_discrete(out, "timing.cumulative_path_times",
                            float(cum[-1]), ref, res)
    thetas = np.linspace(-fam.separation_angle, 0.0, TABULATE_ANGLES)
    rho = _step(out, "brachistochrone.rho_at_theta",
                lambda: brach.rho_at_theta(fam, thetas))
    if rho is not None:
        inside = np.all((rho >= fam.rho_min) & (rho <= 1.0))
        mirror = float(np.max(np.abs(rho - rho[::-1])))
        if not (inside and mirror <= MIRROR_ABS):
            out.fail("brachistochrone.rho_at_theta: outside [rho_min, 1] "
                     "or not mirror symmetric")
    return out


# --- oracle -----------------------------------------------------------

def run_oracle(op, g):
    """verify's oracle triangle and stationarity probe at one separation.

    The three vertices run independently, so a raise in one still lets
    the others be measured and checked.
    """
    brach, timing, oracle = g.brachistochrone, g.timing, g.oracle
    d = op.separation()
    ref = closed_form_time(d)
    res = RESOLUTION["float"]
    out = Outcome()
    fam = _step(out, "brachistochrone.family_from_separation",
                lambda: brach.family_from_separation(d))
    if fam is None:
        return out
    times = {}
    tr = _step(out, "timing.total_transit_time",
               lambda: timing.total_transit_time(fam))
    if tr is not None:
        times["quadrature"] = tr.tau
        _check_transit(out, "timing.total_transit_time", tr.tau, ref, res)
    report = _step(out, "oracle.optimize_path",
                   lambda: oracle.optimize_path(d, ORACLE_INTERIOR))
    if report is not None:
        times["optimizer"] = report.best_time
        out.deviate(report.best_time, ref, res)
        base = times.get("quadrature", ref)
        if base - report.best_time > UNDERCUT_ABS:
            out.fail("oracle.optimize_path: undercuts the optimum")
    trace = _step(out, "oracle.simulate_bead",
                  lambda: oracle.simulate_bead(brach.sample_path(fam, ORACLE_SAMPLES)))
    if trace is not None:
        times["bead"] = trace.transit_time
        out.deviate(trace.transit_time, ref, res)
        if not trace.max_energy_drift <= DRIFT_MAX:
            out.fail("oracle.simulate_bead: energy drift")
    norm = times.get("quadrature", ref)
    worst = max((abs(a - b) / norm for a in times.values()
                 for b in times.values()), default=0.0)
    if not worst <= TRIANGLE_REL:
        out.fail("oracle triangle: pairwise disagreement", exact=False)

    def probe():
        deltas = {(mode, amp): oracle.perturbation_test(fam, amp, mode)
                  for mode in (1, 3) for amp in (1e-3, 2e-3)}
        worst_delta = min(0.0, *deltas.values())
        ratio_off = max(abs(deltas[m, 2e-3] / deltas[m, 1e-3] - 4.0)
                        for m in (1, 3))
        return worst_delta >= STATIONARY_MIN and ratio_off <= RATIO_OFF_MAX
    stationary = _step(out, "oracle.perturbation_test", probe)
    if stationary is False:
        out.fail("oracle.perturbation_test: not stationary", exact=False)
    return out


# --- cli --------------------------------------------------------------

def cli_argv(op):
    """Subcommand arguments of one cli op; formats alternate by position."""
    command, fmt = CLI_CYCLE[op.index % len(CLI_CYCLE)]
    aux = random.Random(op.aux_seed)
    if command == "compare-cycloid":
        d = op.separation(CYCLOID_MAX_SEP)
        return [command, "--sep", repr(d), "--format", fmt]
    d = op.separation()
    if command == "time":
        argv = [command, "--sep", repr(d), "--format", fmt]
        if aux.random() < 0.5:
            argv += ["--body", "earth"]
        return argv
    if command == "sweep":
        other = bulk_separation(aux.random())
        lo, hi = sorted((d, other))
        return [command, "--sep-range", f"{lo!r}:{hi!r}",
                "--count", str(aux.randint(2, 20)),
                "--spacing", aux.choice(("log", "linear")), "--format", fmt]
    argv = [command, "--sep", repr(d), "--include-chord", "--format", fmt]
    if not op.edge:
        argv += ["--samples", str(aux.randint(50, 1000))]
    return argv


def _option(argv, name):
    return argv[argv.index(name) + 1]


def _cli_results(argv, stdout):
    """The transit times one CLI call printed, as {curve: [values]}."""
    command, fmt = argv[0], _option(argv, "--format")
    if fmt == "csv":
        lines = [ln for ln in stdout.splitlines()
                 if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        rows = [ln.split(",") for ln in lines[1:]]
    else:
        payload = json.loads(stdout)
    if command in ("time", "compare-cycloid"):
        key = "tunnel_tau" if command == "time" else "sphere_time"
        return {"tunnel": [float(dict(rows)[key]) if fmt == "csv"
                           else payload[key]]}
    if command == "sweep":
        if fmt == "csv":
            return {"tunnel": [float(r[header.index("tau")]) for r in rows]}
        col = payload["columns"].index("tau")
        return {"tunnel": [r[col] for r in payload["rows"]]}
    if fmt == "csv":
        tau = header.index("tau")
        return {name: [float(r[tau]) for r in rows if r[0] == name]
                for name in ("tunnel", "chord")}
    return {name: c["tau"] for name, c in payload["curves"].items()}


def check_cli(argv, returncode, stdout):
    """Check one CLI call: exit 0, parseable output, times on the closed form."""
    out = Outcome()
    command = argv[0]
    if returncode != 0:
        out.fail(f"cli {command}: exit {returncode}")
        return out
    try:
        times = _cli_results(argv, stdout)
    except (ValueError, IndexError, KeyError, TypeError):
        out.fail(f"cli {command}: unparseable output")
        return out
    res = RESOLUTION["csv" if _option(argv, "--format") == "csv" else "float"]
    if command == "sweep":
        lo, hi = (float(x) for x in _option(argv, "--sep-range").split(":"))
        count = int(_option(argv, "--count"))
        space = np.geomspace if _option(argv, "--spacing") == "log" else np.linspace
        if len(times["tunnel"]) != count:
            out.fail("cli sweep: wrong row count")
        for sep, tau in zip(space(lo, hi, count), times["tunnel"]):
            _check_transit(out, "cli sweep", tau, closed_form_time(float(sep)),
                           res)
    elif command in ("time", "compare-cycloid"):
        ref = closed_form_time(float(_option(argv, "--sep")))
        _check_transit(out, f"cli {command}", times["tunnel"][0], ref, res)
    else:
        ref = closed_form_time(float(_option(argv, "--sep")))
        _check_discrete(out, "cli path tunnel", times["tunnel"][-1], ref, res)
        if not abs(times["chord"][-1] - math.pi) / math.pi <= CHORD_REL:
            out.fail("cli path chord: off pi", exact=False)
    return out


def run_cli_process(argv, env, timeout=120):
    """One fresh CLI process; returns (returncode, stdout)."""
    try:
        proc = subprocess.run([sys.executable, "-m", "gravitunnel.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    return proc.returncode, proc.stdout


def warmup_op(workload):
    """The fixed, untimed op a fresh worker runs before it reports ready."""
    sep = ORACLE_WARMUP_SEP if workload == "oracle" else WARMUP_SEP
    return Op(0, False, (1.0 - math.cos(sep)) / 2.0, (), 0)
