"""Spans around calls into gravitunnel's modules, and the per-layer table.

The benchmark times each module from outside: in a traced phase it
replaces the public functions below, on their modules, with wrappers
that record a span (name, start, end, parent, op id) and restores them
afterwards.  Calls that a module makes through a name it imported
directly (cycloid's own ``total_transit_time``, the optimizer's
``_segment_times``) are not wrapped and stay inside their caller's span.
"""

import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import closed_form_time

LAYERS = {
    "brachistochrone": ("family_from_separation", "sample_path",
                        "rho_at_theta", "arc_length"),
    "timing": ("total_transit_time", "path_transit_time",
               "cumulative_path_times"),
    "chord": ("chord_path",),
    "cycloid": ("compare_small_arc",),
    "oracle": ("optimize_path", "simulate_bead", "perturbation_test"),
    "cli": ("main",),
}


def _probe_transit(args, result):
    return {"evaluations": result.evaluations}


def _probe_angles(args, result):
    return {"angles": int(getattr(result, "size", 1))}


def _probe_optimizer(args, result):
    ref = closed_form_time(float(args[0]))
    return {"iterations": result.iterations, "converged": result.converged,
            "rel_err": abs(result.best_time - ref) / ref}


def _probe_bead(args, result):
    ref = closed_form_time(args[0].endpoint_separation())
    return {"trace_points": len(result.tau),
            "max_energy_drift": result.max_energy_drift,
            "rel_err": abs(result.transit_time - ref) / ref}


def _probe_cli(args, result):
    return {"subcommand": args[0][0]}


PROBES = {
    "timing.total_transit_time": _probe_transit,
    "brachistochrone.rho_at_theta": _probe_angles,
    "oracle.optimize_path": _probe_optimizer,
    "oracle.simulate_bead": _probe_bead,
    "cli.main": _probe_cli,
}


class Tracer:
    """Spans of one phase, kept in memory until the phase ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    @contextmanager
    def span(self, name):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op_id, "attrs": {}, "error": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if probe is not None:
                    rec["attrs"].update(probe(args, result))
                return result
        return traced

    def install(self, package):
        """Wrap every layer function; returns a callable that undoes it."""
        saved = []
        for module_name, names in LAYERS.items():
            module = getattr(package, module_name)
            for fn_name in names:
                original = getattr(module, fn_name)
                saved.append((module, fn_name, original))
                setattr(module, fn_name,
                        self.wrap(f"{module_name}.{fn_name}", original))

        def restore():
            for module, fn_name, original in saved:
                setattr(module, fn_name, original)
        return restore


def layer_metrics(spans, n_ops):
    """Per-layer numbers from one traced phase, as {name: (value, unit)}."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    op_spans = []
    for i, rec in enumerate(spans):
        by_name[rec["name"]].append(rec)
        if rec["name"] == "op":
            op_spans.append(i)
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    n_ops = max(n_ops, 1)

    def busy_ms(name):
        return 1e3 * sum(r["end"] - r["start"] for r in by_name[name])

    def attrs(name, key):
        return [r["attrs"][key] for r in by_name[name] if key in r["attrs"]]

    def median(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for module_name, names in LAYERS.items():
        for fn_name in names:
            name = f"{module_name}.{fn_name}"
            key = "cli.main_ms" if name == "cli.main" else f"{name}.ms"
            out[key] = (busy_ms(name) / n_ops, "ms")
    for sub in sorted(set(attrs("cli.main", "subcommand"))):
        recs = [r for r in by_name["cli.main"]
                if r["attrs"].get("subcommand") == sub]
        out[f"cli.main.{sub}_ms"] = (
            1e3 * statistics.median(r["end"] - r["start"] for r in recs), "ms")

    transit = "timing.total_transit_time"
    out[f"{transit}.evaluations"] = (median(attrs(transit, "evaluations")),
                                     "count")
    out[f"{transit}.failed"] = (
        sum(1 for r in by_name[transit] if r["error"]), "count")
    angles = sum(attrs("brachistochrone.rho_at_theta", "angles"))
    out["brachistochrone.rho_at_theta.us_per_angle"] = (
        1e3 * busy_ms("brachistochrone.rho_at_theta") / angles if angles else 0.0,
        "us")

    opt = "oracle.optimize_path"
    out[f"{opt}.iterations"] = (median(attrs(opt, "iterations")), "count")
    calls = len(by_name[opt])
    out[f"{opt}.converged_share"] = (
        sum(attrs(opt, "converged")) / calls if calls else 0.0, "ratio")
    out[f"{opt}.rel_err"] = (median(attrs(opt, "rel_err")), "ratio")
    bead = "oracle.simulate_bead"
    out[f"{bead}.trace_points"] = (median(attrs(bead, "trace_points")), "count")
    out[f"{bead}.max_energy_drift"] = (
        max(attrs(bead, "max_energy_drift"), default=0.0), "ratio")
    out[f"{bead}.rel_err"] = (median(attrs(bead, "rel_err")), "ratio")

    self_ms = [1e3 * (spans[i]["end"] - spans[i]["start"] - child_time[i])
               for i in op_spans]
    out["op.self_ms"] = (statistics.mean(self_ms) if self_ms else 0.0, "ms")
    return out


def _parse_importtime(text):
    """Cumulative import time (us) per package, counting each nest once."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = defaultdict(int)
    stack = []                      # ancestors, parents are printed last
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if not stack or stack[-1][1].split(".")[0] != top:
            totals[top] += cumulative
        stack.append((depth, name))
    return totals


def import_metrics(env, repeats=3):
    """Fresh-interpreter import and start-up costs, medians of ``repeats``."""
    probes = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import gravitunnel"], env=env,
                              capture_output=True, text=True, timeout=120)
        totals = _parse_importtime(proc.stderr)
        for package in ("gravitunnel", "scipy", "numpy"):
            probes[f"import.{package}_ms"].append(totals[package] / 1e3)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=60)
        probes["cli.interpreter_ms"].append(1e3 * (time.perf_counter() - start))
    return {name: (statistics.median(values), "ms")
            for name, values in probes.items()}
