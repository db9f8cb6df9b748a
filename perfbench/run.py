"""gravitunnel benchmark: seeded closed-loop workloads (see README.md).

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 25 --trace 0

Workloads: ``cli`` (a fresh CLI process per op), ``tabulate`` (in-process
tunnel description, ``rho_at_theta``-bound) and ``oracle`` (``verify``'s
oracle triangle and stationarity probe, bead-bound).

The set-up of a run (fresh worker, ``import gravitunnel``, one untimed
warm-up op) is measured ``SETUPS`` times and reported as its median.  With
``--trace 0`` the last line of output is a JSON object with every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics
named in BENCHMARK.json, and the full per-layer table is printed above
it.  Results, run metadata and spans are written under
``perfbench/results/``.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
SETUPS = 5
READY_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0      # a whole run ends within 180 s


class BenchError(Exception):
    pass


def worker_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def start_worker(args, env):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, setup_s


def stop(proc):
    if proc.poll() is None:
        try:
            proc.communicate("EXIT\n", timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


def run_worker(args, env):
    """Measure set-up SETUPS times; the last worker runs the timed phase.

    Returns the worker's result and the set-up times in seconds.
    """
    started = time.perf_counter()
    setups = []
    for k in range(SETUPS):
        proc, setup_s = start_worker(args, env)
        setups.append(setup_s)
        if k < SETUPS - 1:
            stop(proc)
    try:
        stdout, _ = proc.communicate(
            "GO\n", timeout=RUN_DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran out of time")
    lines = [ln for ln in stdout.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return json.loads(lines[-1][len("RESULT "):]), setups


def host_scales(records):
    """Per op, nominal over measured time of the nearby reference runs.

    The reference runs before an op and the ``REF_WINDOW`` before and
    after it bracket the op in time; their median is the host's speed
    while it ran.
    """
    refs = [r["ref_ms"] for r in records]
    k = calibration.REF_WINDOW
    return [1e3 * calibration.NOMINAL_S
            / statistics.median(refs[max(0, i - k):i + k + 1])
            for i in range(len(refs))]


def end_to_end(records, setups, peak_rss_mb, first_ops, scales=None):
    """The end-to-end metrics of one phase, as {name: (value, unit)}.

    Op times are multiplied by ``scales``, one per op, if given.
    ``rel_err_p50`` is taken over the ops with index below ``first_ops``,
    which every run of a seed holds, so it does not depend on the host's
    speed.
    """
    n = len(records)
    passed = [r for r in records if r["passed"]]
    latencies = sorted(r["ms"] * (scales[j] if scales else 1.0)
                       for j, r in enumerate(records))
    # the value with >= 10 samples above it, never below the median
    tail_index = max(n - 11, n // 2)
    deviations = [r["deviation"] for r in passed if r["i"] < first_ops]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (1e3 * len(passed) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (latencies[tail_index], "ms"),
        "failed_share": ((n - len(passed)) / n, "ratio"),
        "rel_err_p50": (statistics.median(deviations) if deviations
                        else math.nan, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    tail = {"percentile": 100.0 * (tail_index + 1) / n, "samples": n}
    return metrics, tail


def failure_tally(records):
    tally = Counter()
    for r in records:
        for reason in set(r["reasons"]):
            tally[reason] += 1
    return dict(tally.most_common())


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def metadata(args):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "git_commit": git_commit(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "src_lines": src_lines}


def per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def print_table(title, metrics):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")


def phase_metrics(args, records, setups, peak_rss_mb):
    """End-to-end metrics of a phase: (reported, tail, raw).

    In-process op times are scaled to the host's nominal speed (see
    calibration.py).  ``cli`` op times and set-up times are reported raw:
    the reference does not track process start-up and import across
    runs.  ``raw`` holds every metric from unscaled times.
    """
    layout = workloads.LAYOUTS[args.workload]
    first_ops = layout.min_blocks * layout.block
    raw, tail = end_to_end(records, setups, peak_rss_mb, first_ops)
    if args.workload == "cli":
        return raw, tail, raw
    reported, _ = end_to_end(records, setups, peak_rss_mb, first_ops,
                             host_scales(records))
    return reported, tail, raw


def summarize(args, result, setups):
    """Print the tables, write the results file; returns the final JSON."""
    meta = metadata(args)
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        phase = result["traced"]
        untraced, _, _ = phase_metrics(args, result["untraced"]["records"],
                                       setups, result["peak_rss_mb"])
        traced, tail, raw = phase_metrics(args, phase["records"], setups,
                                          result["peak_rss_mb"])
        layers = {name: tuple(v) for name, v in result["layers"].items()}
        layers["trace.overhead_share"] = (
            1.0 - traced["ops_per_s"][0] / untraced["ops_per_s"][0], "ratio")
        print_table("per-layer metrics (traced phase, per op)", layers)
        wanted = per_layer_names()
        reported = {k: layers[k] for k in wanted}
        spans_file = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with spans_file.open("w") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")
    else:
        phase = result
        reported, tail, raw = phase_metrics(args, phase["records"], setups,
                                            result["peak_rss_mb"])
        layers = {}
    records = phase["records"]
    n = len(records)
    edge = sum(1 for r in records if r["edge"])
    bulk_wrong = sum(1 for r in records if not r["edge"] and r["wrong"])
    summary = {
        "correct": bulk_wrong == 0,
        "attempted": n,
        "failed": sum(1 for r in records if not r["passed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    if not args.trace:
        print_table("end-to-end metrics", reported)
    print(f"# ops {n}: bulk share {(n - edge) / n:.3f}, edge share {edge / n:.3f};"
          f" tail is p{tail['percentile']:.1f} of {tail['samples']} ops;"
          f" loop {phase['elapsed_s']:.1f} s; raw set-ups "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    for reason, count in failure_tally(records).items():
        print(f"# failed {count:4d}  {reason}")
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "metadata": meta, "summary": summary, "tail": tail,
        "setups_s": setups, "loop_s": phase["elapsed_s"],
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "failures": failure_tally(records),
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "records": records}, indent=1))
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("cli", "tabulate", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gravitunnel" / "__init__.py").is_file():
        print(f"perfbench: no gravitunnel sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, setups = run_worker(args, worker_env())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary = summarize(args, result, setups)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
