"""Benchmark worker: one client, one thread, one closed loop.

Started fresh by ``run.py``.  It imports gravitunnel, runs one untimed
warm-up op and prints ``READY``; the parent times that much as set-up.
It then reads one line from stdin: ``EXIT`` ends it, ``GO`` starts the
timed phase, after which it prints one ``RESULT`` line of JSON.

A phase runs whole blocks of ops (see ``workloads.LAYOUTS``) until at
least the requested seconds have passed, and at least the workload's
minimum number of blocks, so every run holds the same share of edge ops
and the same first blocks.  With ``--trace 1`` the worker runs an
untraced phase and then a traced one over the same ops, each for half
the time; the spans come only from the traced phase.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import warnings

import calibration
import tracing
import workloads as wl


class Runner:
    """Runs one op of a workload; ``tracer`` is set during a traced phase."""

    def __init__(self, workload, package):
        self.workload = workload
        self.g = package
        self.tracer = None
        self.env = os.environ.copy()

    def span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def run(self, op):
        if self.workload == "oracle" or op.oracle:
            return wl.run_oracle(op, self.g)
        if self.workload == "tabulate":
            return wl.run_tabulate(op, self.g)
        argv = wl.cli_argv(op)
        with self.span("cli.process"):
            returncode, stdout = wl.run_cli_process(argv, self.env)
        return wl.check_cli(argv, returncode, stdout)

    def replay(self, op):
        """In-process ``cli.main`` on the op's arguments, for its layer spans."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            self.g.cli.main(wl.cli_argv(op))

    def peak_rss_mb(self):
        who = (resource.RUSAGE_CHILDREN if self.workload == "cli"
               else resource.RUSAGE_SELF)
        return resource.getrusage(who).ru_maxrss / 1024.0


def phase(runner, stream, seconds, min_blocks):
    """Closed loop over whole blocks; returns per-op records and wall time.

    The host-speed reference before each op, and a traced cli op's
    in-process replay, run off the loop's clock.
    """
    tracer = runner.tracer
    records = []
    aside_s = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        op = stream.op(i)
        if tracer is not None:
            tracer.op_id = i
        r0 = time.perf_counter()
        ref_s = calibration.measure()
        t0 = time.perf_counter()
        with runner.span("op"):
            outcome = runner.run(op)
        t1 = time.perf_counter()
        records.append({"i": i, "edge": op.edge, "ms": 1e3 * (t1 - t0),
                        "ref_ms": 1e3 * ref_s, "passed": outcome.passed,
                        "wrong": outcome.wrong, "reasons": outcome.reasons,
                        "deviation": outcome.deviation})
        if tracer is not None and runner.workload == "cli":
            runner.replay(op)
        aside_s += (t0 - r0) + (time.perf_counter() - t1)
        i += 1
        elapsed = time.perf_counter() - start - aside_s
        block = stream.layout.block
        if i % block == 0 and i >= min_blocks * block and elapsed >= seconds:
            return {"records": records, "elapsed_s": elapsed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("cli", "tabulate", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")

    import gravitunnel
    import gravitunnel.cli  # noqa: F401  (the package does not import it)

    runner = Runner(args.workload, gravitunnel)
    runner.run(wl.warmup_op(args.workload))
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0

    stream = wl.Stream(args.workload, args.seed)
    min_blocks = stream.layout.min_blocks
    if not args.trace:
        result = phase(runner, stream, args.seconds, min_blocks)
    else:
        # Only the untraced run reports rel_err_p50, so its minimum number
        # of blocks is split between the traced run's two phases.
        min_blocks = max(1, min_blocks // 2)
        untraced = phase(runner, stream, args.seconds / 2.0, min_blocks)
        runner.tracer = tracing.Tracer()
        restore = runner.tracer.install(gravitunnel)
        try:
            traced = phase(runner, stream, args.seconds / 2.0, min_blocks)
        finally:
            restore()
        layers = tracing.layer_metrics(runner.tracer.spans,
                                       len(traced["records"]))
        layers.update(tracing.import_metrics(runner.env))
        result = {"untraced": untraced, "traced": traced, "layers": layers,
                  "spans": runner.tracer.spans}
    result["peak_rss_mb"] = runner.peak_rss_mb()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
