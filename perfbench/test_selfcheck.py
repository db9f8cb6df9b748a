"""Fast self-check of the benchmark at tiny scale.

    python3 -m pytest -q perfbench/test_selfcheck.py

Runs a handful of single ops in process (a few seconds), not the timed
loop: it checks the input layout, that every metric BENCHMARK.json names
is produced with a unit, and that an edge op which raises is counted as
failed instead of being dropped.
"""

import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import gravitunnel  # noqa: E402
import gravitunnel.cli  # noqa: E402,F401
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def record(op, outcome):
    """An op record of 500 ms, taken at the host's nominal speed."""
    return {"i": op.index, "edge": op.edge, "ms": 500.0,
            "ref_ms": 1e3 * calibration.NOMINAL_S, "passed": outcome.passed,
            "wrong": outcome.wrong, "reasons": outcome.reasons,
            "deviation": outcome.deviation}


def test_stream_is_seeded_with_a_fixed_edge_share():
    a, b = wl.Stream("tabulate", 7), wl.Stream("tabulate", 8)
    ops = [a.op(i) for i in range(2 * a.layout.block)]
    assert [o.separation() for o in ops] == [
        a.op(i).separation() for i in range(2 * a.layout.block)]
    assert ops[0].separation() != b.op(0).separation()
    edges = [o for o in ops if o.edge]
    assert len(edges) == len(ops) // 10
    assert {o.separation() for o in edges} == {
        1e-12, 1e-6, math.pi - 1e-6, math.pi}
    assert all(0.0 < o.separation() <= math.pi for o in ops)
    assert all(wl.cli_argv(o) == wl.cli_argv(o) for o in ops)


def test_oracle_block_keeps_its_strata_for_every_seed():
    for seed in range(20):
        stream = wl.Stream("oracle", seed)
        ops = [stream.op(i) for i in range(stream.layout.block)]
        bulk = sorted(o.u for o in ops if not o.edge)
        assert all(abs(3 * u - 0.5 - k) <= 0.1 for k, u in enumerate(bulk))
        assert sorted(o.separation() for o in ops if o.edge) == [1e-12, math.pi]


def test_raising_edge_op_is_counted_as_failed():
    stream = wl.Stream("tabulate", 1)
    bulk, edge = stream.op(0), stream.op(9)
    assert edge.edge and edge.separation() == 1e-12
    ok = wl.run_tabulate(bulk, gravitunnel)
    bad = wl.run_tabulate(edge, gravitunnel)
    assert ok.passed
    assert not bad.passed and bad.wrong
    assert any("QuadratureError" in r for r in bad.reasons)
    records = [record(bulk, ok), record(edge, bad)]
    metrics, _ = run.end_to_end(records, [1.0], 1.0, 2)
    assert metrics["failed_share"][0] == 0.5
    assert math.isclose(metrics["ops_per_s"][0], 1.0)
    assert run.failure_tally(records) == {
        r: 1 for r in bad.reasons}


def test_tolerance_miss_fails_the_op_without_marking_it_wrong():
    out = wl.Outcome()
    wl._check_discrete(out, "path", 1.01, 1.0, 0.0)
    assert not out.passed and not out.wrong
    wl._check_discrete(out, "path", 0.99, 1.0, 0.0)
    assert out.wrong


def test_every_end_to_end_metric_has_a_unit():
    op = wl.Stream("tabulate", 1).op(0)
    records = [record(op, wl.run_tabulate(op, gravitunnel))] * 12
    metrics, tail = run.end_to_end(records, [1.0, 2.0], 1.0, 12)
    for spec in SPEC["end_to_end"]:
        value, unit = metrics[spec["name"]]
        assert unit == spec["unit"]
        assert math.isfinite(value) and value >= 0.0
    assert tail == {"percentile": 100.0 * 7 / 12, "samples": 12}
    slow = [dict(r, ref_ms=2e3 * calibration.NOMINAL_S) for r in records]
    assert run.host_scales(slow) == [0.5] * 12


def test_cli_op_is_checked_against_the_closed_form():
    argv = ["time", "--sep", "1.0", "--format", "structured"]
    payload = {"tunnel_tau": wl.closed_form_time(1.0) + 2e-7}
    assert not wl.check_cli(argv, 0, json.dumps(payload)).passed
    payload["tunnel_tau"] -= 2e-7
    assert wl.check_cli(argv, 0, json.dumps(payload)).passed
    assert not wl.check_cli(argv, 2, "").passed


def test_every_per_layer_metric_is_traced():
    runner = worker.Runner("cli", gravitunnel)
    tracer = runner.tracer = tracing.Tracer()
    restore = tracer.install(gravitunnel)
    stream = wl.Stream("tabulate", 3)
    try:
        for i in (0, 4, 6, 9):          # time, path, compare-cycloid, edge
            op = stream.op(i)
            tracer.op_id = i
            with tracer.span("op"):
                wl.run_tabulate(op, gravitunnel)
            if not op.edge:
                runner.replay(op)
        near_pi = wl.Op(10, False, 1.0 - 1e-4, (), 0)
        with tracer.span("op"):
            wl.run_oracle(near_pi, gravitunnel)
    finally:
        restore()
    assert gravitunnel.timing.total_transit_time.__name__ == "total_transit_time"
    layers = tracing.layer_metrics(tracer.spans, 5)
    layers.update(tracing.import_metrics(os.environ | {
        "PYTHONPATH": str(HERE.parent / "src")}, repeats=1))
    names = {s["name"] for s in SPEC["per_layer"]} - {"trace.overhead_share"}
    for name in names:
        value, unit = layers[name]
        assert unit and math.isfinite(value) and value > 0.0, name
    assert layers["oracle.simulate_bead.trace_points"][0] > 0
