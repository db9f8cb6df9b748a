import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import gravitunnel
from gravitunnel import DiscretePath, QuadratureError, checks, path_transit_time
from gravitunnel.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def kv_table(text):
    header, rows = parse_csv(text)
    assert header == ["key", "value"]
    return {name: value for name, value in rows}


class TestTimeCommand:
    def test_dimensionless_chord_is_pi_to_12_digits(self, capsys):
        code, out, _ = run_cli(capsys, "time", "--sep", "90deg")
        assert code == 0
        table = kv_table(out)
        assert table["chord_tau"] == "3.14159265359"
        assert float(table["tunnel_tau"]) < float(table["chord_tau"])

    def test_earth_diameter_coincidence(self, capsys):
        code, out, _ = run_cli(capsys, "time", "--sep", "180deg",
                               "--body", "earth")
        assert code == 0
        table = kv_table(out)
        assert float(table["tunnel_min"]) == pytest.approx(
            float(table["chord_min"]), abs=1e-6)
        assert float(table["chord_min"]) == pytest.approx(42.2, abs=0.1)

    def test_latitudes_match_separation(self, capsys):
        _, by_sep, _ = run_cli(capsys, "time", "--sep", "90deg")
        _, by_lat, _ = run_cli(capsys, "time", "--lat1", "90deg",
                               "--lat2", "0deg")
        assert by_lat == by_sep

    def test_custom_body(self, capsys):
        code, out, _ = run_cli(capsys, "time", "--sep", "1.0", "--body",
                               "custom", "--radius", "3.39e6",
                               "--gravity", "3.71")
        assert code == 0
        assert "time_unit_s" in kv_table(out)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("time",),
        ("time", "--sep", "90deg", "--lat1", "10deg", "--lat2", "0deg"),
        ("time", "--sep", "bogus"),
        ("time", "--sep", "200deg"),
        ("time", "--lat1", "10deg"),
        ("time", "--sep", "1.0", "--body", "custom"),
        ("time", "--sep", "1.0", "--radius", "1e6"),
        ("sweep", "--count", "4"),
        ("sweep", "--k-range", "2:1", "--count", "4"),
        ("sweep", "--k-range", "0:1", "--count", "4", "--spacing", "log"),
        ("path", "--sep", "1.0", "--samples", "1"),
        ("no-such-command",),
    ])
    def test_exit_code_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.strip()

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        from gravitunnel import cli as cli_mod

        def boom(*args, **kwargs):
            raise QuadratureError("synthetic non-convergence")
        monkeypatch.setattr(cli_mod.timing, "total_transit_time", boom)
        code, _, err = run_cli(capsys, "time", "--sep", "1.0")
        assert code == 2
        assert "numeric" in err


class TestPathCommand:
    def test_diameter_symmetry(self, capsys):
        code, out, _ = run_cli(capsys, "path", "--sep", "180deg",
                               "--samples", "41")
        assert code == 0
        header, rows = parse_csv(out)
        rho = np.array([float(r[header.index("rho")]) for r in rows])
        assert np.max(np.abs(rho - rho[::-1])) < 1e-12

    def test_round_trip_time(self, capsys):
        code, out, _ = run_cli(capsys, "path", "--sep", "2.0",
                               "--samples", "301")
        assert code == 0
        header, rows = parse_csv(out)
        itheta, irho = header.index("theta"), header.index("rho")
        path = DiscretePath.from_arrays([float(r[irho]) for r in rows],
                                        [float(r[itheta]) for r in rows])
        emitted_tau = float(rows[-1][header.index("tau")])
        assert path_transit_time(path).tau == pytest.approx(emitted_tau,
                                                            abs=1e-6)

    def test_include_chord_and_earth_columns(self, capsys):
        code, out, _ = run_cli(capsys, "path", "--sep", "90deg", "--body",
                               "earth", "--samples", "11", "--include-chord")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-2:] == ["arc_m", "tau_s"]
        curves = {r[0] for r in rows}
        assert curves == {"tunnel", "chord"}
        assert "body: earth" in out


class TestSweepCommand:
    def test_single_member_matches_diameter_chord(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k-range", "0:0",
                               "--count", "1", "--spacing", "linear")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["tau"]) == pytest.approx(math.pi, rel=1e-12)
        assert float(row["arc"]) == 2.0
        assert float(row["tau_over_chord"]) == 1.0

    def test_log_sweep_monotone_time(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k-range", "0.05:20",
                               "--count", "20")
        assert code == 0
        header, rows = parse_csv(out)
        taus = [float(r[header.index("tau")]) for r in rows]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_separation_form_agrees_with_k_form(self, capsys):
        sep = math.pi * (1 - 1 / math.sqrt(2))   # the k = 1 member
        _, by_k, _ = run_cli(capsys, "sweep", "--k-range", "1:1",
                             "--count", "1", "--spacing", "linear")
        _, by_sep, _ = run_cli(capsys, "sweep", "--sep-range",
                               f"{sep!r}:{sep!r}", "--count", "1",
                               "--spacing", "linear")
        header, rows_k = parse_csv(by_k)
        _, rows_sep = parse_csv(by_sep)
        for a, b in zip(rows_k[0][1:], rows_sep[0][1:]):
            assert float(a) == pytest.approx(float(b), abs=1e-12)

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--k-range", "0.1:5", "--count", "7", "--body",
                "earth", "--format", "structured")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        payload = json.loads(first)
        assert payload["kind"] == "sweep"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--k-range", "0.5:2",
                               "--count", "3", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# gravitunnel family sweep")


class TestCompareCycloid:
    def test_small_arc_report(self, capsys):
        code, out, _ = run_cli(capsys, "compare-cycloid", "--sep", "0.1",
                               "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["relative_time_difference"] < 1e-2
        assert payload["sphere_time"] < payload["cycloid_time"]

    def test_gate_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compare-cycloid", "--sep", "1.0")
        assert code == 1
        assert "0.2" in err


def test_table_commands_never_import_scipy():
    # A fresh interpreter, so modules imported by other tests do not count.
    # The verification registry (gravitunnel.checks) must stay unloaded too.
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import gravitunnel
        from gravitunnel.cli import main
        codes = []
        for argv in (["time", "--sep", "90deg"],
                     ["sweep", "--k-range", "0.1:5", "--count", "7"],
                     ["path", "--sep", "2.0", "--samples", "41",
                      "--include-chord"],
                     ["compare-cycloid", "--sep", "0.1"]):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv))
        loaded = sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy.")
                        or m == "gravitunnel.checks")
        print(json.dumps({"codes": codes, "scipy": loaded}))
    """)
    src_dir = os.path.dirname(os.path.dirname(gravitunnel.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert report["scipy"] == []


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        names = [c["name"] for c in payload["checks"]]
        # fixed report schema, including both erratum checks by name
        for expected in ("min-radius-root", "alt-min-radius-rejected",
                         "slope-antiderivative", "alt-coefficient-misfit",
                         "oracle-triangle", "energy-drift"):
            assert expected in names
        misfit = next(c for c in payload["checks"]
                      if c["name"] == "alt-coefficient-misfit")
        assert misfit["measure"] >= 1.0
        # one registry: verify reports every registered check, in order,
        # and every acceptance criterion is covered by at least one of them
        assert names == [c.name for c in checks.REGISTRY]
        assert {c["criterion"] for c in payload["checks"]} == set(range(1, 11))
        assert set(checks.CRITERIA) == set(range(1, 11))
        stationarity = next(c for c in payload["checks"]
                            if c["name"] == "stationarity")
        assert math.copysign(1.0, stationarity["measure"]) == 1.0

    def test_forced_tolerance_fails(self, capsys, monkeypatch):
        # the bead and optimizer checks take most of verify's time and are
        # not needed to see a forced failure; test_default_run_passes
        # runs every registered check
        monkeypatch.setattr(checks, "REGISTRY", [
            c for c in checks.REGISTRY
            if c.name not in ("oracle-triangle", "energy-drift")])
        code, out, _ = run_cli(capsys, "verify", "--tol-scale", "1e-30")
        assert code == 3
        assert "FAIL" in out
