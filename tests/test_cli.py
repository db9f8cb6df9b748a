import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gravitunnel
from gravitunnel import (DiscretePath, PhysicalParams, QuadratureError,
                         arc_length, checks, family_from_separation,
                         path_transit_time, total_transit_time)
from gravitunnel.cli import _curve_rows, _fmt, _grid, _log10, main
from gravitunnel.closed import EARTH


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

    @pytest.mark.parametrize("lat", ["-10deg", "-0.5", "-.5DEG", "-1e-1"])
    def test_negative_latitude_as_its_own_argument(self, capsys, lat):
        # argparse takes only plain negative numbers such as -0.5 as values
        code, spaced, _ = run_cli(capsys, "time", "--lat1", "40deg",
                                  "--lat2", lat)
        assert code == 0
        assert spaced == run_cli(capsys, "time", "--lat1", "40deg",
                                 f"--lat2={lat}")[1]

    def test_latitude_clamps_at_the_poles(self, capsys):
        # 5e-13 past each pole is clamped onto it, and the tunnel is the
        # diameter; 2e-12 past a pole is refused, naming the input
        pole = "1.5707963267953966"
        code, out, _ = run_cli(capsys, "time", "--lat1", pole, f"--lat2=-{pole}")
        assert code == 0
        assert kv_table(out)["separation_rad"] == "3.14159265359"
        _, out, _ = run_cli(capsys, "time", "--lat1", pole, f"--lat2=-{pole}",
                            "--format", "structured")
        assert json.loads(out)["separation_rad"] == math.pi
        code, out, err = run_cli(capsys, "time", "--lat1", "1.5707963267969",
                                 "--lat2", "0")
        assert (code, out) == (1, "")
        assert "'1.5707963267969'" in err

    def test_latitude_difference_keeps_its_digits(self, capsys):
        # as polar angles pi/2 - latitude, 1e-9 would keep only 7 digits
        _, out, _ = run_cli(capsys, "time", "--lat1", "1e-9", "--lat2", "0",
                            "--format", "structured")
        assert json.loads(out)["separation_rad"] == 1e-9

    def test_tiny_separation(self, capsys):
        code, out, _ = run_cli(capsys, "time", "--sep", "1e-12",
                               "--format", "structured")
        assert code == 0
        table = json.loads(out)
        assert table["tunnel_tau"] == pytest.approx(
            math.pi * math.sqrt(2e-12 / math.pi), rel=1e-12)

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
        ("time", "--lat1", "91deg", "--lat2", "0deg"),
        ("time", "--lat1", "nan", "--lat2", "0deg"),
    ])
    def test_exit_code_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.strip()

    @pytest.mark.parametrize("argv, named", [
        (("time", "--sep", "5e-324"), "delta_theta must lie in "
         "[6.990275687580919e-308, 3.141592653589793]; got 5e-324"),
        (("path", "--sep", "6e-308", "--include-chord"), "delta_theta must "
         "lie in [6.990275687580919e-308, 3.141592653589793]; got 6e-308"),
        (("compare-cycloid", "--sep", "1e-310"),
         "delta_theta must lie in [1e-12, 0.2]; got 1e-310"),
        (("sweep", "--k-range", "1e150:1e155", "--count", "3"),
         "k must lie in [0.0, 4.740375954054588e+153]; got 1e+155"),
        (("compare-cycloid", "--sep", "1e-13"),
         "delta_theta must lie in [1e-12, 0.2]; got 1e-13"),
        (("time", "--lat1", "91deg", "--lat2", "0"), "'91deg'"),
        (("time", "--lat1", "nan", "--lat2", "0"), "'nan'"),
    ])
    def test_domain_end_names_the_input(self, capsys, argv, named):
        # one line of message, no traceback
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("gravitunnel: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("flag", ["--radius", "--gravity"])
    def test_earth_refuses_a_radius_or_gravity(self, capsys, flag):
        # Earth's own values would silently win over the flag's
        code, out, err = run_cli(capsys, "time", "--sep", "1", "--body",
                                 "earth", flag, "1")
        assert (code, out) == (1, "")
        assert err == "gravitunnel: --radius/--gravity need --body custom\n"

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        from gravitunnel import cli as cli_mod

        def boom(*args, **kwargs):
            raise QuadratureError("synthetic non-convergence")
        monkeypatch.setattr(cli_mod.closed, "total_transit_time", boom)
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
        # tau is the time along the tunnel itself; the polyline through
        # the printed points times to it within its own error estimate
        code, out, _ = run_cli(capsys, "path", "--sep", "2.0",
                               "--samples", "301")
        assert code == 0
        header, rows = parse_csv(out)
        itheta, irho = header.index("theta"), header.index("rho")
        path = DiscretePath([float(r[irho]) for r in rows],
                            [float(r[itheta]) for r in rows])
        emitted_tau = rows[-1][header.index("tau")]
        closed_tau = total_transit_time(family_from_separation(2.0)).tau
        assert emitted_tau == format(closed_tau, ".12g")
        result = path_transit_time(path)
        assert abs(result.tau - float(emitted_tau)) <= 10 * result.error_estimate

    @settings(max_examples=40, deadline=None)
    @given(st.floats(math.log(1e-12), math.log(math.pi)))
    def test_tunnel_ends_on_closed_forms(self, log_sep):
        sep = min(math.exp(log_sep), math.pi)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["path", "--sep", repr(sep), "--samples", "50",
                         "--format", "structured"])
        assert code == 0
        tunnel = json.loads(out.getvalue())["curves"]["tunnel"]
        fam = family_from_separation(sep)
        assert tunnel["tau"][-1] == total_transit_time(fam).tau
        assert tunnel["arc"][-1] == arc_length(fam)

    @pytest.mark.parametrize("sep, samples", [("1e-6", "201"),
                                              ("0.003", "100000"),
                                              ("1e-12", "201")])
    def test_tiny_separation_with_chord(self, capsys, sep, samples):
        code, out, _ = run_cli(capsys, "path", "--sep", sep, "--samples",
                               samples, "--include-chord", "--format",
                               "structured")
        assert code == 0
        curves = json.loads(out)["curves"]
        q = float(sep) / math.pi
        closed_tau = math.pi * math.sqrt(q * (2 - q))
        assert curves["tunnel"]["tau"][-1] == pytest.approx(closed_tau, rel=1e-4)
        assert curves["chord"]["tau"][-1] == pytest.approx(math.pi, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(allow_nan=False,
                                          allow_infinity=False)] * 4),
                    max_size=8),
           st.one_of(st.none(), st.just(EARTH),
                     st.builds(PhysicalParams,
                               st.floats(1e-3, 1e12), st.floats(1e-3, 1e3))))
    def test_curve_rows_format_each_cell_as_fmt(self, samples, params):
        expected = []
        for theta, rho, arc, tau in samples:
            cells = ["tunnel", theta, rho, rho * math.cos(theta),
                     rho * math.sin(theta), arc, tau]
            if params is not None:
                cells += [arc * params.length_unit_m, tau * params.time_unit_s]
            expected.append(",".join([cells[0], *map(_fmt, cells[1:])]))
        assert list(_curve_rows("tunnel", samples, params)) == expected

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

    def test_momenta_up_to_1e12(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k-range", "1e7:1e12",
                               "--count", "6")
        assert code == 0
        header, rows = parse_csv(out)
        k = [float(r[header.index("k")]) for r in rows]
        tau = [float(r[header.index("tau")]) for r in rows]
        assert k[-1] == 1e12
        assert tau == pytest.approx([math.pi / x for x in k], rel=1e-11)

    def test_structured_rows_are_full_doubles(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--sep-range", "1:1", "--count",
                            "1", "--body", "earth", "--format", "structured")
        payload = json.loads(out)
        _, out, _ = run_cli(capsys, "time", "--sep", "1", "--body", "earth",
                            "--format", "structured")
        single = json.loads(out)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["tau"] == single["tunnel_tau"]
        assert row["tau_s"] == single["tunnel_s"]
        assert (row["k"], row["rho_min"], row["arc"]) == (
            single["k"], single["rho_min"], single["tunnel_arc"])

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--k-range", "0.1:5", "--count", "7", "--body",
                "earth", "--format", "structured")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        payload = json.loads(first)
        assert payload["kind"] == "sweep"

    @pytest.mark.parametrize("spacing", ("linear", "log"))
    def test_grid_matches_numpy(self, spacing):
        # linear: numpy's linspace bit for bit; log: exact ends, and
        # interior points within 1 ulp of geomspace wherever numpy's log10
        # is correctly rounded on both ends (where it is not, its one-ulp
        # error moves geomspace's points by up to ln(10) |log10| ulps)
        rng = np.random.default_rng(7)
        compared = 0
        for _ in range(2000):
            lo = 10.0 ** rng.uniform(-12, 1)
            hi = min(lo * 10.0 ** rng.uniform(0, 12), math.pi)
            lo = min(lo, hi)
            count = int(rng.integers(1, 40))
            got = np.array(_grid(lo, hi, count, spacing))
            if spacing == "linear":
                assert got.tobytes() == np.linspace(lo, hi, count).tobytes()
                continue
            want = np.geomspace(lo, hi, count)
            assert got.size == count and got[0] == lo
            assert got[-1] == (hi if count > 1 else lo)
            if _log10(lo) == np.log10(lo) and _log10(hi) == np.log10(hi):
                ulps = np.abs(got.view(np.int64) - want.view(np.int64))
                assert ulps.max() <= 1
                compared += 1
        assert spacing == "linear" or compared > 1950

    def test_grid_edges(self):
        assert _grid(2.0, 5.0, 1, "linear") == [2.0]
        assert _grid(2.0, 5.0, 1, "log") == [2.0]
        assert _grid(2.0, 5.0, 2, "log") == [2.0, 5.0]
        tiny = (5e-324, 1e-323)
        assert _grid(*tiny, 3, "linear") == np.linspace(*tiny, 3).tolist()

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--k-range", "0.5:2",
                               "--count", "3", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# gravitunnel family sweep")


    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "time", "--sep", "1", "--out",
                                 str(target))
        assert code == 1
        assert out == ""
        assert err == (f"gravitunnel: cannot write {target}: "
                       "No such file or directory\n")


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


def run_python(*argv):
    """Run a fresh interpreter on argv with this package importable."""
    src_dir = os.path.dirname(os.path.dirname(gravitunnel.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def run_fresh(script):
    """Run a script in a fresh interpreter; its last stdout line is JSON."""
    proc = run_python("-c", textwrap.dedent(script))
    return json.loads(proc.stdout.splitlines()[-1])


def imported_modules(*argv):
    """Every module a fresh interpreter on argv imports, as `-X importtime`
    reports it on stderr, so the probe itself imports nothing."""
    stderr = run_python("-X", "importtime", *argv).stderr
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")} - {"imported package"}


@pytest.fixture(scope="module")
def startup_modules():
    # what the interpreter and its site hooks load on this host anyway
    return imported_modules("-c", "pass")


@pytest.mark.parametrize("argv", [
    ["time", "--sep", "1.0", "--body", "earth"],
    ["time", "--sep", "1e-6", "--format", "structured"],
    ["sweep", "--sep-range", "0.1:3", "--count", "5"],
    ["sweep", "--k-range", "0:5", "--count", "4", "--spacing", "linear",
     "--format", "structured"],
    ["path", "--sep", "1.0", "--samples", "21", "--include-chord",
     "--body", "earth"],
    ["path", "--sep", "1.0", "--samples", "21", "--include-chord",
     "--format", "structured"],
    ["compare-cycloid", "--sep", "0.1"],
    ["compare-cycloid", "--sep", "0.1", "--format", "structured"],
    ["time", "--lat1", "40deg", "--lat2=-10deg"],
    pytest.param(["time", "--lat1", "40deg", "--lat2", "-10deg"],
                 id="time-csv-lat-negative-value"),
], ids=lambda argv: f"{argv[0]}-{argv[-1] if '--format' in argv else 'csv'}"
                    + ("-lat" if "--lat1" in argv else ""))
def test_cli_process_loads_no_heavy_module(argv, startup_modules):
    loaded = imported_modules("-m", "gravitunnel.cli", *argv) - startup_modules
    assert "gravitunnel.closed" in loaded       # the probe sees the package
    assert not loaded & {"dataclasses", "inspect", "typing", "numpy"}
    if "structured" not in argv:
        assert "json" not in loaded


def test_table_commands_never_import_scipy():
    # A fresh interpreter, so modules imported by other tests do not count.
    # The verification registry (gravitunnel.checks) must stay unloaded
    # too, and every command but `verify` loads no numpy.
    report = run_fresh("""
        import contextlib, io, json, sys
        import gravitunnel
        from gravitunnel.cli import _grid, _log10, main

        def loaded(*names):
            return sorted(m for m in sys.modules
                          if m.split(".")[0] in names or m in names)

        after_import = loaded("numpy")
        codes = []
        for argv in (["time", "--sep", "90deg"],
                     ["time", "--sep", "1e-9", "--body", "earth",
                      "--format", "structured"],
                     ["sweep", "--k-range", "0.1:5", "--count", "7"],
                     ["sweep", "--k-range", "0:5", "--count", "4",
                      "--spacing", "linear", "--format", "structured"],
                     ["sweep", "--sep-range", "1e-6:3", "--count", "5",
                      "--body", "earth"],
                     ["sweep", "--sep-range", "0.1:90deg", "--count", "3",
                      "--spacing", "linear", "--format", "structured"],
                     ["path", "--sep", "2.0", "--samples", "41",
                      "--include-chord"],
                     ["path", "--sep", "1e-9", "--samples", "2",
                      "--include-chord", "--body", "earth",
                      "--format", "structured"],
                     ["path", "--sep", "180deg", "--body", "earth"],
                     ["compare-cycloid", "--sep", "0.1"],
                     ["compare-cycloid", "--sep", "1e-6",
                      "--format", "structured"]):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv))
        after_closed = loaded("numpy")
        print(json.dumps({"codes": codes, "after_import": after_import,
                          "after_closed": after_closed,
                          "scipy": loaded("scipy", "gravitunnel.checks")}))
    """)
    assert report["codes"] == [0] * 11
    assert report["after_import"] == []
    assert report["after_closed"] == []
    assert report["scipy"] == []


def test_optimizer_and_small_arc_never_import_scipy():
    report = run_fresh("""
        import json, math, sys
        from gravitunnel import compare_small_arc, optimize_path
        converged = optimize_path(math.pi / 2, 24).converged
        compare_small_arc(0.1)
        loaded = sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))
        print(json.dumps({"converged": converged, "scipy": loaded,
                          "dataclasses": "dataclasses" in sys.modules}))
    """)
    assert report["converged"]
    assert report["scipy"] == []
    assert not report["dataclasses"]


class TestVerifyCommand:
    @pytest.mark.slow
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

    def test_failing_check_exits_3(self, capsys, monkeypatch):
        def stub():
            return False, 2.0, 1.0, "stub measure 2 >= 1"
        monkeypatch.setattr(checks, "REGISTRY", [checks.Check(
            "stub", 1, stub, {"reduced": {}, "full": {}})])
        code, out, _ = run_cli(capsys, "verify")
        assert code == 3
        assert out.splitlines()[-1] == "stub,FAIL,2,1,stub measure 2 >= 1"
        code, out, _ = run_cli(capsys, "verify", "--format", "structured")
        assert code == 3
        assert '"all_passed": false' in out
