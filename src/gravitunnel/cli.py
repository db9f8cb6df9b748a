"""Command-line front end: tables, summaries, sweeps and verification.

Angles are radians by default; append ``deg`` for degrees (``--sep 90deg``).
Structured output is JSON; csv output carries a ``#``-prefixed header
block describing the columns.  Exit codes: 0 success, 1 usage error,
2 numeric failure, 3 verification failure.

Every command but `verify` runs on `closed` alone: `time` and `sweep`
print its closed forms, and `path` and `compare-cycloid` evaluate its
hypocycloid and chord points in plain `math`.  So none of them loads
numpy or `dataclasses` (the records are named tuples), and only
structured output imports `json`; only `verify` (the oracles) imports
the numpy modules inside.
"""

import argparse
import math
import re
import sys
from itertools import chain

from . import closed
from .errors import DomainError, TunnelError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A negative angle (-10deg, -1e-3) is a value, not an option:
        # argparse's own rule takes only plain negative numbers as values.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?(deg)?$", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


def _fmt(value):
    return format(float(value), ".12g")


def _parse_angle(text):
    text = str(text).strip()
    try:
        if text.lower().endswith("deg"):
            return math.radians(float(text[:-3]))
        return float(text)
    except ValueError:
        raise _UsageError(f"cannot parse angle {text!r}; use radians or e.g. 90deg")


def _latitude(text):
    """A latitude in [-pi/2, pi/2], DOMAIN_EPS overshoot clamped to the
    pole; the pi/2 offsets of two polar angles pi/2 - latitude cancel."""
    lat = _parse_angle(text)
    if not abs(lat) <= 0.5 * math.pi + closed.DOMAIN_EPS:
        raise DomainError("latitude must lie in [-pi/2, pi/2] radians; "
                          f"got {text!r}")
    return min(max(lat, -0.5 * math.pi), 0.5 * math.pi)


def _endpoint_separation(args):
    has_sep = args.sep is not None
    has_lat = args.lat1 is not None or args.lat2 is not None
    if has_sep and has_lat:
        raise _UsageError("give either --sep or --lat1/--lat2, not both")
    if has_sep:
        delta = _parse_angle(args.sep)
    elif args.lat1 is not None and args.lat2 is not None:
        delta = abs(_latitude(args.lat1) - _latitude(args.lat2))
    else:
        raise _UsageError("an endpoint spec is required: --sep, or both "
                          "--lat1 and --lat2")
    if not (0.0 < delta <= math.pi):
        raise _UsageError(f"surface separation must lie in (0, pi]; got {delta!r}")
    return delta


def _resolve_scaling(args):
    """The body's name and its `PhysicalParams`, or (None, None)."""
    if args.body != "custom":
        if args.radius is not None or args.gravity is not None:
            raise _UsageError("--radius/--gravity need --body custom")
        return (None, None) if args.body is None else ("earth", closed.EARTH)
    if args.radius is None or args.gravity is None:
        raise _UsageError("--body custom needs --radius and --gravity")
    return "custom", closed.PhysicalParams(radius_m=args.radius,
                                           gravity_m_s2=args.gravity)


def _open_out(spec):
    if spec is None or spec == "-":
        return sys.stdout, False
    try:
        return open(spec, "w", newline="\n"), True
    except OSError as exc:
        raise _UsageError(f"cannot write {spec}: {exc.strerror or exc}")


def _emit(args, payload, header_lines, columns, rows):
    """Write a command's output to --out: the JSON of ``payload()`` in
    the structured format, else the csv header block, the column names
    and rows, each row one line of already formatted, comma-separated
    cells.  rows may be a generator: each line is written as it is
    formatted."""
    out, close = _open_out(args.out)
    try:
        if args.format == "structured":
            import json     # csv output never needs it
            out.write(json.dumps(payload(), sort_keys=True, indent=2) + "\n")
        else:
            out.writelines(f"# {line}\n" for line in header_lines)
            out.write(",".join(columns) + "\n")
            out.writelines(f"{row}\n" for row in rows)
    finally:
        if close:
            out.close()


def _body_header(body, scaling):
    if scaling is None:
        return ["units: dimensionless (lengths in R, times in sqrt(R/g))"]
    return [f"body: {body} length_unit_m={_fmt(scaling.length_unit_m)} "
            f"time_unit_s={_fmt(scaling.time_unit_s)} "
            f"speed_unit_m_s={_fmt(scaling.speed_unit_m_s)}"]


def _body_payload(body, scaling):
    if scaling is None:
        return None
    return {"name": body,
            "length_unit_m": scaling.length_unit_m,
            "time_unit_s": scaling.time_unit_s,
            "speed_unit_m_s": scaling.speed_unit_m_s}


def _tunnel_samples(family, n):
    """(theta, rho, arc, tau) at the tunnel's 2n-1 samples, from `closed`.

    The samples are `sample_path`'s; arc and tau are exact along the
    tunnel, the second half's taken from the totals by symmetry, lazily.
    """
    half = [(theta, 1.0 - depth, arc, tau)
            for depth, theta, tau, arc in closed.tunnel_half(family.depth, n)]
    end = -family.separation_angle
    total_arc = closed.arc_length(family)
    total_tau = closed.total_transit_time(family).tau
    return chain(half, ((end - theta, rho, total_arc - arc, total_tau - tau)
                        for theta, rho, arc, tau in reversed(half[:-1])))


def _chord_samples(delta, m):
    """(theta, rho, arc, tau) at m points uniform along the chord, lazily.

    The points are `chord_path`'s; the bead's time to chord fraction t
    is the SHM time 2 asin(sqrt(t)).
    """
    spec = closed.ChordSpec(delta)
    half_chord = spec.half_chord
    ts = _grid(0.0, 1.0, m, "linear")
    yield 0.0, 1.0, 0.0, 0.0
    for t in ts[1:-1]:
        rho, theta, _ = closed.chord_point(spec, t)
        yield (theta, rho, 2.0 * t * half_chord,
               2.0 * math.asin(math.sqrt(t)))
    yield -delta, 1.0, 2.0 * half_chord, math.pi


def _curve_rows(name, samples, scaling):
    """One csv line per sample, each cell as `_fmt` formats it, lazily."""
    cos, sin = math.cos, math.sin
    if scaling is None:
        return (f"{name},{theta:.12g},{rho:.12g},{rho * cos(theta):.12g},"
                f"{rho * sin(theta):.12g},{arc:.12g},{tau:.12g}"
                for theta, rho, arc, tau in samples)
    length, time = scaling.length_unit_m, scaling.time_unit_s
    return (f"{name},{theta:.12g},{rho:.12g},{rho * cos(theta):.12g},"
            f"{rho * sin(theta):.12g},{arc:.12g},{tau:.12g},"
            f"{arc * length:.12g},{tau * time:.12g}"
            for theta, rho, arc, tau in samples)


def cmd_path(args):
    delta = _endpoint_separation(args)
    body, scaling = _resolve_scaling(args)
    family = closed.family_from_separation(delta)
    curves = [("tunnel", _tunnel_samples(family, args.samples))]
    if args.include_chord:
        curves.append(("chord", _chord_samples(delta, 2 * args.samples - 1)))
    columns = ["curve", "theta", "rho", "x", "y", "arc", "tau"]
    if scaling is not None:
        columns += ["arc_m", "tau_s"]
    header = [
        "gravitunnel path table",
        f"separation_rad: {_fmt(delta)}",
        f"k: {_fmt(family.k)} rho_min: {_fmt(family.rho_min)}",
        *_body_header(body, scaling),
        "columns: theta,rho polar samples; x=rho*cos(theta), y=rho*sin(theta); "
        "arc and tau cumulative from the release point",
    ]

    def payload():
        tables = {}
        for name, samples in curves:
            theta, rho, arc, tau = (list(c) for c in zip(*samples))
            tables[name] = {"theta": theta, "rho": rho, "arc": arc, "tau": tau}
        return {"kind": "path", "separation_rad": delta, "k": family.k,
                "rho_min": family.rho_min, "curves": tables,
                "body": _body_payload(body, scaling)}
    _emit(args, payload, header, columns,
          (row for name, samples in curves
           for row in _curve_rows(name, samples, scaling)))
    return EXIT_OK


def cmd_time(args):
    delta = _endpoint_separation(args)
    body, scaling = _resolve_scaling(args)
    family = closed.family_from_separation(delta)
    tunnel_tau = closed.total_transit_time(family).tau
    spec = closed.ChordSpec(delta)
    chord_tau = closed.chord_transit_time(spec)
    items = [
        ("separation_rad", delta),
        ("separation_deg", math.degrees(delta)),
        ("k", family.k),
        ("rho_min", family.rho_min),
        ("tunnel_tau", tunnel_tau),
        ("chord_tau", chord_tau),
        ("tau_ratio", tunnel_tau / chord_tau),
        ("tunnel_arc", closed.arc_length(family)),
        ("chord_length", 2.0 * spec.half_chord),
    ]
    if scaling is not None:
        items += [
            ("time_unit_s", scaling.time_unit_s),
            ("tunnel_s", tunnel_tau * scaling.time_unit_s),
            ("chord_s", chord_tau * scaling.time_unit_s),
            ("tunnel_min", tunnel_tau * scaling.time_unit_s / 60.0),
            ("chord_min", chord_tau * scaling.time_unit_s / 60.0),
        ]
    _emit(args, lambda: {"kind": "time", "body": _body_payload(body, scaling),
                         **dict(items)},
          ["gravitunnel time summary", *_body_header(body, scaling)],
          ["key", "value"], (f"{k},{_fmt(v)}" for k, v in items))
    return EXIT_OK


def _parse_range(text, angle=False):
    parts = str(text).split(":")
    if len(parts) != 2:
        raise _UsageError(f"range must look like MIN:MAX; got {text!r}")
    if angle:
        lo, hi = (_parse_angle(p) for p in parts)
    else:
        try:
            lo, hi = (float(p) for p in parts)
        except ValueError:
            raise _UsageError(f"cannot parse range {text!r}")
    if not (lo <= hi):
        raise _UsageError(f"range must not be inverted; got {text!r}")
    return lo, hi


def _log10(x):
    """log10(x) correctly rounded.

    libm's log10 is an ulp off in about one call in five for x near 1,
    and a log grid point moves by ln(10) |log10 x| times that.
    """
    from decimal import Context, Decimal
    return float(Decimal(x).log10(Context(prec=40)))


def _grid(lo, hi, count, spacing):
    """count points from lo to hi, spaced as numpy's linspace/geomspace.

    Linear points are linspace's bit for bit: i * step + lo, with the
    last pinned to hi.  Log points are 10^x over the linear grid of the
    log10 ends, with both ends pinned exactly, as geomspace computes
    them; numpy's power (and, rarely, its log10) rounds differently, so
    an interior point can differ from geomspace's in its last bit.
    """
    if spacing == "log":
        logs = _grid(_log10(lo), _log10(hi), count, "linear")
        return [lo, *(10.0 ** x for x in logs[1:-1]), hi] if count > 1 else [lo]
    div = count - 1
    if div == 0:
        return [0.0 * (hi - lo) + lo]
    step = (hi - lo) / div
    if step == 0.0:         # subnormal range: numpy divides before scaling
        points = [i / div * (hi - lo) + lo for i in range(count)]
    else:
        points = [i * step + lo for i in range(count)]
    points[-1] = hi
    return points


def cmd_sweep(args):
    body, scaling = _resolve_scaling(args)
    if (args.k_range is None) == (args.sep_range is None):
        raise _UsageError("give exactly one of --k-range or --sep-range")
    count = args.count
    if count < 1:
        raise _UsageError("--count must be at least 1")
    if args.k_range is not None:
        lo, hi = _parse_range(args.k_range)
        if lo < 0.0:
            raise _UsageError("k values must be >= 0")
        if args.spacing == "log":
            if lo <= 0.0:
                raise _UsageError("log spacing needs a positive lower bound")
        families = [closed.BrachFamily(k)
                    for k in _grid(lo, hi, count, args.spacing)]
    else:
        lo, hi = _parse_range(args.sep_range, angle=True)
        if not (0.0 < lo and hi <= math.pi):
            raise _UsageError("separations must lie in (0, pi]")
        families = [closed.family_from_separation(s)
                    for s in _grid(lo, hi, count, args.spacing)]
    columns = ["k", "rho_min", "separation_rad", "arc", "tau", "tau_over_chord"]
    if scaling is not None:
        columns.append("tau_s")
    rows = []
    for fam in families:
        tau = closed.total_transit_time(fam).tau
        row = [fam.k, fam.rho_min, fam.separation_angle,
               closed.arc_length(fam), tau, tau / math.pi]
        if scaling is not None:
            row.append(tau * scaling.time_unit_s)
        rows.append(row)
    _emit(args, lambda: {"kind": "sweep", "body": _body_payload(body, scaling),
                         "columns": columns, "rows": rows},
          ["gravitunnel family sweep", *_body_header(body, scaling)], columns,
          (",".join(map(_fmt, row)) for row in rows))
    return EXIT_OK


def cmd_compare_cycloid(args):
    from . import cycloid
    report = cycloid.compare_small_arc(_endpoint_separation(args))
    items = [
        ("separation_rad", report.delta_theta),
        ("max_geometry_deviation", report.max_geometry_deviation),
        ("sphere_time", report.sphere_time),
        ("cycloid_time", report.cycloid_time),
        ("relative_time_difference", report.relative_time_difference),
    ]
    _emit(args, lambda: {"kind": "compare-cycloid", **dict(items)},
          ["gravitunnel small-arc comparison"], ["key", "value"],
          (f"{k},{_fmt(v)}" for k, v in items))
    return EXIT_OK


def cmd_verify(args):
    from . import checks   # the oracles load only when verifying
    results = [r._asdict() for r in checks.run("reduced")]
    all_passed = all(r["passed"] for r in results)
    _emit(args, lambda: {"kind": "verify", "all_passed": all_passed,
                         "checks": results},
          ["gravitunnel verification"],
          ["check", "status", "measure", "threshold", "detail"],
          (",".join([r["name"], "pass" if r["passed"] else "FAIL",
                     _fmt(r["measure"]), _fmt(r["threshold"]), r["detail"]])
           for r in results))
    return EXIT_OK if all_passed else EXIT_VERIFY


def _add_endpoint_args(sub):
    sub.add_argument("--sep", help="surface separation angle (radians, or 90deg)")
    sub.add_argument("--lat1", help="first endpoint latitude")
    sub.add_argument("--lat2", help="second endpoint latitude")


def _add_body_args(sub):
    sub.add_argument("--body", choices=("earth", "custom"),
                     help="apply physical units for this body")
    sub.add_argument("--radius", type=float, help="body radius in m (custom)")
    sub.add_argument("--gravity", type=float,
                     help="surface gravity in m/s^2 (custom)")


def _add_output_args(sub):
    sub.add_argument("--format", choices=("csv", "structured"), default="csv")
    sub.add_argument("--out", default="-", help="output file, or - for stdout")


def build_parser():
    parser = _Parser(prog="gravitunnel",
                     description="Minimum-time tunnels through a uniform sphere")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    p = subs.add_parser("path", help="emit sampled tunnel (and chord) tables")
    _add_endpoint_args(p)
    _add_body_args(p)
    _add_output_args(p)
    p.add_argument("--samples", type=int, default=201,
                   help="samples per tunnel half")
    p.add_argument("--include-chord", action="store_true",
                   help="also emit the straight-chord samples")
    p.set_defaults(func=cmd_path)

    p = subs.add_parser("time", help="transit-time summary vs the chord")
    _add_endpoint_args(p)
    _add_body_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_time)

    p = subs.add_parser("sweep", help="one row per family member over a range")
    p.add_argument("--k-range", help="momentum range MIN:MAX")
    p.add_argument("--sep-range", help="separation range MIN:MAX (angles)")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")
    _add_body_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("verify", help="run the reduced verification suite")
    _add_output_args(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("compare-cycloid",
                        help="small-arc comparison with the uniform-field curve")
    _add_endpoint_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_compare_cycloid)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, DomainError) as exc:
        print(f"gravitunnel: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TunnelError as exc:
        print(f"gravitunnel: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
