import ast
import math
from pathlib import Path

import numpy as np
import pytest

import gravitunnel
from gravitunnel import (DomainError, brachistochrone, chord, closed, cycloid,
                         oracle, timing)

# Closed forms still reached through the modules they moved out of.
# The benchmark calls and traces family_from_separation and arc_length
# on brachistochrone and total_transit_time on timing, so those three
# stay re-exported; the rest are names the modules use themselves.
MOVED = {
    brachistochrone: ("rho_min", "BrachFamily", "family_from_separation",
                      "arc_length"),
    timing: ("TransitResult", "total_transit_time"),
    chord: ("ChordSpec",),
}


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from gravitunnel import *", namespace)
    for name in gravitunnel.__all__:
        assert namespace[name] is getattr(gravitunnel, name), name
    assert set(gravitunnel.__all__) <= set(dir(gravitunnel))


@pytest.mark.parametrize("module", list(MOVED), ids=lambda m: m.__name__)
def test_moved_closed_forms_are_one_object(module):
    for name in MOVED[module]:
        value = getattr(module, name)
        assert value is getattr(closed, name), name
        assert value.__module__ == "gravitunnel.closed", name
        if name in gravitunnel.__all__:
            assert getattr(gravitunnel, name) is value, name


def test_submodules_resolve_as_attributes():
    for name in ("brachistochrone", "checks", "chord", "closed", "cli",
                 "cycloid", "errors", "oracle", "timing"):
        assert getattr(gravitunnel, name).__name__ == f"gravitunnel.{name}"


def test_import_graph_is_acyclic():
    # every relative import counts, a function-level one too: a cycle
    # through one still ties the two modules' definitions together; the
    # CLI's lazy imports form none
    graph = {}
    for source in Path(gravitunnel.__file__).parent.glob("*.py"):
        targets = graph.setdefault(source.stem, set())
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets.update([node.module] if node.module
                               else [alias.name for alias in node.names])
    done, stack = set(), []

    def cycle_from(module):
        if module in stack:
            return stack[stack.index(module):] + [module]
        if module in done:
            return None
        stack.append(module)
        for target in sorted(graph.get(module, ())):
            found = cycle_from(target)
            if found:
                return found
        stack.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = cycle_from(module)
        assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_every_error_type_is_raised():
    # an error type that no module raises is a dead export
    raised = set()
    for source in Path(gravitunnel.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)     # X(...) or X
                raised.add(getattr(exc, "attr", getattr(exc, "id", None)))
    errors = {name for name, value in vars(gravitunnel.errors).items()
              if isinstance(value, type) and issubclass(value, Exception)
              and value.__module__ == "gravitunnel.errors"}
    assert sorted(errors - {"TunnelError", "PathError"} - raised) == []


# Public names that no command, check, demo or benchmark workload
# reaches, each with the reason it stays public.
UNREACHED_BUT_PUBLIC = {
    "arc_integral": "the singular-quadrature reference for "
                    "closed.arc_length, which tests hold the closed form to",
}


def _reached_names():
    """Names the package, the demos and the benchmark read: each loaded
    name and attribute, and each name imported outside the package (an
    import inside it is a re-export, which reaches nothing)."""
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "gravitunnel"
    sources = ([p for p in package.glob("*.py") if p.name != "__init__.py"]
               + list((root / "demos").glob("*.py"))
               + [p for p in (root / "perfbench").glob("*.py")
                  if p.name != "test_selfcheck.py"])
    reached = set()
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and source.parent != package:
                reached.update(alias.name for alias in node.names)
    return reached


def test_every_public_name_is_reached():
    # a public name that only tests call is a dead export, and an
    # allowed one that something now reaches leaves the list
    unreached = set(gravitunnel.__all__) - _reached_names()
    assert sorted(unreached) == sorted(UNREACHED_BUT_PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gravitunnel.no_such_name
    assert not hasattr(gravitunnel, "numpy")


# each record with valid fields, and field sets its construction rejects
PATH = timing.DiscretePath([1.0, 0.5, 1.0], [0.0, -0.5, -1.0])
RECORDS = {
    closed.BrachFamily: dict(k=0.0),
    closed.TransitResult: dict(tau=math.pi, error_estimate=0.0,
                               evaluations=0),
    closed.ChordSpec: dict(separation_angle=math.pi / 3),
    closed.PhysicalParams: dict(radius_m=6.371e6, gravity_m_s2=9.80665),
    cycloid.CycloidSolution: dict(horizontal_span=1.0),
    cycloid.SmallArcComparison: dict(delta_theta=0.1,
                                     max_geometry_deviation=1e-3),
    oracle.OptimizationReport: dict(best_path=PATH, best_time=2.5,
                                    iterations=3, first_order_residual=1e-9),
    oracle.SimulationTrace: dict(tau=np.zeros(2), rho=np.ones(2),
                                 speed=np.zeros(2), transit_time=math.pi,
                                 max_energy_drift=1e-10, rhs_evaluations=40,
                                 steps=3, end_gap=0.0),
}
BAD_FIELDS = [
    (closed.BrachFamily, dict(k=-1.0), "k must be a finite number >= 0"),
    (closed.BrachFamily, dict(k=math.inf), "k must be a finite number >= 0"),
    (closed.BrachFamily, dict(k=1e155), r"k = 1e\+155 is too large"),
    (closed.BrachFamily, dict(k="abc"), "k must be a number; got 'abc'"),
    (closed.ChordSpec, dict(separation_angle=0.0), "separation_angle must"),
    (closed.ChordSpec, dict(separation_angle="wide"),
     "separation_angle must be a number; got 'wide'"),
    (closed.PhysicalParams, dict(radius_m=0.0), "radius_m must"),
    (closed.PhysicalParams, dict(gravity_m_s2=math.nan), "gravity_m_s2 must"),
    (closed.PhysicalParams, dict(radius_m="six"),
     "radius_m must be a number; got 'six'"),
    (cycloid.CycloidSolution, dict(horizontal_span=0.0), "horizontal_span"),
    (cycloid.CycloidSolution, dict(horizontal_span=math.inf),
     "horizontal_span"),
    (cycloid.CycloidSolution, dict(horizontal_span=None),
     "horizontal_span must be a number; got None"),
]


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_record_fields(record):
    fields = RECORDS[record]
    value = record(**fields)
    assert value == record(*fields.values())
    assert {name: getattr(value, name) for name in fields} == fields
    assert repr(value) == (f"{record.__name__}("
                           + ", ".join(f"{k}={v!r}" for k, v in fields.items())
                           + ")")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
    with pytest.raises(AttributeError):
        value.extra = 1.0


@pytest.mark.parametrize("record, change, message", BAD_FIELDS,
                         ids=[f"{r.__name__}-{k}={v}" for r, c, _ in BAD_FIELDS
                              for k, v in c.items()])
def test_record_rejects_bad_fields(record, change, message):
    with pytest.raises(DomainError, match=message):
        record(**{**RECORDS[record], **change})


INT_FIELDS = {closed.BrachFamily: (1,), closed.ChordSpec: (1,),
              closed.PhysicalParams: (6371000, 10),
              cycloid.CycloidSolution: (1,)}


@pytest.mark.parametrize("record", list(INT_FIELDS), ids=lambda r: r.__name__)
def test_record_fields_are_floats(record):
    value = record(*INT_FIELDS[record])
    assert value == INT_FIELDS[record]
    assert all(type(field) is float for field in value)


@pytest.mark.parametrize("call, named", [
    (lambda: timing.DiscretePath([1.0, 2.0], [0.0, -1.0]), "got 2.0"),
    (lambda: timing.DiscretePath([1.0, float("nan")], [0.0, -1.0]),
     "got nan"),
    (lambda: gravitunnel.optimize_path(1.0, 2), "got 2"),
    (lambda: timing.DiscretePath([1.0, 0.5], [0.0, math.nan]),
     "theta[1] = nan"),
    (lambda: timing.DiscretePath([1.0, 0.5, 1.0], [0.0, -1.0]),
     "got 3 and 2"),
    (lambda: timing.DiscretePath([1.0, 0.5], [0.0, -1.0],
                                 [0.0, 0.5, 0.0]), "got 3 and 2"),
    (lambda: timing.DiscretePath([1.0, 0.5, 1.0], [0.0, -0.5, -1.0],
                                 [0.0, 0.9, 0.0]),
     "depth[1] = 0.9 contradicts rho[1] = 0.5"),
    (lambda: cycloid.CycloidSolution(-1.0), "got -1.0"),
    (lambda: closed.ChordSpec(7.0), "got 7.0"),
    # each public function of a number names a value float() refuses
    (lambda: closed.rho_min("abc"), "k must be a number; got 'abc'"),
    (lambda: closed.family_from_separation("abc"),
     "separation must be a number; got 'abc'"),
    (lambda: brachistochrone.theta_prime(0.5, "x"),
     "k must be a number; got 'x'"),
    (lambda: brachistochrone.theta_of_rho(0.5, "x"),
     "k must be a number; got 'x'"),
    (lambda: cycloid.compare_small_arc("wide"),
     "delta_theta must be a number; got 'wide'"),
    (lambda: oracle.optimize_path("wide", 24),
     "delta_theta must be a number; got 'wide'"),
    (lambda: oracle.optimize_path(1.0, "many"),
     "interior_points must be a number; got 'many'"),
    (lambda: oracle.perturbation_test(closed.BrachFamily(1.0), "big", 1),
     "amplitude must be a number; got 'big'"),
    (lambda: oracle.perturbation_test(closed.BrachFamily(1.0), 1e-3, "first"),
     "mode must be a number; got 'first'"),
    (lambda: brachistochrone.sample_path(closed.BrachFamily(1.0), "ten"),
     "n must be a number; got 'ten'"),
    (lambda: chord.chord_path(closed.ChordSpec(1.0), "ten"),
     "n must be a number; got 'ten'"),
    (lambda: chord.chord_path(closed.ChordSpec(1.0), math.inf),
     "n must be a finite number; got inf"),
])
def test_domain_errors_name_the_input(call, named):
    with pytest.raises(DomainError) as err:
        call()
    assert named in str(err.value)
