import pytest

import gravitunnel
from gravitunnel import brachistochrone, chord, closed, core, timing

MOVED = {
    brachistochrone: ("rho_min", "separation_angle", "BrachFamily",
                      "family_from_separation", "arc_length"),
    timing: ("TransitResult", "total_transit_time"),
    chord: ("ChordSpec", "chord_from_separation", "chord_transit_time"),
    core: ("PhysicalParams", "EARTH", "Scaling", "make_scaling"),
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
                 "core", "cycloid", "errors", "oracle", "timing"):
        assert getattr(gravitunnel, name).__name__ == f"gravitunnel.{name}"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gravitunnel.no_such_name
    assert not hasattr(gravitunnel, "numpy")
