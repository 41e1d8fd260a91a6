"""The cyclic garbage collector is paused over the bulk builders, and the
caller's collector state is restored however they return."""

import gc
import inspect

import pytest

from tilesub import assembler, simulation, tileset
from tilesub.errors import NoMacroTiles
from tilesub.tileset import Tileset, _nogc

PAUSED = {
    "close", "enumerate_macro_tiles", "verify_self_simulation", "assemble_patches",
    "hierarchy_decorate", "quotient_hierarchy", "grid_from_hierarchy",
}


def paused_functions():
    """Every function of the builder modules that `_nogc` wraps."""
    return {
        name: obj
        for module in (tileset, simulation, assembler)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and hasattr(obj, "__wrapped__")
    }


@pytest.fixture
def collector():
    """Restores the collector state the test started with."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def test_the_bulk_builders_are_paused_and_none_is_a_generator():
    """A paused generator would return before its work ran, with the
    collector already restored."""
    found = paused_functions()
    assert set(found) == PAUSED
    for func in found.values():
        assert not inspect.isgeneratorfunction(func.__wrapped__)
        assert inspect.signature(func) == inspect.signature(func.__wrapped__)


def test_paused_inside_and_enabled_after(collector, tau, numbering):
    gc.enable()
    seen = []

    @_nogc
    def probe():
        seen.append(gc.isenabled())
        return "done"

    assert probe() == "done" and seen == [False]
    assert gc.isenabled()
    assert len(assembler.assemble_patches(tau, numbering, 1, 1)) == len(tau)
    assert gc.isenabled()


def test_enabled_after_a_builder_raises(collector, system, numbering, networks):
    gc.enable()
    with pytest.raises(NoMacroTiles):
        simulation.verify_self_simulation(Tileset((), ()), system, numbering, networks, ())
    assert gc.isenabled()


def test_a_paused_caller_stays_paused(collector, system, numbering, networks, tau):
    gc.disable()
    assert len(assembler.assemble_patches(tau, numbering, 1, 1)) == len(tau)
    assert not gc.isenabled()
    with pytest.raises(NoMacroTiles):
        simulation.verify_self_simulation(Tileset((), ()), system, numbering, networks, ())
    assert not gc.isenabled()
