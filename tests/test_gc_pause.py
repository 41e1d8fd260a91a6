"""The cyclic garbage collector is paused over the bulk builders, the
caller's collector state is restored however they return, and no builder
leaves cyclic garbage behind for the paused collector to miss."""

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


def builder_calls(system, numbering, networks, compiled, tau, instances, layout):
    """Each paused builder on the bundled 3x3, as a call of no arguments;
    the hierarchy of the last two is built beforehand."""
    hpatch = simulation.hierarchy_decorate(system, numbering, networks, "r1", 3)
    return {
        "close": lambda: tileset.close(compiled),
        "enumerate_macro_tiles": lambda: simulation.enumerate_macro_tiles(
            tau, system, numbering, networks),
        "verify_self_simulation": lambda: simulation.verify_self_simulation(
            tau, system, numbering, networks, instances),
        "assemble_patches": lambda: assembler.assemble_patches(tau, numbering, 2, 2),
        "hierarchy_decorate": lambda: simulation.hierarchy_decorate(
            system, numbering, networks, "r1", 3),
        "quotient_hierarchy": lambda: simulation.quotient_hierarchy(
            hpatch, system, numbering, networks),
        "grid_from_hierarchy": lambda: assembler.grid_from_hierarchy(hpatch, layout, networks),
    }


@pytest.mark.parametrize("name", sorted(PAUSED))
def test_a_builder_leaves_no_cyclic_garbage(collector, name, system, numbering, networks,
                                            compiled, tau, instances, layout):
    """With the collector off, a collection right after the call finds
    nothing to free: a builder whose memos closed over an object holding
    them would leave its tables alive as a cycle until the next one."""
    calls = builder_calls(system, numbering, networks, compiled, tau, instances, layout)
    assert set(calls) == PAUSED
    gc.disable()
    gc.collect()
    kept = calls[name]()  # bound, so that only what the call left unreachable is found
    assert gc.collect() == 0
    del kept
