"""Tileset construction: the staged decorations, the closure, and its size."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest

from helpers import E, N, S, W, fc, tile_level_close, trip
from tilesub.assembler import build_grid_layout
from tilesub.errors import InvalidNetwork, TilesubError
from tilesub.grids import make_square_grid_document
from tilesub.model import build_numbering
from tilesub.simulation import (
    enumerate_macro_tiles,
    hierarchy_decorate,
    quotient_hierarchy,
    quotient_preimage,
    verify_self_simulation,
)
from tilesub.specfile import load_bundled
from tilesub.stages import stage_views
from tilesub.tileset import (
    DecoratedTile,
    DecorationTriple,
    PROVENANCE_BASE,
    PROVENANCE_CENTRAL,
    PROVENANCE_NETWORK,
    Tileset,
    UNDEFINED,
    _check_step1,
    _pairs_table,
    build_layout,
    close,
    decorate_base,
    decorate_network,
    derive_central,
    generate_tileset,
)

# Frozen regression constant: the closure on the 3x3 system. Derived by the
# closure run itself and cross-checked below against a pair-set computation
# and the counting bound (36 base + 4*184 network + 772 central).
TAU_3X3 = 1544

# Hand-transcribed facet-class rows of the worked example (S, N, W, E).
SIG = {
    1: ("m", 3, "m", 1), 2: ("p", 4, 1, 2), 3: ("m", 5, 2, "m"),
    4: (3, 8, "p", 6), 5: (4, 9, 6, 7), 6: (5, 10, 7, "p"),
    7: (8, "m", "m", 11), 8: (9, "p", 11, 12), 9: (10, "m", 12, "m"),
}


def base_tile_of(tiles, j0, parent):
    """The unique off-network tile on T_{j0} with the given parent index."""
    hits = [
        t for t in tiles
        if t.base == j0 and any(
            d is not UNDEFINED and d.f.is_internal and d.j == parent
            for d in t.triples
        )
    ]
    assert len(hits) == 1
    return hits[0]


def test_strip_decorations(tau, compiled, instances):
    """The projection pi forgets decorations and keeps the prototype name."""
    t5 = next(t for t in tau if t.base == 5)
    assert compiled.prototype_name[t5.base] == "sq"
    inst = instances[0]
    assert tuple(compiled.prototype_name[t.base] for t in inst.tiles) == ("sq",) * 9


def test_base_tiles_count_and_schema(compiled):
    base = decorate_base(compiled)
    assert len(base) == 36  # (n - p) * n = 4 * 9
    assert {t.base for t in base} == {1, 3, 7, 9}
    # T_1 with parent j carries (m,0,s) (f3,j,f3) (m,0,w) (f1,j,f1) where the
    # neighbor indices report the parent's own south/west classes.
    for j in range(1, 10):
        tile = base_tile_of(base, 1, j)
        s, w = fc(SIG[j][0]), fc(SIG[j][2])
        assert tile.triples == (
            DecorationTriple(fc("m"), 0, s),
            trip(3, j, 3),
            DecorationTriple(fc("m"), 0, w),
            trip(1, j, 1),
        )


def test_base_tile_parent5_instantiation(compiled):
    base = decorate_base(compiled)
    tile = base_tile_of(base, 1, 5)
    assert tile.triples == (
        trip("m", 0, 4), trip(3, 5, 3), trip("m", 0, 6), trip(1, 5, 1)
    )


def test_base_tile_corner7(compiled):
    base = decorate_base(compiled)
    tile = base_tile_of(base, 7, 2)
    assert tile.triples == (
        trip(8, 2, 8), trip("m", 0, 4), trip("m", 0, 1), trip(11, 2, 11)
    )


def test_allowed_pairs_off_network_rows(tau):
    # Parent column W of T_2: nine pairs (j', f1).
    pairs = _pairs_table(tau)
    assert pairs[(2, W)] == {(j, fc(1)) for j in range(1, 10)}
    # Parent column W of T_1: one pair per distinct west class of the
    # grandparent, eight in all. (The worked figure's "for any j" family.)
    expected = {(0, fc(SIG[j][2])) for j in range(1, 10)}
    assert len(expected) == 8
    assert pairs[(1, W)] == expected


def test_allowed_pairs_on_network_closure_set(tau):
    # The port column stabilizes to every pair any horizontal seam can carry.
    horizontal = {(0, fc(x)) for x in ("m", "p", 1, 2, 6, 7, 11, 12)} | {
        (j, fc(y)) for j in range(1, 10) for y in (1, 2, 11, 12)
    }
    assert _pairs_table(tau)[(4, W)] == horizontal
    assert len(horizontal) == 44


def test_network_step_examples(compiled, tau):
    new = decorate_network(compiled, _pairs_table(tau))
    t4_parent1 = DecoratedTile(
        4, (trip(3, 1, 3), trip(8, 1, 8), trip("p", 0, "m"), trip(6, 0, "m"))
    )
    assert t4_parent1 in new or t4_parent1 in tau
    t4_parent2 = [
        t for t in tau
        if t.base == 4 and t.triples[S - 1] == trip(3, 2, 3)
    ]
    assert len(t4_parent2) == 9
    for t in t4_parent2:
        assert t.triples[W - 1].g == fc(1) and t.triples[E - 1].g == fc(1)
        assert t.triples[W - 1].j == t.triples[E - 1].j
        assert t.triples[E - 1].f == fc(6)


def test_network_step_empty_pairs_yield_nothing(compiled):
    base = decorate_base(compiled)
    first = decorate_network(compiled, _pairs_table(base))
    # With only base tiles present, no pairs exist yet for parents that sit
    # on the network, so no tiles with those parents can be produced.
    assert not any(
        t.base == 2 and t.triples[W - 1].j == 2 for t in first
    )


def test_derive_central_examples(compiled, tau):
    base = decorate_base(compiled)
    derived = derive_central(compiled, base)
    for j in range(1, 10):
        s, w = fc(SIG[j][0]), fc(SIG[j][2])
        expected = DecoratedTile(5, (
            DecorationTriple(fc(4), 0, s),
            trip(9, j, 3),
            DecorationTriple(fc(6), 0, w),
            trip(7, j, 1),
        ))
        assert expected in derived
    # Deriving from a pair-carrying T_2 copies the pair onto S and N.
    t2 = next(
        t for t in tau if t.base == 2 and t.triples[S - 1] == trip("p", 3, 8)
    )
    central = derive_central(compiled, [t2])
    assert DecoratedTile(5, (
        trip(4, 3, 8), trip(9, 3, 8),
        trip(6, t2.triples[W - 1].j, 1), trip(7, t2.triples[W - 1].j, 2),
    )) in central


def test_derive_central_skips_undefined_and_centrals(compiled, tau):
    some_central = next(t for t in tau if t.base in compiled.central_cells)
    assert derive_central(compiled, [some_central]) == set()
    holed = DecoratedTile(1, (UNDEFINED,) * 4)
    assert derive_central(compiled, [holed]) == set()


def test_generate_is_fixpoint_and_canonical(system, numbering, networks, compiled, tau):
    assert len(tau) == TAU_3X3
    assert 36 <= len(tau) <= 4680
    # Stability: one more round adds nothing.
    more = decorate_network(compiled, _pairs_table(tau))
    more |= derive_central(compiled, tau)
    assert more <= set(tau.tiles)
    # Determinism: a fresh run is byte-identical, and so is the closure of
    # an already compiled layout.
    again = generate_tileset(system, numbering, networks)
    assert again.dump() == tau.dump()
    assert close(compiled) == tau
    assert len(set(tau.tiles)) == len(tau)


def _layout_of(doc):
    return build_layout(build_numbering(doc.system), doc.networks)


# Specs whose closure is compared against the tile-level oracle.
CLOSURE_SPECS = {
    "square3x3": lambda: _layout_of(load_bundled()),
    "tworule3x3": lambda: _layout_of(load_bundled("tworule3x3")),
    "grid3x4": lambda: _layout_of(make_square_grid_document(3, 4)),
    "grid4x4": lambda: _layout_of(make_square_grid_document(4, 4)),
    "seam-blind": lambda: replace(_layout_of(load_bundled()), macro_facet_idx={}),
}


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_close_matches_the_tile_level_oracle(spec):
    """The pair-level closure with shared decorations builds the same tiles,
    in the same order and with the same provenance, as the tile-level
    closure it replaced."""
    layout = CLOSURE_SPECS[spec]()
    got, expected = close(layout), tile_level_close(layout)
    assert got.tiles == expected.tiles
    assert got.provenance == expected.provenance
    assert got.dump() == expected.dump()


@pytest.mark.parametrize("spec", ["square3x3", "tworule3x3"])
def test_close_shares_each_decoration(spec):
    """Within one closure every distinct decoration is one object, and one
    more network round and central round over the closed set add nothing."""
    layout = CLOSURE_SPECS[spec]()
    tau = close(layout)
    decorations = [d for t in tau for d in t.triples]
    assert len({id(d) for d in decorations}) == len(set(decorations))
    closed = set(tau.tiles)
    assert decorate_network(layout, _pairs_table(tau)) <= closed
    assert derive_central(layout, tau) <= closed


def test_close_keeps_little_beyond_its_tileset():
    """The rounds' tables are freed before the tiles are sorted, so on the
    4x4 grid the closure's peak of traced memory is at most twice what its
    result keeps (2.32 times while the tables lived through the sort)."""
    layout = CLOSURE_SPECS["grid4x4"]()
    tracemalloc.start()
    try:
        tau = close(layout)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tau) == 10104
    assert peak <= 2.0 * kept


def test_provenance_partition(tau):
    from collections import Counter

    counts = Counter(tau.provenance)
    assert counts[PROVENANCE_BASE] == 36
    assert counts[PROVENANCE_NETWORK] == 4 * 184
    assert counts[PROVENANCE_CENTRAL] == 772
    for tile, prov in zip(tau.tiles, tau.provenance):
        expected = {1: PROVENANCE_BASE, 3: PROVENANCE_BASE, 7: PROVENANCE_BASE,
                    9: PROVENANCE_BASE, 5: PROVENANCE_CENTRAL}
        assert prov == expected.get(tile.base, PROVENANCE_NETWORK)


def test_step1_invariant_holds_everywhere(tau, compiled):
    for tile in tau:
        for k, dec in enumerate(tile.triples, start=1):
            assert dec is not UNDEFINED
            assert dec.f == compiled.nsigma[(tile.base, k)]


def test_step1_check_rejects_wrong_macro_index(compiled, tau):
    _check_step1(compiled, tau)
    tile = next(t for t in tau if t.base == 1)
    # T1's south facet is a macro-facet member; f1 is not its class.
    forged = DecoratedTile(1, (trip(1, 1, 1),) + tile.triples[1:])
    with pytest.raises(TilesubError, match="T1 facet 1"):
        _check_step1(compiled, Tileset((forged,), (PROVENANCE_BASE,)))
    holed = DecoratedTile(1, tile.triples[:3] + (UNDEFINED,))
    with pytest.raises(TilesubError, match="T1 facet 4"):
        _check_step1(compiled, Tileset((holed,), (PROVENANCE_BASE,)))


@pytest.mark.parametrize("second, message", [
    ({3: trip(7, 1, 1), 4: UNDEFINED}, "T1 facet 3: macro-index f7 is not the fixed m"),
    ({2: UNDEFINED, 3: trip(7, 1, 1)}, "T1 facet 2: closure tile is undefined"),
])
def test_step1_check_names_the_first_offending_tile_and_facet(compiled, tau, second, message):
    """The whole closure with faults forged into its second tile (a T1) and
    into the first facet of its last tile: the error names the second
    tile's first faulty facet, as a walk in canonical order would."""
    tiles = list(tau.tiles)
    assert tiles[1].base == 1 and tiles[-1].base != 1
    tiles[1] = tiles[1]._replace(triples=tuple(
        second.get(k, dec) for k, dec in enumerate(tiles[1].triples, start=1)
    ))
    tiles[-1] = tiles[-1]._replace(triples=(trip(7, 1, 1),) + tiles[-1].triples[1:])
    with pytest.raises(TilesubError) as caught:
        _check_step1(compiled, Tileset(tuple(tiles), tau.provenance))
    assert str(caught.value) == message


def _algebra_count(numbering, networks):
    """Independent size computation in the pair-set domain: solve for the
    pair families column by column, then count descriptors instead of
    constructing tiles."""
    layout = build_layout(numbering, networks)
    n = numbering.n
    parents = {j: layout.parents_for[j] for j in layout.parents_for}

    def fixed_pair(j0, parent, k):
        cls = layout.nsigma[(j0, k)]
        if cls.is_internal:
            return (parent, cls)
        if (j0, k) in layout.macro_facet_idx:
            return (0, layout.nsigma[(parent, layout.macro_facet_idx[(j0, k)])])
        return (0, cls)

    branch_of = {j0: k for j0, k, _ in layout.network_cells}
    slots_of = {j0: ks for j0, _, ks in layout.network_cells}
    pairs = {(j, k): set() for j in range(1, n + 1)
             for k in range(1, numbering.prototype_of(j).facet_count + 1)}
    for j0 in layout.off_network:
        for parent in parents[j0]:
            for k in range(1, numbering.prototype_of(j0).facet_count + 1):
                pairs[(j0, k)].add(fixed_pair(j0, parent, k))
    while True:
        grew = False
        for j0, branch_k, slot_ks in layout.network_cells:
            flowing = set()
            for parent in parents[j0]:
                flowing |= pairs[(parent, branch_k)]
            for k in range(1, numbering.prototype_of(j0).facet_count + 1):
                target = flowing if k in slot_ks else {
                    fixed_pair(j0, parent, k) for parent in parents[j0]
                }
                if not target <= pairs[(j0, k)]:
                    pairs[(j0, k)] |= target
                    grew = True
        # Central columns collect every pair of every non-central column.
        for j0 in layout.central_cells:
            count = numbering.prototype_of(j0).facet_count
            for k in range(1, count + 1):
                incoming = set()
                for other in range(1, n + 1):
                    if other in layout.central_cells:
                        continue
                    if numbering.prototype_of(other).facet_count != count:
                        continue
                    incoming |= pairs[(other, k)]
                if not incoming <= pairs[(j0, k)]:
                    pairs[(j0, k)] |= incoming
                    grew = True
        if not grew:
            break

    base_count = sum(len(parents[j0]) for j0 in layout.off_network)
    network_count = 0
    tuples = set()
    for j0 in layout.off_network:
        for parent in parents[j0]:
            count = numbering.prototype_of(j0).facet_count
            tuples.add(tuple(fixed_pair(j0, parent, k) for k in range(1, count + 1)))
    for j0, branch_k, slot_ks in layout.network_cells:
        count = numbering.prototype_of(j0).facet_count
        for parent in parents[j0]:
            for pair in pairs[(parent, branch_k)]:
                network_count += 1
                tuples.add(tuple(
                    pair if k in slot_ks else fixed_pair(j0, parent, k)
                    for k in range(1, count + 1)
                ))
    central_count = 0
    for j0 in layout.central_cells:
        count = numbering.prototype_of(j0).facet_count
        central_count += len({t for t in tuples if len(t) == count})
    return base_count + network_count + central_count


def test_closure_size_matches_pair_algebra(numbering, networks, tau):
    assert _algebra_count(numbering, networks) == len(tau) == TAU_3X3


def test_matching_semantics():
    """Facets match exactly when their decorations are equal; UNDEFINED
    matches only itself. Equal decorations are one dict key, and they sort
    field by field."""
    a = trip(1, 2, 3)
    assert a == trip(1, 2, 3)
    assert a != trip(1, 2, 4)
    assert UNDEFINED == UNDEFINED
    assert a != UNDEFINED
    assert UNDEFINED != a
    assert {a: 1, trip(1, 2, 3): 2, UNDEFINED: 3} == {a: 2, UNDEFINED: 3}
    assert sorted([trip(2, 0, 1), trip(1, 5, 3), trip(1, 2, 4), trip("m", 0, 1)]) == [
        trip(1, 2, 4), trip(1, 5, 3), trip(2, 0, 1), trip("m", 0, 1),
    ]


def test_generate_rejects_broken_networks(system, numbering, networks):
    from tilesub.errors import InvalidNetwork
    from tilesub.network import Network

    bad = dict(networks)
    bad["r1"] = Network("r1", "c1", networks["r1"].branches)
    with pytest.raises(InvalidNetwork):
        generate_tileset(system, numbering, bad)
    with pytest.raises(InvalidNetwork):
        generate_tileset(system, numbering, {})


def test_layout_rejects_a_center_outside_the_template(numbering, networks):
    """Without a central cell the layout would silently lose the center
    tiles, so the network check refuses an unknown center as UnknownCell."""
    from tilesub.errors import InvalidNetwork

    bad = {"r1": replace(networks["r1"], center="zz")}
    with pytest.raises(InvalidNetwork, match=r"\['UnknownCell'\]"):
        build_layout(numbering, bad)


# Every public entry point that builds a layout, called with good inputs
# (the `good` fixture, all built from the bundled networks) and the networks
# under test.
ENTRY_POINTS = {
    "generate_tileset": lambda g, nets: generate_tileset(g.system, g.numbering, nets),
    "enumerate_macro_tiles":
        lambda g, nets: enumerate_macro_tiles(g.tau, g.system, g.numbering, nets),
    "verify_self_simulation": lambda g, nets: verify_self_simulation(
        g.tau, g.system, g.numbering, nets, g.instances),
    "hierarchy_decorate": lambda g, nets: hierarchy_decorate(g.system, g.numbering, nets, "r1", 2),
    "quotient_hierarchy":
        lambda g, nets: quotient_hierarchy(g.hpatch, g.system, g.numbering, nets),
    "quotient_preimage": lambda g, nets: quotient_preimage(
        g.decomposed, g.system, g.numbering, nets, g.tau),
    "stage_views": lambda g, nets: stage_views(g.tau, g.numbering, nets),
    "build_grid_layout": lambda g, nets: build_grid_layout(g.system, g.numbering, nets),
}


def _with_branch_s(networks, **changes):
    net = networks["r1"]
    branches = tuple(replace(b, **changes) if b.k == S else b for b in net.branches)
    return {"r1": replace(net, branches=branches)}


# Each bad network set, with the message it is refused with.
BAD_NETWORKS = {
    "missing": (lambda networks: {}, "rule r1 has no network"),
    "unknown-cell": (
        lambda networks: _with_branch_s(networks, path=("zz",), port=("zz", 1)),
        r"rule r1 network invalid: \['PortMembership', 'UnknownCell'\]",
    ),
    "port-off-its-facet": (
        lambda networks: _with_branch_s(networks, port=("c2", W)),
        r"rule r1 network invalid: \['PortMembership'\]",
    ),
}


@pytest.fixture(scope="module")
def good(system, numbering, networks, tau, instances):
    return SimpleNamespace(
        system=system, numbering=numbering, tau=tau, instances=instances,
        hpatch=hierarchy_decorate(system, numbering, networks, "r1", 2),
        decomposed=SimpleNamespace(blocks={(0, 0): instances[0]}, adjacencies=(), margins=()),
    )


@pytest.mark.parametrize("bad", BAD_NETWORKS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_bad_networks(good, networks, entry, bad):
    """`build_layout` is the one spec gate, so every library entry point
    refuses a missing network, a network off the template and a port off
    its macro-facet, not only the closure."""
    make, message = BAD_NETWORKS[bad]
    with pytest.raises(InvalidNetwork, match=message):
        ENTRY_POINTS[entry](good, make(networks))
