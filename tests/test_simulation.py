"""Macro-tile enumeration, phi, self-simulation, hierarchy and quotients."""

import hashlib
import random
import tracemalloc
from array import array
from dataclasses import replace
from importlib import resources
from itertools import product
from types import SimpleNamespace

import pytest

from helpers import (
    E,
    N,
    S,
    W,
    address_views,
    biconditional_by_sets,
    fc,
    partial_gamma_3x3_text,
    trip,
)
from tilesub.assembler import assemble_patches
from tilesub.errors import (
    InconsistentGluing,
    IndexOutOfRange,
    NoMacroTiles,
    PartialBlock,
    UnresolvedReference,
)
from tilesub.grids import make_square_grid_document
from tilesub.model import build_numbering
from tilesub.network import check_port_condition
from tilesub.simulation import (
    _biconditional_holds,
    _by_key,
    _search,
    _seam_keys,
    _side,
    enumerate_macro_tiles,
    hierarchy_decorate,
    phi,
    quotient_hierarchy,
    quotient_preimage,
    verify_self_simulation,
)
from tilesub.specfile import load_bundled, parse_spec
from tilesub.tileset import (
    DecoratedTile,
    DecorationTriple,
    Tileset,
    build_layout,
    close,
    generate_tileset,
)

# SHA-256 of the tileset dump of `partial_gamma_3x3_text()`.
PARTIAL_GAMMA_DUMP_SHA256 = "74c5f772adfce28c3ff93835412e676911b08f38631b0c69b1c624d12459c2c9"

# Frozen regression constant: the enumeration is in bijection with the
# tileset here (each assembly is determined by its parent and central tile).
INSTANCES_3X3 = 1544

# Undefined facet slots on the depth-2 bottom patch: nine block networks of
# 12 slots each, plus the blown-down top network (4 ports x 3 members and
# 4 crossed seams x 6 members, overlapping the block ports 12 times).
DEPTH2_UNDEFINED = 9 * 12 + (12 + 24) - 12


def test_enumeration_count_regression(instances):
    assert len(instances) == INSTANCES_3X3


# SHA-256 of `repr` of the whole instance tuple, taken while instances were
# frozen dataclasses: the `NamedTuple` keeps fields, order and text.
INSTANCES_REPR_SHA256 = {
    "square3x3": "50306d16e477c30b30fbf07d5326373a88e2e26fd08a56f98d4bcd83a01175d6",
    "tworule3x3": "32fca8783e9e1bf2159977f24404ec5553583807845c6a1f4b5e7e7a8debb1e4",
    "grid4x4": "32054f8cc9838f9807e76f14500e59914d34abe3fe02e9abd37b332adcd0214f",
}


@pytest.mark.parametrize("spec", sorted(INSTANCES_REPR_SHA256))
def test_instance_repr_is_pinned(spec):
    doc = make_square_grid_document(4, 4) if spec == "grid4x4" else load_bundled(spec)
    numbering = build_numbering(doc.system)
    tau = generate_tileset(doc.system, numbering, doc.networks)
    instances = enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)
    digest = hashlib.sha256(repr(instances).encode()).hexdigest()
    assert digest == INSTANCES_REPR_SHA256[spec]


# Per bundled spec, the instance count and the SHA-256 over `repr` of each
# instance in order; for the 4x4 grid the count and the SHA-256 of the
# `repr` of its first and of its last instance. Taken while the enumeration
# returned a tuple of `MacroTileInstance`s.
INSTANCE_DIGESTS = {
    "square3x3": (1544, "6ad6d86e0be1ad6a649211c11024ec0997d707bca6d08e3b6dfb42b74d5b669e"),
    "tworule3x3": (7608, "7ad1bd94ea12c1aeea2f16599c8cd2bd8e3dc39a2b90069d59b2f4f2990468b6"),
}
GRID4X4_INSTANCES = 10104
GRID4X4_ENDS_SHA256 = (
    "db597b7e562d68c2d5cf174e44dcd0ae05eb7031c8199d40215a6c22676027c2",
    "316c2391fc4db5079e910f21c024cf4d5836f64d0aad1b2655a05cd740eea56b",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bundled_instances(spec):
    doc = load_bundled(spec)
    numbering = build_numbering(doc.system)
    tau = generate_tileset(doc.system, numbering, doc.networks)
    return doc, numbering, tau, enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)


@pytest.mark.parametrize("spec", sorted(INSTANCE_DIGESTS))
def test_each_instance_repr_is_pinned(spec):
    """Each instance, built when it is read, has the fields, order and text
    the tuple of instances had, one by one."""
    instances = _bundled_instances(spec)[3]
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(repr(inst).encode())
    assert (len(instances), digest.hexdigest()) == INSTANCE_DIGESTS[spec]


def test_grid4x4_instance_ends_are_pinned(grid4x4):
    doc, numbering, tau, _ = grid4x4
    instances = enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)
    assert len(instances) == GRID4X4_INSTANCES
    ends = (instances[0], instances[-1])
    assert tuple(_sha256(repr(inst)) for inst in ends) == GRID4X4_ENDS_SHA256
    assert ends == (instances[-len(instances)], instances[len(instances) - 1])


@pytest.mark.parametrize("spec", sorted(INSTANCE_DIGESTS))
def test_instance_sequence_reads_as_the_tuple(spec):
    """Indices on both sides of every rule's first instance, negative
    indices, slices, repeated iteration, `==` either way round and `repr`
    read as the tuple of the same instances; unlike the tuple, the sequence
    is not hashable."""
    doc, numbering, tau, instances = _bundled_instances(spec)
    listed = list(instances)
    assert list(instances) == listed and len(listed) == len(instances)
    assert [instances[i] for i in range(len(listed))] == listed
    assert [instances[-i] for i in range(1, len(listed) + 1)] == listed[::-1]
    assert instances[5:40:3] == listed[5:40:3] and instances[::-1] == listed[::-1]
    assert instances[len(listed):] == [] and isinstance(instances[:1], list)
    again = enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)
    for same in (tuple(listed), listed, again):
        assert instances == same and same == instances and not instances != same
    for other in (tuple(listed[:-1]), listed[1:] + listed[:1], ()):
        assert instances != other and other != instances
    assert instances != "instances" and instances and repr(instances) == repr(tuple(listed))
    for outside in (len(listed), -len(listed) - 1):
        with pytest.raises(IndexError):
            instances[outside]
    with pytest.raises(TypeError):
        hash(instances)


def test_no_filling_gives_an_empty_instance_sequence(system, numbering, networks):
    instances = enumerate_macro_tiles(Tileset((), ()), system, numbering, networks)
    assert len(instances) == 0 and not instances
    assert instances == () and instances == [] and list(instances) == []
    with pytest.raises(IndexError):
        instances[0]


def test_enumeration_keeps_at_most_1_mib(grid4x4):
    """The 4x4 grid's 10104 instances are kept as 16 C-int tile indices
    each, 0.62 MiB and the arrays' spare room; the tuple of
    `MacroTileInstance`s kept 2.55 MB. The tileset's own id columns, built
    on first use, are the tileset's, so they are built before tracing."""
    doc, numbering, tau, _ = grid4x4
    tau.decoration_ids
    tracemalloc.start()
    try:
        instances = enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(instances) == GRID4X4_INSTANCES
    assert kept <= 1 << 20


def test_search_peaks_on_the_4x4_grid(grid4x4):
    """`_search` indexes a key with one candidate without a list, and its
    solutions are packed 1024 a write: the 4x4 enumeration traces about 1.8
    MiB above its start and the 2x2 assembly about 2.4 MiB (Python 3.11),
    where a list for every key and 4096 solutions a write took 3.1 and 3.65
    MiB. The tileset's id columns are built before tracing."""
    doc, numbering, tau, _ = grid4x4
    tau.decoration_ids
    peaks = []
    for run in (lambda: enumerate_macro_tiles(tau, doc.system, numbering, doc.networks),
                lambda: assemble_patches(tau, numbering, 2, 2)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    enumeration, assembly = peaks
    assert enumeration <= 2.5 * 2**20
    assert assembly <= 3 * 2**20


def test_instances_have_no_instance_dict(instances):
    """Five slots a tuple, hashed and compared by value."""
    inst = instances[0]
    assert not hasattr(inst, "__dict__")
    assert inst == inst._replace() and hash(inst) == hash(inst._replace())
    assert inst._fields == ("rule_id", "cells", "tiles", "parent_index", "central_tile")


def test_parent1_instances_collapse_to_single_index(instances, numbering, networks):
    parent1 = [inst for inst in instances if inst.parent_index == 1]
    assert len(parent1) == 9
    for inst in parent1:
        north = inst.central_tile.triples[N - 1]
        east = inst.central_tile.triples[E - 1]
        # The central tile forces both free pairs to share one index.
        assert north.g == fc(3) and east.g == fc(1)
        assert north.j == east.j


def test_instances_have_uniform_parent():
    """The enumeration keys cells on their seams alone; the strong residual
    connecting condition must then make every parent facet of every
    non-central cell of every instance read the instance's parent index.
    Checked on both bundled specs, the 3x4 grid and the partial-gamma 3x3."""
    docs = [
        load_bundled("square3x3"),
        load_bundled("tworule3x3"),
        make_square_grid_document(3, 4),
        parse_spec(partial_gamma_3x3_text()),
    ]
    for doc in docs:
        numbering = build_numbering(doc.system)
        layout = build_layout(numbering, doc.networks)
        tau = generate_tileset(doc.system, numbering, doc.networks)
        instances = enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)
        assert instances
        for inst in instances:
            read = {
                tile.triples[k - 1].j
                for tile in inst.tiles
                for k in layout.parent_facets.get(tile.base, ())
            }
            assert read == {inst.parent_index}


@pytest.mark.parametrize("spec", ["square3x3", "tworule3x3"])
def test_instances_and_patches_in_canonical_order(spec):
    """Instances come rule by rule, and within a rule, like the 2x2 patches,
    in strictly increasing lexicographic order of tileset indices."""
    doc = load_bundled(spec)
    numbering = build_numbering(doc.system)
    tau = generate_tileset(doc.system, numbering, doc.networks)
    instances = enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)
    rule_ids = [rule.rule_id for rule in doc.system.rules]
    assert [inst.rule_id for inst in instances] == sorted(
        (inst.rule_id for inst in instances), key=rule_ids.index
    )
    for rule_id in rule_ids:
        keys = [
            tuple(tau.index(t) for t in inst.tiles)
            for inst in instances if inst.rule_id == rule_id
        ]
        assert keys and all(a < b for a, b in zip(keys, keys[1:]))
    scanline = [(0, 0), (1, 0), (0, 1), (1, 1)]
    keys = [
        tuple(tau.index(p.cells[pos]) for pos in scanline)
        for p in assemble_patches(tau, numbering, 2, 2)
    ]
    assert keys and all(a < b for a, b in zip(keys, keys[1:]))


def search_by_product(pools, rows, seams):
    """Oracle for `_search` on `_seam_keys` keys: every assignment of the
    index pools in `product` order, kept when each cell's row repeats its
    seams."""
    return [
        combo for combo in product(*pools)
        if all(
            rows[combo[c]][k - 1] == rows[combo[i]][k2 - 1]
            for c, cell_seams in enumerate(seams) for k, i, k2 in cell_seams
        )
    ]


# Per layout, each cell's seams (k, i, k2).
SEARCH_LAYOUTS = {
    "chain of one-seam cells": [[], [(1, 0, 2)], [(1, 1, 2)], [(1, 2, 2)]],
    "2x2 grid": [[], [(W, 0, E)], [(S, 0, N)], [(W, 2, E), (S, 1, N)]],
    "three seams at a middle and the last cell": [
        [], [(1, 0, 2)], [(1, 0, 1), (2, 1, 2), (3, 1, 3)], [(1, 2, 2)],
        [(2, 0, 2), (3, 1, 1), (4, 3, 4)],
    ],
    "a middle cell without seams": [[], [(1, 0, 2), (2, 0, 1)], [], [(3, 2, 4)]],
}
# Decoration values skewed to 0, so that most pools have solutions and
# dead ends both, and most keys hold several candidates.
SKEWED = (0, 0, 0, 0, 1, 2)
# Decoration values drawn without repeats within a pool's facet, one row of
# the pool then repeated whole, so that most keys hold one candidate and
# one key several.
SPREAD = range(6)


def spread_rows(rng, size, wanted):
    """`size` rows of four decoration ids from `SPREAD`, distinct on each
    facet but for one row drawn twice. One row carries id `wanted[k]` on
    facet k + 1, and is returned as well."""
    columns = []
    for k in range(4):
        column = rng.sample(SPREAD, size - 1)
        if k in wanted:  # moved first, or put there in place of the last id
            if wanted[k] in column:
                column.remove(wanted[k])
            else:
                column.pop()
            column.insert(0, wanted[k])
        columns.append(column)
    rows = list(zip(*columns))
    planted = rows[0]
    rows.insert(rng.randrange(size), rng.choice(rows))
    return rows, planted


# The same layouts with `SPREAD` pools.
SPREAD_LAYOUTS = {f"{name}, most keys one candidate": seams
                  for name, seams in SEARCH_LAYOUTS.items()}


@pytest.mark.parametrize("name", {**SEARCH_LAYOUTS, **SPREAD_LAYOUTS})
@pytest.mark.parametrize("seed", range(6))
def test_search_matches_product_filter(name, seed):
    """`_search` yields exactly the assignments a filter over `product`
    keeps, in the same order, on random pools small enough that many
    prefixes meet an empty group, at middle cells and at the last one.
    Skewed pools key most candidates alike. Spread pools give most keys one
    candidate, which the index keeps without a group, and one key of each
    cell with seams two candidates, which it keeps in a group; each has one
    solution planted."""
    spread = name in SPREAD_LAYOUTS
    seams = SPREAD_LAYOUTS[name] if spread else SEARCH_LAYOUTS[name]
    rng = random.Random(seed)
    # Candidates are indices into `rows`, each a row of four decoration ids,
    # and each pool a run of fresh indices; the columns are read as a
    # tileset's `decoration_ids`.
    rows, pools, planted = [], [], []
    for cell_seams in seams:
        size = rng.randrange(4, 7) if spread else rng.randrange(3, 7)
        pools.append(range(len(rows), len(rows) + size))
        if spread:  # with one solution planted, through each pool's first drawn row
            wanted = {k - 1: planted[i][k2 - 1] for k, i, k2 in cell_seams}
            pool_rows, row = spread_rows(rng, size, wanted)
            rows.extend(pool_rows)
            planted.append(row)
        else:
            rows.extend(tuple(rng.choice(SKEWED) for _ in range(4)) for _ in range(size))
    columns = [array("i", column) for column in zip(*rows)]
    radix = len(SPREAD) + 1 if spread else max(SKEWED) + 2
    cells = [(pool, *_seam_keys(columns, radix, cell_seams))
             for pool, cell_seams in zip(pools, seams)]
    if spread:
        for (pool, key, _), cell_seams in zip(cells, seams):
            index, groups = _by_key(pool, key)
            ones = sum(found >= 0 for found in index.values())
            assert (ones, len(groups)) == ((len(pool) - 2, 1) if cell_seams else (0, 1))
    expected = search_by_product(pools, rows, seams)
    assert expected or not spread
    assert list(_search(cells)) == expected
    # An emptied pool, in the middle or last, leaves no solution.
    for c in (len(cells) // 2, len(cells) - 1):
        emptied = cells[:c] + [([], *cells[c][1:])] + cells[c + 1:]
        assert list(_search(emptied)) == []


def test_two_seam_keys_are_one_to_one():
    """Two seams' ids, each in -1 .. radix - 2 (-1 for a facet a tile lacks),
    pack into one key that no other pair gives, and a placed cell's wanted
    key equals its own key."""
    radix = 5
    ids = range(-1, radix - 1)
    pairs = [(a, b) for a in ids for b in ids]
    columns = [array("i", [a for a, _ in pairs]), array("i", [b for _, b in pairs])]
    key, want = _seam_keys(columns, radix, [(1, 0, 1), (2, 0, 2)])
    assert len({key(t) for t in range(len(pairs))}) == len(pairs)
    assert all(want([t]) == key(t) for t in range(len(pairs)))


def test_search_of_zero_and_one_cell():
    nothing = lambda _: ()  # noqa: E731
    assert list(_search([])) == [()]
    assert list(_search([(range(3), nothing, nothing)])) == [(0,), (1,), (2,)]
    assert list(_search([(range(3), nothing, lambda _: ("x",))])) == []
    assert list(_search([((), nothing, nothing)])) == []
    # A one-cell search filters the pool by the wanted key.
    assert list(_search([([0, 1, 2, 1], lambda c: c, lambda _: 1)])) == [(1,), (1,)]
    assert list(_search([([0, 2], lambda c: c, lambda _: 1)])) == []


def test_search_dead_ends_at_the_last_and_a_middle_cell():
    """Hand-made pools: the second of three cells has no candidate for the
    first cell's value 2, and the last none for the middle's value 5."""
    # Candidates index `pairs`; a pair (a, b) follows one whose b is a.
    pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (3, 6), (3, 5), (4, 7), (6, 8), (6, 9)]
    cells = [
        (range(0, 3), lambda c: 0, lambda _: 0),
        (range(3, 7), lambda c: pairs[c][0], lambda placed: pairs[placed[0]][1]),
        (range(7, 10), lambda c: pairs[c][0], lambda placed: pairs[placed[1]][1]),
    ]
    pools = [[pairs[c] for c in pool] for pool, _, _ in cells]
    expected = [
        combo for combo in product(*pools)
        if combo[1][0] == combo[0][1] and combo[2][0] == combo[1][1]
    ]
    assert expected == [((0, 1), (1, 4), (4, 7)), ((0, 3), (3, 6), (6, 8)),
                        ((0, 3), (3, 6), (6, 9))]
    assert [tuple(map(pairs.__getitem__, found)) for found in _search(cells)] == expected


def test_instances_match_internally(instances, doc3):
    template = doc3.system.rules[0].template
    pos = template.position
    for inst in instances[::211]:
        for (ca, ka), (cb, kb) in template.internal_pairings:
            assert inst.tiles[pos[ca]].triples[ka - 1] == inst.tiles[pos[cb]].triples[kb - 1]


def test_phi_parent1_reproduces_base_tile(instances, compiled, tau):
    for inst in (i for i in instances if i.parent_index == 1):
        image = phi(compiled, inst)
        a = inst.central_tile.triples[N - 1].j
        assert image == DecoratedTile(1, (
            DecorationTriple(fc("m"), 0, inst.central_tile.triples[S - 1].g),
            trip(3, a, 3),
            DecorationTriple(fc("m"), 0, inst.central_tile.triples[W - 1].g),
            trip(1, a, 1),
        ))
        assert image in tau


def test_phi_projects_to_parent_prototype(instances, numbering, compiled):
    image = phi(compiled, instances[0])
    assert numbering.prototype_of(image.base).name == "sq"


def test_phi_membership_exhaustive(instances, compiled, tau):
    assert all(phi(compiled, inst) in tau for inst in instances)


def test_verify_passes(tau, system, numbering, networks, instances):
    report = verify_self_simulation(tau, system, numbering, networks, instances)
    assert report.ok
    assert report.condition1_ok and report.condition3_ok and report.phi_in_tileset
    assert "patch-scale" in report.condition2_note


def test_phi_membership_keeps_no_tile_table(system, numbering, networks, instances):
    """Condition 1 looks each phi image up by its base and its row of
    decoration ids, so the tileset keeps no tile -> index table once the
    check has returned."""
    tau = generate_tileset(system, numbering, networks)
    report = verify_self_simulation(tau, system, numbering, networks, instances)
    assert report.ok and report.phi_in_tileset
    assert "_by_tile" not in vars(tau)


def _blind_seam_mutant(compiled):
    """The seam-blind negative control: the closure of a layout without its
    macro-facet table."""
    return close(replace(compiled, macro_facet_idx={}))


def test_verify_empty_tileset_raises(system, numbering, networks):
    empty = Tileset((), ())
    with pytest.raises(NoMacroTiles):
        verify_self_simulation(empty, system, numbering, networks,
                               enumerate_macro_tiles(empty, system, numbering, networks))


def test_blind_seam_mutant_fails_condition3(system, numbering, networks, compiled):
    mutant = _blind_seam_mutant(compiled)
    report = verify_self_simulation(
        mutant, system, numbering, networks,
        enumerate_macro_tiles(mutant, system, numbering, networks),
    )
    assert report.condition1_ok and report.phi_in_tileset
    assert not report.condition3_ok
    assert any("condition3" in f for f in report.failures)


# The seam-blind control per bundled spec: mutant size (= its instance
# count), SHA-256 of its dump, and the count and SHA-256 of its verdict's
# failure lines.
BLIND_SEAM_PINS = {
    "square3x3": (1264, "1fa9e53c0543e42d1e6ff00b30fc7cf5e889ad3c19a89292637f3b55eab38149",
                  4, "aed6dcfc51e50cfbdb9449dc4ecd4c85268d216b7f13d8fb687846f0d5f3868e"),
    "tworule3x3": (6384, "54be460be75a7d5339f2efe639b4e14dc8bdffbf6fc0daa44f405153020c6579",
                   16, "90fd0895dd975b306bc7522f230c51f5602a3bca774e65e133557789b21033fc"),
}


@pytest.mark.parametrize("spec", sorted(BLIND_SEAM_PINS))
def test_blind_seam_control_pins(spec):
    """The seam-blind control fails condition (3) alone, seam by seam, on
    both bundled specs."""
    size, dump_sha, failures, failures_sha = BLIND_SEAM_PINS[spec]
    doc = load_bundled(spec)
    numbering = build_numbering(doc.system)
    mutant = _blind_seam_mutant(build_layout(numbering, doc.networks))
    assert len(mutant) == size
    assert hashlib.sha256(mutant.dump().encode()).hexdigest() == dump_sha
    instances = enumerate_macro_tiles(mutant, doc.system, numbering, doc.networks)
    assert len(instances) == size
    report = verify_self_simulation(mutant, doc.system, numbering, doc.networks, instances)
    assert report.condition1_ok and report.phi_in_tileset and not report.condition3_ok
    assert len(report.failures) == failures
    assert hashlib.sha256("\n".join(report.failures).encode()).hexdigest() == failures_sha


def _seam_sides(system, layout, instances):
    """Per directed seam entry of `layout.seams`, its failure line and its
    two sides as the set oracle takes them: instance -> side key and
    instance -> image facet, for each side."""
    images = [phi(layout, inst) for inst in instances]
    by_rule = {}
    for idx, inst in enumerate(instances):
        by_rule.setdefault(inst.rule_id, []).append(idx)

    def side(rule_id, k, members):
        pos = system.rule(rule_id).template.position
        idxs = by_rule.get(rule_id, ())
        keys = {idx: tuple(instances[idx].tiles[pos[c]].triples[m - 1] for c, m in members)
                for idx in idxs}
        return keys, {idx: images[idx].triples[k - 1] for idx in idxs}

    for ((rid_a, a), (rid_b, b)), seam in layout.seams.items():
        yield (f"condition3 fails across ({rid_a},{a})~({rid_b},{b})",
               *side(rid_a, a, [sa for sa, _ in seam]), *side(rid_b, b, [sb for _, sb in seam]))


@pytest.mark.parametrize("case", [
    "square3x3", "tworule3x3", "grid4x4", "square3x3 blind", "tworule3x3 blind",
])
def test_condition3_one_pass_check_matches_the_set_oracle(case):
    """Seam by seam, the single-valued side maps give the set oracle's
    verdict, and the report lists exactly the seams the oracle fails: none
    on the true closures, some on the seam-blind mutants."""
    spec, _, blind = case.partition(" ")
    doc = make_square_grid_document(4, 4) if spec == "grid4x4" else load_bundled(spec)
    numbering = build_numbering(doc.system)
    layout = build_layout(numbering, doc.networks)
    tau = _blind_seam_mutant(layout) if blind else close(layout)
    instances = enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)
    failing = []
    for line, keys_a, images_a, keys_b, images_b in _seam_sides(doc.system, layout, instances):
        want = biconditional_by_sets(keys_a, images_a, keys_b, images_b)
        got = _biconditional_holds(
            _side(list(keys_a.values()), list(images_a.values())),
            _side(list(keys_b.values()), list(images_b.values())),
        )
        assert got == want, line
        if not want:
            failing.append(line)
    assert bool(failing) == bool(blind)
    report = verify_self_simulation(tau, doc.system, numbering, doc.networks, instances)
    assert [f for f in report.failures if f.startswith("condition3")] == failing


@pytest.mark.parametrize("keys_a,images_a,keys_b,images_b,holds", [
    # A key repeated inside one side with two images, not shared: holds.
    (["k", "k"], ["i1", "i2"], ["l"], ["i3"], True),
    # An image repeated inside one side with two keys, not shared: holds.
    (["k", "l"], ["i", "i"], ["m"], ["j"], True),
    # A shared key whose images differ between the sides: fails.
    (["k"], ["i1"], ["k"], ["i2"], False),
    # A shared image whose keys differ between the sides: fails.
    (["k1"], ["i"], ["k2"], ["i"], False),
    # A shared key with two images inside one side: fails.
    (["k", "k"], ["i1", "i2"], ["k"], ["i1"], False),
    # The same single instance on both sides: holds.
    (["k"], ["i"], ["k"], ["i"], True),
    # Empty sides: holds.
    ([], [], [], [], True),
    ([], [], ["k"], ["i"], True),
])
def test_condition3_one_pass_check_on_forged_sides(keys_a, images_a, keys_b, images_b, holds):
    oracle = biconditional_by_sets(
        dict(enumerate(keys_a)), dict(enumerate(images_a)),
        dict(enumerate(keys_b)), dict(enumerate(images_b)),
    )
    assert oracle == holds
    assert _biconditional_holds(_side(keys_a, images_a), _side(keys_b, images_b)) == holds
    assert _biconditional_holds(_side(keys_b, images_b), _side(keys_a, images_a)) == holds


def test_report_counts_the_failures_it_leaves_out(tau, system, numbering, networks,
                                                  instances, compiled):
    """Up to 20 failures are listed; beyond that one line says how many more
    there are. The true assemblies checked against the blind-seam mutant fail
    once per phi image missing from it."""
    mutant = _blind_seam_mutant(compiled)
    few = verify_self_simulation(
        mutant, system, numbering, networks,
        enumerate_macro_tiles(mutant, system, numbering, networks),
    )
    assert 0 < len(few.failures) <= 20
    assert few.render().splitlines()[-1] == f"FAILURE {few.failures[-1]}"
    many = verify_self_simulation(mutant, system, numbering, networks, instances)
    total = len(many.failures)
    assert total > 20 and not many.phi_in_tileset
    lines = many.render().splitlines()
    assert lines[4:24] == [f"FAILURE {f}" for f in many.failures[:20]]
    assert lines[24:] == [f"and {total - 20} more failures, {total} in total"]
    passing = verify_self_simulation(tau, system, numbering, networks, instances)
    assert passing.render() == (
        "condition1 PASS instances=1544\n"
        "phi_membership PASS\n"
        "condition3 PASS\n"
        "condition2 delegated to patch-scale evidence (exhaustive 2x2 coherence "
        "in the assembler)"
    )



# Per bundled spec, the true instances checked against the seam-blind
# mutant: the failure count, and the SHA-256 of the rendered report and of
# all its failure lines. Taken while the enumeration returned a tuple.
MANY_FAILURES_PINS = {
    "square3x3": (344, "99caaf5d7cb317f9069082350c734a9e06b3db054f80c02a68576e8cea158b49",
                  "f1b20fb9d166cb894b2dc76eb8489a5426d38218ce0e54f3a7d3448201c5b1c8"),
    "tworule3x3": (1440, "2af37fc7c2976000c040bd0c6320159148ead4f2157829ad827e8ec14d55b129",
                   "2fdf233feb318f13d58578f4f3314bb057421816549f067bc5c85f1daab04673"),
}


@pytest.mark.parametrize("spec", sorted(MANY_FAILURES_PINS))
def test_verdict_is_the_same_for_any_sequence_of_the_instances(spec):
    """The enumerated sequence, its tuple and its list give byte-identical
    reports: on the tileset they were enumerated from, on the seam-blind
    mutant with its own instances, and on the mutant with the true
    instances, whose tiles are not all the mutant's."""
    doc, numbering, tau, instances = _bundled_instances(spec)
    system, networks = doc.system, doc.networks
    mutant = _blind_seam_mutant(build_layout(numbering, networks))
    own = enumerate_macro_tiles(mutant, system, numbering, networks)
    for tiles, checked in ((tau, instances), (mutant, own), (mutant, instances)):
        renders = {
            verify_self_simulation(tiles, system, numbering, networks, form).render()
            for form in (checked, tuple(checked), list(checked))
        }
        assert len(renders) == 1
    many = verify_self_simulation(mutant, system, numbering, networks, instances)
    count, render_sha, failures_sha = MANY_FAILURES_PINS[spec]
    assert len(many.failures) == count
    assert _sha256(many.render()) == render_sha
    assert _sha256("\n".join(many.failures)) == failures_sha
    with pytest.raises(NoMacroTiles):
        verify_self_simulation(tau, system, numbering, networks, ())


def test_checked_instances_keep_their_own_parent_and_central_tile(
        tau, system, numbering, networks, instances, compiled):
    """A plain list of instances is read instance by instance: one given
    another parent index and one another central tile are checked with
    those, as `phi` folds them, and their failures keep their indices."""
    forged = list(instances)
    members = set(tau.tiles)
    forged[3] = next(
        moved for donor in instances
        if phi(compiled, moved := forged[3]._replace(parent_index=donor.parent_index))
        not in members
    )
    forged[5] = next(
        moved for donor in instances
        if phi(compiled, moved := forged[5]._replace(central_tile=donor.central_tile))
        not in members
    )
    missing = [i for i, inst in enumerate(forged) if phi(compiled, inst) not in members]
    assert missing == [3, 5]
    report = verify_self_simulation(tau, system, numbering, networks, forged)
    assert report.condition1_ok and not report.phi_in_tileset
    assert [f for f in report.failures if not f.startswith("condition3")] == [
        f"instance {i}: phi image not in tileset" for i in missing
    ]


def test_hierarchy_depth1(system, numbering, networks):
    patch = hierarchy_decorate(system, numbering, networks, "r1", 1)
    bottom = patch.bottom
    assert len(bottom.cells) == 9
    assert patch.top_parent == 1
    expected_undefined = {
        (("c2",), S), (("c4",), W), (("c6",), E), (("c8",), N),
        (("c2",), N), (("c5",), S),
        (("c4",), E), (("c5",), W),
        (("c5",), E), (("c6",), W),
        (("c5",), N), (("c8",), S),
    }
    assert set(bottom.undefined_from) == expected_undefined
    assert bottom.matching_report().ok
    # Off-network decorations are the base ones for the chosen top parent.
    decoration = address_views(bottom).decoration
    assert decoration[(("c1",), N)] == trip(3, 1, 3)
    assert decoration[(("c1",), S)].g == fc("m")


def _expected_depth2_undefined(doc, numbering):
    """Independent recomputation of the depth-2 undefined set: every block's
    own network slots plus the top network blown down through gamma."""
    rule = doc.system.rules[0]
    net = doc.networks["r1"]
    gamma = rule.gamma_map()
    from tilesub.network import crossed_facets

    block_native = {net.branches[i].port for i in range(4)}
    for pairings in crossed_facets(rule, net).values():
        for pairing in pairings:
            block_native.update(pairing)
    expected = set()
    for block in rule.template.cell_ids():
        for cell, k in block_native:
            expected.add(((block, cell), k))
    for branch in net.branches:
        # Top-level port: the whole macro-facet of the leaf block.
        for cell, k in gamma[branch.k]:
            expected.add(((branch.path[-1], cell), k))
        # Top-level crossed seam: both facing macro-facets.
        for pairings in [crossed_facets(rule, net)[branch.k]]:
            for (ca, ka), (cb, kb) in pairings:
                for cell, k in gamma[ka]:
                    expected.add(((ca, cell), k))
                for cell, k in gamma[kb]:
                    expected.add(((cb, cell), k))
    return expected


def test_hierarchy_depth2(doc3, system, numbering, networks):
    patch = hierarchy_decorate(system, numbering, networks, "r1", 2)
    bottom = patch.bottom
    assert len(bottom.cells) == 81
    assert len(bottom.undefined_from) == DEPTH2_UNDEFINED == 132
    assert set(bottom.undefined_from) == _expected_depth2_undefined(doc3, numbering)
    assert bottom.matching_report().ok
    # The middle level telescopes with the depth-1 construction.
    depth1 = hierarchy_decorate(system, numbering, networks, "r1", 1)
    assert patch.levels[1] == depth1.bottom


def test_hierarchy_depth3_structure(system, numbering, networks):
    patch = hierarchy_decorate(system, numbering, networks, "r1", 3)
    assert len(patch.bottom.cells) == 729
    assert patch.bottom.matching_report().ok
    assert len(patch.levels[1].undefined_from) == 132


def test_hierarchy_quotient_roundtrip(system, numbering, networks):
    patch = hierarchy_decorate(system, numbering, networks, "r1", 2, top_parent=1)
    lifted = quotient_hierarchy(patch, system, numbering, networks)
    assert lifted == patch.levels[1]


def test_hierarchy_quotient_roundtrip_other_parent(system, numbering, networks):
    patch = hierarchy_decorate(system, numbering, networks, "r1", 2, top_parent=7)
    lifted = quotient_hierarchy(patch, system, numbering, networks)
    assert lifted == patch.levels[1]
    # The parents come from the level above, not from the top parent: with
    # the level above forged to parent T1, the quotient is the level above
    # of the hierarchy under T1 (the bottom is the same under both).
    above = replace(patch.levels[1], parent=(1,) * len(patch.levels[1].parent))
    forged = replace(patch, levels=(patch.bottom, above))
    under_t1 = hierarchy_decorate(system, numbering, networks, "r1", 2, top_parent=1)
    assert under_t1.bottom == patch.bottom
    assert quotient_hierarchy(forged, system, numbering, networks) == under_t1.levels[1]


def test_hierarchy_quotient_needs_depth(system, numbering, networks):
    patch = hierarchy_decorate(system, numbering, networks, "r1", 1)
    with pytest.raises(PartialBlock):
        quotient_hierarchy(patch, system, numbering, networks)


def test_hierarchy_errors(system, numbering, networks):
    with pytest.raises(UnresolvedReference):
        hierarchy_decorate(system, numbering, networks, "nope", 1)
    with pytest.raises(ValueError):
        hierarchy_decorate(system, numbering, networks, "r1", 0)


def test_hierarchy_top_parent_outside_the_tiles(system, numbering, networks):
    with pytest.raises(IndexOutOfRange, match="top parent 0 outside 1..9"):
        hierarchy_decorate(system, numbering, networks, "r1", 2, top_parent=0)


def test_quotient_ancestor_parent_outside_the_tiles(system, numbering, networks):
    """A hand-built level above whose parent of a block is no tile."""
    patch = hierarchy_decorate(system, numbering, networks, "r1", 2)
    above = patch.levels[1]
    above = replace(above, parent=above.parent[:4] + (99,) + above.parent[5:])
    forged = replace(patch, levels=(patch.bottom, above))
    with pytest.raises(IndexOutOfRange, match=r"block \('c5',\): parent 99 outside 1..9"):
        quotient_hierarchy(forged, system, numbering, networks)
    short = replace(patch, levels=(patch.bottom, replace(above, parent=above.parent[:8])))
    with pytest.raises(PartialBlock, match="9 blocks under 8 cells"):
        quotient_hierarchy(short, system, numbering, networks)


def test_hierarchy_needs_adjacency_to_glue(system, numbering, networks):
    import dataclasses

    from tilesub.model import build_numbering

    # An empty table fails the port condition (NoAdjacency), so keep only
    # the first entry, (r1,S)~(r1,N): no entry glues an E side to a W side.
    bare = dataclasses.replace(system, macro_adjacency=system.macro_adjacency[:1])
    # The adjacency table is read from the numbered system.
    bare_numbering = build_numbering(bare)
    # Depth 1 never glues blocks, depth 2 must.
    hierarchy_decorate(bare, bare_numbering, networks, "r1", 1)
    with pytest.raises(InconsistentGluing):
        hierarchy_decorate(bare, bare_numbering, networks, "r1", 2)


def test_quotient_single_instance(instances, system, numbering, networks, tau):
    decomposed = SimpleNamespace(
        blocks={(0, 0): instances[0]}, adjacencies=(), margins=()
    )
    quotient = quotient_preimage(decomposed, system, numbering, networks, tau)
    assert quotient.ok
    assert len(quotient.nodes) == 1 and quotient.edges == ()


def test_quotient_membership_keeps_no_tile_table(instances, system, numbering, networks):
    """Each node is looked up by one pass over the tileset, which keeps no
    tile -> index table afterwards; a tileset without the node's tile
    reports it."""
    tau = generate_tileset(system, numbering, networks)
    decomposed = SimpleNamespace(
        blocks={(0, 0): instances[0]}, adjacencies=(), margins=()
    )
    node = quotient_preimage(decomposed, system, numbering, networks, tau).nodes[(0, 0)]
    assert "_by_tile" not in vars(tau)
    without = Tileset(tuple(t for t in tau if t != node), ())
    quotient = quotient_preimage(decomposed, system, numbering, networks, without)
    assert quotient.report.codes() == {"PhiNotInTileset"}
    assert "_by_tile" not in vars(without)


def _stacked_pair(instances):
    """A parent-1 block and a parent-4 block that glue along S~N."""
    lower = next(i for i in instances if i.parent_index == 1)
    a = lower.central_tile.triples[N - 1].j
    upper = next(
        i for i in instances
        if i.parent_index == 4 and i.central_tile.triples[S - 1] == trip(4, a, 3)
    )
    return lower, upper


def test_quotient_two_glued_instances(instances, system, numbering, networks, tau):
    lower, upper = _stacked_pair(instances)
    # The seam really matches: the lower north side equals the upper south side.
    pos = system.rules[0].template.position
    for (cl, kl), (cu, ku) in zip(
        system.rules[0].gamma_map()[N], system.rules[0].gamma_map()[S]
    ):
        assert lower.tiles[pos[cl]].triples[kl - 1] == upper.tiles[pos[cu]].triples[ku - 1]
    decomposed = SimpleNamespace(
        blocks={(0, 0): lower, (0, 3): upper},
        adjacencies=(((0, 0), N, (0, 3), S),),
        margins=(),
    )
    quotient = quotient_preimage(decomposed, system, numbering, networks, tau)
    assert quotient.ok
    assert quotient.edges == (((0, 0), N, (0, 3), S),)
    # The quotient is itself a valid decorated patch: its two tiles match.
    assert quotient.nodes[(0, 0)].triples[N - 1] == quotient.nodes[(0, 3)].triples[S - 1]


def test_quotient_rejects_margins(instances, system, numbering, networks, tau):
    decomposed = SimpleNamespace(
        blocks={(0, 0): instances[0]}, adjacencies=(), margins=((9, 9),)
    )
    with pytest.raises(PartialBlock):
        quotient_preimage(decomposed, system, numbering, networks, tau)


def test_quotient_biconditional_detects_blind_seams(system, numbering, networks, compiled):
    """On the seam-blind mutant two blocks can match along a macro-facet
    while their folded images cannot: the quotient check must flag it."""
    mutant = _blind_seam_mutant(compiled)
    insts = enumerate_macro_tiles(mutant, system, numbering, networks)
    lower = next(
        i for i in insts
        if i.parent_index == 8 and i.central_tile.triples[N - 1] == trip(9, 0, "m")
    )
    upper = next(
        i for i in insts
        if i.parent_index == 1
        and i.central_tile.triples[S - 1] == trip(4, 0, "m")
    )
    gamma = system.rules[0].gamma_map()
    pos = system.rules[0].template.position
    for (cl, kl), (cu, ku) in zip(gamma[N], gamma[S]):
        assert lower.tiles[pos[cl]].triples[kl - 1] == upper.tiles[pos[cu]].triples[ku - 1]
    decomposed = SimpleNamespace(
        blocks={(0, 0): lower, (0, 3): upper},
        adjacencies=(((0, 0), N, (0, 3), S),),
        margins=(),
    )
    quotient = quotient_preimage(decomposed, system, numbering, networks, mutant)
    assert "PreimageBiconditional" in quotient.report.codes()


def test_seams_follow_a_non_identity_mapping():
    """The bundled 3x3 with its S~N seam reversed: S member p meets N member
    4 - p. The ports (position 2) stay aligned, so the system stays valid."""
    text = resources.files("tilesub.data").joinpath("square3x3.sub").read_text()
    doc = parse_spec(text.replace(
        "macroadj (r1,S) ~ (r1,N) map 1:1 2:2 3:3",
        "macroadj (r1,S) ~ (r1,N) map 1:3 2:2 3:1",
    ))
    system, networks = doc.system, doc.networks
    rule = system.rules[0]
    assert system.macro_adjacency[0].mapping == ((1, 3), (2, 2), (3, 1))
    assert check_port_condition(system, networks).ok
    numbering = build_numbering(system)
    seams = build_layout(numbering, networks).seams
    south, north = ("r1", S), ("r1", N)
    assert seams[(south, north)] == (
        (("c1", S), ("c9", N)), (("c2", S), ("c8", N)), (("c3", S), ("c7", N)),
    )
    assert seams[(north, south)] == (
        (("c7", N), ("c3", S)), (("c8", N), ("c2", S)), (("c9", N), ("c1", S)),
    )

    tau = generate_tileset(system, numbering, networks)
    instances = enumerate_macro_tiles(tau, system, numbering, networks)
    assert verify_self_simulation(tau, system, numbering, networks, instances).ok

    bottom = hierarchy_decorate(system, numbering, networks, "r1", 2).bottom
    assert bottom.matching_report().ok
    # Oracle: each level-1 pairing glued member by member, straight from
    # gamma and the declared mapping, whichever way round the entry reads.
    gamma = rule.gamma_map()
    oracle = set()
    for pairing in rule.template.internal_pairings:
        for (x, a), (y, b) in (pairing, pairing[::-1]):
            for entry in system.macro_adjacency:
                if (entry.side_a, entry.side_b) != (("r1", a), ("r1", b)):
                    continue
                for pa, pb in entry.mapping:
                    (xc, xk), (yc, yk) = gamma[a][pa - 1], gamma[b][pb - 1]
                    oracle.add(tuple(sorted((((x, xc), xk), ((y, yc), yk)))))
    crossing = {p for p in bottom.pairs if p[0][0][:-1] != p[1][0][:-1]}
    assert len(oracle) == 12 * 3
    assert crossing == oracle
    # Block c4 sits on block c1: its first S member meets c1's last N member.
    assert ((("c1", "c9"), N), (("c4", "c1"), S)) in crossing


def test_partial_gamma_spec_closes_and_verifies():
    """Macro-facets need not cover the template boundary: with c3.S and c9.N
    outside every macro-facet (plain boundary), the closure and the verdict
    still run. Values measured on the spec, the dump pinned by SHA-256."""
    doc = parse_spec(partial_gamma_3x3_text())
    numbering = build_numbering(doc.system)
    tau = generate_tileset(doc.system, numbering, doc.networks)
    assert len(tau) == 1532
    assert hashlib.sha256(tau.dump().encode()).hexdigest() == PARTIAL_GAMMA_DUMP_SHA256
    instances = enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)
    assert len(instances) == 1532
    report = verify_self_simulation(tau, doc.system, numbering, doc.networks, instances)
    assert report.condition1_ok and report.phi_in_tileset and report.condition3_ok
    assert report.failures == []
