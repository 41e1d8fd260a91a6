"""Patch assembly against brute-force oracles, phases, decomposition."""

import copy
import dataclasses
import hashlib
import pickle
import re
import tracemalloc
from itertools import product

import pytest

from helpers import E, N, S, W, decompose_by_scan, phase_coherence_by_cell, trip
from tilesub.assembler import (
    GridPatch,
    assemble_patches,
    build_grid_layout,
    check_phase_coherence,
    decompose_macro,
    grid_from_hierarchy,
    patch_from_instance,
    phase_of,
)
from tilesub.errors import AmbiguousSignature, NonSquareSystem
from tilesub.model import build_numbering
from tilesub.simulation import _seam_keys, _search, hierarchy_decorate
from tilesub.specfile import load_bundled
from tilesub.tileset import DecoratedTile, Tileset, UNDEFINED, generate_tileset


def brute_force_patches(tiles, width, height):
    """The dumb oracle: filter every |tiles|^(w*h) assignment."""
    out = []
    positions = [(x, y) for y in range(height) for x in range(width)]
    for combo in product(tiles, repeat=width * height):
        cells = dict(zip(positions, combo))
        ok = True
        for (x, y), tile in cells.items():
            right = cells.get((x + 1, y))
            if right is not None and tile.triples[E - 1] != right.triples[W - 1]:
                ok = False
                break
            up = cells.get((x, y + 1))
            if up is not None and tile.triples[N - 1] != up.triples[S - 1]:
                ok = False
                break
        if ok:
            out.append(cells)
    return out


def as_key_set(patches):
    keys = set()
    for patch in patches:
        cells = patch.cells if isinstance(patch, GridPatch) else patch
        keys.add(tuple(sorted(cells.items(), key=lambda kv: kv[0])))
    return keys


def test_layout_reconstruction(layout, numbering):
    assert (layout.width, layout.height) == (3, 3)
    assert layout.position_of[numbering.tile_index("r1", "c1")] == (0, 0)
    assert layout.position_of[numbering.tile_index("r1", "c9")] == (2, 2)
    assert layout.position_of[5] == (1, 1)


def test_phase_of_examples(tau, layout):
    corner = next(t for t in tau if t.base == 1)
    assert phase_of(corner, layout) == (0, 0)
    center = next(t for t in tau if t.base == 5)
    assert phase_of(center, layout) == (1, 1)
    unknown = DecoratedTile(1, (trip(9, 0, 9),) * 4)
    with pytest.raises(KeyError):
        phase_of(unknown, layout)


def test_phase_of_wildcards(tau, layout):
    tile = next(t for t in tau if t.base == 1)
    masked = DecoratedTile(1, (UNDEFINED, tile.triples[1], UNDEFINED, tile.triples[3]))
    assert phase_of(masked, layout) == (0, 0)
    with pytest.raises(AmbiguousSignature):
        phase_of(DecoratedTile(1, (UNDEFINED,) * 4), layout)


def test_assemble_1x1_is_the_tileset(tau, numbering):
    patches = assemble_patches(tau, numbering, 1, 1)
    assert len(patches) == len(tau)
    assert [p.cells[(0, 0)] for p in patches] == list(tau.tiles)


def test_assemble_seeded_1x2_forces_neighbor(tau, numbering):
    left = next(
        t for t in tau if t.base == 1 and t.triples[N - 1] == trip(3, 1, 3)
    )
    patches = assemble_patches(tau, numbering, 2, 1, seeds={(0, 0): left})
    assert patches
    for patch in patches:
        right = patch.cells[(1, 0)]
        assert right.base == 2
        assert right.triples[W - 1] == trip(1, 1, 1)
    # Oracle: exactly the tiles whose west facet equals the seed's east.
    expected = [t for t in tau if t.triples[W - 1] == left.triples[E - 1]]
    assert [p.cells[(1, 0)] for p in patches] == expected


def test_assemble_conflicting_seeds_empty(tau, numbering):
    a = next(t for t in tau if t.base == 1)
    b = next(t for t in tau if t.base == 9)
    patches = assemble_patches(tau, numbering, 2, 1, seeds={(0, 0): a, (1, 0): b})
    assert patches == []


def synthetic_tileset():
    """Four hand-made square tiles over a tiny decoration alphabet."""
    a, b = trip(1, 0, 1), trip(2, 0, 2)
    tiles = (
        DecoratedTile(1, (a, a, a, a)),
        DecoratedTile(1, (a, b, a, b)),
        DecoratedTile(1, (b, a, b, a)),
        DecoratedTile(1, (b, b, b, b)),
    )
    return Tileset(tiles, ("base",) * 4)


@pytest.mark.parametrize("width,height", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_assemble_matches_bruteforce_synthetic(numbering, width, height):
    tau = synthetic_tileset()
    fast = assemble_patches(tau, numbering, width, height)
    slow = brute_force_patches(tau.tiles, width, height)
    assert len(fast) == len(slow)
    assert as_key_set(fast) == as_key_set(slow)


def test_assemble_long_strip_one_tile(numbering):
    """A 1200x1 strip is deeper than Python's default recursion limit; the
    search keeps its own stack, so the strip's single patch comes out."""
    a = trip(1, 0, 1)
    tau = Tileset((DecoratedTile(1, (a, a, a, a)),), ("base",))
    patches = assemble_patches(tau, numbering, 1200, 1)
    assert len(patches) == 1
    assert set(patches[0].cells.values()) == set(tau)


@pytest.mark.parametrize("width,height", [(2, 1), (1, 2)])
def test_assemble_matches_bruteforce_full_tileset(tau, numbering, width, height):
    fast = assemble_patches(tau, numbering, width, height)
    slow = brute_force_patches(tau.tiles, width, height)
    assert len(fast) == len(slow)
    assert as_key_set(fast) == as_key_set(slow)


def test_assemble_seeded_2x3_matches_bruteforce(tau, numbering):
    """Seed five cells of a known valid 2x3 patch; the free corner must
    enumerate exactly the brute-force candidates."""
    full = assemble_patches(tau, numbering, 2, 3)[0]
    seeds = {pos: full.cells[pos] for pos in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]}
    fast = assemble_patches(tau, numbering, 2, 3, seeds=seeds)
    oracle = [
        t for t in tau
        if seeds[(0, 2)].triples[E - 1] == t.triples[W - 1]
        and seeds[(1, 1)].triples[N - 1] == t.triples[S - 1]
    ]
    assert [p.cells[(1, 2)] for p in fast] == oracle
    assert all(p.matching_report().ok for p in fast[:5])


def test_seeded_assembly_keeps_no_tile_table(system, numbering, networks):
    """Seeds are found by a scan of the tiles, so the tileset keeps no
    tile -> index table afterwards. A seed equal to a tile of tau is that
    tile's index; one with UNDEFINED facets is appended as a foreign tile."""
    tau = generate_tileset(system, numbering, networks)
    full = assemble_patches(tau, numbering, 2, 3)[0]
    seeds = {pos: full.cells[pos] for pos in [(0, 0), (1, 0), (0, 1)]}
    seeded = assemble_patches(tau, numbering, 2, 3, seeds=seeds)
    assert seeded.tiles is tau.tiles and full in seeded
    blank = DecoratedTile(full.cells[(0, 0)].base, (UNDEFINED,) * 4)
    blanked = assemble_patches(tau, numbering, 2, 3, seeds={(0, 0): blank})
    assert blanked.tiles == tau.tiles + (blank,) and not blanked
    assert "_by_tile" not in vars(tau)


# SHA-256 of `repr(list(patches))` for each spec's 2x2 patches, and for the
# seeded 2x3 case of `test_assemble_seeded_2x3_matches_bruteforce`, taken
# while `assemble_patches` still returned a list of patches.
PATCHES_REPR_SHA256 = {
    "square3x3": "5e5094e00c5560a619edf2ef222645537ff6985a835523ba2569a0f040370147",
    "tworule3x3": "548572ea263546044c03199db376a1a86920533cc9833d7e6b00fe56a322af33",
    "grid4x4": "ddf4e68b7bb8e0acb8f04787ad104db472c38a141d22a7743423f2994142402f",
    "seeded2x3": "f3e362ad3f2fdbc359b056e220e8e46c201443a8d4ecd835f23129286f75de5b",
}


def repr_sha256(patches):
    return hashlib.sha256(repr(list(patches)).encode()).hexdigest()


@pytest.mark.parametrize("spec", ["square3x3", "tworule3x3"])
def test_bundled_2x2_patches_are_pinned(spec):
    doc = load_bundled(spec)
    numbering = build_numbering(doc.system)
    tau = generate_tileset(doc.system, numbering, doc.networks)
    assert repr_sha256(assemble_patches(tau, numbering, 2, 2)) == PATCHES_REPR_SHA256[spec]


def test_grid4x4_and_seeded_patches_are_pinned(grid4x4, tau, numbering):
    assert repr_sha256(grid4x4[3]) == PATCHES_REPR_SHA256["grid4x4"]
    full = assemble_patches(tau, numbering, 2, 3)[0]
    seeds = {pos: full.cells[pos] for pos in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]}
    seeded = assemble_patches(tau, numbering, 2, 3, seeds=seeds)
    assert repr_sha256(seeded) == PATCHES_REPR_SHA256["seeded2x3"]


# Per (width, height) on the bundled square3x3 tileset: the patch count and
# the SHA-256 of the patches' tile indices, one tuple's repr a line, taken
# while `_search` kept a list of candidates for every key.
SQUARE3X3_TILE_INDICES = {
    (3, 3): (15696, "1e94c260addc2b2d56cdb36755fd312973acfa1055d1492c0147f2c92c62e715"),
    (4, 2): (29882, "a1dc7ffe9a239383a6fba3581351a9f709787d3059f206aab355bdbbd413d105"),
}


@pytest.mark.parametrize("sides", SQUARE3X3_TILE_INDICES, ids=["3x3", "4x2"])
def test_larger_square3x3_patches_are_pinned(tau, numbering, sides):
    """Patches with several cells of two seams and middle cells of one come
    out in the same order whatever the search's index keeps."""
    count, sha256 = SQUARE3X3_TILE_INDICES[sides]
    patches = assemble_patches(tau, numbering, *sides)
    text = "".join(f"{indices}\n" for indices in patches.tile_indices())
    assert len(patches) == count
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_patches_read_as_the_list_did(patches_2x2):
    """The patch sequence answers as the list of its patches does."""
    patches = patches_2x2
    listed = list(patches)
    count = len(listed)
    assert len(patches) == count == 8137 and patches
    assert all(isinstance(patch, GridPatch) for patch in listed[:10])
    for index in (0, 1, 4096, count - 1, -1, -2, -count):
        assert patches[index] == listed[index]
    for index in (count, count + 5, -count - 1):
        with pytest.raises(IndexError):
            patches[index]
    for cut in (slice(3, 9), slice(None, 5), slice(-4, None), slice(None, None, -997),
                slice(9, 3), slice(count - 2, count + 7)):
        assert patches[cut] == listed[cut]
        assert type(patches[cut]) is list
    assert list(patches) == listed and list(patches) == listed  # iterates again
    assert patches == listed and listed == patches
    assert patches != listed[:-1] and listed[1:] != patches
    assert patches != tuple(listed) and patches != "patches"
    assert patches[0] in patches and patches.index(patches[5]) == 5
    with pytest.raises(TypeError):
        patches[0] = listed[1]
    with pytest.raises(TypeError):
        hash(patches)
    tiles = patches.tiles
    for patch, indices in zip(listed[:50], patches.tile_indices()):
        assert patch.tiles == tuple(tiles[i] for i in indices)


def test_empty_tileset_assembles_no_patch(numbering):
    """An empty tileset has no decorations and no columns, and no patch of
    any size."""
    empty = Tileset((), ())
    assert empty.decoration_ids == ({}, ())
    for width, height in [(1, 1), (2, 2), (3, 1)]:
        patches = assemble_patches(empty, numbering, width, height)
        assert len(patches) == 0 and not patches and patches == [] and list(patches) == []
        with pytest.raises(IndexError):
            patches[0]


def test_foreign_seeds_match_bruteforce(numbering):
    """Seeds that are not tileset members, one carrying a decoration no
    tile of the set has, are appended to the tile table: the patches are
    exactly the brute-force assignments over the set and the seeds that
    hold the seeds at their positions, in the same order."""
    tau = synthetic_tileset()
    a, b, c = trip(1, 0, 1), trip(2, 0, 2), trip(7, 0, 7)
    fresh = DecoratedTile(1, (c, a, b, a))  # c: no tile of tau has it
    mixed = DecoratedTile(1, (a, b, b, b))  # tau's decorations, not a tau tile
    assert c not in tau.decoration_ids[0] and fresh not in tau and mixed not in tau
    cases = [
        (2, 2, {(0, 0): fresh}),
        (2, 2, {(1, 0): fresh}),  # its S facet, c, faces no cell
        (2, 2, {(0, 1): fresh}),  # its S facet faces a cell: no patch
        (2, 2, {(0, 0): mixed, (1, 0): fresh}),
        (3, 2, {(0, 0): fresh, (2, 1): tau.tiles[2]}),
        (2, 3, {(0, 0): mixed, (1, 2): mixed}),
    ]
    for width, height, seeds in cases:
        patches = assemble_patches(tau, numbering, width, height, seeds=seeds)
        extra = tuple(dict.fromkeys(t for t in seeds.values() if t not in tau))
        oracle = [
            cells for cells in brute_force_patches(tau.tiles + extra, width, height)
            if all(cells[pos] == tile for pos, tile in seeds.items())
            and all(cells[pos] in tau for pos in cells if pos not in seeds)
        ]
        assert [dict(patch.cells) for patch in patches] == oracle
        assert all(patch.matching_report().ok for patch in patches)
    assert assemble_patches(tau, numbering, 2, 2, seeds={(1, 0): fresh})
    assert not assemble_patches(tau, numbering, 2, 2, seeds={(0, 1): fresh})
    # The tileset's own table is left as it was.
    assert c not in tau.decoration_ids[0]


def test_assembly_keeps_at_most_20_bytes_a_patch(grid4x4):
    """The 4x4 grid's 53160 2x2 patches are kept as four C-int tile indices
    each, 16 bytes and the array's spare room; the list of `GridPatch`
    tuples took about 100. The tileset's own id columns, built on first
    use, are the tileset's, so they are built before tracing."""
    _, numbering, tau, _ = grid4x4
    tau.decoration_ids
    tracemalloc.start()
    try:
        patches = assemble_patches(tau, numbering, 2, 2)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(patches) == 53160
    assert kept <= 20 * len(patches)


def test_all_2x2_patches_phase_coherent(patches_2x2, layout):
    assert patches_2x2
    assert all(check_phase_coherence(p, layout).ok for p in patches_2x2)


def test_forged_patch_is_incoherent(tau, layout):
    # Two phase-(0,0) tiles side by side: whatever is forged onto the seam,
    # the phase step is wrong (and the patch is invalid anyway).
    tile = next(t for t in tau if t.base == 1)
    patch = GridPatch(2, 1, {(0, 0): tile, (1, 0): tile})
    report = check_phase_coherence(patch, layout)
    assert "PhaseIncoherent" in report.codes()


def test_empty_patch_vacuously_coherent(layout):
    assert check_phase_coherence(GridPatch(3, 3, {}), layout).ok


def test_patch_sides_below_one_are_rejected(tau, numbering):
    """A patch side below 1 raises, whether the patch is built directly or
    assembled; rendering such a patch used to give an SVG of negative width."""
    from tilesub.render import render_patch_svg

    for width, height in [(0, 2), (-1, 2), (2, 0), (2, -1)]:
        with pytest.raises(ValueError, match="side below 1"):
            GridPatch(width, height)
    with pytest.raises(ValueError, match="side below 1"):
        render_patch_svg(GridPatch(-1, 2))
    for width in (0, -1):
        with pytest.raises(ValueError, match="side below 1"):
            assemble_patches(tau, numbering, width, 2)


@pytest.mark.parametrize("pos", [(2, 0), (0, 3), (-1, 0), (0, -1), (5, 5)])
def test_cells_outside_the_patch_are_rejected(tau, numbering, pos):
    """A dense patch cannot hold a cell outside it, and a seed there used to
    be dropped silently (all 8137 2x2 patches came out)."""
    tile = tau.tiles[0]
    outside = re.escape(f"cell ({pos[0]},{pos[1]}) outside the 2x3 patch")
    with pytest.raises(ValueError, match=outside):
        GridPatch(2, 3, {(0, 0): tile, pos: tile})
    with pytest.raises(ValueError, match=outside):
        assemble_patches(tau, numbering, 2, 3, seeds={pos: tile})
    with pytest.raises(ValueError, match=re.escape("cell (5,5) outside the 2x2 patch")):
        assemble_patches(tau, numbering, 2, 2, seeds={(5, 5): tile})


def test_patch_cells_are_a_read_only_scanline_view(patches_2x2):
    """`cells` lists the filled cells in scanline order and cannot be
    written; a patch built from its cells equals it and hashes alike."""
    patch = patches_2x2[0]
    assert list(patch.cells) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert list(patch.cells.values()) == list(patch.tiles)
    with pytest.raises(TypeError):
        patch.cells[(0, 0)] = None
    rebuilt = GridPatch(2, 2, dict(reversed(patch.cells.items())))
    assert rebuilt == patch and hash(rebuilt) == hash(patch)
    assert pickle.loads(pickle.dumps(patch)) == patch == copy.copy(patch)
    sparse = GridPatch(3, 2, {(2, 1): patch.tiles[0]})
    assert sparse.tiles == (None,) * 5 + (patch.tiles[0],)
    assert dict(sparse.cells) == {(2, 1): patch.tiles[0]}


def test_a_patch_is_one_flat_tuple_with_no_instance_dict(patches_2x2):
    """The scanline tiles and the two sides, read in place: no inner tuple
    and no `__dict__`; `repr` keeps its named-field form."""
    patch = patches_2x2[0]
    for each in (patch, GridPatch(3, 2)):
        assert not hasattr(each, "__dict__")
        assert all(not isinstance(item, tuple) or isinstance(item, DecoratedTile)
                   for item in each)
    assert [patch[i] for i in range(4)] == list(patch.tiles)
    assert (patch.width, patch.height) == (2, 2)
    assert repr(patch) == f"GridPatch(width=2, height=2, tiles={patch.tiles!r})"
    assert repr(GridPatch(1, 2)) == "GridPatch(width=1, height=2, tiles=(None, None))"


def test_dense_and_sparse_patches_keep_equality_hash_pickle_and_copy(patches_2x2):
    dense = patches_2x2[0]
    sparse = GridPatch(3, 2, {(2, 1): dense.tiles[0], (0, 0): dense.tiles[1]})
    for patch in (dense, sparse):
        twin = GridPatch(patch.width, patch.height, dict(patch.cells))
        assert twin == patch and hash(twin) == hash(patch)
        for copied in (pickle.loads(pickle.dumps(patch)), copy.copy(patch), copy.deepcopy(patch)):
            assert type(copied) is GridPatch
            assert copied == patch and hash(copied) == hash(patch)
            assert (copied.width, copied.height, copied.tiles) == (
                patch.width, patch.height, patch.tiles)
    assert dense != sparse


def test_patches_of_other_sides_with_the_same_tiles_differ(patches_2x2):
    """A 2x2 and a 4x1 patch holding the same four tiles in scanline order
    are unequal: the sides are part of the patch."""
    tiles = patches_2x2[0].tiles
    square = GridPatch(2, 2, {(i % 2, i // 2): tile for i, tile in enumerate(tiles)})
    row = GridPatch(4, 1, {(i, 0): tile for i, tile in enumerate(tiles)})
    assert square.tiles == row.tiles == tiles
    assert square != row and row != square


def test_assemble_rejects_non_square():
    from tilesub.model import build_numbering
    from tilesub.model import MacroTileTemplate, Prototype, Rule, SubstitutionSystem

    tri = Prototype("tri", 3, ("-", "+", "-"))
    template = MacroTileTemplate((("a", "tri"),), ())
    rule = Rule("r", "tri", template, ((1, (("a", 1),)), (2, (("a", 2),)), (3, (("a", 3),))))
    numbering = build_numbering(SubstitutionSystem((tri,), (rule,)))
    with pytest.raises(NonSquareSystem):
        assemble_patches(Tileset((), ()), numbering, 1, 1)


def test_decompose_instance_roundtrip(instances, layout, tau):
    inst = instances[0]
    patch = patch_from_instance(inst, layout)
    decomposed = decompose_macro(patch, instances, layout)
    assert decomposed.report.ok
    assert decomposed.blocks == {(0, 0): inst}
    assert decomposed.margins == ()


def test_decompose_4x4_has_margins(tau, numbering, instances, layout):
    patch = assemble_patches(tau, numbering, 3, 3)[0]
    cells = dict(patch.cells)
    # Grow to 4x4 by assembling one more ring is expensive; fake margins by
    # embedding the 3x3 block into a 4x4 canvas instead.
    bigger = GridPatch(4, 4, cells)
    decomposed = decompose_macro(bigger, instances, layout)
    assert len(decomposed.blocks) <= 1
    assert decomposed.blocks or decomposed.margins


def test_decompose_hierarchy_depth2_wildcard(doc3, system, numbering, networks,
                                             instances, layout):
    hpatch = hierarchy_decorate(system, numbering, networks, "r1", 2)
    patch = grid_from_hierarchy(hpatch, layout, networks)
    decomposed = decompose_macro(patch, instances, layout, wildcard=True)
    assert decomposed.report.ok
    assert len(decomposed.blocks) == 9
    assert decomposed.margins == ()
    # Blocks tile the 9x9 canvas on the 3-aligned anchors.
    assert set(decomposed.blocks) == {(x, y) for x in (0, 3, 6) for y in (0, 3, 6)}
    assert len(decomposed.adjacencies) == 12


def test_decompose_flags_non_instance_block(instances, tau, layout, compiled):
    inst = instances[0]
    patch = patch_from_instance(inst, layout)
    cells = dict(patch.cells)
    # Swap the central tile for a different one: the block keeps its phases
    # but stops being any enumerated assembly.
    other = next(
        t for t in tau if t.base in compiled.central_cells and t != cells[(1, 1)]
    )
    cells[(1, 1)] = other
    forged = GridPatch(3, 3, cells)
    decomposed = decompose_macro(forged, instances, layout)
    assert "NonInstanceBlock" in decomposed.report.codes()
    assert decomposed.blocks == {}


def test_indexed_wildcard_decomposition_matches_linear_scan(system, numbering, networks,
                                                            instances, layout):
    """The per-mask lookup tables find, block by block, the instance a scan
    of every instance finds first; a block with one defined seam corrupted
    matches none and is reported."""
    hpatch = hierarchy_decorate(system, numbering, networks, "r1", 3)
    patch = grid_from_hierarchy(hpatch, layout, networks)
    oracle = decompose_by_scan(patch, instances, layout)
    assert len(oracle) == 81 and None not in oracle.values()
    decomposed = decompose_macro(patch, instances, layout, wildcard=True)
    assert decomposed.report.ok
    assert decomposed.blocks.keys() == oracle.keys()
    assert all(decomposed.blocks[a] == oracle[a] for a in oracle)
    # Without wildcards UNDEFINED is a decoration like any other, which no
    # enumerated instance carries.
    exact = decompose_macro(patch, instances, layout)
    assert exact.blocks == {} and len(exact.report.entries) == len(oracle)

    # A defined E facet inside the block at (0, 0), given a parent index no
    # tile has; its macro-index, and so every phase, is unchanged.
    cells = dict(patch.cells)
    x, y = next(
        (x, y) for y in range(layout.height) for x in range(layout.width - 1)
        if cells[(x, y)].triples[E - 1] is not UNDEFINED
    )
    tile = cells[(x, y)]
    bad = tile.triples[E - 1]._replace(j=numbering.n + 1)
    triples = tile.triples[:E - 1] + (bad,) + tile.triples[E:]
    cells[(x, y)] = DecoratedTile(tile.base, triples)
    forged = GridPatch(patch.width, patch.height, cells)
    oracle = decompose_by_scan(forged, instances, layout)
    assert oracle[(0, 0)] is None and sum(v is None for v in oracle.values()) == 1
    decomposed = decompose_macro(forged, instances, layout, wildcard=True)
    assert decomposed.report.codes() == {"NonInstanceBlock"}
    assert decomposed.blocks.keys() == oracle.keys() - {(0, 0)}
    assert all(decomposed.blocks[a] == oracle[a] for a in decomposed.blocks)



class _CountedReads:
    """The instances, recording each iteration and each index read."""

    def __init__(self, instances):
        self.instances = instances
        self.reads = []

    def __len__(self):
        return len(self.instances)

    def __getitem__(self, index):
        self.reads.append(index)
        return self.instances[index]

    def __iter__(self):
        self.reads.append("iter")
        return iter(self.instances)


@pytest.mark.parametrize("wildcard", [True, False])
def test_decomposition_reads_its_instances_once(system, numbering, networks, instances,
                                                layout, wildcard):
    """However many masks the blocks have, the instances are read in one
    pass, and blocks and reports are those of the scan."""
    hpatch = hierarchy_decorate(system, numbering, networks, "r1", 3)
    patch = grid_from_hierarchy(hpatch, layout, networks)
    counted = _CountedReads(instances)
    decomposed = decompose_macro(patch, counted, layout, wildcard=wildcard)
    assert counted.reads == ["iter"]
    oracle = decompose_by_scan(patch, instances, layout) if wildcard else {}
    assert decomposed.blocks == oracle
    assert len(decomposed.report.entries) == (0 if wildcard else 81)
    empty = _CountedReads(instances)
    assert not decompose_macro(GridPatch(2, 2), empty, layout).blocks
    assert empty.reads == []

# ---------------------------------------------------------------------------
# The phase memo: `check_phase_coherence` and `decompose_macro` read each
# distinct decoration tuple's phase once per `GridLayout`.


def fresh_grid_layout(doc):
    return build_grid_layout(doc.system, build_numbering(doc.system), doc.networks)


def assert_phases_match_reference(patches, layout):
    """Every patch gets the reference's entries and notes, in order, from a
    fresh memo and again from the memo the first pass filled. Returns the
    number of incoherent patches."""
    assert not layout.phases
    expected = [phase_coherence_by_cell(p, layout) for p in patches]
    for _ in range(2):
        got = [check_phase_coherence(p, layout) for p in patches]
        assert [(r.entries, r.notes) for r in got] == [(r.entries, r.notes) for r in expected]
    assert layout.phases
    return sum(not r.ok for r in expected)


# Patch count and incoherent patches of each spec's 2x2 evidence.
EVIDENCE_2X2 = {"square3x3": (8137, 0), "tworule3x3": (37768, 0), "grid4x4": (53160, 24)}


@pytest.mark.parametrize("spec", sorted(EVIDENCE_2X2))
def test_phase_memo_matches_reference_on_every_bundled_2x2_patch(spec, request):
    """Every report, the 4x4 grid's 24 incoherent ones included, has the
    reference's entries and notes in text and order, whether the check
    settles it with one comparison or walks its cells."""
    if spec == "grid4x4":
        doc, _, _, patches = request.getfixturevalue("grid4x4")
    else:
        doc = load_bundled(spec)
        numbering = build_numbering(doc.system)
        tau = generate_tileset(doc.system, numbering, doc.networks)
        patches = assemble_patches(tau, numbering, 2, 2)
    count, incoherent = EVIDENCE_2X2[spec]
    assert len(patches) == count
    assert assert_phases_match_reference(patches, fresh_grid_layout(doc)) == incoherent


def test_dense_4x4_patches_read_as_the_search_cell_dicts(grid4x4):
    """Each patch holds the search's tile indices: its `cells` equal the
    position dict of the tiles at those indices, in scanline order."""
    _, _, tau, patches = grid4x4
    order = [(x, y) for y in range(2) for x in range(2)]
    table, columns = tau.decoration_ids
    cells = [
        (range(len(tau)), *_seam_keys(columns, len(table) + 1,
                                      [(W, i - 1, E)] * (x > 0) + [(S, i - 2, N)] * (y > 0)))
        for i, (x, y) in enumerate(order)
    ]
    oracle = [dict(zip(order, map(tau.tiles.__getitem__, placed))) for placed in _search(cells)]
    assert len(oracle) == len(patches)
    for patch, want in zip(patches, oracle):
        assert dict(patch.cells) == want and list(patch.cells) == order


def test_phase_memo_matches_reference_on_forged_and_hierarchy_patches(
        doc3, system, numbering, networks, instances, tau, compiled):
    """The depth-3 hierarchy patch has wildcards and undetermined phases;
    the forged patches are those of the tests above."""
    layout = fresh_grid_layout(doc3)
    hpatch = hierarchy_decorate(system, numbering, networks, "r1", 3)
    deep = grid_from_hierarchy(hpatch, layout, networks)
    corner = next(t for t in tau if t.base == 1)
    block = dict(patch_from_instance(instances[0], layout).cells)
    block[(1, 1)] = next(
        t for t in tau if t.base in compiled.central_cells and t != block[(1, 1)]
    )
    cells = dict(deep.cells)
    tile = cells[(0, 0)]
    bad = tile.triples[E - 1]._replace(j=numbering.n + 1)
    cells[(0, 0)] = DecoratedTile(tile.base, tile.triples[:E - 1] + (bad,) + tile.triples[E:])
    patches = [
        deep,
        GridPatch(2, 1, {(0, 0): corner, (1, 0): corner}),
        GridPatch(3, 3, block),
        GridPatch(deep.width, deep.height, cells),
        GridPatch(3, 3, {}),
    ]
    assert "phase undetermined" in phase_coherence_by_cell(deep, layout).notes[0]
    assert assert_phases_match_reference(patches, layout) == 1


def test_phase_memo_leaves_layout_equality_repr_and_decomposition_unchanged(
        doc3, system, numbering, networks, instances):
    fresh, filled = fresh_grid_layout(doc3), fresh_grid_layout(doc3)
    hpatch = hierarchy_decorate(system, numbering, networks, "r1", 3)
    patch = grid_from_hierarchy(hpatch, fresh, networks)
    check_phase_coherence(patch, filled)
    assert filled.phases and not fresh.phases
    assert filled == fresh and repr(filled) == repr(fresh)
    cold = decompose_macro(patch, instances, fresh, wildcard=True)
    warm = decompose_macro(patch, instances, filled, wildcard=True)
    assert cold == warm and cold.report.ok and len(cold.blocks) == 81
    oracle = decompose_by_scan(patch, instances, fresh)
    assert all(cold.blocks[a] == oracle[a] for a in oracle) and cold.blocks.keys() == oracle.keys()


def test_phase_memo_is_read_only_by_its_own_layout(doc3, tau, numbering):
    """A poisoned memo in one layout changes nothing for an equal layout."""
    patches = assemble_patches(tau, numbering, 2, 2)[:500]
    poisoned, clean = fresh_grid_layout(doc3), fresh_grid_layout(doc3)
    for patch in patches:
        for tile in patch.cells.values():
            poisoned.phases[tile.triples] = (7, 7)
    assert poisoned == clean
    assert all(check_phase_coherence(p, clean).ok for p in patches)
    assert not any(check_phase_coherence(p, poisoned).ok for p in patches)
    assert set(poisoned.phases.values()) == {(7, 7)}


def test_phase_report_order_does_not_follow_the_cell_order(system, numbering, networks,
                                                           tau, layout):
    """A depth-3 hierarchy patch, whose centre cells have no phase, with two
    cells replaced by a corner tile and its cells inserted in reverse
    sorted order: the notes and entries still come in the reference's
    sorted order, east before north at one position."""
    hpatch = hierarchy_decorate(system, numbering, networks, "r1", 3)
    cells = dict(grid_from_hierarchy(hpatch, layout, networks).cells)
    corner = next(t for t in tau if t.base == 1)
    for pos in ((4, 3), (11, 16)):
        assert phase_of(cells[pos], layout) != (0, 0)
        cells[pos] = corner
    forged = GridPatch(27, 27, dict(sorted(cells.items(), reverse=True)))
    got = check_phase_coherence(forged, layout)
    want = phase_coherence_by_cell(forged, layout)
    assert (got.entries, got.notes) == (want.entries, want.notes)
    details = [v.detail for v in want.entries]
    assert details == [
        "(3,3)->E: (0, 0) then (0, 0)", "(4,2)->N: (1, 2) then (0, 0)",
        "(4,3)->E: (0, 0) then (2, 0)", "(11,15)->N: (2, 0) then (0, 0)",
        "(11,16)->E: (0, 0) then (0, 1)", "(11,16)->N: (0, 0) then (2, 2)",
    ]
    assert len(want.notes) == 81


def test_grid_from_hierarchy_needs_four_slots_per_cell(system, numbering, networks, layout):
    hpatch = hierarchy_decorate(system, numbering, networks, "r1", 1)
    bottom = hpatch.bottom
    three = dataclasses.replace(bottom, offset=(0, 3, *bottom.offset[2:]))
    forged = dataclasses.replace(hpatch, levels=(three,))
    with pytest.raises(NonSquareSystem, match="four facets"):
        grid_from_hierarchy(forged, layout, networks)


def test_grid_from_hierarchy_shares_one_object_per_distinct_tile(system, numbering,
                                                                 networks, layout):
    """The depth-4 patch equals the one built with a fresh tile per cell,
    placed by address, and holds one object per distinct tile."""
    hpatch = hierarchy_decorate(system, numbering, networks, "r1", 4)
    patch = grid_from_hierarchy(hpatch, layout, networks)
    bottom = hpatch.bottom
    decs = bottom.slot_decoration
    cells = {}
    for i, addr in enumerate(bottom.cells):
        x = y = 0
        for cell in addr:
            cx, cy = layout.position_of[numbering.tile_index("r1", cell)]
            x, y = x * layout.width + cx, y * layout.height + cy
        cells[(x, y)] = DecoratedTile(bottom.base[i], decs[4 * i:4 * i + 4])
    assert patch == GridPatch(81, 81, cells)
    filled = [tile for tile in patch.tiles if tile is not None]
    assert len(filled) == 6561
    assert len({id(tile) for tile in filled}) == len(set(filled)) < 100
