"""Regression pins and properties of the hierarchy levels and quotients.

The SHA-256 pins were measured on the implementation that sorted every slot
pair and rebuilt `_steps13` per cell; they are regression pins, not
independent answers.
"""

import dataclasses
import hashlib
import tracemalloc
from array import array
from collections import Counter
from importlib import resources
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesub import simulation
from tilesub.errors import PartialBlock, TilesubError
from tilesub.grids import make_square_grid_document
from tilesub.model import build_numbering
from tilesub.simulation import _sorted_pairs, hierarchy_decorate, quotient_hierarchy
from tilesub.specfile import load_bundled, parse_spec
from tilesub.tileset import UNDEFINED, build_layout

from helpers import address_views, addressed_hierarchy, addressed_quotient, native_undefined

# (spec, seed rule) -> SHA-256 of the depth-3 levels, bottom first. The
# quotient of the bottom must hash to the pin of the level above it.
PINS = {
    ("square3x3", "r1"): (
        "6a6f54f53ad4457ddbefe447ef4ad23deb2b43b78900b14cb7d225f148855152",
        "9e12ba35bce4f7c51300a56cb4a04cfdfd7215c7654ce2d35d89cee2df2e964a",
        "ddd8e909c3eb26371b92968e100f730b3779f65155a50d196ff180a6c7147f1b",
    ),
    ("tworule3x3", "ra"): (
        "e1007ca7f54c790bdb89cc2c03fd458845a25a54bde20aee64a739a0a8ce359b",
        "dcfc8c985d2dfb42183ab4f4b442602ab885285bf7ca459fbc72ee22ace629b9",
        "a5de3498e4eb2969e7e937a97745e90e4c19fe8e4bb0f7ab28748a913a00a995",
    ),
    ("tworule3x3", "rb"): (
        "65e19cc858211007ed0d41afedaebedf16fa05672aa81805160005a7737cd232",
        "883e2d25d9c9ca80dc654e0f17699b80603946c32a7eac3c31878f09e2264d15",
        "174017b6d1122fc5207363c7b7fa1d1c9626af8e611dc778b77a618dad47ebef",
    ),
}


def _level_sha256(level) -> str:
    views = address_views(level)
    digest = hashlib.sha256()
    for part in (views.level, views.cells, views.pairs):
        digest.update(repr(part).encode())
    for table in (views.rule_of, views.base_of, views.parent_of,
                  views.decoration, views.undefined_from):
        digest.update(repr(sorted(table.items())).encode())
    return digest.hexdigest()


def _bundled(spec):
    doc = _document(spec)
    return doc, build_numbering(doc.system)


def _document(spec):
    """A bundled spec by name. `gridWxH` is the W x H square grid: with ten
    cells or more its ids run to two digits, so `c10` sorts before `c2` and
    a block's sorted cell-id order is not the declaration order.
    `reversed3x3` is the bundled 3x3 with its cells declared c9 first."""
    if spec == "reversed3x3":
        return _reversed_cells_3x3()
    if spec.startswith("grid"):
        width, height = map(int, spec[len("grid"):].split("x"))
        return make_square_grid_document(width, height)
    return load_bundled(spec)


# The depth-4 levels of the bundled 3x3 seeded from r1, bottom first,
# pinned before the levels were decorated per block type.
DEPTH4_PINS = (
    "e6b9bf6c9a1003ebe8e0ca630593d0d90c270e222c69f25fc6b5a042cf69e219",
    "ba1d5f6b27145271678abcc1dfd3b88f0fe25f59f23025f78fb41bc43c3aeb01",
    "7ab7f107b263bbe1f52fdecf6bff912061d52508165e65a2f1b131cf2aea15f5",
    "e5e835341c73b5df5c8fb53cab9e7e65337c791f653ef569f3d91a32986b0b82",
)


def test_depth4_levels_and_quotient_are_pinned():
    doc, numbering = _bundled("square3x3")
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, "r1", 4)
    lifted = quotient_hierarchy(hpatch, doc.system, numbering, doc.networks)
    assert tuple(_level_sha256(level) for level in hpatch.levels) == DEPTH4_PINS
    assert _level_sha256(lifted) == DEPTH4_PINS[1]


def test_hierarchy_keeps_little_beyond_its_levels():
    """The levels are built per block type into C buffers, with no per-slot
    dict, list or int, so at depth 5 on the bundled 3x3 the traced peak of
    `hierarchy_decorate` is at most twice what its levels keep (2.32 times
    with a per-slot list, a dict of inherited slots and sorted int keys;
    1.13 times per block type)."""
    doc, numbering = _bundled("square3x3")
    hierarchy_decorate(doc.system, numbering, doc.networks, "r1", 1)  # imports and caches
    tracemalloc.start()
    try:
        hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, "r1", 5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hpatch.bottom.base) == 59049
    assert peak <= 2.0 * kept


def test_view_lengths_are_read_off_the_flat_fields():
    """The five address views keep no address or key, so reading the length
    of each on the bundled 3x3 depth-4 bottom allocates a few KiB at most
    (several MB while the views were built on first access), and each length
    is the level's flat count."""
    doc, numbering = _bundled("square3x3")
    bottom = hierarchy_decorate(doc.system, numbering, doc.networks, "r1", 4).bottom
    tracemalloc.start()
    try:
        lengths = [len(bottom.cells), len(bottom.rule_of), len(bottom.base_of),
                   len(bottom.pairs), len(bottom.undefined_from)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lengths == [len(bottom.base)] * 3 + [len(bottom.pair_slots) // 2,
                                                bottom.undefined_count]
    assert (lengths[0], lengths[-1]) == (6561, 11220)
    assert peak <= 8192


@pytest.mark.parametrize("spec, seed_rule", sorted(PINS))
def test_depth3_levels_and_quotient_are_pinned(spec, seed_rule):
    doc, numbering = _bundled(spec)
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, seed_rule, 3)
    lifted = quotient_hierarchy(hpatch, doc.system, numbering, doc.networks)
    assert tuple(_level_sha256(level) for level in hpatch.levels) == PINS[(spec, seed_rule)]
    # The quotient recovers the level above exactly.
    assert _level_sha256(lifted) == PINS[(spec, seed_rule)][1]


QUOTIENT_CASES = [
    (spec, seed_rule, depth)
    for spec, seed_rule in (("square3x3", "r1"), ("tworule3x3", "ra"), ("tworule3x3", "rb"))
    for depth in (2, 3, 4)
] + [(spec, "r1", depth) for spec in ("grid3x4", "grid4x4") for depth in (2, 3)]


@pytest.mark.parametrize("spec, seed_rule, depth", QUOTIENT_CASES)
def test_quotient_equals_the_level_above(spec, seed_rule, depth):
    """The bottom's data and the parents of the level above give back that
    level in every field but `level` and `block` (a quotient records no
    blocks), and in its addresses."""
    doc, numbering = _bundled(spec)
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, seed_rule, depth)
    above = hpatch.levels[1]
    lifted = quotient_hierarchy(hpatch, doc.system, numbering, doc.networks)
    assert lifted == above
    for f in dataclasses.fields(lifted):
        if f.name not in ("level", "block", "addresses"):
            assert getattr(lifted, f.name) == getattr(above, f.name), f.name
    assert lifted.cells == above.cells


def test_levels_are_frozen(depth2_square):
    """A level cannot change once built, so no view read off it goes stale:
    neither its fields nor anything written into its tuples or buffers. Its
    address views, on built levels and quotients of both bundled specs,
    act as the tuples and read-only dicts they were once built as."""
    _, _, hpatch, _ = depth2_square
    bottom = hpatch.bottom
    s = next(s for s, origin in enumerate(bottom.slot_origin) if origin != -1)
    assert bottom.slot_decoration[s] is UNDEFINED
    with pytest.raises(dataclasses.FrozenInstanceError):
        bottom.slot_decoration = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        hpatch.levels = ()
    with pytest.raises(TypeError):
        bottom.slot_decoration[s] = bottom.slot_decoration[s + 1]
    with pytest.raises(TypeError):
        bottom.slot_origin[s] = 1
    for name in ("pair_slots", "offset", "block"):
        with pytest.raises(TypeError):
            getattr(bottom, name)[0] = 1
    assert bottom.slot_origin[s] == 0
    for spec, seed_rule in (("square3x3", "r1"), ("tworule3x3", "ra")):
        doc, numbering = _bundled(spec)
        hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, seed_rule, 2)
        lifted = quotient_hierarchy(hpatch, doc.system, numbering, doc.networks)
        for level in (hpatch.bottom, lifted):
            _assert_views_act_as_built(level)


def _assert_views_act_as_built(level):
    """The address views of `level` act as the tuples and read-only dicts
    they were built as: equal to them in either operand order, shown as
    them, indexed and looked up like them, and closed to item assignment."""
    cells, pairs = tuple(level.cells), tuple(level.pairs)
    for view, built in ((level.cells, cells), (level.pairs, pairs)):
        assert view == built and built == view and not (built != view)
        assert repr(view) == repr(built) and hash(view) == hash(built)
        assert [view[i] for i in (0, -1)] == [built[0], built[-1]]
        assert view[1:3] == built[1:3]
        assert [view.index(item) for item in built] == list(range(len(built)))
    with pytest.raises(ValueError):
        level.cells.index(("nowhere",))
    assert level.cells != cells[1:] and level.pairs != cells
    undefined = level.undefined_from
    defined = next((cells[0], k) for k in range(1, 5) if (cells[0], k) not in undefined)
    for view, missing in ((level.rule_of, ("nowhere",)), (level.base_of, cells[0][:-1]),
                          (undefined, defined)):
        built = dict(view)
        assert built == view and view == built and list(view) == list(built)
        assert list(view.items()) == list(built.items())
        assert list(view.values()) == list(built.values())
        assert repr(view) == f"mappingproxy({built!r})"
        with pytest.raises(KeyError):
            view[missing]
        with pytest.raises(TypeError):
            view[next(iter(view))] = None
    assert list(level.rule_of) == list(cells)


def test_level_repr_lists_the_buffer_numbers():
    """The repr shows each buffer as its numbers, so two builds of one
    level print the same."""
    doc, numbering = _bundled("square3x3")
    one, two = (
        hierarchy_decorate(doc.system, numbering, doc.networks, "r1", 2).bottom for _ in "12"
    )
    assert one is not two and repr(one) == repr(two)
    assert "<memory" not in repr(one)
    for name in ("block", "offset", "slot_origin", "pair_slots"):
        assert f"{name}={getattr(one, name).tolist()}" in repr(one)
    assert "offset=[0, 4, 8, 12," in repr(one)


@pytest.mark.parametrize("spec, seed_rule", sorted(PINS))
def test_steps13_runs_once_per_tile_and_parent(monkeypatch, spec, seed_rule):
    doc, numbering = _bundled(spec)
    calls = Counter()
    steps13 = simulation._steps13

    def counted(layout, j0, parent):
        calls[(j0, parent)] += 1
        return steps13(layout, j0, parent)

    monkeypatch.setattr(simulation, "_steps13", counted)
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, seed_rule, 3)
    assert calls and max(calls.values()) == 1
    calls.clear()
    quotient_hierarchy(hpatch, doc.system, numbering, doc.networks)
    assert calls and max(calls.values()) == 1


def test_seed_rule_need_not_be_the_first_of_its_prototype():
    """Seeded from r2, a copy of r1 declared after it, the top level is
    expanded by r2 and every deeper level by r1, the first rule of sq."""
    doc = load_bundled("square3x3")
    r1 = doc.system.rules[0]
    system = dataclasses.replace(doc.system, rules=(r1, dataclasses.replace(r1, rule_id="r2")))
    networks = {**doc.networks, "r2": doc.networks["r1"]}
    numbering = build_numbering(system)
    hpatch = hierarchy_decorate(system, numbering, networks, "r2", 3)
    top, *below = reversed(hpatch.levels)
    assert set(top.rule_of.values()) == {"r2"}
    assert all(set(level.rule_of.values()) == {"r1"} for level in below)
    assert hpatch.bottom.matching_report().ok
    lifted = quotient_hierarchy(hpatch, system, numbering, networks)
    assert lifted == hpatch.levels[1]


@pytest.fixture
def depth2_square():
    doc, numbering = _bundled("square3x3")
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, "r1", 2)
    return doc, numbering, hpatch, build_layout(numbering, doc.networks)


def _forged_bottom(hpatch, addr, k, dec):
    """`hpatch` with the decoration of facet k of the bottom cell at `addr`
    replaced by `dec`."""
    bottom = hpatch.bottom
    s = bottom.offset[bottom.cells.index(addr)] + k - 1
    decs = bottom.slot_decoration[:s] + (dec,) + bottom.slot_decoration[s + 1:]
    forged = dataclasses.replace(bottom, slot_decoration=decs)
    return dataclasses.replace(hpatch, levels=(forged, *hpatch.levels[1:]))


def test_matching_report_names_the_mismatched_slots(depth2_square):
    doc, numbering, hpatch, layout = depth2_square
    (a, k), (b, kb) = hpatch.bottom.pairs[0]
    decoration = address_views(hpatch.bottom).decoration
    other = next(dec for dec in decoration.values() if dec != decoration[(a, k)])
    forged = _forged_bottom(hpatch, a, k, other).bottom
    assert [(v.code, v.detail) for v in forged.matching_report().entries] == [
        ("SeamMismatch", f"{(a, k)} vs {(b, kb)}")
    ]
    assert (a, k, b, kb) == (("c1", "c1"), 2, ("c1", "c4"), 1)


def test_quotient_rejects_a_block_with_two_parent_indices(depth2_square):
    doc, numbering, hpatch, layout = depth2_square
    bottom = hpatch.bottom
    decoration = address_views(bottom).decoration
    slot = next(
        (addr, k) for addr in bottom.cells for k in layout.parent_facets[bottom.base_of[addr]]
        if decoration[(addr, k)] is not UNDEFINED
    )
    dec = decoration[slot]
    forged = _forged_bottom(hpatch, *slot, dec._replace(j=dec.j % numbering.n + 1))
    with pytest.raises(PartialBlock, match=rf"block \({slot[0][0]!r},\): parent indices"):
        quotient_hierarchy(forged, doc.system, numbering, doc.networks)


def test_quotient_rejects_a_defined_member_of_a_native_facet(depth2_square):
    """Every facet of the centre block is native-undefined one level up, so
    a defined member on its seam is not a hierarchy bottom."""
    doc, numbering, hpatch, layout = depth2_square
    decoration = address_views(hpatch.bottom).decoration
    center = (doc.networks["r1"].center,)
    cell, k = doc.system.rule("r1").gamma_map()[1][0]
    assert decoration[(center + (cell,), k)] is UNDEFINED
    defined = next(dec for dec in decoration.values() if dec is not UNDEFINED)
    forged = _forged_bottom(hpatch, center + (cell,), k, defined)
    with pytest.raises(PartialBlock, match=rf"block \({center[0]!r},\): facet 1 should be undefined"):
        quotient_hierarchy(forged, doc.system, numbering, doc.networks)


def _assert_same_level(level, want):
    """Field by field through the address views; the dicts as sorted items,
    which is the order the views iterate in."""
    got = address_views(level)
    assert got.level == want.level
    assert got.cells == want.cells
    assert got.pairs == want.pairs
    for name in ("rule_of", "base_of", "parent_of", "decoration", "undefined_from"):
        assert list(getattr(got, name).items()) == sorted(getattr(want, name).items()), name


def _reversed_cells_3x3():
    """The bundled 3x3 with its cells declared c9 first: the template order
    is not the sorted cell-id order, so the order in which a level's cells
    are generated is not their address order."""
    text = resources.files("tilesub.data").joinpath("square3x3.sub").read_text()
    cells = "".join(f"  cell c{i} sq\n" for i in range(1, 10))
    assert cells in text
    return parse_spec(text.replace(cells, "".join(f"  cell c{i} sq\n" for i in range(9, 0, -1))))


ORACLE_CASES = (
    [("square3x3", "r1", depth) for depth in (1, 2, 3, 4)]
    + [("tworule3x3", rule, depth) for rule in ("ra", "rb") for depth in (1, 2, 3)]
    + [("reversed3x3", "r1", depth) for depth in (1, 2, 3)]
    + [(spec, "r1", depth) for spec in ("grid3x4", "grid4x4") for depth in (1, 2, 3)]
)


@pytest.mark.parametrize("spec, seed_rule, depth", ORACLE_CASES)
def test_levels_and_quotients_equal_the_addressed_oracle(spec, seed_rule, depth):
    """Every flat level, and its quotient, equals what the tuple-address
    builders give; where they raise, the flat ones raise the same error."""
    doc, numbering = _bundled(spec)
    layout = build_layout(numbering, doc.networks)
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, seed_rule, depth)
    want = addressed_hierarchy(layout, doc.system.rule(seed_rule), hpatch.top_parent, depth)
    assert len(hpatch.levels) == len(want)
    for level, expected in zip(hpatch.levels, want):
        _assert_same_level(level, expected)
    try:
        expected = addressed_quotient(want[0], want[1] if depth > 1 else None, layout)
    except TilesubError as exc:
        with pytest.raises(type(exc)) as raised:
            quotient_hierarchy(hpatch, doc.system, numbering, doc.networks)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
    else:
        _assert_same_level(
            quotient_hierarchy(hpatch, doc.system, numbering, doc.networks), expected
        )


@pytest.fixture(scope="module")
def depth2_pairs():
    doc, numbering = _bundled("tworule3x3")
    return hierarchy_decorate(doc.system, numbering, doc.networks, "ra", 2).bottom.pair_slots


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sorted_pairs_matches_sorting_each_pair(depth2_pairs, data):
    """Shuffled copies of a level's slot pairs, some reversed, some
    repeated, fed flat, give what sorting each pair and then the distinct
    pairs gives: the distinct pairs, each ascending, in ascending order,
    flat."""
    pairs = list(zip(depth2_pairs[::2], depth2_pairs[1::2]))
    order = data.draw(st.permutations(range(len(pairs))))
    flipped = data.draw(st.sets(st.sampled_from(range(len(pairs)))))
    repeats = data.draw(st.lists(st.sampled_from(range(len(pairs))), max_size=40))
    fed = [pairs[i][::-1] if i in flipped else pairs[i] for i in order]
    for i in repeats:
        at = data.draw(st.integers(0, len(fed)))
        fed.insert(at, pairs[i][::-1] if data.draw(st.booleans()) else pairs[i])
    got = _sorted_pairs(chain.from_iterable(fed))
    assert got.tolist() == list(chain.from_iterable(sorted({tuple(sorted(p)) for p in fed})))
    assert got == depth2_pairs


@pytest.mark.parametrize("spec", ["square3x3", "tworule3x3", "grid4x4"])
def test_block_tables_equal_a_plain_derivation(spec):
    """Each rule's compiled hierarchy block, the block-slot seams and the
    native `slot_origin` rows equal what the template, gamma and network
    give when read directly: the cells in sorted id order, each slot
    numbered after the slots of the cells before it."""
    doc, numbering = _bundled(spec)
    system = doc.system
    layout = build_layout(numbering, doc.networks)
    slot_of = {}
    for rule in system.rules:
        rule_id, net, gamma = rule.rule_id, doc.networks[rule.rule_id], rule.gamma_map()
        cells = sorted(rule.template.cell_ids())
        if spec == "grid4x4":
            assert cells != list(rule.template.cell_ids())
        bases = tuple(numbering.tile_index(rule_id, cell) for cell in cells)
        counts = tuple(numbering.prototype_of(j).facet_count for j in bases)
        slots = [(cell, k) for cell, n in zip(cells, counts) for k in range(1, n + 1)]
        local = slot_of[rule_id] = {slot: s for s, slot in enumerate(slots)}
        native = native_undefined(layout, rule_id)
        block = layout.blocks[rule_id]
        assert block.bases == bases and block.counts == counts
        # Each internal pairing is entered on its lower slot as the gap to
        # the upper one, and each member slot carries its macro-facet.
        partner = array("i", block.partner)
        assert sorted((s, s + gap) for s, gap in enumerate(partner) if gap) == sorted(
            tuple(sorted((local[a], local[b]))) for a, b in rule.template.internal_pairings
        )
        assert block.members == {k: tuple(local[m] for m in ms) for k, ms in gamma.items()}
        facet_of = {local[m]: k for k, ms in gamma.items() for m in ms}
        assert list(block.facet) == [facet_of.get(s, 0) for s in range(len(slots))]
        assert len(partner) == len(slots)
        # The parent index is read on the internal slots off the network.
        assert block.reads == tuple(sorted(
            local[slot] for slot in rule.template.paired_slots
            if slot[0] != net.center and slot not in native
        ))
        for cell, j, n in zip(cells, bases, counts):
            assert layout.native_origin[j] == bytes(
                0 if (cell, k) in native else 0xFF for k in range(1, n + 1)
            )
    seams = {}
    for entry in system.macro_adjacency:
        inverse = [(b, a) for a, b in entry.mapping]
        for (ra, a), (rb, b), mapping in ((entry.side_a, entry.side_b, entry.mapping),
                                          (entry.side_b, entry.side_a, inverse)):
            ga, gb = system.rule(ra).gamma_map()[a], system.rule(rb).gamma_map()[b]
            seams[(ra, a, rb, b)] = tuple(
                (slot_of[ra][ga[i - 1]], slot_of[rb][gb[j - 1]]) for i, j in sorted(mapping)
            )
    assert layout.block_seams == seams
