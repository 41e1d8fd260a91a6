"""Core model: validation, numbering, facet classification."""

import dataclasses
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    E,
    N,
    S,
    W,
    components_by_flood,
    domino_rule,
    domino_system,
    dual_neighbors,
    partial_gamma_3x3_text,
)
from tilesub.errors import InvalidSystem
from tilesub.grids import make_square_grid_document
from tilesub.model import (
    BOUNDARY,
    MACRO_FACET,
    FacetClass,
    MacroAdjacency,
    MacroTileTemplate,
    PORT,
    Prototype,
    Rule,
    SubstitutionSystem,
    _components,
    build_numbering,
    internal,
    make_pairing,
    validate_system,
)
from tilesub.specfile import load_bundled, parse_spec
from tilesub.tileset import DecorationTriple, build_layout

# Facet classes of the 3x3 cells, transcribed from the worked example
# (columns S, N, W, E; integers are internal facet indices).
SIGNATURES = {
    1: ("m", 3, "m", 1),
    2: ("p", 4, 1, 2),
    3: ("m", 5, 2, "m"),
    4: (3, 8, "p", 6),
    5: (4, 9, 6, 7),
    6: (5, 10, 7, "p"),
    7: (8, "m", "m", 11),
    8: (9, "p", 11, 12),
    9: (10, "m", 12, "m"),
}


def expected_class(value):
    if value == "m":
        return MACRO_FACET
    if value == "p":
        return PORT
    return internal(value)


def test_bundled_system_is_valid(system):
    assert validate_system(system).ok


def test_prototype_invariants():
    with pytest.raises(ValueError):
        Prototype("bad", 0, ())
    with pytest.raises(ValueError):
        Prototype("bad", 2, ("-",))
    with pytest.raises(ValueError):
        Prototype("bad", 1, ("x",))


def test_gamma_overlap_is_reported():
    rule = domino_rule()
    gamma = dict(rule.gamma)
    gamma[E] = (("b", E), ("a", S))  # ('a', S) already belongs to gamma S
    bad = dataclasses.replace(rule, gamma=tuple(sorted(gamma.items())))
    report = validate_system(domino_system(bad))
    assert "GammaOverlap" in report.codes()


def test_disconnected_template_is_reported():
    rule = domino_rule()
    template = MacroTileTemplate(rule.template.cells, ())
    gamma = (
        (S, (("a", S), ("b", S))),
        (N, (("a", N), ("b", N))),
        (W, (("a", W),)),
        (E, (("b", E),)),
    )
    bad = Rule("d1", "sq", template, gamma)
    report = validate_system(domino_system(bad))
    assert "DisconnectedTemplate" in report.codes()


def test_pairing_with_an_unknown_cell_is_reported_not_raised():
    """A pairing that names a cell the template lacks is a `SlotInvalid`.
    The rule's dual graph cannot be built, so its connectivity check is
    skipped, and nothing raises."""
    rule = domino_rule()
    stray = make_pairing(("a", E), ("zz", W))
    template = MacroTileTemplate(
        rule.template.cells, rule.template.internal_pairings + (stray,)
    )
    bad = dataclasses.replace(rule, template=template)
    report = validate_system(domino_system(bad))
    assert [(v.code, v.detail) for v in report.entries] == [
        ("SlotConflict", f"d1: slot ('a', {E}) paired twice"),
        ("SlotInvalid", f"d1: pairing uses unknown slot ('zz', {W})"),
    ]


def test_gamma_member_on_an_unknown_cell_is_reported_under_a_macro_adjacency():
    """A gamma member naming a cell the template lacks is GammaNotExternal;
    a macro-adjacency entry over its macro-facet skips the orientation check
    for that member instead of looking the cell up."""
    rule = dataclasses.replace(domino_rule(), gamma=tuple(
        (k, (("zz", E),) if k == E else members) for k, members in domino_rule().gamma
    ))
    system = dataclasses.replace(
        domino_system(rule),
        macro_adjacency=(MacroAdjacency(("d1", W), ("d1", E), ((1, 1),)),),
    )
    report = validate_system(system)
    assert [(v.code, v.detail) for v in report.entries] == [
        ("GammaNotExternal", f"d1: gamma {E} member ('zz', {E})"),
    ]


def test_repeated_cell_is_duplicate_and_disconnected():
    """A repeated cell id: the dual graph keeps the id at its last position,
    so the earlier one is cut off."""
    rule = domino_rule()
    template = dataclasses.replace(rule.template, cells=rule.template.cells + (("a", "sq"),))
    report = validate_system(domino_system(dataclasses.replace(rule, template=template)))
    assert [(v.code, v.detail) for v in report.entries] == [
        ("DuplicateCell", "d1: repeated cell id"),
        ("DisconnectedTemplate", "d1: dual graph is not connected"),
    ]


def test_repeated_rule_and_prototype_are_duplicates():
    """A repeated rule id or prototype name resolves to its first
    declaration, but the numbering would number both rules' cells, so the
    system is refused before anything is numbered."""
    doc = load_bundled("square3x3")
    system = dataclasses.replace(
        doc.system,
        prototypes=doc.system.prototypes * 2,
        rules=doc.system.rules * 3,
    )
    report = validate_system(system)
    assert [(v.code, v.detail) for v in report.entries] == [
        ("DuplicatePrototype", "sq: declared 2 times"),
        ("DuplicateRule", "r1: declared 3 times"),
    ]
    with pytest.raises(InvalidSystem, match=r"\['DuplicatePrototype', 'DuplicateRule'\]"):
        build_numbering(system)


@cache
def _template(name):
    if name == "4x4":
        return make_square_grid_document(4, 4).system.rules[0].template
    spec, rule_id = name.split("/")
    return load_bundled(spec).system.rule(rule_id).template


@pytest.mark.parametrize("name", ["square3x3/r1", "4x4", "tworule3x3/ra", "tworule3x3/rb"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_components_match_flood_fill(name, data):
    """`_components` on the template's dual bitmasks, with random edges cut
    and random cells deleted (as a network's edges and centre are), gives
    the components a flood fill over cell ids gives, lowest position first."""
    template = _template(name)
    ids, pos, neighbors = template.cell_ids(), template.position, dual_neighbors(template)
    assert [sorted(ids[j] for j in range(len(ids)) if mask >> j & 1)
            for mask in template.dual_masks] == [neighbors[c] for c in ids]
    edges = sorted({(a, b) for a, ns in neighbors.items() for b in ns if a < b})
    cut = data.draw(st.sets(st.sampled_from(edges)))
    deleted = data.draw(st.sets(st.sampled_from(ids)))
    adj = list(template.dual_masks)
    for a, b in cut:
        adj[pos[a]] &= ~(1 << pos[b])
        adj[pos[b]] &= ~(1 << pos[a])
    kept = [c for c in ids if c not in deleted]
    comps = _components(adj, sum(1 << pos[c] for c in kept))
    got = [{c for c in ids if comp >> pos[c] & 1} for comp in comps]
    oracle = components_by_flood(kept, neighbors, {frozenset(e) for e in cut})
    assert sorted(map(sorted, got)) == sorted(map(sorted, oracle))
    assert [min(pos[c] for c in comp) for comp in got] == sorted(
        min(pos[c] for c in comp) for comp in oracle)


def test_orientation_clash_is_reported():
    # Gluing two south facets pairs equal orientation signs.
    rule = domino_rule()
    template = MacroTileTemplate(
        rule.template.cells, (make_pairing(("a", S), ("b", S)),)
    )
    gamma = (
        (S, (("a", E),)),
        (N, (("a", N), ("b", N))),
        (W, (("a", W),)),
        (E, (("b", E),)),
    )
    bad = Rule("d1", "sq", template, gamma)
    report = validate_system(domino_system(bad))
    assert "OrientationClash" in report.codes()


def test_numbering_matches_worked_example(numbering):
    assert numbering.n == 9
    assert numbering.m == 12
    assert numbering.tiles == tuple(("r1", f"c{i}") for i in range(1, 10))
    # Internal facet numbering follows the declared adjacency order.
    assert numbering.facet_index("r1", (("c1", E), ("c2", W))) == 1
    assert numbering.facet_index("r1", (("c1", N), ("c4", S))) == 3
    assert numbering.facet_index("r1", (("c5", N), ("c8", S))) == 9
    assert numbering.facet_index("r1", (("c8", E), ("c9", W))) == 12


def test_numbering_is_deterministic(system):
    assert build_numbering(system) == build_numbering(system)


def test_numbering_additive_over_duplicated_rules(system):
    rule = system.rules[0]
    twin = dataclasses.replace(rule, rule_id="r2")
    doubled = dataclasses.replace(system, rules=(rule, twin))
    numbering = build_numbering(doubled)
    assert numbering.n == 18
    assert numbering.m == 24


def test_single_cell_rule_numbering():
    mono = Prototype("dot", 1, ("-",))
    template = MacroTileTemplate((("a", "dot"),), ())
    rule = Rule("r", "dot", template, ((1, (("a", 1),)),))
    system = SubstitutionSystem((mono,), (rule,))
    numbering = build_numbering(system)
    assert (numbering.n, numbering.m) == (1, 0)


def test_build_numbering_rejects_invalid_system():
    rule = domino_rule()
    template = MacroTileTemplate(rule.template.cells, ())
    bad = Rule("d1", "sq", template, rule.gamma)
    with pytest.raises(InvalidSystem):
        build_numbering(domino_system(bad))


def test_n_sigma_worked_example_values(compiled):
    nsigma = compiled.nsigma
    assert nsigma[(5, N)] == internal(9)
    assert nsigma[(2, S)] == PORT
    assert nsigma[(1, W)] == MACRO_FACET
    for j, row in SIGNATURES.items():
        got = tuple(nsigma[(j, k)] for k in (S, N, W, E))
        assert got == tuple(expected_class(v) for v in row), f"T{j}"
    assert len(nsigma) == 4 * len(SIGNATURES)


def test_internal_classes_cover_every_facet_twice(numbering, compiled):
    counts = {}
    for j in range(1, numbering.n + 1):
        for k in range(1, numbering.prototype_of(j).facet_count + 1):
            cls = compiled.nsigma[(j, k)]
            if cls.is_internal:
                counts[cls.index] = counts.get(cls.index, 0) + 1
    assert counts == {i: 2 for i in range(1, numbering.m + 1)}


def test_facet_class_is_a_plain_tuple():
    """Facet classes hash and compare as `(kind, index)` tuples, in C."""
    assert FacetClass.__hash__ is tuple.__hash__ and FacetClass.__eq__ is tuple.__eq__
    a, b = internal(3), internal(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == (0, 3) and PORT == (1, 0)
    seen = {DecorationTriple(internal(3), 2, PORT): "seen"}
    assert seen[DecorationTriple(internal(3), 2, FacetClass(PORT.kind))] == "seen"
    shuffled = [BOUNDARY, internal(2), MACRO_FACET, PORT, internal(1), internal(10)]
    assert sorted(shuffled) == [internal(1), internal(2), internal(10), PORT, MACRO_FACET,
                                BOUNDARY]
    assert [tuple(c) for c in sorted(shuffled)] == sorted(tuple(c) for c in shuffled)
    with pytest.raises(ValueError, match="positive index"):
        internal(0)
    with pytest.raises(ValueError, match="positive index"):
        FacetClass(0)
    assert [c.render() for c in (internal(4), PORT, MACRO_FACET, BOUNDARY)] == [
        "f4", "p", "m", "b"]


def test_external_facet_outside_all_macro_facets_is_boundary():
    # Gamma need not cover the whole template boundary; the leftover
    # externals classify as plain boundary. The bundled 3x3 with its S and N
    # macro-facets cut to two members each leaves c3.S and c9.N outside.
    doc = parse_spec(partial_gamma_3x3_text())
    assert validate_system(doc.system).ok
    nsigma = build_layout(build_numbering(doc.system), doc.networks).nsigma
    assert [slot for slot, cls in nsigma.items() if cls == BOUNDARY] == [(3, S), (9, N)]


def test_gamma_members_classify_port_or_macro(system, numbering, compiled):
    for rule in system.rules:
        for _, members in rule.gamma:
            for cell, k in members:
                j = numbering.tile_index(rule.rule_id, cell)
                assert compiled.nsigma[(j, k)] in (PORT, MACRO_FACET)
