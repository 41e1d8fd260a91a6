"""Network validation, the port condition, and exhaustive search."""

import dataclasses
import hashlib
from importlib import resources
from itertools import permutations

import pytest

from helpers import E, N, S, W, dual_neighbors
from tilesub import network
from tilesub.errors import InvalidSystem, MissingNetwork
from tilesub.grids import make_square_grid_document
from tilesub.model import (
    MacroAdjacency,
    MacroTileTemplate,
    Prototype,
    Rule,
    SubstitutionSystem,
    validate_system,
)
from tilesub.network import (
    Branch,
    Network,
    check_port_condition,
    crossed_facets,
    network_slots,
    search_networks,
    validate_network,
)
from tilesub.specfile import parse_spec, print_spec

# Count of valid networks on the 3x3 rule, frozen from exhaustive
# enumeration: the straight cross, plus one variant per single branch
# extended to an adjacent corner (two extensions disconnect the residual
# ring, so exactly 4 facets x 2 corners survive).
NETWORKS_3X3 = 9

# Regression pins measured before the search pruned partial path systems:
# the count and the SHA-256 of `repr(search_networks(...))`, which fixes the
# set of networks and their order. Not independent answers.
SEARCH_PINS = {
    (3, 4): (50, "0ba108272071f3c84d40784bd4a5faf449d6af0de4c944841bdd0ad4d8dd201e"),
    (4, 3): (50, "9a85321fb2ae4c50e47570bd1e644dbb38b2eaa3724c9bdc6b0c14804772ae42"),
    (5, 3): (167, "1748f1449b238ab042b797ae4f878d9ab6c867e70355e8be65721aaa044322b9"),
    (4, 4): (660, "8ae962130bbdb21b57a5ef920893f142136adb9793492eb451ee2db428b8a8cd"),
    "ra": (9, "27a63708a1a4a0a23d34cf9c1c82a13873639f8e119f6813c8cefc3976b8b6c8"),
    "rb": (9, "2a9f182fc72c05b19e78453c91d480a3b4f10e7aa2952b946373eceff44822f0"),
    # Taken while the search still sorted its results.
    "twoport4x4": (650, "c6da0a840899c490b78b72b5ac5802fc212617baf5ff9a84faad5d6ddf4cd515"),
}


def _bundled_text(name="square3x3"):
    return resources.files("tilesub.data").joinpath(f"{name}.sub").read_text()


def _edited(text, edits):
    """`text` with each (old, new) line edit applied."""
    for old, new in edits:
        if old not in text:
            raise ValueError(f"spec lacks the line {old!r}")
        text = text.replace(old, new)
    return text


def _singleton_we_text():
    """The bundled 3x3 with its W and E macro-facets cut to their middle
    member, the port: a valid system whose rule has no valid network, since
    a macro-facet that is only its port has no non-port member."""
    return _edited(_bundled_text(), (
        ("gamma W : c1.W c4.W c7.W", "gamma W : c4.W"),
        ("gamma E : c3.E c6.E c9.E", "gamma E : c6.E"),
        ("macroadj (r1,W) ~ (r1,E) map 1:1 2:2 3:3", "macroadj (r1,W) ~ (r1,E) map 1:1"),
    ))


def _two_port_3x3_text():
    """The bundled 3x3 with the W member of corner c1 moved into macro-facet
    S and the E member of c9 into N: each of those corners owns two members
    of one macro-facet, so a branch ending there has two ports."""
    return _edited(_bundled_text(), (
        ("gamma S : c1.S c2.S c3.S", "gamma S : c1.S c2.S c3.S c1.W"),
        ("gamma N : c7.N c8.N c9.N", "gamma N : c7.N c8.N c9.N c9.E"),
        ("gamma W : c1.W c4.W c7.W", "gamma W : c4.W c7.W"),
        ("gamma E : c3.E c6.E c9.E", "gamma E : c3.E c6.E"),
        ("macroadj (r1,S) ~ (r1,N) map 1:1 2:2 3:3", "macroadj (r1,S) ~ (r1,N) map 1:1 2:2 3:3 4:4"),
        ("macroadj (r1,W) ~ (r1,E) map 1:1 2:2 3:3", "macroadj (r1,W) ~ (r1,E) map 1:1 2:2"),
    ))


def _two_port_4x4_text():
    """The 4x4 grid with two-port corners c1 and c16, as `_two_port_3x3_text`."""
    return _edited(print_spec(make_square_grid_document(4, 4)), (
        ("gamma S : c1.S c2.S c3.S c4.S", "gamma S : c1.S c2.S c3.S c4.S c1.W"),
        ("gamma N : c13.N c14.N c15.N c16.N", "gamma N : c13.N c14.N c15.N c16.N c16.E"),
        ("gamma W : c1.W c5.W c9.W c13.W", "gamma W : c5.W c9.W c13.W"),
        ("gamma E : c4.E c8.E c12.E c16.E", "gamma E : c4.E c8.E c12.E"),
        ("macroadj (r1,S) ~ (r1,N) map 1:1 2:2 3:3 4:4",
         "macroadj (r1,S) ~ (r1,N) map 1:1 2:2 3:3 4:4 5:5"),
        ("macroadj (r1,W) ~ (r1,E) map 1:1 2:2 3:3 4:4", "macroadj (r1,W) ~ (r1,E) map 1:1 2:2 3:3"),
    ))


def _pinned_subject(subject):
    """The system and rule behind a `SEARCH_PINS` key: a grid size, a rule of
    the bundled `tworule3x3` spec, the 4x4 grid with two-port corners, or
    the bundled `square3x3` spec."""
    if isinstance(subject, tuple):
        system = make_square_grid_document(*subject).system
        return system, system.rules[0]
    if subject in ("ra", "rb"):
        system = parse_spec(_bundled_text("tworule3x3")).system
        return system, system.rule(subject)
    text = _two_port_4x4_text() if subject == "twoport4x4" else _bundled_text(subject)
    system = parse_spec(text).system
    return system, system.rules[0]


@pytest.fixture(scope="module")
def rule(system):
    return system.rules[0]


@pytest.fixture(scope="module")
def net(networks):
    return networks["r1"]


def test_bundled_network_is_valid(system, rule, net):
    report = validate_network(system, rule, net)
    assert report.ok, report.render()


def test_center_not_interior(system, rule, net):
    bad = Network("r1", "c1", net.branches)
    codes = validate_network(system, rule, bad).codes()
    assert "CenterNotInterior" in codes


def test_branch_count(system, rule, net):
    bad = Network("r1", "c5", net.branches[:3])
    codes = validate_network(system, rule, bad).codes()
    assert "BranchCount" in codes


def test_star_shape_violation(system, rule, net):
    overlapping = (
        Branch(S, ("c2", "c1"), ("c1", S)),
        Branch(N, ("c8",), ("c8", N)),
        Branch(W, ("c4", "c1"), ("c1", W)),
        Branch(E, ("c6",), ("c6", E)),
    )
    codes = validate_network(system, rule, Network("r1", "c5", overlapping)).codes()
    assert "StarShape" in codes


def test_residual_disconnected_on_two_extensions(system, rule):
    branches = (
        Branch(S, ("c2", "c1"), ("c1", S)),
        Branch(N, ("c8",), ("c8", N)),
        Branch(W, ("c4", "c7"), ("c7", W)),
        Branch(E, ("c6",), ("c6", E)),
    )
    report = validate_network(system, rule, Network("r1", "c5", branches))
    assert "ResidualDisconnected" in report.codes()
    assert any("residual_weak=disconnected" in note for note in report.notes)


def test_unknown_branch_cell_is_reported_not_raised(system, rule, net):
    """A branch through a cell the template lacks: `UnknownCell`, and the
    residual check leaves the edges that name it alone."""
    branches = tuple(
        Branch(S, ("c2", "zz"), ("zz", S)) if b.k == S else b for b in net.branches
    )
    report = validate_network(system, rule, Network("r1", "c5", branches))
    assert [(v.code, v.detail) for v in report.entries] == [
        ("UnknownCell", f"r1: branch {S} cell zz"),
        ("PortMembership", f"r1: port ('zz', {S}) not in macro-facet {S}"),
    ]
    assert report.notes == ["r1: residual_weak=connected"]


def test_pairing_on_an_unknown_cell_is_reported_not_raised(system, rule, net):
    """A template pairing that names a cell the template lacks leaves no
    dual graph to check: `UnknownCell`, and nothing after it."""
    stray = ((("c1", S), ("zz", N)),)
    template = MacroTileTemplate(rule.template.cells, rule.template.internal_pairings + stray)
    bad = dataclasses.replace(rule, template=template)
    report = validate_network(system, bad, net)
    assert [(v.code, v.detail) for v in report.entries] == [
        ("UnknownCell", "r1: pairings name cells ['zz'] not in template"),
    ]


def test_weak_reading_is_surfaced(system, rule, net):
    report = validate_network(system, rule, net)
    assert any("residual_weak=connected" in note for note in report.notes)


def test_port_condition_holds(system, networks):
    assert check_port_condition(system, networks).ok
    # Independent oracle: the middle position of each side is the port.
    for rule in system.rules:
        gamma = rule.gamma_map()
        for branch in networks[rule.rule_id].branches:
            assert gamma[branch.k][1] == branch.port


def test_port_misaligned(system, networks):
    swapped = (
        MacroAdjacency(("r1", S), ("r1", N), ((1, 2), (2, 1), (3, 3))),
        MacroAdjacency(("r1", W), ("r1", E), ((1, 1), (2, 2), (3, 3))),
    )
    bad = dataclasses.replace(system, macro_adjacency=swapped)
    assert "PortMisaligned" in check_port_condition(bad, networks).codes()


def test_port_misaligned_reported_once_per_position(networks):
    """The bundled 3x3 with S member 1 meeting N member 2 and 2 meeting 1:
    two misaligned positions (the port, member 2, meets a non-port twice),
    each reported once although the entry is read in both directions."""
    text = resources.files("tilesub.data").joinpath("square3x3.sub").read_text()
    doc = parse_spec(text.replace(
        "macroadj (r1,S) ~ (r1,N) map 1:1 2:2 3:3",
        "macroadj (r1,S) ~ (r1,N) map 1:2 2:1 3:3",
    ))
    report = check_port_condition(doc.system, doc.networks)
    assert [(v.code, v.detail) for v in report.entries] == [
        ("PortMisaligned", f"(r1,{S})~(r1,{N}): position 1:2 pairs non-port with port"),
        ("PortMisaligned", f"(r1,{S})~(r1,{N}): position 2:1 pairs port with non-port"),
    ]


def test_empty_adjacency_is_a_violation(system, networks):
    bare = dataclasses.replace(system, macro_adjacency=())
    assert "NoAdjacency" in check_port_condition(bare, networks).codes()


def test_missing_network_raises(system):
    with pytest.raises(MissingNetwork):
        check_port_condition(system, {})


def test_search_contains_bundled_network(system, rule, net):
    found = search_networks(system, rule)
    assert net in found
    assert all(validate_network(system, rule, n).ok for n in found)


def test_search_count_regression(system, rule):
    assert len(search_networks(system, rule)) == NETWORKS_3X3


@pytest.mark.parametrize("subject", list(SEARCH_PINS), ids=str)
def test_search_regression_pins(subject):
    system, rule = _pinned_subject(subject)
    found = search_networks(system, rule)
    digest = hashlib.sha256(repr(found).encode()).hexdigest()
    assert (len(found), digest) == SEARCH_PINS[subject]


@pytest.mark.parametrize("subject", [*SEARCH_PINS, "square3x3"], ids=str)
def test_search_emits_canonical_order(subject):
    """The walk's own order is canonical: it equals the result sorted by
    center position and branch paths, and the stable sort keeps the port
    order of networks on the same paths (on `twoport4x4`, a walk that
    emitted each port's completions before the next port's would not)."""
    system, rule = _pinned_subject(subject)
    found = search_networks(system, rule)
    pos = rule.template.position
    assert list(found) == sorted(
        found, key=lambda net: (pos[net.center], tuple(b.path for b in net.branches))
    )


def test_search_builds_only_valid_networks(monkeypatch):
    """The search checks no candidate after the fact, and every network it
    builds passes `validate_network` all the same."""
    calls = []
    validate = network.validate_network
    monkeypatch.setattr(network, "validate_network", lambda *args: calls.append(args))
    found = {subject: search_networks(*_pinned_subject(subject)) for subject in SEARCH_PINS}
    assert calls == []
    for subject, nets in found.items():
        assert len(nets) == SEARCH_PINS[subject][0]
        system, rule = _pinned_subject(subject)
        for net in nets:
            report = validate(system, rule, net)
            assert report.ok, report.render()


def test_search_refuses_an_invalid_system():
    """A slot in two macro-facets breaks `validate_system`, whose disjoint
    macro-facets the search relies on."""
    text = _bundled_text().replace("gamma W : c1.W c4.W c7.W\n", "gamma W : c1.W c4.W c7.W c2.S\n")
    system = parse_spec(text).system
    with pytest.raises(InvalidSystem) as err:
        search_networks(system, system.rules[0])
    assert str(err.value) == "system invalid: ['AdjacencyRange', 'GammaOverlap']"


def test_search_empty_without_interior_cell():
    # A 1x3 strip: every cell touches the boundary.
    square = Prototype("sq", 4, ("-", "+", "-", "+"))
    from tilesub.model import make_pairing

    template = MacroTileTemplate(
        cells=(("a", "sq"), ("b", "sq"), ("c", "sq")),
        internal_pairings=(
            make_pairing(("a", E), ("b", W)),
            make_pairing(("b", E), ("c", W)),
        ),
    )
    gamma = (
        (S, (("a", S), ("b", S), ("c", S))),
        (N, (("a", N), ("b", N), ("c", N))),
        (W, (("a", W),)),
        (E, (("c", E),)),
    )
    rule = Rule("strip", "sq", template, gamma)
    system = SubstitutionSystem((square,), (rule,))
    assert search_networks(system, rule) == ()


def _oracle_networks(system, rule):
    """Brute force over (center, vertex-disjoint simple paths, ports) with
    independently coded condition checks."""
    cells = rule.template.cell_ids()
    nbr = dual_neighbors(rule.template)
    gamma = rule.gamma_map()
    externals = set(system.external_slots(rule))
    interior = [c for c in cells if all(s[0] != c for s in externals)]
    results = set()

    def residual_ok(center, paths):
        removed = set()
        for path in paths:
            prev = center
            for cell in path:
                removed.add(frozenset((prev, cell)))
                prev = cell
        rest = [c for c in cells if c != center]
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            cur = stack.pop()
            for nxt in nbr[cur]:
                if nxt == center or nxt in seen:
                    continue
                if frozenset((cur, nxt)) in removed:
                    continue
                seen.add(nxt)
                stack.append(nxt)
        return len(seen) == len(rest)

    for center in interior:
        rest = [c for c in cells if c != center]
        paths = []
        for length in range(1, len(rest) + 1):
            for perm in permutations(rest, length):
                if perm[0] in nbr[center] and all(
                    perm[i + 1] in nbr[perm[i]] for i in range(length - 1)
                ):
                    paths.append(perm)
        ks = sorted(gamma)

        def rec(i, used, chosen):
            if i == len(ks):
                if not residual_ok(center, [p for _, p, _ in chosen]):
                    return
                ports = {port for _, _, port in chosen}
                if any(
                    all(s in ports for s in gamma[k]) for k in ks
                ):
                    return
                results.add((center, tuple(chosen)))
                return
            k = ks[i]
            for path in paths:
                if used & set(path):
                    continue
                for slot in gamma[k]:
                    if slot[0] == path[-1]:
                        rec(i + 1, used | set(path), chosen + ((k, path, slot),))

        rec(0, frozenset(), ())
    return results


def test_search_matches_bruteforce_oracle():
    """On both bundled specs, every rule, on a valid variant whose rule has
    no valid network, and on one whose branch leaves may own two ports."""
    subjects = [
        (_bundled_text(), "r1", NETWORKS_3X3),
        (_bundled_text("tworule3x3"), "ra", SEARCH_PINS["ra"][0]),
        (_bundled_text("tworule3x3"), "rb", SEARCH_PINS["rb"][0]),
        (_singleton_we_text(), "r1", 0),
        (_two_port_3x3_text(), "r1", 9),
    ]
    for text, rule_id, count in subjects:
        system = parse_spec(text).system
        assert validate_system(system).ok
        rule = system.rule(rule_id)
        oracle = _oracle_networks(system, rule)
        found = {
            (n.center, tuple((b.k, b.path, b.port) for b in n.branches))
            for n in search_networks(system, rule)
        }
        assert found == oracle
        assert len(found) == count


def test_network_slots_disjoint_from_fixed_facets(numbering, networks, rule, net):
    """Pair-carrying slots are the port plus crossed sides, and never overlap
    the internal facets the base decoration fixes."""
    from tilesub.tileset import build_layout

    layout = build_layout(numbering, networks)
    slots = network_slots(rule, net)
    crossed = crossed_facets(rule, net)
    for cell, (k, cell_slots) in slots.items():
        j0 = numbering.tile_index(rule.rule_id, cell)
        expected = {
            slot for pairing in crossed[k] for slot in pairing if slot[0] == cell
        }
        expected |= {net.branch(k).port} if net.branch(k).port[0] == cell else set()
        assert set(cell_slots) == expected
        fixed = {(cell, f) for f in layout.parent_facets[j0]}
        assert fixed.isdisjoint(cell_slots)
