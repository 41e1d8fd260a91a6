"""The geometry-free layers on a two-prototype, two-rule system.

`tworule3x3` colours the 3x3 square substitution: rule ra expands prototype
a with a b-square in the centre, rule rb expands b into nine a-squares. Its
parents therefore cross rules, and hierarchies expand through both rules.
The values are regression pins measured on the seed implementation, not
independent answers.
"""

import hashlib

import pytest

from tilesub.errors import InconsistentGluing
from tilesub.model import build_numbering, validate_system
from tilesub.network import check_port_condition, validate_network
from tilesub.simulation import (
    enumerate_macro_tiles,
    hierarchy_decorate,
    quotient_hierarchy,
    verify_self_simulation,
)
from tilesub.specfile import load_bundled, parse_spec, print_spec
from tilesub.tileset import build_layout, generate_tileset

TAU = 7608
DUMP_SHA256 = "dd60683ecdea1134e8d720ebbf7946a688dfe4e99e9a5be2631eaf0c3c6779a1"


@pytest.fixture(scope="module")
def doc():
    return load_bundled("tworule3x3")


@pytest.fixture(scope="module")
def numbering(doc):
    return build_numbering(doc.system)


@pytest.fixture(scope="module")
def tau(doc, numbering):
    return generate_tileset(doc.system, numbering, doc.networks)


def test_spec_is_valid_and_canonical(doc):
    system = doc.system
    assert [p.name for p in system.prototypes] == ["a", "b"]
    assert [r.rule_id for r in system.rules] == ["ra", "rb"]
    assert validate_system(system).ok
    for rule in system.rules:
        assert validate_network(system, rule, doc.networks[rule.rule_id]).ok
    assert check_port_condition(system, doc.networks).ok
    assert len(system.macro_adjacency) == 8
    assert parse_spec(print_spec(doc)) == doc


def test_parents_cross_rules(doc, numbering):
    layout = build_layout(numbering, doc.networks)
    ra_cells = [j for j in range(1, 10) if j != 5]
    rb_cells = [j for j in range(10, 19) if j != 14]
    assert layout.central_cells == (5, 14)
    # An ra cell's parent is any a-tile: eight in ra, nine in rb.
    assert {j: len(layout.parents_for[j]) for j in ra_cells} == dict.fromkeys(ra_cells, 17)
    # An rb cell's parent is the only b-tile, ra's centre.
    assert {j: layout.parents_for[j] for j in rb_cells} == dict.fromkeys(rb_cells, (5,))
    assert {p: r.rule_id for p, r in layout.rule_for_prototype.items()} == {
        "a": "ra", "b": "rb",
    }


def test_closure_size_and_dump(tau):
    assert len(tau) == TAU
    assert hashlib.sha256(tau.dump().encode()).hexdigest() == DUMP_SHA256


def test_self_simulation_passes(doc, numbering, tau):
    instances = enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)
    assert len(instances) == TAU
    report = verify_self_simulation(tau, doc.system, numbering, doc.networks, instances)
    assert report.condition1_ok and report.phi_in_tileset and report.condition3_ok
    assert report.failures == []


@pytest.mark.parametrize("seed_rule", ["ra", "rb"])
def test_depth2_hierarchy_and_quotient(doc, numbering, seed_rule):
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, seed_rule, 2)
    bottom = hpatch.bottom
    assert len(bottom.cells) == 81
    assert bottom.matching_report().ok
    # Both rules take part in the expansion, whichever one seeds it.
    assert {rid for level in hpatch.levels for rid in level.rule_of.values()} == {"ra", "rb"}
    lifted = quotient_hierarchy(hpatch, doc.system, numbering, doc.networks)
    assert len(lifted.cells) == 9
    assert lifted == hpatch.levels[1]


def test_top_parent_of_another_prototype_is_inconsistent(doc, numbering):
    # T1 is an a-square; rule rb expands b, whose only tile is T5.
    with pytest.raises(InconsistentGluing, match="top parent T1 has prototype a, not b"):
        hierarchy_decorate(doc.system, numbering, doc.networks, "rb", 2, top_parent=1)
    assert hierarchy_decorate(doc.system, numbering, doc.networks, "rb", 1).top_parent == 5


def test_ancestor_parent_of_another_prototype_is_inconsistent(doc, numbering):
    # The depth-2 ra quotient recovers the nine cells of ra, whose parent is
    # an a-square; T5 is the b-square.
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, "ra", 2)
    with pytest.raises(InconsistentGluing, match="ancestor parent T5 has prototype b, not a"):
        quotient_hierarchy(hpatch, doc.system, numbering, doc.networks, ancestor_parent=5)
    # At depth 3 from rb every recovered cell lies in ra, so the default
    # ancestor, rb's top parent T5, is refused as well.
    deep = hierarchy_decorate(doc.system, numbering, doc.networks, "rb", 3)
    with pytest.raises(InconsistentGluing, match="ancestor parent T5 has prototype b, not a"):
        quotient_hierarchy(deep, doc.system, numbering, doc.networks)
    assert len(quotient_hierarchy(deep, doc.system, numbering, doc.networks,
                                  ancestor_parent=1).cells) == 81
