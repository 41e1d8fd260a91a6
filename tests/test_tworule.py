"""The geometry-free layers on a two-prototype, two-rule system.

`tworule3x3` colours the 3x3 square substitution: rule ra expands prototype
a with a b-square in the centre, rule rb expands b into nine a-squares. Its
parents therefore cross rules, and hierarchies expand through both rules.
The values are regression pins measured on the seed implementation, not
independent answers.
"""

import dataclasses
import hashlib
from collections import Counter
from importlib import resources

import pytest

from helpers import decompose_by_scan, renamed_tworule_text
from tilesub.assembler import (
    assemble_patches,
    build_grid_layout,
    check_phase_coherence,
    decompose_macro,
    grid_from_hierarchy,
)
from tilesub.cli import main
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

BUNDLED = resources.files("tilesub.data") / "tworule3x3.sub"
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


@pytest.fixture(scope="module")
def instances(doc, numbering, tau):
    return enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)


@pytest.fixture(scope="module")
def grid(doc, numbering):
    return build_grid_layout(doc.system, numbering, doc.networks)


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


def test_self_simulation_passes(doc, numbering, tau, instances):
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
    # an a-square; T5 is the b-square. A level above forged to give them T5
    # is refused.
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, "ra", 2)
    above = dataclasses.replace(hpatch.levels[1], parent=(5,) * 9)
    forged = dataclasses.replace(hpatch, levels=(hpatch.bottom, above))
    with pytest.raises(InconsistentGluing, match=r"block \('c1',\): parent T5 has prototype b, not a"):
        quotient_hierarchy(forged, doc.system, numbering, doc.networks)
    # At depth 3 from rb every recovered cell lies in ra, under the a-tiles
    # of the level above, not under rb's top parent T5, a b-tile.
    deep = hierarchy_decorate(doc.system, numbering, doc.networks, "rb", 3)
    lifted = quotient_hierarchy(deep, doc.system, numbering, doc.networks)
    assert len(lifted.cells) == 81 and lifted == deep.levels[1]


# The grid layout places every tile of every rule. With rule rb's cells
# renamed d1..d9 no cell id names a cell of both rules, so a layout read off
# the first rule alone would find no rb cell.

@pytest.fixture
def renamed(tmp_path):
    spec = tmp_path / "renamed.sub"
    spec.write_text(renamed_tworule_text())
    assert main(["validate", str(spec)]) == 0
    return spec


@pytest.mark.parametrize("subject", [["--instance", "5072"], ["--hierarchy-depth", "2"]],
                         ids=["instance", "hierarchy"])
def test_renamed_spec_renders_like_the_bundled_one(renamed, tmp_path, instances, subject):
    """Renaming cells moves no tile, so each SVG is the bundled spec's.
    Instance 5072 is an rb instance."""
    assert instances[5072].rule_id == "rb"
    for spec, out in ((renamed, "renamed.svg"), (BUNDLED, "bundled.svg")):
        assert main(["render", str(spec), "--svg", str(tmp_path / out), *subject]) == 0
    assert (tmp_path / "renamed.svg").read_text() == (tmp_path / "bundled.svg").read_text()


def test_every_cell_of_every_2x2_patch_has_a_phase(numbering, tau, grid):
    patches = assemble_patches(tau, numbering, 2, 2)
    assert len(patches) == 37768
    reports = [check_phase_coherence(patch, grid) for patch in patches]
    assert all(report.ok for report in reports)
    assert [note for report in reports for note in report.notes] == []


def test_ra_depth3_hierarchy_decomposes_into_full_blocks(doc, numbering, instances, grid):
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, "ra", 3)
    patch = grid_from_hierarchy(hpatch, grid, doc.networks)
    decomposed = decompose_macro(patch, instances, grid, wildcard=True)
    assert decomposed.report.ok
    assert len(decomposed.blocks) == 81
    assert decomposed.margins == ()
    oracle = decompose_by_scan(patch, instances, grid)
    assert decomposed.blocks.keys() == oracle.keys()
    assert all(decomposed.blocks[a] == oracle[a] for a in oracle)
    # Each block is an instance of the rule that expanded it: the level
    # above the bottom has 73 a-cells, expanded by ra, and 8 b-cells.
    by_rule = Counter(inst.rule_id for inst in decomposed.blocks.values())
    assert by_rule == Counter(hpatch.bottom.rule[::9]) == {"ra": 73, "rb": 8}


@pytest.mark.parametrize("seed_rule, depth", [(r, d) for r in ("ra", "rb") for d in (2, 3)])
def test_decomposition_of_both_rules_matches_the_scan(doc, numbering, instances, grid,
                                                      seed_rule, depth):
    """The per-mask tables hold the instances of both rules; each block
    still gets the instance a scan finds first, in sorted anchor order, also
    with the instances reversed."""
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, seed_rule, depth)
    patch = grid_from_hierarchy(hpatch, grid, doc.networks)
    winners = {}
    for order in (instances, instances[::-1]):
        decomposed = decompose_macro(patch, order, grid, wildcard=True)
        oracle = decompose_by_scan(patch, order, grid)
        assert decomposed.report.ok and decomposed.margins == ()
        assert list(decomposed.blocks) == sorted(oracle) and len(oracle) == 9 ** (depth - 1)
        assert all(decomposed.blocks[a] == oracle[a] for a in oracle)
        assert Counter(i.rule_id for i in oracle.values()) == Counter(hpatch.bottom.rule[::9])
        winners[order is instances] = decomposed.blocks
    # The order matters: some block matches more than one instance.
    assert any(winners[True][a] != winners[False][a] for a in winners[True])


def test_decomposition_without_instances_reports_every_block(doc, numbering, grid):
    hpatch = hierarchy_decorate(doc.system, numbering, doc.networks, "rb", 2)
    patch = grid_from_hierarchy(hpatch, grid, doc.networks)
    decomposed = decompose_macro(patch, (), grid, wildcard=True)
    oracle = decompose_by_scan(patch, (), grid)
    assert len(oracle) == 9 and set(oracle.values()) == {None}
    assert decomposed.blocks == {} and decomposed.adjacencies == ()
    assert decomposed.report.codes() == {"NonInstanceBlock"}
    assert [v.detail for v in decomposed.report.entries] == [
        f"anchor ({x},{y})" for x, y in sorted(oracle)
    ]
    assert decomposed.margins == tuple(sorted(patch.cells))
