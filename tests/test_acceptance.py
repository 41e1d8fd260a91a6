"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Golden files live in tests/golden/square3x3 and were frozen from a
generator run whose staged content is pinned, row by row, to the worked
example by the hand-transcribed checks in the unit suite.
"""

import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

from helpers import E, N, S, W
from tilesub.assembler import (
    assemble_patches,
    check_phase_coherence,
    decompose_macro,
    grid_from_hierarchy,
)
from tilesub.counting import CountParams, count_bound_first, count_bound_second
from tilesub.network import Network, search_networks, validate_network
from tilesub.simulation import (
    enumerate_macro_tiles,
    hierarchy_decorate,
    phi,
    quotient_hierarchy,
    verify_self_simulation,
)
from tilesub.stages import stage_views
from tilesub.tileset import close, generate_tileset

GOLDEN = Path(__file__).parent / "golden" / "square3x3"
SPEC = str(resources.files("tilesub.data") / "square3x3.sub")


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS ({detail})")


def test_criterion_1_golden_reproduction(doc3, numbering):
    """Staged generator output reproduces the worked figures byte for byte."""
    start = time.perf_counter()
    tau = generate_tileset(doc3.system, numbering, doc3.networks)
    views = stage_views(tau, numbering, doc3.networks)
    elapsed = time.perf_counter() - start
    for step in range(1, 6):
        golden = (GOLDEN / f"after_step{step}.txt").read_text()
        assert views[f"step{step}"] == golden, f"stage {step} drifted"
    assert tau.dump() + "\n" == (GOLDEN / "tileset_dump.txt").read_text()
    assert elapsed < 10.0
    report(1, f"5 stages + dump byte-identical, {elapsed:.2f}s")


def test_criterion_2_counting_bounds():
    """Both counting formulas produce the exact worked values."""
    first = count_bound_first(CountParams(r=1, n=9, m=12, p=5))
    assert (first.n0, first.np_, first.bound, first.coarse) == (36, 2304, 4680, 8100)
    second = count_bound_second(CountParams(r=1, n=9, m=12, p=5, q=5, c=4))
    assert (second.n0, second.nq, second.np_, second.nc, second.bound,
            second.coarse) == (3, 9, 57, 276, 690, 3420)
    report(2, "first=(36,2304,4680,8100) second=(3,9,57,276,690,3420)")


def test_criterion_3_closure_soundness(doc3, numbering):
    """The closure is finite, bounded, reaches a fixpoint, and is stable
    across runs."""
    start = time.perf_counter()
    tau1 = generate_tileset(doc3.system, numbering, doc3.networks)
    tau2 = generate_tileset(doc3.system, numbering, doc3.networks)
    elapsed = time.perf_counter() - start
    assert 36 <= len(tau1) <= 4680
    assert tau1.dump() == tau2.dump()
    from tilesub.tileset import _pairs_table, build_layout, decorate_network, derive_central

    compiled = build_layout(numbering, doc3.networks)
    more = decorate_network(compiled, _pairs_table(tau1))
    more |= derive_central(compiled, tau1)
    assert more <= set(tau1.tiles)
    assert elapsed < 10.0
    report(3, f"|tau|={len(tau1)} <= 4680, fixpoint stable, {elapsed:.2f}s")


def test_criterion_4_self_simulation(doc3, numbering, compiled, tau, instances):
    """Conditions (1) and (3) hold exhaustively; the seam-blind negative
    control fails condition (3)."""
    start = time.perf_counter()
    verdict = verify_self_simulation(tau, doc3.system, numbering, doc3.networks,
                                     instances)
    assert verdict.condition1_ok and verdict.phi_in_tileset and verdict.condition3_ok
    assert all(phi(compiled, q) in tau for q in instances)
    mutant = close(replace(compiled, macro_facet_idx={}))
    mutant_verdict = verify_self_simulation(
        mutant, doc3.system, numbering, doc3.networks,
        enumerate_macro_tiles(mutant, doc3.system, numbering, doc3.networks),
    )
    assert not mutant_verdict.condition3_ok
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"(1),(3) pass over {len(instances)} assemblies; "
              f"mutant fails (3); {elapsed:.2f}s")


def test_criterion_5_patch_scale_condition_2(tau, numbering, layout, patches_2x2):
    """Every valid 2x2 patch is phase coherent, and assembly agrees with the
    brute-force oracle on small domains (full tileset at 1x2/2x1 and seeded
    2x3; synthetic tileset at free 2x3 in the unit suite)."""
    assert patches_2x2
    violations = sum(
        0 if check_phase_coherence(p, layout).ok else 1 for p in patches_2x2
    )
    assert violations == 0
    from test_assembler import as_key_set, brute_force_patches

    for width, height in [(2, 1), (1, 2)]:
        fast = assemble_patches(tau, numbering, width, height)
        slow = brute_force_patches(tau.tiles, width, height)
        assert len(fast) == len(slow) and as_key_set(fast) == as_key_set(slow)
    full = assemble_patches(tau, numbering, 2, 3)[0]
    seeds = {pos: full.cells[pos] for pos in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]}
    fast = assemble_patches(tau, numbering, 2, 3, seeds=seeds)
    oracle = [
        t for t in tau
        if seeds[(0, 2)].triples[E - 1] == t.triples[W - 1]
        and seeds[(1, 1)].triples[N - 1] == t.triples[S - 1]
    ]
    assert [p.cells[(1, 2)] for p in fast] == oracle
    report(5, f"{len(patches_2x2)} 2x2 patches all coherent; oracle equality")


def test_criterion_6_second_inclusion_finite_depth(doc3, numbering, instances,
                                                   layout):
    """Depth-2 hierarchy: matching defined seams, UNDEFINED confined to the
    two levels of network slots, quotient reproduces depth 1 exactly."""
    system, networks = doc3.system, doc3.networks
    depth2 = hierarchy_decorate(system, numbering, networks, "r1", 2)
    bottom = depth2.bottom
    assert len(bottom.cells) == 81
    assert bottom.matching_report().ok
    from test_simulation import _expected_depth2_undefined

    assert set(bottom.undefined_from) == _expected_depth2_undefined(doc3, numbering)
    assert len(bottom.undefined_from) == 132
    lifted = quotient_hierarchy(depth2, system, numbering, networks)
    depth1 = hierarchy_decorate(system, numbering, networks, "r1", 1)
    assert lifted == depth1.bottom == depth2.levels[1]
    # The bottom decomposes into nine enumerated assemblies (wildcards on
    # the undefined slots).
    patch = grid_from_hierarchy(depth2, layout, networks)
    decomposed = decompose_macro(patch, instances, layout, wildcard=True)
    assert decomposed.report.ok and len(decomposed.blocks) == 9
    report(6, "81 tiles, 132 undefined slots confined to networks, "
              "quotient == depth-1")


def test_criterion_7_network_machinery(doc3):
    """Search finds the worked network; the named mutants are rejected."""
    system = doc3.system
    rule = system.rules[0]
    nets = search_networks(system, rule)
    bundled = doc3.networks["r1"]
    assert bundled in nets
    assert bundled.center == "c5"
    assert {b.path[-1] for b in bundled.branches} == {"c2", "c4", "c6", "c8"}
    center_mutant = Network("r1", "c1", bundled.branches)
    assert "CenterNotInterior" in validate_network(system, rule, center_mutant).codes()
    three_branch = Network("r1", "c5", bundled.branches[:3])
    assert "BranchCount" in validate_network(system, rule, three_branch).codes()
    report(7, f"{len(nets)} networks incl. the worked one; mutants rejected")
