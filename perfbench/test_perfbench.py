"""Tests of the benchmark harness on a tiny input: the bundled 3x3 spec at
hierarchy depth 2."""
import json
import sys
from functools import partial

import pytest

import run
import workloads

TINY_PINS = {
    "d2.hierarchy": (81, 132),
    "d2.matching": True,
    "d2.quotient": (9, True),
    "d2.incoherent": 0,
    "d2.decomposition": (9, 0, True),
    "d2.preimage": (True, 9, 12),
    "d2.patch_svg_bytes": 76799,
}


def tiny(pins, body=None):
    body = body or partial(workloads.body_hierarchy, depths=(2,), detail_depth=2)
    return workloads.Workload(workloads.setup_hierarchy, body, pins)


@pytest.fixture(autouse=True)
def restore_tilesub(monkeypatch):
    """Each set-up re-imports tilesub; put back the modules the rest of the
    suite imported, so that its objects stay of one module generation."""
    def ours():
        return [m for m in sys.modules if m == "tilesub" or m.startswith("tilesub.")]

    saved = {m: sys.modules[m] for m in ours()}
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0)
    yield
    for m in ours():
        del sys.modules[m]
    sys.modules.update(saved)


def test_pinned_outputs_pass():
    result = run.measure("tiny", tiny(TINY_PINS), seed=0, seconds=0, trace=False)
    assert result.failures == []
    assert result.attempted == len(TINY_PINS)
    assert len(result.wall_s) == 1 and len(result.setup_s) == 1


def test_wrong_pin_raises_fail_rate():
    pins = dict(TINY_PINS, **{"d2.hierarchy": (81, 131)})
    result = run.measure("tiny", tiny(pins), seed=0, seconds=0, trace=False)
    assert (result.failed, result.attempted) == (1, len(TINY_PINS))
    assert result.failures[0].startswith("d2.hierarchy: got (81, 132)")


def test_stage_that_raises_is_a_failed_operation():
    def body(lib, inputs, probe):
        probe.call("simulation.hierarchy", lib.simulation.hierarchy_decorate,
                   None, None, None, inputs["rule"], 0)

    result = run.measure("tiny", tiny(TINY_PINS, body), seed=0, seconds=0, trace=False)
    assert (result.failed, result.attempted) == (1, 1)
    assert result.failures[0].startswith("ValueError")


@pytest.mark.parametrize("seed", [0, 4])
def test_traced_and_untraced_report_same_outputs(seed):
    plain = run.measure("tiny", tiny(TINY_PINS), seed=seed, seconds=0, trace=False)
    traced = run.measure("tiny", tiny(TINY_PINS), seed=seed, seconds=0, trace=True)
    assert plain.failed == traced.failed == 0
    assert traced.results == plain.results
    assert traced.traced[-1].counts == plain.counts
    assert len(traced.wall_s) == len(traced.traced_wall_s) == 1


def test_metrics_match_the_benchmark_declaration():
    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert set(declared["paths"]) == {"perfbench"}
    assert set(run.WORKLOADS) == {w["name"] for w in declared["workloads"]}
    plain = run.measure("tiny", tiny(TINY_PINS), seed=0, seconds=0, trace=False)
    traced = run.measure("tiny", tiny(TINY_PINS), seed=0, seconds=0, trace=True)
    e2e = run.end_to_end(plain)
    layers = run.per_layer(traced)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: m["unit"] for name, m in e2e.items()}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: m["unit"] for name, m in layers.items()}
    assert all(m["value"] > 0 for m in e2e.values())
    assert layers["simulation.hierarchy_s"]["value"] > 0
    assert layers["simulation.hierarchy_cells"]["value"] == 81
    assert layers["simulation.enumerate_s"]["value"] == 0
    assert 0.5 < layers["trace.coverage"]["value"] <= 1


def test_self_times_subtract_children():
    spans = [("pass", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 5.0, 6.0, 0),
             ("a", 2.0, 3.0, 1)]
    assert run.self_times(spans) == {"pass": 6.0, "a": 3.0, "b": 1.0}
