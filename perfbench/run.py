"""Stage-level benchmark of the tilesub pipeline.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 25 --trace 0

Runs one workload (see workloads.py and README.md) in this single process:
set-up and the timed body, again and again until `--seconds` have passed. With `--trace 0` the last stdout line reports the end-to-end
metrics (median body wall time, median set-up time, peak RSS); with
`--trace 1` untraced and traced passes alternate and it reports per-layer
self times and counts, plus the tracing overhead. Every checked stage result
counts as one attempted operation. A copy of the result, with run metadata
and, when tracing, every span, is written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, Probe, Workload, load_tilesub

# Before every pass the run sets up afresh, at least SETUP_REPEATS times and
# until SETUP_SECONDS have been spent, so that set-up time is sampled often
# and across the whole run, which steadies its median on a noisy machine.
SETUP_REPEATS = 2
SETUP_SECONDS = 1.0
OUT_DIR = Path(__file__).resolve().parent / "out"

# Spans whose self time is reported as the per-layer metric `<name>_s`. A
# span's self time is its duration minus the part its child spans cover.
LAYER_SPANS = (
    "specfile.parse", "specfile.print", "model.validate", "model.numbering",
    "counting.bounds", "network.validate", "network.search",
    "tileset.generate", "tileset.dump", "stages.views",
    "render.tile_svg", "render.patch_svg",
    "simulation.enumerate", "simulation.verify", "simulation.hierarchy",
    "simulation.matching", "simulation.quotient", "simulation.preimage",
    "assembler.layout", "assembler.assemble", "assembler.phase",
    "assembler.grid_from_hierarchy", "assembler.decompose",
)
# Per-layer counts, summed over one pass of the body.
LAYER_COUNTS = (
    "simulation.instances", "simulation.hierarchy_cells", "simulation.undefined_slots",
    "assembler.patches", "assembler.incoherent", "assembler.blocks", "assembler.margins",
    "tileset.tiles", "tileset.dump_bytes", "network.networks_found", "render.svg_bytes",
)
UNITS = {"tileset.dump_bytes": "bytes", "render.svg_bytes": "bytes"}


class Run:
    """Everything one invocation measured."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.traced_wall_s: list[float] = []
        self.traced: list[Probe] = []
        self.setup_spans: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.results: dict = {}
        self.counts: dict = {}

    def absorb(self, probe: Probe) -> None:
        self.attempted += probe.attempted
        self.failed += probe.failed
        self.failures.extend(probe.failures)
        self.results = probe.results
        self.counts = probe.counts


def _pass(workload: Workload, lib, inputs: dict, probe: Probe) -> float:
    """One timed body; a stage that raises ends the pass as a failed operation."""
    gc.collect()
    start = time.perf_counter()
    with probe.span("pass"):
        try:
            workload.body(lib, inputs, probe)
        except Exception as exc:  # the benchmark reports it and goes on
            probe.fail(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start


def _set_up(workload: Workload, seed: int, run: Run, tracing: bool):
    """Set up repeatedly, timing each set-up; return the last one's modules and
    inputs."""
    spent, count = 0.0, 0
    while count < SETUP_REPEATS or spent < SETUP_SECONDS:
        probe = Probe({}, tracing)
        gc.collect()
        start = time.perf_counter()
        lib = load_tilesub()
        inputs = workload.setup(lib, seed, probe)
        elapsed = time.perf_counter() - start
        run.setup_s.append(elapsed)
        spent += elapsed
        count += 1
    run.setup_spans = probe.spans
    return lib, inputs


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> Run:
    """Set up and run passes until `seconds` have passed, at least one pass
    (one untraced and one traced pass when `trace`)."""
    run = Run(name, seed)
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    while True:
        for tracing in modes:
            lib, inputs = _set_up(workload, seed, run, tracing)
            probe = Probe(workload.pins, tracing)
            elapsed = _pass(workload, lib, inputs, probe)
            run.absorb(probe)
            if tracing:
                run.traced_wall_s.append(elapsed)
                run.traced.append(probe)
            else:
                run.wall_s.append(elapsed)
        if time.perf_counter() - start >= seconds:
            return run


def self_times(spans) -> dict[str, float]:
    """Self time summed per span name."""
    out: dict[str, float] = {}
    for name, start, end, parent in spans:
        out[name] = out.get(name, 0.0) + (end - start)
        if parent >= 0:
            pname = spans[parent][0]
            out[pname] = out.get(pname, 0.0) - (end - start)
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": _metric(statistics.median(run.wall_s), "s"),
        "setup_s": _metric(statistics.median(run.setup_s), "s"),
        "peak_rss_mb": _metric(peak_kib / 1024, "MB"),
    }


def per_layer(run: Run) -> dict:
    per_pass = [self_times(probe.spans) for probe in run.traced]
    metrics = {
        f"{name}_s": _metric(statistics.median(t.get(name, 0.0) for t in per_pass), "s")
        for name in LAYER_SPANS
    }
    counts = run.traced[-1].counts
    for name in LAYER_COUNTS:
        metrics[name] = _metric(counts.get(name, 0), UNITS.get(name, "count"))

    def rate(count: str, span: str) -> float:
        busy = metrics[f"{span}_s"]["value"]
        return metrics[count]["value"] / busy if busy > 0 else 0.0

    metrics["simulation.instances_per_s"] = _metric(
        rate("simulation.instances", "simulation.enumerate"), "1/s")
    metrics["tileset.tiles_per_s"] = _metric(rate("tileset.tiles", "tileset.generate"), "1/s")
    bound = counts.get("counting.bound", 0)
    metrics["counting.slack"] = _metric(
        counts.get("counting.tiles", 0) / bound if bound else 0.0, "ratio")
    traced = statistics.median(run.traced_wall_s)
    layers = statistics.median(sum(t.get(n, 0.0) for n in LAYER_SPANS) for t in per_pass)
    metrics["trace.overhead_s"] = _metric(traced - statistics.median(run.wall_s), "s")
    metrics["trace.coverage"] = _metric(layers / traced, "ratio")
    return metrics


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(run: Run, seconds: float, trace: bool) -> dict:
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "passes": len(run.wall_s),
        "traced_passes": len(run.traced),
        "setups": len(run.setup_s),
    }


def write_record(run: Run, meta: dict, result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{run.workload}-seed{run.seed}-trace{int(meta['trace'])}.json"
    record = {"meta": meta, "result": result, "failures": run.failures[:50],
              "outputs": {k: repr(v) for k, v in run.results.items()}}
    if meta["trace"]:
        record["spans"] = {
            "setup": run.setup_spans,
            "passes": [probe.spans for probe in run.traced],
        }
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tilesub").is_dir():
        parser.error(f"no tilesub sources under {SRC}")

    run = measure(args.workload, WORKLOADS[args.workload], args.seed,
                  args.seconds, bool(args.trace))
    metrics = per_layer(run) if args.trace else end_to_end(run)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    meta = metadata(run, args.seconds, bool(args.trace))
    record = write_record(run, meta, result)
    print("# run " + json.dumps(meta))
    for failure in run.failures[:20]:
        print(f"# FAILED {failure}")
    print(f"# fail_rate {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} operations)")
    for name, metric in metrics.items():
        print(f"# {name} {metric['value']:.6g} {metric['unit']}")
    print(f"# record {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
