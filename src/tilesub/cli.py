"""Command-line interface.

Subcommands: validate, networks, generate, verify, count, assemble,
hierarchy, render. Reports are line-oriented text on stdout; exit status is
0 on success, 1 when a requested check reports violations, 2 on usage or
parse errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .assembler import (
    GridPatch,
    assemble_patches,
    build_grid_layout,
    check_phase_coherence,
    grid_from_hierarchy,
    patch_from_instance,
)
from .counting import count_bound_first, count_bound_second, exact_count, params_from_system
from .errors import ParseError, TilesubError
from .model import ValidationReport, build_numbering, validate_system
from .network import check_port_condition, search_networks, validate_network
from .render import render_patch_svg, render_tile_svg
from .simulation import enumerate_macro_tiles, hierarchy_decorate, verify_self_simulation
from .specfile import parse_spec
from .stages import stage_views
from .tileset import build_layout, close, generate_tileset, line_batches


def _read(path: str) -> str:
    """The text of an input file. One that cannot be read (missing, a
    directory, no permission) or is not UTF-8 raises ParseError (exit 2)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})"
                         ) from None


def _write(path: Path, text: str, *, parents: bool = False) -> None:
    """Write an output file, first making its missing parent directories if
    `parents`. One that cannot be written (a directory, a parent that is a
    file, no permission) raises ParseError (exit 2)."""
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        # mkdir names the parent it could not make, write_text the file.
        raise ParseError(f"cannot write {exc.filename or path}: {exc.strerror or exc}"
                         ) from None


def _load(path: str):
    return parse_spec(_read(path))


def _finish(report: ValidationReport) -> int:
    print(report.render())
    return 0 if report.ok else 1


def cmd_validate(args) -> int:
    doc = _load(args.spec)
    report = validate_system(doc.system)
    if report.ok:
        # The port condition reads every rule's branches, so it runs only
        # when each rule has a network that passed its own checks.
        networks_ok = True
        for rule in doc.system.rules:
            net = doc.networks.get(rule.rule_id)
            if net is None:
                report.add("MissingNetwork", f"rule {rule.rule_id} has no network")
                networks_ok = False
                continue
            checked = validate_network(doc.system, rule, net)
            networks_ok = networks_ok and checked.ok
            report.merge(checked)
        if networks_ok:
            report.merge(check_port_condition(doc.system, doc.networks))
    return _finish(report)


def cmd_networks(args) -> int:
    doc = _load(args.spec)
    for rule in doc.system.rules:
        nets = search_networks(doc.system, rule)
        print(f"rule {rule.rule_id} networks={len(nets)}")
        for net in nets:
            parts = [
                f"branch {b.k}: {' '.join(b.path)} port={b.port[0]}.{b.port[1]}"
                for b in net.branches
            ]
            print(f"  center={net.center} | " + " | ".join(parts))
    return 0


def _generated(doc):
    numbering = build_numbering(doc.system)
    tau = generate_tileset(doc.system, numbering, doc.networks)
    return numbering, tau


def cmd_generate(args) -> int:
    doc = _load(args.spec)
    numbering, tau = _generated(doc)
    if args.stages:
        outdir = Path(args.stages)
        for name, text in stage_views(tau, numbering, doc.networks).items():
            _write(outdir / f"after_{name}.txt", text, parents=True)
    # The dump in batches: neither the whole dump nor one write a line.
    for batch in line_batches(tau.lines()):
        print(batch)
    return 0


def cmd_verify(args) -> int:
    doc = _load(args.spec)
    numbering, tau = _generated(doc)
    instances = enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)
    report = verify_self_simulation(tau, doc.system, numbering, doc.networks, instances)
    del instances  # nothing below reads them, so the 2x2 evidence need not hold them too
    layout = build_grid_layout(doc.system, numbering, doc.networks)
    patches = assemble_patches(tau, numbering, 2, 2)
    bad = sum(
        0 if check_phase_coherence(p, layout).ok else 1 for p in patches
    )
    print(report.render())
    print(
        f"condition2 patch-scale evidence: {'PASS' if bad == 0 else 'FAIL'} "
        f"patches2x2={len(patches)} incoherent={bad}"
    )
    ok = report.ok and bad == 0
    print(f"result={'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_count(args) -> int:
    doc = _load(args.spec)
    numbering = build_numbering(doc.system)
    layout = build_layout(numbering, doc.networks)  # the bounds read checked networks
    params = params_from_system(
        doc.system, numbering, doc.networks,
        doc.second_networks if args.second else None,
    )
    first = count_bound_first(params)
    print(first.render())
    if args.second:
        print(count_bound_second(params).render())
    if args.exact:
        print(exact_count(close(layout), params).render())
    return 0


def _parse_seeds(path: str, tau, width: int, height: int) -> dict[tuple[int, int], object]:
    seeds = {}
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            x, y, idx = (int(v) for v in line.split())
        except ValueError:
            raise ParseError(f"bad seed line {raw!r}", lineno) from None
        if not (0 <= x < width and 0 <= y < height):
            raise ParseError(f"seed cell ({x},{y}) outside the {width}x{height} patch", lineno)
        if not 0 <= idx < len(tau):
            raise ParseError(f"seed tile index {idx} outside 0..{len(tau) - 1}", lineno)
        if (x, y) in seeds:
            raise ParseError(f"seed cell ({x},{y}) given twice", lineno)
        seeds[(x, y)] = tau.tiles[idx]
    return seeds


def cmd_assemble(args) -> int:
    doc = _load(args.spec)
    numbering, tau = _generated(doc)
    seeds = _parse_seeds(args.seed, tau, args.width, args.height) if args.seed else None
    patches = assemble_patches(tau, numbering, args.width, args.height, seeds)
    print(f"patches={len(patches)}")
    if args.print_patches:
        for indices in patches.tile_indices():
            print(" ".join(map(str, indices)))
    return 0


def cmd_hierarchy(args) -> int:
    doc = _load(args.spec)
    numbering = build_numbering(doc.system)
    build_layout(numbering, doc.networks)  # refuses a spec without rules before rules[0]
    seed_rule = args.rule or doc.system.rules[0].rule_id
    hpatch = hierarchy_decorate(
        doc.system, numbering, doc.networks, seed_rule, args.depth
    )
    bottom = hpatch.bottom
    matching = bottom.matching_report()
    print(f"tiles={len(bottom.base)}")
    print(f"undefined_slots={bottom.undefined_count}")
    for level in reversed(hpatch.levels):
        print(
            f"level={level.level} cells={len(level.base)} "
            f"undefined={level.undefined_count}"
        )
    print(f"matching={'PASS' if matching.ok else 'FAIL'}")
    return 0 if matching.ok else 1


def _chosen(items, index: int, what: str):
    """`items[index]`, or ParseError (exit 2) naming the valid range."""
    if not 0 <= index < len(items):
        raise ParseError(f"{what} index {index} outside 0..{len(items) - 1}")
    return items[index]


def cmd_render(args) -> int:
    doc = _load(args.spec)
    if args.tile is not None or args.instance is not None:
        numbering, tau = _generated(doc)
    else:
        numbering = build_numbering(doc.system)
        build_layout(numbering, doc.networks)  # --empty refuses a bad spec too
    if args.tile is not None:
        svg = render_tile_svg(_chosen(tau.tiles, args.tile, "tile"))
    elif args.instance is not None:
        layout = build_grid_layout(doc.system, numbering, doc.networks)
        instances = enumerate_macro_tiles(tau, doc.system, numbering, doc.networks)
        instance = _chosen(instances, args.instance, "instance")
        svg = render_patch_svg(patch_from_instance(instance, layout))
    elif args.hierarchy_depth is not None:
        layout = build_grid_layout(doc.system, numbering, doc.networks)
        hpatch = hierarchy_decorate(
            doc.system, numbering, doc.networks,
            doc.system.rules[0].rule_id, args.hierarchy_depth,
        )
        svg = render_patch_svg(grid_from_hierarchy(hpatch, layout, doc.networks))
    elif args.empty:
        svg = render_patch_svg(GridPatch(*args.empty))
    else:
        print("render: choose --tile, --instance, --hierarchy-depth or --empty",
              file=sys.stderr)
        return 2
    _write(Path(args.svg), svg)
    print(f"wrote {args.svg}")
    return 0


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value

    return integer


def _grid_size(text: str) -> tuple[int, int]:
    """argparse type: `WxH` with W, H >= 1."""
    try:
        width, height = (int(v) for v in text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not of the form WxH") from None
    if width < 1 or height < 1:
        raise argparse.ArgumentTypeError(f"{text} has a side below 1")
    return width, height


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilesub",
        description="Decorated tilesets for combinatorial substitutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("spec", help="substitution spec (.sub) file")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, help="structural + network + port checks")
    add("networks", cmd_networks, help="exhaustive network search per rule")
    p = add("generate", cmd_generate, help="generate and dump the tileset")
    p.add_argument("--stages", metavar="DIR", help="also write stage views")
    add("verify", cmd_verify, help="self-simulation verification")
    p = add("count", cmd_count, help="tile-count bounds")
    p.add_argument("--second", action="store_true", help="second-network bound")
    p.add_argument("--exact", action="store_true", help="compare against |tau|")
    p = add("assemble", cmd_assemble, help="enumerate valid patches")
    p.add_argument("--width", type=_at_least(1), required=True)
    p.add_argument("--height", type=_at_least(1), required=True)
    p.add_argument("--seed", help="seed file: lines of 'x y tile-index'")
    p.add_argument("--print-patches", action="store_true")
    p = add("hierarchy", cmd_hierarchy, help="finite-depth hierarchy patch")
    p.add_argument("--depth", type=_at_least(1), required=True)
    p.add_argument("--rule", help="seed rule (default: first)")
    p = add("render", cmd_render, help="SVG rendering")
    p.add_argument("--svg", required=True, metavar="OUT")
    p.add_argument("--tile", type=_at_least(0), help="tileset index of a single tile")
    p.add_argument("--instance", type=_at_least(0), help="macro-tile instance index")
    p.add_argument("--hierarchy-depth", type=_at_least(1))
    p.add_argument("--empty", type=_grid_size, metavar="WxH", help="empty grid of that size")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TilesubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
