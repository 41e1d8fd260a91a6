"""Square-grid patch assembly, phase analysis and macro-decomposition.

Patches are filled by the key-indexed search that also enumerates macro-tiles
(`simulation._search`); phases are read off a table of wildcard-masked
macro-index signatures built with the grid layout. The phase check reads a
patch's cells in their own order and sorts only what it reports, so its
notes and entries come in sorted position order. `decompose_macro` looks
each block up in one table per mask of UNDEFINED slots, keyed by
`itemgetter` over instances flattened into rows of bases and decorations.

This is the specialization to systems whose prototypes are unit squares with
the facet convention (S, N, W, E) = (1, 2, 3, 4) and orientations
(-, +, -, +). Generic polytope assembly would need geometric realization,
which the model deliberately excludes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, count, product, repeat
from operator import is_, itemgetter
from typing import Any, Callable, Iterable

from .errors import AmbiguousSignature, NonSquareSystem
from .model import GlobalNumbering, Rule, SubstitutionSystem, ValidationReport
from .network import NetworkSet
from .simulation import HierarchyPatch, MacroTileInstance, _seam_keys, _search
from .tileset import DecoratedTile, Tileset, UNDEFINED, build_layout

S, N, W, E = 1, 2, 3, 4


@dataclass(frozen=True)
class GridPatch:
    """A (partial) rectangular assembly. Cell (0, 0) is the bottom-left;
    adjacent filled cells must carry equal decorations on their shared
    facet."""

    width: int
    height: int
    cells: dict[tuple[int, int], DecoratedTile] = field(default_factory=dict)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"patch size {self.width}x{self.height} has a side below 1")

    def matching_report(self) -> ValidationReport:
        report = ValidationReport()
        for (x, y), tile in self.cells.items():
            east = self.cells.get((x + 1, y))
            if east is not None and tile.triples[E - 1] != east.triples[W - 1]:
                report.add("SeamMismatch", f"({x},{y})-E vs ({x + 1},{y})-W")
            north = self.cells.get((x, y + 1))
            if north is not None and tile.triples[N - 1] != north.triples[S - 1]:
                report.add("SeamMismatch", f"({x},{y})-N vs ({x},{y + 1})-S")
        return report


@dataclass(frozen=True)
class GridLayout:
    """Where each tile sits in its rule's template, on the w x h grid every
    template shares, plus the table that reads a phase off a tile's
    macro-indices.

    `phases` memoises, per decoration tuple seen by `_known_phases`, the
    phase `phase_of` gives or None where it gives none. It only caches what
    the other fields determine, so it takes no part in equality or repr."""

    width: int
    height: int
    position_of: dict[int, tuple[int, int]]  # tile index, of any rule -> (x, y)
    # (S, N, W, E) macro-index signature with any facets masked to None ->
    # the distinct positions of the tiles whose full signature it fits
    fits: dict[tuple, list[tuple[int, int]]]
    phases: dict[tuple, tuple[int, int] | None] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )


def _require_square(system: SubstitutionSystem) -> None:
    for proto in system.prototypes:
        if proto.facet_count != 4 or proto.orientations != ("-", "+", "-", "+"):
            raise NonSquareSystem(
                f"prototype {proto.name} is not a unit square (S,N,W,E / -,+,-,+)"
            )


def _embed(rule: Rule) -> tuple[dict[str, tuple[int, int]], int, int]:
    """The grid position of each cell of the rule's template, recovered from
    its facet pairings, in scanline order, and the grid's width and height."""
    paired = rule.template.paired_slots
    east: dict[str, str] = {}
    north: dict[str, str] = {}
    for (ca, ka), (cb, kb) in rule.template.internal_pairings:
        if (ka, kb) == (E, W):
            east[ca] = cb
        elif (ka, kb) == (W, E):
            east[cb] = ca
        elif (ka, kb) == (N, S):
            north[ca] = cb
        elif (ka, kb) == (S, N):
            north[cb] = ca
        else:
            raise NonSquareSystem(f"pairing {(ca, ka)}--{(cb, kb)} is not grid-like")
    cells = rule.template.cell_ids()
    corners = [
        c for c in cells if (c, W) not in paired and (c, S) not in paired
    ]
    if len(corners) != 1:
        raise NonSquareSystem(f"rule {rule.rule_id}: no unique bottom-left cell")
    at: dict[str, tuple[int, int]] = {}
    row_start, y = corners[0], 0
    width = None
    while row_start is not None:
        cur, x = row_start, 0
        while cur is not None:
            at[cur] = (x, y)
            cur = east.get(cur)
            x += 1
        if width is None:
            width = x
        elif width != x:
            raise NonSquareSystem(f"rule {rule.rule_id}: ragged rows")
        row_start = north.get(row_start)
        y += 1
    if len(at) != len(cells):
        raise NonSquareSystem(f"rule {rule.rule_id}: cells do not form a grid")
    return at, width, y


def build_grid_layout(system: SubstitutionSystem, numbering: GlobalNumbering,
                      networks: NetworkSet) -> GridLayout:
    """Recover the grid embedding of every rule's template, which must all
    be w x h (NonSquareSystem otherwise), and validate that a tile's full
    macro-index signature identifies its position: two tiles may share one
    only at the same position (AmbiguousSignature otherwise)."""
    _require_square(system)
    nsigma = build_layout(numbering, networks).nsigma
    size = None
    position_of: dict[int, tuple[int, int]] = {}
    for rule in system.rules:
        at, width, height = _embed(rule)
        if size is None:
            size = width, height
        elif (width, height) != size:
            raise NonSquareSystem(
                f"rule {rule.rule_id}: template is {width}x{height}, not {size[0]}x{size[1]}"
            )
        for cell, pos in at.items():
            position_of[numbering.tile_index(rule.rule_id, cell)] = pos
    owner: dict[tuple, int] = {}  # full signature -> the first tile that has it
    fits: dict[tuple, list[tuple[int, int]]] = {}
    for j, pos in position_of.items():
        sig = tuple(nsigma[(j, k)] for k in (S, N, W, E))
        first = owner.setdefault(sig, j)
        if position_of[first] != pos:
            raise AmbiguousSignature(f"T{first} and T{j} share signature {sig}")
        for mask in product((False, True), repeat=4):
            hits = fits.setdefault(tuple(None if hide else f for f, hide in zip(sig, mask)), [])
            if pos not in hits:
                hits.append(pos)
    return GridLayout(*size, position_of, fits)


def phase_of(tile: DecoratedTile, layout: GridLayout) -> tuple[int, int]:
    """Position of the tile's base cell inside the template, read off the
    macro-index signature with one lookup in `layout.fits`. UNDEFINED facets
    are wildcards; the defined part must still identify a unique position."""
    sig = tuple(
        None if dec is UNDEFINED else dec.f for dec in tile.triples
    )
    hits = layout.fits.get(sig)
    if not hits:
        raise KeyError(f"signature {sig} fits no template position")
    if len(hits) > 1:
        raise AmbiguousSignature(f"signature {sig} fits positions {hits}")
    return hits[0]


_UNSEEN = object()


def _known_phases(patch: GridPatch, layout: GridLayout, report: ValidationReport
                  ) -> dict[tuple[int, int], tuple[int, int]]:
    """The phase of every patch cell that has one, in the patch's own cell
    order; each cell without one gets a note, in sorted position order. A
    phase depends only on the tile's decorations, so `phase_of` runs once
    per distinct decoration tuple and layout, its answer kept in
    `layout.phases`."""
    memo = layout.phases
    phases = {}
    undetermined = []
    for pos, tile in patch.cells.items():
        phase = memo.get(tile.triples, _UNSEEN)
        if phase is _UNSEEN:
            try:
                phase = phase_of(tile, layout)
            except (KeyError, AmbiguousSignature):
                phase = None
            memo[tile.triples] = phase
        if phase is None:
            undetermined.append(pos)
        else:
            phases[pos] = phase
    for pos in sorted(undetermined):
        report.note(f"cell {pos}: phase undetermined")
    return phases


def check_phase_coherence(patch: GridPatch, layout: GridLayout) -> ValidationReport:
    """East neighbors advance the column phase by one (mod width) at equal
    row phase, and symmetrically northward. Cells whose signature does not
    determine a phase (wildcard-heavy hierarchy cells) are skipped with a
    note. Notes and entries come in sorted position order, a cell's east
    entry before its north one, whatever the order of `patch.cells`: the
    cells are read in their own order and only what is reported is sorted.
    Phases are read through `layout.phases`, so checking many patches with
    one layout looks each distinct tile's decorations up once."""
    report = ValidationReport()
    w, h = layout.width, layout.height
    phases = _known_phases(patch, layout, report)
    failures = []  # (position, E before N, detail)
    for (x, y), (cx, cy) in phases.items():
        ep = phases.get((x + 1, y))
        if ep is not None and ep != ((cx + 1) % w, cy):
            failures.append(((x, y), 0, f"({x},{y})->E: {(cx, cy)} then {ep}"))
        np_ = phases.get((x, y + 1))
        if np_ is not None and np_ != (cx, (cy + 1) % h):
            failures.append(((x, y), 1, f"({x},{y})->N: {(cx, cy)} then {np_}"))
    for _, _, detail in sorted(failures):
        report.add("PhaseIncoherent", detail)
    return report


def assemble_patches(tau: Tileset, numbering: GlobalNumbering, width: int,
                     height: int, seeds: dict[tuple[int, int], DecoratedTile] | None = None
                     ) -> list[GridPatch]:
    """Exhaustively enumerate all valid width x height patches in scanline
    order (bottom row first, west to east). A position's candidates are
    keyed by their W and S decorations, which must equal the E facet of the
    west neighbor and the N facet of the south neighbor; a seeded position
    has its seed as sole candidate. Patches come out in lexicographic order
    of the tiles' canonical positions in `tau`, positions taken in scanline
    order. A side below 1 raises ValueError."""
    _require_square(numbering.system)
    seeds = seeds or {}
    order = [(x, y) for y in range(height) for x in range(width)]
    cells = [
        ((seeds[(x, y)],) if (x, y) in seeds else tau,
         *_seam_keys([(W, i - 1, E)] * (x > 0) + [(S, i - width, N)] * (y > 0)))
        for i, (x, y) in enumerate(order)
    ]
    return [
        GridPatch(width, height, dict(zip(order, placed))) for placed in _search(cells)
    ]


@dataclass
class DecomposedPatch:
    """A patch partitioned into template-aligned blocks."""

    blocks: dict[tuple[int, int], MacroTileInstance]
    adjacencies: tuple[tuple[tuple[int, int], int, tuple[int, int], int], ...]
    margins: tuple[tuple[int, int], ...]
    report: ValidationReport


def decompose_macro(patch: GridPatch, instances: tuple[MacroTileInstance, ...],
                    layout: GridLayout, wildcard: bool = False) -> DecomposedPatch:
    """Align w x h blocks at phase-(0,0) anchors and identify each complete
    block with an enumerated instance.

    `wildcard=True` lets UNDEFINED patch slots match anything, which is how
    hierarchy patches are analyzed; a complete block matching no instance is
    reported as NonInstanceBlock (a verifier bug on valid patches). Cells
    outside complete blocks are margins. Blocks, reports and adjacencies
    come in sorted anchor order, margins in sorted position order.

    Each instance is flattened once per call into a row: its tiles in
    scanline order of their template positions, each as its base followed by
    its decorations. A complete block is flattened the same way, and the
    positions of its row's UNDEFINED decorations (none without `wildcard`)
    are its mask. Per mask one table maps `itemgetter(*visible)` of each
    instance row to the instance, `visible` being the positions the mask
    leaves, filled in instance order so that the first matching instance
    wins; a block is then one lookup in its mask's table.
    """
    w, h = layout.width, layout.height
    report = ValidationReport()
    at = layout.position_of
    rows = [_row(sorted(inst.tiles, key=lambda tile: at[tile.base][::-1])) for inst in instances]
    # Per mask, the key that reads the visible positions and the table.
    tables: dict[tuple[int, ...], tuple[Callable, dict[Any, MacroTileInstance]]] = {}
    phases = _known_phases(patch, layout, ValidationReport())
    anchors = sorted(pos for pos, phase in phases.items() if phase == (0, 0))
    cells = patch.cells
    blocks: dict[tuple[int, int], MacroTileInstance] = {}
    covered: set[tuple[int, int]] = set()
    for ax, ay in anchors:
        positions = [(ax + dx, ay + dy) for dy in range(h) for dx in range(w)]
        tiles = [cells.get(p) for p in positions]
        if None in tiles:
            continue
        row = _row(tiles)
        mask = tuple(compress(count(), map(is_, row, repeat(UNDEFINED)))) if wildcard else ()
        found = tables.get(mask)
        if found is None:
            hidden = set(mask)
            key = itemgetter(*[i for i in range(len(row)) if i not in hidden])
            table: dict[Any, MacroTileInstance] = {}
            for inst_row, inst in zip(rows, instances):
                table.setdefault(key(inst_row), inst)
            found = tables[mask] = key, table
        key, table = found
        instance = table.get(key(row))
        if instance is None:
            report.add("NonInstanceBlock", f"anchor ({ax},{ay})")
            continue
        blocks[(ax, ay)] = instance
        covered.update(positions)
    margins = tuple(sorted(p for p in cells if p not in covered))
    for pos in margins:
        report.note(f"margin cell {pos}")
    adjacencies = []
    for ax, ay in blocks:
        if (ax + w, ay) in blocks:
            adjacencies.append(((ax, ay), E, (ax + w, ay), W))
        if (ax, ay + h) in blocks:
            adjacencies.append(((ax, ay), N, (ax, ay + h), S))
    return DecomposedPatch(blocks, tuple(adjacencies), margins, report)


def _row(tiles: Iterable[DecoratedTile]) -> tuple:
    """The tiles flattened, each as its base followed by its decorations."""
    return tuple(chain.from_iterable([(tile.base, *tile.triples) for tile in tiles]))


def patch_from_instance(instance: MacroTileInstance, layout: GridLayout) -> GridPatch:
    at = layout.position_of
    return GridPatch(layout.width, layout.height, {at[tile.base]: tile for tile in instance.tiles})


def grid_from_hierarchy(hpatch: HierarchyPatch, layout: GridLayout,
                        networks: NetworkSet) -> GridPatch:
    """Realize the bottom level of a square hierarchy as a grid patch.

    Read off the levels' flat tuples from the top down, a cell's position is
    its block's position times (w, h) plus the cell's position in the
    template; the top level's one block sits at the origin. The cells come
    in the bottom's cell order. `networks` is unused: whether a tile is
    central is a fact of its base."""
    w, h, at = layout.width, layout.height, layout.position_of
    xs, ys = [0], [0]
    for level in reversed(hpatch.levels):
        xs = [xs[b] * w + at[j][0] for b, j in zip(level.block, level.base)]
        ys = [ys[b] * h + at[j][1] for b, j in zip(level.block, level.base)]
    bottom = hpatch.bottom
    decs = bottom.slot_decoration
    # A square's facets S, N, W, E are its slots 4i .. 4i + 3, so the
    # decorations are read four at a time.
    if bottom.offset != tuple(range(0, len(decs) + 1, 4)):
        raise NonSquareSystem("hierarchy cells of a grid patch need four facets each")
    cells = dict(zip(zip(xs, ys), map(DecoratedTile, bottom.base, zip(*[iter(decs)] * 4))))
    side = w ** hpatch.depth, h ** hpatch.depth
    return GridPatch(side[0], side[1], cells)
