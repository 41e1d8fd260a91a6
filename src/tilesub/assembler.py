"""Square-grid patch assembly, phase analysis and macro-decomposition.

A patch is one flat tuple: its scanline tiles, then its width and height.
Readers index the tiles in place, `patch[x + y * width]`, and read the sides
through `width` and `height`; where the sides sit is known only here.
Patches are filled by the key-indexed search that also enumerates
macro-tiles (`simulation._fill`), on tile indices keyed by decoration ids;
`assemble_patches` keeps the solutions as one C-int array of tile indices,
a `PatchSequence`, which builds each `GridPatch` when it is read. Phases
are read off a table of wildcard-masked macro-index signatures built with
the grid layout, and memoised per decoration tuple.
The phase check settles a patch whose every cell has a phase with one list
comparison, and otherwise walks it column by column, each from the south,
finding a cell's east and north neighbors at the next index and one row up,
so its notes and entries come in sorted position order without a sort.
`decompose_macro` keys each block by `itemgetter` over its row of bases and
decorations, one table per mask of UNDEFINED slots, and reads the instances
once, flattened the same way, keeping the first that fills each key.

This is the specialization to systems whose prototypes are unit squares with
the facet convention (S, N, W, E) = (1, 2, 3, 4) and orientations
(-, +, -, +), both defined in `model`. Generic polytope assembly would need geometric realization,
which the model deliberately excludes.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count, islice, product, repeat
from operator import is_, itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import AmbiguousSignature, NonSquareSystem
from .model import (
    E,
    N,
    S,
    SQUARE_ORIENTATIONS,
    W,
    GlobalNumbering,
    Rule,
    SubstitutionSystem,
    ValidationReport,
)
from .network import NetworkSet
from .simulation import HierarchyPatch, MacroTileInstance, _IntRows, _fill
from .tileset import (
    DecoratedTile,
    Tileset,
    UNDEFINED,
    _Memo,
    _Numbering,
    _id_columns,
    _nogc,
    build_layout,
)


class GridPatch(tuple):
    """A (partial) rectangular assembly. Cell (0, 0) is the bottom-left;
    adjacent filled cells must carry equal decorations on their shared
    facet.

    A patch is one flat tuple: its scanline tiles, `patch[x + y * width]`
    the tile at (x, y) and None where the cell is empty, then its width and
    height, with no inner tuple and no `__dict__`. A plain tuple
    underneath, so it hashes and compares in C; patches of different sides
    differ even when their tiles agree. `GridPatch(width, height, cells)`
    takes the filled cells as a position -> tile mapping; a side below 1,
    or a cell outside `width x height`, raises ValueError. `width`,
    `height`, `tiles` (the scanline tuple, a copy) and `cells` (a read-only
    position -> tile view of the filled cells, in scanline order, built on
    each access) are read-only accessors; the readers in this package index
    the patch in place."""

    __slots__ = ()

    def __new__(cls, width: int, height: int,
                cells: Mapping[tuple[int, int], DecoratedTile] | None = None):
        _check_sides(width, height)
        tiles: list = [None] * (width * height)
        for (x, y), tile in (cells or {}).items():
            tiles[_index(x, y, width, height)] = tile
        tiles += width, height
        return super().__new__(cls, tiles)

    width = property(itemgetter(-2), doc="Number of columns.")
    height = property(itemgetter(-1), doc="Number of rows.")

    @property
    def tiles(self) -> tuple[DecoratedTile | None, ...]:
        return self[:-2]

    @property
    def cells(self) -> Mapping[tuple[int, int], DecoratedTile]:
        w = self.width
        return MappingProxyType({
            (i % w, i // w): tile
            for i, tile in enumerate(islice(self, len(self) - 2)) if tile is not None
        })

    def __repr__(self) -> str:
        return f"GridPatch(width={self.width!r}, height={self.height!r}, tiles={self.tiles!r})"

    def __reduce__(self):
        return GridPatch, (self.width, self.height, dict(self.cells))

    def matching_report(self) -> ValidationReport:
        report = ValidationReport()
        width, size = self.width, len(self) - 2
        last = size - width  # the first index of the top row
        for i in range(size):
            tile = self[i]
            if tile is None:
                continue
            x, y = i % width, i // width
            if x + 1 < width:
                east = self[i + 1]
                if east is not None and tile.triples[E - 1] != east.triples[W - 1]:
                    report.add("SeamMismatch", f"({x},{y})-E vs ({x + 1},{y})-W")
            if i < last:
                north = self[i + width]
                if north is not None and tile.triples[N - 1] != north.triples[S - 1]:
                    report.add("SeamMismatch", f"({x},{y})-N vs ({x},{y + 1})-S")
        return report


def _check_sides(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise ValueError(f"patch size {width}x{height} has a side below 1")


def _index(x: int, y: int, width: int, height: int) -> int:
    """The scanline index of cell (x, y) of a width x height patch."""
    if not (0 <= x < width and 0 <= y < height):
        raise ValueError(f"cell ({x},{y}) outside the {width}x{height} patch")
    return x + y * width


# Wraps a flat sequence, scanline tiles then width and height, whose sides
# and cells are known to be valid.
_wrap = partial(tuple.__new__, GridPatch)


@dataclass(frozen=True)
class GridLayout:
    """Where each tile sits in its rule's template, on the w x h grid every
    template shares, plus the table that reads a phase off a tile's
    macro-indices.

    `phases` maps each decoration tuple looked up in it to the phase
    `phase_of` gives a tile with those decorations, or None where it gives
    none, computed on the first lookup. `grids` maps (width, height, phase)
    to the scanline phases of a coherent width x height patch whose cell
    (0, 0) has that phase, built on the first lookup. Both only cache what
    the other fields determine, so they take no part in equality or repr."""

    width: int
    height: int
    position_of: dict[int, tuple[int, int]]  # tile index, of any rule -> (x, y)
    # (S, N, W, E) macro-index signature with any facets masked to None ->
    # the distinct positions of the tiles whose full signature it fits
    fits: dict[tuple, list[tuple[int, int]]]
    phases: dict[tuple, tuple[int, int] | None] = field(init=False, compare=False, repr=False)
    grids: dict[tuple, list[tuple[int, int]]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "phases", _Memo(partial(_known_phase, self.fits)))
        object.__setattr__(self, "grids", _Memo(partial(_phase_grid, self.width, self.height)))


def _require_square(system: SubstitutionSystem) -> None:
    for proto in system.prototypes:
        if proto.facet_count != 4 or proto.orientations != SQUARE_ORIENTATIONS:
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
    return _phase(layout.fits, tile.triples)


def _phase(fits: dict[tuple, list[tuple[int, int]]], triples: tuple) -> tuple[int, int]:
    sig = tuple(None if dec is UNDEFINED else dec.f for dec in triples)
    hits = fits.get(sig)
    if not hits:
        raise KeyError(f"signature {sig} fits no template position")
    if len(hits) > 1:
        raise AmbiguousSignature(f"signature {sig} fits positions {hits}")
    return hits[0]


def _known_phase(fits: dict[tuple, list[tuple[int, int]]], triples: tuple
                 ) -> tuple[int, int] | None:
    try:
        return _phase(fits, triples)
    except (KeyError, AmbiguousSignature):
        return None


def _phase_grid(w: int, h: int, key: tuple[int, int, tuple[int, int]]
                ) -> list[tuple[int, int]]:
    """The scanline phases of a coherent width x height patch whose cell
    (0, 0) has the phase (cx, cy), on a w x h template grid."""
    width, height, (cx, cy) = key
    return [((cx + x) % w, (cy + y) % h) for y in range(height) for x in range(width)]


def check_phase_coherence(patch: GridPatch, layout: GridLayout) -> ValidationReport:
    """East neighbors advance the column phase by one (mod width) at equal
    row phase, and symmetrically northward. Cells whose signature does not
    determine a phase (wildcard-heavy hierarchy cells) are skipped with a
    note.

    Each cell's phase is read once, through `layout.phases`, so checking
    many patches with one layout looks each distinct tile's decorations up
    once. A patch whose every cell is filled and determined is coherent
    exactly when its phases equal the grid its cell (0, 0) implies, which
    is one list comparison against `layout.grids`. Otherwise the cells are
    walked column by column, each from the south, so notes and entries come
    in sorted position order, a cell's east entry before its north one,
    without a sort; a cell's east and north neighbors are the next index
    and the next row."""
    report = ValidationReport()
    w, h = layout.width, layout.height
    width, height = patch.width, patch.height
    size = width * height
    memo = layout.phases
    phases = [None if tile is None else memo[tile.triples] for tile in islice(patch, size)]
    if None not in phases and phases == layout.grids[width, height, phases[0]]:
        return report
    last = size - width  # the first index of the top row
    for x in range(width):
        east = x + 1 < width
        for i in range(x, size, width):
            here = phases[i]
            if here is None:
                if patch[i] is not None:
                    report.note(f"cell {(x, i // width)}: phase undetermined")
                continue
            cx, cy = here
            if east:
                ep = phases[i + 1]
                if ep is not None and ep != ((cx + 1) % w, cy):
                    report.add("PhaseIncoherent", f"({x},{i // width})->E: {here} then {ep}")
            if i < last:
                np_ = phases[i + width]
                if np_ is not None and np_ != (cx, (cy + 1) % h):
                    report.add("PhaseIncoherent", f"({x},{i // width})->N: {here} then {np_}")
    return report


class PatchSequence(_IntRows):
    """The patches of one `assemble_patches` call, read-only: one C-int
    array of tile indices into `tiles`, `width * height` a patch in
    scanline order, each patch built as a `GridPatch` when it is read. It
    reads as the list of those patches did (`_IntRows`) and equals a list
    or another sequence of patches."""

    __slots__ = ("width", "height")
    _peers = (list,)

    def __init__(self, tiles: Sequence[DecoratedTile], width: int, height: int, flat: array):
        self.width = width
        self.height = height
        super().__init__(tiles, [flat], [len(flat) // (width * height)])

    def _read(self, flat: array, start: int, stop: int) -> Iterator[GridPatch]:
        width, height = self.width, self.height
        size = width * height
        cells = map(self.tiles.__getitem__, memoryview(flat)[start * size:stop * size])
        # Each row is a patch's tiles, then its sides.
        return map(_wrap, zip(*[cells] * size, repeat(width), repeat(height)))

    def tile_indices(self) -> Iterator[tuple[int, ...]]:
        """Each patch's stored tile indices, in scanline order."""
        return zip(*[iter(self.runs[0])] * (self.width * self.height))


@_nogc
def assemble_patches(tau: Tileset, numbering: GlobalNumbering, width: int,
                     height: int, seeds: dict[tuple[int, int], DecoratedTile] | None = None
                     ) -> PatchSequence:
    """Exhaustively enumerate all valid width x height patches in scanline
    order (bottom row first, west to east). A position's candidates are
    keyed by their W and S decoration ids, which must equal those of the E
    facet of the west neighbor and the N facet of the south neighbor; a
    seeded position has its seed as sole candidate. Patches come out in
    lexicographic order of the tiles' canonical positions in `tau`,
    positions taken in scanline order, as a `PatchSequence` over the search's
    tile indices. A seed in `tau` is its index there; any other seed is
    appended to the tile table, its decorations numbered for this call. A
    side below 1, or a seed outside the patch, raises ValueError."""
    _require_square(numbering.system)
    _check_sides(width, height)
    tiles = tau.tiles
    table, columns = tau.decoration_ids
    pools: list = [list(range(len(tiles)))] * (width * height)  # one int object per index
    foreign = []
    for (x, y), seed in (seeds or {}).items():
        at = _index(x, y, width, height)
        try:  # a scan of the tiles: no table of them is built or kept
            pools[at] = (tiles.index(seed),)
        except ValueError:
            pools[at] = (len(tiles) + len(foreign),)
            foreign.append(seed)
    if foreign:
        tiles = tiles + tuple(foreign)
        table = _Numbering(table)
        columns = _id_columns(tiles, table)
    seams = [[(W, i - 1, E)] * (i % width > 0) + [(S, i - width, N)] * (i >= width)
             for i in range(len(pools))]
    return PatchSequence(tiles, width, height, _fill(pools, seams, (table, columns)))


@dataclass
class DecomposedPatch:
    """A patch partitioned into template-aligned blocks."""

    blocks: dict[tuple[int, int], MacroTileInstance]
    adjacencies: tuple[tuple[tuple[int, int], int, tuple[int, int], int], ...]
    margins: tuple[tuple[int, int], ...]
    report: ValidationReport


def decompose_macro(patch: GridPatch, instances: Sequence[MacroTileInstance],
                    layout: GridLayout, wildcard: bool = False) -> DecomposedPatch:
    """Align w x h blocks at phase-(0,0) anchors and identify each complete
    block with an enumerated instance.

    `wildcard=True` lets UNDEFINED patch slots match anything, which is how
    hierarchy patches are analyzed; a complete block matching no instance is
    reported as NonInstanceBlock (a verifier bug on valid patches). Cells
    outside complete blocks are margins. Blocks, reports and adjacencies
    come in sorted anchor order, margins in sorted position order.

    A complete block is flattened into a row: its tiles in scanline order,
    each as its base followed by its decorations. The positions of its row's
    UNDEFINED decorations (none without `wildcard`) are its mask. Per row
    length and mask one table maps `itemgetter(*visible)` of each block's
    row to the instance it names, `visible` being the positions the mask
    leaves. The
    instances are then read once, each flattened the same way with its
    tiles in scanline order of their template positions. Per mask, each
    block's key gets the first instance whose row gives it, so the tables
    keep only the winners.
    """
    w, h = layout.width, layout.height
    report = ValidationReport()
    at = layout.position_of
    # Per (row length, mask), the key that reads the visible positions, and
    # each key a block gives -> the first instance that gives it, or None.
    tables = _Memo(lambda shape: (
        itemgetter(*[i for i in range(shape[0]) if i not in shape[1]]), {}
    ))
    width, height = patch.width, patch.height
    size = width * height
    memo = layout.phases
    phases = [None if tile is None else memo[tile.triples] for tile in islice(patch, size)]
    anchors = sorted((i % width, i // width) for i, phase in enumerate(phases) if phase == (0, 0))
    block_at = [dx + dy * width for dy in range(h) for dx in range(w)]
    complete = []  # per complete block: its anchor, positions, table and key
    for ax, ay in anchors:
        if ax + w > width or ay + h > height:
            continue
        positions = [ax + ay * width + d for d in block_at]
        tiles = [patch[i] for i in positions]
        if None in tiles:
            continue
        row = _row(tiles)
        mask = tuple(compress(count(), map(is_, row, repeat(UNDEFINED)))) if wildcard else ()
        key, table = tables[len(row), mask]
        wanted = key(row)
        table[wanted] = None
        complete.append(((ax, ay), positions, table, wanted))
    if tables:
        listed = list(instances)
        rows = [_row(sorted(inst.tiles, key=lambda tile: at[tile.base][::-1])) for inst in listed]
        for key, table in tables.values():
            # Each key -> the first instance that gives it: filled from the
            # last instance back, so that an earlier one overwrites.
            first = dict(zip(map(key, reversed(rows)), reversed(listed)))
            for wanted in table:
                table[wanted] = first.get(wanted)
    blocks: dict[tuple[int, int], MacroTileInstance] = {}
    covered: set[int] = set()
    for (ax, ay), positions, table, wanted in complete:
        instance = table[wanted]
        if instance is None:
            report.add("NonInstanceBlock", f"anchor ({ax},{ay})")
            continue
        blocks[(ax, ay)] = instance
        covered.update(positions)
    margins = tuple(sorted(
        (i % width, i // width) for i, tile in enumerate(islice(patch, size))
        if tile is not None and i not in covered
    ))
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


@_nogc
def grid_from_hierarchy(hpatch: HierarchyPatch, layout: GridLayout,
                        networks: NetworkSet) -> GridPatch:
    """Realize the bottom level of a square hierarchy as a grid patch.

    Read off the levels' flat tuples from the top down, a cell's position is
    its block's position times (w, h) plus the cell's position in the
    template; the top level's one block sits at the origin. Each bottom
    cell's tile is written at its scanline index, and equal tiles are one
    shared object: a hierarchy repeats few distinct tiles (93 among the
    59049 cells at depth 5 on the bundled 3x3). `networks` is unused:
    whether a tile is central is a fact of its base."""
    w, h, at = layout.width, layout.height, layout.position_of
    xs, ys = [0], [0]
    for level in reversed(hpatch.levels):
        xs = [xs[b] * w + at[j][0] for b, j in zip(level.block, level.base)]
        ys = [ys[b] * h + at[j][1] for b, j in zip(level.block, level.base)]
    bottom = hpatch.bottom
    decs = bottom.slot_decoration
    # A square's facets S, N, W, E are its slots 4i .. 4i + 3, so the
    # decorations are read four at a time. The level's `offset` buffer is
    # compared with a C-int array, element by element in C.
    if bottom.offset != array("i", range(0, len(decs) + 1, 4)):
        raise NonSquareSystem("hierarchy cells of a grid patch need four facets each")
    width, height = w ** hpatch.depth, h ** hpatch.depth
    tiles: list = [None] * (width * height)
    shared = _Memo(lambda key: DecoratedTile(key[0], key[1:]))  # (base, four decorations)
    for x, y, key in zip(xs, ys, zip(bottom.base, *[iter(decs)] * 4)):
        tiles[x + y * width] = shared[key]
    tiles += width, height
    return _wrap(tiles)
