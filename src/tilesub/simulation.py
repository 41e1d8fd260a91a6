"""Macro-tile enumeration, the self-simulation map, and the hierarchy.

`enumerate_macro_tiles` lists every way a rule's template can be filled with
tiles from the tileset so that all internal facets match. The non-central
cells then agree on a parent index with no key of its own: every edge of the
residual graph (the dual graph less the center and the network edges) is a
pairing that no branch crosses, so both its slots are parent facets, which
read (f, parent, f) in every tile of the tileset; matching them makes the
two parents equal, and the strong residual connecting condition, which
`build_layout` enforces, carries that to every non-central cell. The
enumeration runs on `_search`, the one key-indexed, iterative backtracking
search of the package, which the grid assembler also uses to fill patches.
It places tile indices, keyed by the decoration ids of
`Tileset.decoration_ids`, and the enumeration keeps each rule's solutions as
one C-int array of them, beside the instances' parent indices and central
tiles: an `InstanceSequence`, which builds each `MacroTileInstance` when it
is read. `phi` folds such an assembly back onto a single decorated parent
tile; `verify_self_simulation` checks exhaustively that the tileset and its
assemblies behave identically through `phi`, on the ints: it reads the
projection cell by cell off the arrays, folds each image into decoration
ids and checks its membership with one int per tile of the tileset. Its condition 3
reads each side of a macro-facet seam once, into two single-valued maps
(side key -> image, image -> side key, both as decoration ids, a side key
zipped from the id columns of the member cells), and checks each seam with
one pass over the keys and images both sides share. Any other sequence of
instances is converted to tile indices once, at the call. The steps below
the public entry points read every per-tile and per-seam fact from the
`tileset.Layout`.

`hierarchy_decorate` builds the finite-depth telescope of images with the
distinguished UNDEFINED decoration confined to the networks of every level,
and `quotient_hierarchy` / `quotient_preimage` collapse a decomposed patch
one level up. A hierarchy level (`LevelPatch`) is frozen flat data indexed
by integers, where a cell is its rank in sorted address order and a slot its
cell's offset plus the facet index less one; what grows with the slot count
(pairs, offsets, blocks, UNDEFINED origins) sits in read-only C-int buffers.
Every hierarchy stage reads and writes only that data, and the tables that
`build_layout` compiles once: each rule's template as a block
(`Layout.blocks`), the block-slot pairs each macro-adjacency entry glues
(`Layout.block_seams`) and each tile's native `slot_origin` row
(`Layout.native_origin`). A level is built per block type, not per slot,
and what runs per slot runs in C iterators: no list, dict or int per slot
is held. The quotient recovers a
level from the bottom's data and the parents of the level above. The
tuple-address views that remain (`cells`, `pairs`, ...) are computed on
read from the flat fields, keeping no address or key: a length costs
nothing and a full read is one ordered pass. The one slot -> cell table per
level, which the expansion below a level and the views share, is built on
first access.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import ItemsView, Mapping, Sequence, ValuesView
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from itertools import accumulate, chain, compress, islice, repeat, starmap
from operator import add, and_, attrgetter, eq, is_, itemgetter, mul, ne, not_, or_, sub
from struct import Struct
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import (
    IndexOutOfRange,
    InconsistentGluing,
    NoMacroTiles,
    PartialBlock,
    TilesubError,
    UnresolvedReference,
)
from .model import (
    FacetRef,
    GlobalNumbering,
    Rule,
    SubstitutionSystem,
    ValidationReport,
)
from .network import NetworkSet
from .tileset import (
    Block,
    DecoratedTile,
    DecorationTriple,
    FacetDecoration,
    Layout,
    Tileset,
    UNDEFINED,
    _Memo,
    _Numbering,
    _id_columns,
    _nogc,
    _steps13,
    build_layout,
)


class MacroTileInstance(NamedTuple):
    """One decorated filling of a rule's template: all internal facets match,
    and so, by the strong residual connecting condition, every non-central
    cell carries the same parent index. A `NamedTuple`, like
    `DecoratedTile`: five slots, no `__dict__`, hashed and compared in C."""

    rule_id: str
    cells: tuple[str, ...]
    tiles: tuple[DecoratedTile, ...]
    parent_index: int
    central_tile: DecoratedTile


# Builds an instance from its five fields in C, with no Python frame.
_instance = partial(tuple.__new__, MacroTileInstance)


class _Fillings(NamedTuple):
    """Consecutive instances of one rule as ints: `flat` holds `len(cells)`
    tile indices an instance, in cell order, and `parents` and `centrals`
    each instance's parent index and the tile index of its central tile."""

    rule_id: str
    cells: tuple[str, ...]
    flat: array
    parents: array
    centrals: array


class InstanceSequence(Sequence):
    """Instances as ints, read-only: runs of one rule's instances
    (`_Fillings`) over the tile table `tiles`, each instance built as a
    `MacroTileInstance` when it is read. `enumerate_macro_tiles` returns one
    run per rule, over the tiles of its tileset.

    It reads as the tuple of those instances did: `len`, truth, integer and
    negative indices (IndexError past either end), slices (a list), any
    number of iterations, `==` against a tuple, a list or another sequence
    of instances, and the tuple's `repr`. Iteration runs C iterators over
    the arrays, so no Python frame runs per instance."""

    __slots__ = ("tiles", "runs", "starts")

    def __init__(self, tiles: Sequence[DecoratedTile], runs: Sequence[_Fillings]):
        self.tiles = tiles
        self.runs = runs
        # The index of each run's first instance, then the instance count.
        self.starts = _starts([len(run.parents) for run in runs])

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]  # IndexError past either end
        r = bisect_right(self.starts, i) - 1
        run = self.runs[r]
        j = i - self.starts[r]
        size = len(run.cells)
        tiles = tuple(map(self.tiles.__getitem__, run.flat[j * size:(j + 1) * size]))
        return _instance((run.rule_id, run.cells, tiles, run.parents[j],
                          self.tiles[run.centrals[j]]))

    def __iter__(self) -> Iterator[MacroTileInstance]:
        return chain.from_iterable(map(self._read, self.runs))

    def _read(self, run: _Fillings) -> Iterator[MacroTileInstance]:
        tile_of = self.tiles.__getitem__
        tiles = zip(*[map(tile_of, run.flat)] * len(run.cells))
        return map(_instance, zip(repeat(run.rule_id), repeat(run.cells), tiles,
                                  run.parents, map(tile_of, run.centrals)))

    def __eq__(self, other):
        if not isinstance(other, (tuple, list, InstanceSequence)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return repr(tuple(self))


def _as_instance_sequence(tiles: tuple[DecoratedTile, ...],
                          instances: Sequence[MacroTileInstance]) -> InstanceSequence:
    """`instances` as ints: an `InstanceSequence` as it is, and any other
    sequence read once, in runs of consecutive instances of one rule and
    cell tuple, over `tiles` and, appended, the tiles of the instances that
    `tiles` lacks. Each instance keeps its own parent index and central
    tile. An instance with another number of tiles than cells raises
    ValueError."""
    if isinstance(instances, InstanceSequence):
        return instances
    index = _Numbering(zip(tiles, range(len(tiles))))  # a tile not there gets the next index
    runs: list[_Fillings] = []
    for i, inst in enumerate(instances):
        if len(inst.tiles) != len(inst.cells):
            raise ValueError(f"instance {i} has {len(inst.tiles)} tiles for {len(inst.cells)} cells")
        if not runs or (runs[-1].rule_id, runs[-1].cells) != (inst.rule_id, inst.cells):
            runs.append(_Fillings(inst.rule_id, inst.cells, array("i"), array("i"), array("i")))
        run = runs[-1]
        run.flat.extend(map(index.__getitem__, inst.tiles))
        run.parents.append(inst.parent_index)
        run.centrals.append(index[inst.central_tile])
    return InstanceSequence(tiles if len(index) == len(tiles) else tuple(index), runs)


def _search(cells: Sequence[tuple[Iterable[Any], Callable, Callable]]
            ) -> Iterator[tuple[Any, ...]]:
    """Every way to pick one candidate per cell such that each candidate's
    key equals the key wanted by the candidates placed before it.

    `cells` lists, per cell, a candidate pool in canonical order, the key
    read off a candidate and the key wanted by the placed prefix. The wanted
    key of cell c gets a list whose first c entries are the candidates placed
    so far and must read no other entry. Each pool is grouped by key once,
    so a placement is one dict lookup; solutions come out in lexicographic
    pool order. The backtracking keeps its own stack, so recursion depth does
    not bound the number of cells.

    Each candidate is tried against the next cell's group before anything is
    pushed: a prefix whose next cell has no candidate costs no stack entry,
    and a prefix that reaches the last cell yields that cell's group
    directly.
    """
    if not cells:
        yield ()
        return
    groups: list[dict[Any, list[Any]]] = []
    for pool, key, _ in cells:
        by_key: dict[Any, list[Any]] = {}
        for candidate in pool:
            by_key.setdefault(key(candidate), []).append(candidate)
        groups.append(by_key)
    wants = [want for _, _, want in cells]
    last = len(cells) - 1
    placed: list[Any] = [None] * len(cells)
    top = groups[0].get(wants[0](placed), ())
    if last == 0:
        for candidate in top:
            yield (candidate,)
        return
    # stack[c] runs over the candidates of cell c, which fill placed[c].
    stack = [iter(top)]
    while stack:
        cell = len(stack)  # the cell after the one the top iterator fills
        group_of, want = groups[cell], wants[cell]
        if cell == last:
            for placed[cell - 1] in stack.pop():
                for placed[cell] in group_of.get(want(placed), ()):
                    yield tuple(placed)
            continue
        for placed[cell - 1] in stack[-1]:
            group = group_of.get(want(placed))
            if group is not None:
                stack.append(iter(group))
                break
        else:
            stack.pop()


def _seam_keys(columns: Sequence[Sequence[int]], radix: int,
               seams: Sequence[tuple[int, int, int]]) -> tuple[Callable, Callable]:
    """The key and wanted key of a cell whose candidate tile's facet k must
    carry the decoration of facet k2 of placed cell i, for each (k, i, k2)
    in `seams`. Candidates and placed cells are tile indices, and
    `columns[k - 1]` is the decoration-id column of facet k
    (`Tileset.decoration_ids`), whose ids lie in -1 .. radix - 2. One
    seam's keys are ids, two seams' ids a and b are the one int
    `a * radix + b`, which no other pair gives, and more seams' are tuples
    of ids in `seams` order.

    The search calls the key once per candidate and the wanted key once per
    placement, so no seam (the first cell) and one and two seams, which
    cover every cell of a square template or grid, get closures of fixed
    arity, and one seam's key is its column's own `__getitem__`; other
    counts loop over the seams."""
    at = [(columns[k - 1], i, columns[k2 - 1]) for k, i, k2 in seams]
    if not at:
        return (lambda t: (), lambda placed: ())
    if len(at) == 1:
        ((col, i, col2),) = at
        return col.__getitem__, lambda placed: col2[placed[i]]
    if len(at) == 2:
        (ca, ia, ca2), (cb, ib, cb2) = at
        return (lambda t: ca[t] * radix + cb[t],
                lambda placed: ca2[placed[ia]] * radix + cb2[placed[ib]])
    return (lambda t: tuple([col[t] for col, _, _ in at]),
            lambda placed: tuple([col2[placed[i]] for _, i, col2 in at]))


def _packed(solutions: Iterable[tuple[int, ...]], size: int) -> array:
    """The `_search` solutions of `size` ints each, in one C-int array,
    packed 4096 solutions a write: faster than one int at a time."""
    flat = array("i")
    packed = starmap(Struct(f"{size}i").pack, solutions)
    while chunk := b"".join(islice(packed, 4096)):
        flat.frombytes(chunk)
    return flat


@_nogc
def enumerate_macro_tiles(tau: Tileset, system: SubstitutionSystem,
                          numbering: GlobalNumbering, networks: NetworkSet
                          ) -> InstanceSequence:
    """Every filling of each rule's template by tiles of `tau` whose internal
    facets match.

    A cell's candidates are keyed by their decorations on the facets paired
    with earlier template cells, and by nothing else. The parent index needs
    no key: each residual edge pairs two parent facets, (f, parent, f) in
    every tile of `tau`, and the residual graph spans the non-central cells,
    so matching seams alone make them read one parent. The instance takes
    it from the first cell that reads one. Instances come out rule by rule,
    in lexicographic order of the tiles' canonical positions in `tau`, cells
    taken in template order, as an `InstanceSequence` over the search's tile
    indices. The search runs here, so the sequence holds every solution when
    it is returned.
    """
    layout = build_layout(numbering, networks)
    return InstanceSequence(tau.tiles, [_enumerate_rule(tau, layout, rule) for rule in system.rules])


def _enumerate_rule(tau: Tileset, layout: Layout, rule: Rule) -> _Fillings:
    numbering = layout.numbering
    cells = rule.template.cell_ids()
    pos = rule.template.position
    # Each cell's candidates: the indices of the tiles of its base, in order.
    cell_of = {numbering.tile_index(rule.rule_id, c): c for c in cells}
    pools: dict[str, list[int]] = {c: [] for c in cells}
    for i, tile in enumerate(tau.tiles):
        cell = cell_of.get(tile.base)
        if cell is not None:
            pools[cell].append(i)
    # Seams binding each cell to earlier cells, as `_seam_keys` reads them.
    back: dict[str, list[tuple[int, int, int]]] = {c: [] for c in cells}
    for (ca, ka), (cb, kb) in rule.template.internal_pairings:
        if pos[ca] < pos[cb]:
            back[cb].append((kb, pos[ca], ka))
        else:
            back[ca].append((ka, pos[cb], kb))
    # The first cell, in template order, with a facet that reads the parent
    # index, and that facet (0-based).
    reads = [
        (i, ks[0] - 1) for i, c in enumerate(cells)
        if (ks := layout.parent_facets.get(numbering.tile_index(rule.rule_id, c)))
    ]
    if not reads:
        raise TilesubError(f"rule {rule.rule_id}: no cell of an instance reads its parent")
    first, k_first = reads[0]
    center = pos[layout.networks[rule.rule_id].center]
    flat = array("i")
    if all(pools.values()):  # else no filling; an empty tileset has no columns to key on
        table, columns = tau.decoration_ids
        flat = _packed(
            _search([(pools[c], *_seam_keys(columns, len(table) + 1, back[c])) for c in cells]),
            len(cells),
        )
    size = len(cells)
    parents = array("i", [tau.tiles[t].triples[k_first].j for t in flat[first::size]])
    return _Fillings(rule.rule_id, cells, flat, parents, flat[center::size])


def phi(layout: Layout, instance: MacroTileInstance) -> DecoratedTile:
    """Fold an assembly onto its parent tile: facet k of T_{parent} takes the
    parent/neighbor pair found on facet k of the central tile, under the
    parent's own macro-indices."""
    parent = instance.parent_index
    count = layout.facet_count[parent]
    triples = tuple([
        dec if dec is UNDEFINED else DecorationTriple(layout.nsigma[(parent, k)], dec.j, dec.g)
        for k, dec in enumerate(instance.central_tile.triples[:count], start=1)
    ])
    return DecoratedTile(parent, triples)


_SHOWN_FAILURES = 20


@dataclass
class SimulationReport:
    """Outcome of the self-simulation verification. `render` lists the first
    20 failures and then, if there are more, how many it left out."""

    instance_count: int
    condition1_ok: bool
    phi_in_tileset: bool
    condition3_ok: bool
    failures: list[str] = field(default_factory=list)
    condition2_note = (
        "delegated to patch-scale evidence (exhaustive 2x2 coherence in the assembler)"
    )

    @property
    def ok(self) -> bool:
        return self.condition1_ok and self.phi_in_tileset and self.condition3_ok

    def render(self) -> str:
        lines = [
            f"condition1 {'PASS' if self.condition1_ok else 'FAIL'} instances={self.instance_count}",
            f"phi_membership {'PASS' if self.phi_in_tileset else 'FAIL'}",
            f"condition3 {'PASS' if self.condition3_ok else 'FAIL'}",
            f"condition2 {self.condition2_note}",
        ]
        lines.extend(f"FAILURE {f}" for f in self.failures[:_SHOWN_FAILURES])
        hidden = len(self.failures) - _SHOWN_FAILURES
        if hidden > 0:
            lines.append(f"and {hidden} more failures, {len(self.failures)} in total")
        return "\n".join(lines)


@_nogc
def verify_self_simulation(tau: Tileset, system: SubstitutionSystem,
                           numbering: GlobalNumbering, networks: NetworkSet,
                           instances: Sequence[MacroTileInstance]) -> SimulationReport:
    """Check the self-simulation conditions exhaustively at template scale,
    over `instances`, the enumeration `enumerate_macro_tiles` gives for `tau`.

    Condition (1): every assembly projects to its rule's template and its
    image under phi to the rule's parent. The image must also be a tileset
    member. Condition (3): across every macro-adjacency entry, two
    assemblies' macro-facets agree exactly when their phi images' facets do;
    the biconditional is checked as an exact logical equivalence over the
    enumeration. Condition (2) quantifies over complete tilings and is only
    evidenced at patch scale, never claimed proven.

    The check reads the instances as ints (`_as_instance_sequence`) and the
    tiles as decoration ids. An instance with another number of cells than
    its rule's template fails condition (1) and is left out of condition (3).
    """
    layout = build_layout(numbering, networks)
    if not instances:
        raise NoMacroTiles("the tileset admits no macro-tile")
    failures: list[str] = []
    seq = _as_instance_sequence(tau.tiles, instances)
    # Decoration -> id, as in `tau`, numbering on from there the decorations
    # of tiles and images outside it.
    table, columns = tau.decoration_ids
    ids = _Numbering(table)
    if seq.tiles != tau.tiles:
        columns = _id_columns(seq.tiles, ids)
    images = _phi_images(layout, ids, columns, seq.runs)
    # Per rule, the prototypes of its template's cells and its parent's.
    shapes = _Memo(lambda rule_id: (
        tuple([p for _, p in system.rule(rule_id).template.cells]), system.rule(rule_id).parent
    ))
    cond1, phi_ok = _check_images(tau, layout, shapes, ids, seq, images, failures)

    # Each rule's runs of template-sized instances, with their images.
    of_rule: dict[str, list[tuple[_Fillings, list[array]]]] = {}
    for run, image in zip(seq.runs, images):
        if len(run.cells) == len(shapes[run.rule_id][0]):
            of_rule.setdefault(run.rule_id, []).append((run, image))

    def side(key: tuple[str, int, tuple[FacetRef, ...]]) -> tuple[dict, dict]:
        """The rule's instances read along the given member slots of its
        macro-facet k, as tuples of ids, and through facet k of their
        images, by `_side`."""
        rule_id, k, slots = key
        pos = system.rule(rule_id).template.position
        found = of_rule.get(rule_id, ())
        return _side(
            chain.from_iterable(
                zip(*[map(columns[m - 1].__getitem__, run.flat[pos[c]::len(run.cells)])
                      for c, m in slots])
                for run, _ in found
            ),
            chain.from_iterable(image[k - 1] for _, image in found),
        )

    # Each side is built once, though every seam of a macro-facet reads it.
    sides = _Memo(side)
    cond3 = True
    for ((rid_a, a), (rid_b, b)), seam in layout.seams.items():
        side_a = sides[(rid_a, a, tuple([sa for sa, _ in seam]))]
        side_b = sides[(rid_b, b, tuple([sb for _, sb in seam]))]
        if not _biconditional_holds(side_a, side_b):
            cond3 = False
            failures.append(f"condition3 fails across ({rid_a},{a})~({rid_b},{b})")

    return SimulationReport(len(instances), cond1, phi_ok, cond3, failures)


def _phi_images(layout: Layout, ids: _Numbering, columns: Sequence[array],
                runs: Sequence[_Fillings]) -> list[list[array]]:
    """Per run, per facet k of the widest prototype, the id of what `phi`
    puts on facet k of each instance's image, -1 past the parent's facets or
    the central tile's. `columns` are the decoration-id columns of the tile
    table the runs index, numbered by `ids`, which numbers on the images'
    decorations outside it. Each (parent, facet, central id) is folded once
    per call."""
    nsigma, facet_count = layout.nsigma, layout.facet_count
    # A fold key is parent * span + the central tile's id on the facet + 1.
    span = len(ids) + 1
    decorations = list(ids)  # id -> decoration

    def fold(k: int, key: int) -> int:
        parent, digit = divmod(key, span)
        if digit == 0 or k > facet_count[parent]:
            return -1
        dec = decorations[digit - 1]
        if dec is not UNDEFINED:
            dec = DecorationTriple(nsigma[(parent, k)], dec.j, dec.g)
        return ids[dec]

    folds = [_Memo(partial(fold, k)) for k in range(1, max(facet_count.values()) + 1)]
    images = []
    for run in runs:
        heads = array("q", map(add, map(mul, run.parents, repeat(span)), repeat(1)))
        central_ids = [
            map(columns[k].__getitem__, run.centrals) if k < len(columns) else repeat(-1)
            for k in range(len(folds))
        ]
        images.append([
            array("i", map(memo.__getitem__, map(add, heads, cids)))
            for memo, cids in zip(folds, central_ids)
        ])
    return images


def _check_images(tau: Tileset, layout: Layout, shapes: Mapping[str, tuple[tuple[str, ...], str]],
                  ids: _Numbering, seq: InstanceSequence, images: Sequence[Sequence[array]],
                  failures: list[str]) -> tuple[bool, bool]:
    """Condition (1) and the membership of the images in `tau`, instance by
    instance in order, each failure appended to `failures`: whether every
    instance projects to its rule's template (`shapes`) and parent, and
    whether every image is a tile of `tau`.

    The tiles of `tau` are ints, by `_row_keys` of their rows of decoration
    ids, and an image is a member when its row, padded to as many ids,
    gives one of them. Every id lies in -1 .. len(ids) - 1, so the ints are
    distinct, and an image with a decoration that no tile of `tau` carries
    gives none of them. The set of them lives only for this check."""
    prototype_name = layout.prototype_name
    # Per run, per instance, whether its parent or a tile has the wrong
    # prototype: each distinct parent, and each distinct tile of a cell, is
    # looked up once.
    wrongs = []
    for run in seq.runs:
        expected, parent_proto = shapes[run.rule_id]
        size = len(run.cells)
        if size != len(expected):
            wrongs.append(b"\x01" * len(run.parents))
            continue
        wrong = _marked(bytes(len(run.parents)), run.parents, {
            j for j in set(run.parents) if prototype_name[j] != parent_proto
        })
        for i, name in enumerate(expected):
            column = run.flat[i::size]
            wrong = _marked(wrong, column, {
                t for t in set(column) if prototype_name[seq.tiles[t].base] != name
            })
        wrongs.append(wrong)
    tau_columns = tau.decoration_ids[1]
    width = max(layout.facet_count.values())
    digits = max(width, len(tau_columns))
    radix = len(ids) + 1
    pad = [repeat(-1)] * (digits - len(tau_columns))
    members = set(_row_keys(map(_BASE, tau.tiles), [*tau_columns, *pad], radix))
    pad = [repeat(-1)] * (digits - width)
    cond1 = phi_ok = True
    for start, run, image, wrong in zip(seq.starts, seq.runs, images, wrongs):
        keys = _row_keys(run.parents, [*image, *pad], radix)
        missing = bytes(map(not_, map(members.__contains__, keys)))
        for i in compress(range(len(wrong)), map(or_, wrong, missing)):
            if wrong[i]:
                cond1 = False
                failures.append(f"instance {start + i}: projection mismatch")
            if missing[i]:
                phi_ok = False
                failures.append(f"instance {start + i}: phi image not in tileset")
    return cond1, phi_ok


_BASE = attrgetter("base")


def _marked(flags: bytes, values: Sequence[int], bad: set[int]) -> bytes:
    """`flags` with flag i set where `values[i]` is in `bad`: as they are,
    reading no value, when `bad` is empty."""
    return bytes(map(or_, flags, map(bad.__contains__, values))) if bad else flags


def _row_keys(heads: Iterable[int], columns: Sequence[Iterable[int]], radix: int
              ) -> Iterator[int]:
    """Each row as one int: its head, then each of its ids from `columns`,
    as the digits of a number base `radix`. Rows as long as `columns`, with
    ids in -1 .. radix - 2, give distinct ints: each is less, by one
    constant, than the number whose digits are the ids plus one."""
    keys = heads
    for column in columns:
        keys = map(add, map(mul, keys, repeat(radix)), column)
    return keys


_CONFLICT = object()


def _side(keys: Iterable, images: Iterable) -> tuple[dict, dict]:
    """One seam side of condition 3 as two single-valued maps: each side
    key to the one image its instances have, and each image to the one side
    key, or to `_CONFLICT` where two instances disagree. The i-th key and
    the i-th image belong to one instance."""
    to_image: dict = {}
    to_key: dict = {}
    for key, image in zip(keys, images):
        if to_image.setdefault(key, image) != image:
            to_image[key] = _CONFLICT
        if to_key.setdefault(image, key) != key:
            to_key[image] = _CONFLICT
    return to_image, to_key


def _biconditional_holds(side_a: tuple[dict, dict], side_b: tuple[dict, dict]) -> bool:
    """[side_a(Q) == side_b(Q')] <=> [phi_a(Q) == phi_b(Q')] over all pairs,
    for two sides from `_side`.

    Equivalent finite check: every side key both sides have maps to one
    image, the same on both sides, and every image both have to one side
    key, the same on both sides. A key or image that only one side has may
    map to `_CONFLICT`.
    """
    for a, b in zip(side_a, side_b):
        for shared in a.keys() & b.keys():
            one = a[shared]
            if one is _CONFLICT or one != b[shared]:
                return False
    return True


# ---------------------------------------------------------------------------
# Hierarchy

Address = tuple[str, ...]
Slot = tuple[Address, int]


_INT = Struct("i")


def _runs(values: Iterable[int], lengths: Iterable[int]) -> array:
    """C ints: each of `values` repeated its entry of `lengths` times."""
    return array("i", b"".join(map(mul, map(_INT.pack, values), lengths)))


def _starts(lengths: Iterable[int]) -> array:
    """C ints: 0, then the running sums of `lengths`."""
    starts = array("i", [0])
    starts.extend(accumulate(lengths))
    return starts


def _frozen(values: array) -> memoryview:
    """A read-only view of `values`, an array that nothing else holds."""
    return memoryview(values).toreadonly()


def _undefined_slots(origin: Sequence[int]) -> Iterator[int]:
    """The slots of a `slot_origin` buffer that are UNDEFINED, ascending."""
    return compress(range(len(origin)), map(ne, origin, repeat(-1)))


class _View:
    """A view computed on read from a level's flat fields: `size()` is its
    length, `read()` one ordered pass over its items and `item(key)` one
    item. It keeps only these three functions."""

    __slots__ = ("_size", "_read", "_item")

    def __init__(self, size: Callable[[], int], read: Callable[[], Iterator],
                 item: Callable[[Any], Any]):
        self._size, self._read, self._item = size, read, item

    def __len__(self) -> int:
        return self._size()


class _Tuple(_View, Sequence):
    """A tuple view, `item(i)` its item i >= 0. It equals, hashes and shows
    as the tuple of its items, in either operand order; its items ascend, so
    `index` bisects."""

    __slots__ = ()

    def __iter__(self) -> Iterator:
        return self._read()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return self._item(range(self._size())[i])

    def index(self, value) -> int:
        i = bisect_left(self, value)
        if i == len(self) or self[i] != value:
            raise ValueError("tuple.index(x): x not in tuple")
        return i

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Tuple)):
            return NotImplemented
        return self is other or (len(self) == len(other) and all(map(eq, self, other)))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _Paths(_Tuple):
    """The addresses of an expanded level's cells: cell i's is its block's,
    `heads[block[i]]`, and one step more, `steps[base[i]]`, the 1-tuple of
    its tile's cell id. `heads` holds the addresses of the level above, or
    is `((),)` for the top level's one block. A full read is one ordered
    pass over `heads`; one item recurses once per level above."""

    __slots__ = ("heads",)

    def __init__(self, heads: Sequence[Address], block: Sequence[int], base: Sequence[int],
                 steps: Sequence[Address]):
        self.heads = heads
        super().__init__(
            block.__len__,
            lambda: map(add, map(tuple(heads).__getitem__, block), map(steps.__getitem__, base)),
            lambda i: heads[block[i]] + steps[base[i]],
        )


class _Table(_View, Mapping):
    """A read-only dict view: `read()` runs over its items in key order and
    `item(key)` gives one value or KeyError. Iteration, `items()`, `values()`
    and `==` are each one ordered pass; it equals the dict of its items and
    shows as that dict's `mappingproxy`."""

    __slots__ = ()

    def __iter__(self) -> Iterator:
        return map(itemgetter(0), self._read())

    def __getitem__(self, key):
        return self._item(key)

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)

    def __eq__(self, other):
        if isinstance(other, _Table):
            return self is other or (
                len(self) == len(other) and all(map(eq, self._read(), other._read()))
            )
        if isinstance(other, Mapping):
            return dict(self._read()) == dict(other.items())
        return NotImplemented

    def __repr__(self) -> str:
        return f"mappingproxy({dict(self._read())!r})"


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator:
        return self._mapping._read()


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator:
        return map(itemgetter(1), self._mapping._read())


@dataclass(frozen=True, eq=False)
class LevelPatch:
    """One level of the hierarchy, stored as frozen flat data indexed by
    integers.

    A cell is its rank in the sorted order of the cells' addresses (their
    expansion paths), so the children of a block are contiguous, in sorted
    cell-id order. Facet k of cell i is the slot `offset[i] + k - 1`, and
    integer order of slots is `(address, k)` order. Per cell the level keeps
    its tile `base`, its `parent` (the tile of its block), the `rule` whose
    template holds it and the index of its `block` among the cells of the
    level above (the top level's one block is 0; a quotient records none).
    Per slot it keeps its decoration in `slot_decoration`, and in
    `slot_origin` the number of levels its UNDEFINED came down (0: the
    cell's own network), or -1 where the slot is defined. `pair_slots`
    holds the glued slot pairs flat: pair i is `pair_slots[2 * i]` <
    `pair_slots[2 * i + 1]`, and the pairs ascend. These fields are the
    level's only data, and none of them can change: `offset`, `block`,
    `slot_origin` and `pair_slots` are read-only `memoryview`s of C arrays
    (`slot_origin` one signed byte a slot, which holds the origins of any
    hierarchy of at most 128 levels), the others tuples.

    `cells`, `rule_of`, `base_of`, `pairs` and `undefined_from` are views of
    the same data addressed by expansion path, computed on read: a view
    keeps no address or key, its length is read off the flat fields, and
    each full read is one ordered pass. `cells` and `pairs` equal and show
    as tuples; the dict views are read-only, equal and show as the
    `mappingproxy`s of their dicts and iterate in address order. Equality
    compares the flat fields and `cells`, not `level` (0 = finest,
    positional metadata) nor `block`, which a quotient does not record. The
    repr shows each buffer as the list of its numbers.
    """

    level: int = field(compare=False)
    base: tuple[int, ...]
    parent: tuple[int, ...]
    rule: tuple[str, ...]
    block: Sequence[int] | None = field(compare=False)
    offset: Sequence[int]  # cell -> its first slot; offset[-1] counts the slots
    slot_decoration: tuple[FacetDecoration, ...]
    slot_origin: Sequence[int]
    pair_slots: Sequence[int]
    # The addresses of the cells, in order, computed on read: the `cells` view.
    addresses: Sequence[Address] = field(compare=False, repr=False)

    def matching_report(self) -> ValidationReport:
        report = ValidationReport()
        decs = self.slot_decoration
        it = iter(self.pair_slots)
        for a, b in zip(it, it):
            if decs[a] != decs[b]:
                key_a, key_b = self._slot_keys((a, b), self.cells)
                report.add("SeamMismatch", f"{key_a} vs {key_b}")
        return report

    @property
    def undefined_count(self) -> int:
        """The number of UNDEFINED slots: the bytes of `slot_origin` that
        are not -1, counted 4096 at a time, so no copy of it is made."""
        origin = self.slot_origin
        return len(origin) - sum(
            bytes(origin[i:i + 4096]).count(b"\xff") for i in range(0, len(origin), 4096)
        )

    def _slot_keys(self, slots: Iterable[int], cells: Sequence[Address]) -> Iterator[Slot]:
        """The (address, facet) key of each slot, its address read off
        `cells`: the view for a few slots, a tuple of it for a full read."""
        offset, cell_of = self.offset, self.slot_cell
        return ((cells[i], s - offset[i] + 1) for s in slots for i in [cell_of[s]])

    def _cell(self, addr: Address) -> int:
        """The cell at address `addr`, or KeyError."""
        try:
            return self.cells.index(addr)
        except (TypeError, ValueError):
            raise KeyError(addr) from None

    def _origin(self, key: Slot) -> int:
        """`undefined_from[key]`: the origin of the UNDEFINED slot `key`."""
        offset, origin = self.offset, self.slot_origin
        try:
            addr, k = key
            i = self._cell(addr)
            if k in range(1, offset[i + 1] - offset[i] + 1) and origin[offset[i] + k - 1] != -1:
                return origin[offset[i] + k - 1]
        except (KeyError, TypeError, ValueError):
            pass
        raise KeyError(key)

    def _per_cell(self, values: Sequence) -> Mapping:
        return _Table(values.__len__, partial(zip, self.cells, values),
                      lambda addr: values[self._cell(addr)])

    @cached_property
    def slot_cell(self) -> Sequence[int]:
        """The cell of each slot, built on first access and shared by the
        expansion of the level below and the slot keys of the views. An
        `array` of C ints, so it costs 4 bytes a slot."""
        offset = self.offset
        return _runs(range(len(offset) - 1), map(sub, offset[1:], offset))

    @property
    def cells(self) -> Sequence[Address]:
        return self.addresses

    @property
    def rule_of(self) -> Mapping[Address, str]:
        return self._per_cell(self.rule)

    @property
    def base_of(self) -> Mapping[Address, int]:
        return self._per_cell(self.base)

    @property
    def pairs(self) -> Sequence[tuple[Slot, Slot]]:
        ends = self.pair_slots

        def read() -> Iterator[tuple[Slot, Slot]]:
            keys = self._slot_keys(ends, tuple(self.cells))
            return zip(keys, keys)

        return _Tuple(lambda: len(ends) // 2, read,
                      lambda i: tuple(self._slot_keys(ends[2 * i:2 * i + 2], self.cells)))

    @property
    def undefined_from(self) -> Mapping[Slot, int]:
        origin = self.slot_origin

        def read() -> Iterator[tuple[Slot, int]]:
            keys = self._slot_keys(_undefined_slots(origin), tuple(self.cells))
            return zip(keys, filter(partial(ne, -1), origin))

        return _Table(lambda: self.undefined_count, read, self._origin)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self) if f.compare
        ) and self.cells == other.cells

    def __repr__(self) -> str:
        shown = (
            f"{f.name}={value.tolist() if isinstance(value, memoryview) else value!r}"
            for f in fields(self) if f.repr for value in [getattr(self, f.name)]
        )
        return f"LevelPatch({', '.join(shown)})"


@dataclass(frozen=True)
class HierarchyPatch:
    seed_rule: str
    depth: int
    top_parent: int
    levels: tuple[LevelPatch, ...]  # levels[0] is the bottom

    @property
    def bottom(self) -> LevelPatch:
        return self.levels[0]


def _pair_slots(partner: array) -> memoryview:
    """The `pair_slots` of a level whose slot a is glued to a + partner[a]
    where that entry is not 0, each pair entered on its lower slot only: the
    slots with an entry ascend, so the pairs come out sorted."""
    lows = array("i", compress(range(len(partner)), partner))
    flat = array("i", bytes(8 * len(lows)))
    flat[::2] = lows
    flat[1::2] = array("i", map(add, lows, filter(None, partner)))
    return _frozen(flat)


def _sorted_pairs(flat: Iterable[int]) -> memoryview:
    """The distinct slot pairs of `flat` (pair i at 2i and 2i + 1), each
    with its smaller slot first, in ascending order, as a `pair_slots`
    buffer, through a `_pair_slots` row: a slot may repeat only within
    copies of one pair, as in a level, where a facet is glued to one other."""
    ends = array("i", flat)
    partner = array("i", bytes(4 * (max(ends, default=-1) + 1)))
    lows = array("i", map(min, ends[::2], ends[1::2]))
    gaps = map(abs, map(sub, ends[::2], ends[1::2]))
    deque(map(partner.__setitem__, lows, gaps), maxlen=0)
    return _pair_slots(partner)


def _cell_rows(buffer: bytes, offset: Sequence[int]) -> Iterator[bytes]:
    """Each cell's bytes of a one-byte-a-slot `buffer`, given the cells'
    first slots (or each block's, given the blocks')."""
    return map(buffer.__getitem__, map(slice, offset, offset[1:]))


def _decoration_rows(layout: Layout) -> _Memo:
    """A memo of the slot decorations and `slot_origin` bytes of each run of
    cells of one type: (the cells' tiles, their parent, the origins that
    came down to their slots, 0xFF where none did). A cell's own network
    slots are origin 0 whatever came down, so the origins are the cells'
    `native_origin` rows and-ed bytewise with what came down; a slot with an
    origin is UNDEFINED, any other carries its `_steps13` triple, and
    `_steps13` runs once per tile and parent."""
    steps = _Memo(lambda key: _steps13(layout, *key))
    native = layout.native_origin

    def row(key: tuple[tuple[int, ...], int, bytes]) -> tuple[tuple, bytes]:
        bases, parent, inherited = key
        origin = bytes(map(and_, b"".join(map(native.__getitem__, bases)), inherited))
        decs = chain.from_iterable([steps[(j0, parent)] for j0 in bases])
        return tuple([dec if o == 0xFF else UNDEFINED for dec, o in zip(decs, origin)]), origin

    return _Memo(row)


def _inherited_rows(layout: Layout) -> _Memo:
    """A memo of the `slot_origin` bytes that a cell passes down to its
    block, per (rule that expands it, the cell's `slot_origin` row): each
    UNDEFINED facet's members one origin further, 0xFF elsewhere."""

    def row(key: tuple[str, bytes]) -> bytes:
        rule_id, origin = key
        blk = layout.blocks[rule_id]
        out = bytearray(b"\xff") * len(blk.facet)
        for a, o in enumerate(origin, start=1):
            if o != 0xFF:
                for member in blk.members[a]:
                    out[member] = o + 1
        return bytes(out)

    return _Memo(row)


@_nogc
def hierarchy_decorate(system: SubstitutionSystem, numbering: GlobalNumbering,
                       networks: NetworkSet, seed_rule: str, depth: int,
                       top_parent: int | None = None) -> HierarchyPatch:
    """Expand the seed rule `depth` times and decorate every level.

    Every level is built by `_expand_level` and then `_decorate_level`. The
    top level expands the one block `top_parent`, by the seed rule; every
    deeper level expands the cells of the level above, each by the first
    rule of its prototype. Each level's tiles carry the base decorations
    with the parent taken from the level above; UNDEFINED sits on every port
    and branch-crossed facet of every level's networks, blown down through
    the gluing so the bottom patch shows the whole stack of coarser and
    coarser grids. The parent of the topmost expansion is a free choice
    (`top_parent`, smallest eligible index by default) since nothing above
    it exists to fix one; it must have the seed rule's parent prototype.
    Both steps work per block type, through memos that live for the call.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    layout = build_layout(numbering, networks)
    try:
        seed = system.rule(seed_rule)
    except KeyError:
        raise UnresolvedReference(f"rule {seed_rule}") from None
    if top_parent is None:
        eligible = layout.tiles_of.get(seed.parent)
        if not eligible:
            raise InconsistentGluing(f"no tile has prototype {seed.parent}")
        top_parent = eligible[0]
    if top_parent not in layout.facet_count:
        raise IndexOutOfRange(f"top parent {top_parent} outside 1..{numbering.n}")
    if layout.prototype_name[top_parent] != seed.parent:
        raise InconsistentGluing(
            f"top parent T{top_parent} has prototype "
            f"{layout.prototype_name[top_parent]}, not {seed.parent}"
        )

    tops: tuple[int, ...] = (top_parent,)
    expanders: list[str] = [seed_rule]
    above: LevelPatch | None = None
    levels: list[LevelPatch] = []
    rows, inherits = _decoration_rows(layout), _inherited_rows(layout)
    for level_no in reversed(range(depth)):
        above = _decorate_level(
            layout, rows, level_no, *_expand_level(layout, inherits, tops, expanders, above)
        )
        levels.append(above)
        if level_no:
            rule_of_tile: dict[int, str] = {}
            for j in dict.fromkeys(above.base):
                proto = layout.prototype_name[j]
                rule = layout.rule_for_prototype.get(proto)
                if rule is None:
                    raise InconsistentGluing(f"no rule expands prototype {proto}")
                rule_of_tile[j] = rule.rule_id
            tops, expanders = above.base, list(map(rule_of_tile.__getitem__, above.base))
    levels.reverse()
    return HierarchyPatch(seed_rule, depth, top_parent, tuple(levels))


def _decorate_level(layout: Layout, rows: _Memo, level_no, base, parent, rule, block,
                    offset, pair_slots, runs, addresses) -> LevelPatch:
    """Decorate one level's slots: UNDEFINED on the cell's own network
    slots (origin 0) and on the slots that inherit an origin from the level
    above, `_steps13` of the cell's tile and parent everywhere else. This is
    the only place that decorates a level: every level of a hierarchy and
    the quotient of its bottom go through it.

    `runs` cuts the level's cells, in order, into runs of one type, each
    given as its key in `rows` (from `_decoration_rows`): a hierarchy's
    runs are its blocks, a quotient's its cells. The slot decorations and
    origins are the runs' rows laid end to end.
    """
    typed = list(map(rows.__getitem__, runs))
    decs = tuple(chain.from_iterable(map(itemgetter(0), typed)))
    origin = array("b", b"".join(map(itemgetter(1), typed)))
    return LevelPatch(
        level_no, base, parent, rule, block, offset,
        decs, _frozen(origin), pair_slots, addresses,
    )


def _expand_level(layout: Layout, inherits: _Memo, tops: Sequence[int],
                  expanders: Sequence[str], above: LevelPatch | None):
    """Blow block b, tile `tops[b]`, up by one application of the rule
    `expanders[b]`, laid out as that rule's `Layout.blocks` entry, gluing
    the blocks along macro-facets via the layout's `block_seams`.

    `above` is the level the blocks form, or None for the one top block:
    each of its pairs becomes the member pairs of its seam, and each of its
    UNDEFINED slots passes down to its members one origin further, by
    `inherits` (from `_inherited_rows`); each block is one run of
    `_decorate_level`. The children of block b take the next cell ids, in
    sorted cell-id order, and the next slots, so ids and slots stay in
    address order; every block-local slot is read off the compiled tables,
    none derived here. The blocks' `partner` rows laid end to end hold the
    internal pairs, and only the seam pairs are entered one by one.
    """
    block_of = [layout.blocks[rule_id] for rule_id in expanders]
    sizes = [len(blk.bases) for blk in block_of]
    base = tuple(chain.from_iterable(blk.bases for blk in block_of))
    parent = tuple(chain.from_iterable(map(repeat, tops, sizes)))
    rule_ids = tuple(chain.from_iterable(map(repeat, expanders, sizes)))
    block = _frozen(_runs(range(len(sizes)), sizes))
    offset = _frozen(_starts(chain.from_iterable(blk.counts for blk in block_of)))
    first_slot = _starts(len(blk.facet) for blk in block_of)  # block -> its first slot
    partner = array("i", b"".join(blk.partner for blk in block_of))
    if above is None:
        inherited: Iterable[bytes] = [b"\xff" * len(block_of[0].facet)]
    else:
        above_offset, above_cell = above.offset, above.slot_cell
        seams = layout.block_seams
        it = iter(above.pair_slots)
        for sa, sb in zip(it, it):
            ba, bb = above_cell[sa], above_cell[sb]
            key = (expanders[ba], sa - above_offset[ba] + 1,
                   expanders[bb], sb - above_offset[bb] + 1)
            seam = seams.get(key)
            if seam is None:
                ra, a, rb, b = key
                raise InconsistentGluing(f"no macro-adjacency for ({ra},{a}) ~ ({rb},{b})")
            pa, pb = first_slot[ba], first_slot[bb]
            for la, lb in seam:
                a, b = pa + la, pb + lb
                if a < b:
                    partner[a] = b - a
                else:
                    partner[b] = a - b
        above_rows = _cell_rows(bytes(above.slot_origin), above_offset)
        inherited = map(inherits.__getitem__, zip(expanders, above_rows))
    runs = zip([blk.bases for blk in block_of], tops, inherited)
    steps = ((),) + tuple([(cell,) for _, cell in layout.numbering.tiles])
    addresses = _Paths(above.cells if above is not None else ((),), block, base, steps)
    return base, parent, rule_ids, block, offset, _pair_slots(partner), runs, addresses


@_nogc
def quotient_hierarchy(hpatch: HierarchyPatch, system: SubstitutionSystem,
                       numbering: GlobalNumbering, networks: NetworkSet) -> LevelPatch:
    """Collapse the bottom level one step up, from the bottom's data and the
    parents of the level above.

    The bottom's blocks become the cells; each block's tiles agree on a
    parent index, which recovers the level-above tile. Two blocks are paired
    wherever a bottom pair crosses between them, on the macro-facets its
    slots belong to. A facet of a recovered tile whose whole member seam is
    UNDEFINED is inherited as UNDEFINED one origin closer (never below 0);
    a facet native to the level's networks must be one of them
    (PartialBlock otherwise), which is read once per block type. The
    recovered level is then decorated like any level, by `_decorate_level`
    with memos of its own, so `_steps13` runs once per recovered tile index.
    Its addresses are the bottom's block heads, in order: those of the
    bottom's cells less their last step. It records no blocks of its own.
    The parent of recovered block b is read from the level above,
    `hpatch.levels[1].parent[b]`: the bottom does not carry it (on the
    bundled specs every slot of a block's centre cell is UNDEFINED). It
    must be a tile (IndexOutOfRange otherwise) of the parent prototype of
    the block's rule (InconsistentGluing otherwise), one per block
    (PartialBlock otherwise). On a hierarchy built by `hierarchy_decorate`
    the quotient equals `hpatch.levels[1]`.
    """
    bottom = hpatch.bottom
    layout = build_layout(numbering, networks)
    if len(hpatch.levels) < 2:
        raise PartialBlock("bottom level is already the top expansion")
    cell_block, cell_offset, decs = bottom.block, bottom.offset, bottom.slot_decoration
    # The first cell of each block, then the cell count; each block's rule,
    # and its first slot, then the slot count.
    first = list(compress(range(len(cell_block)), map(ne, cell_block, chain((None,), cell_block))))
    block_rule = [bottom.rule[i] for i in first]
    first.append(len(cell_block))
    block_slot = [cell_offset[i] for i in first]
    block_of = [layout.blocks[rule_id] for rule_id in block_rule]
    heads = bottom.cells.heads  # the address of each block

    base: list[int] = []
    for b, (blk, s0) in enumerate(zip(block_of, block_slot)):
        parents = {
            dec.j for dec in [decs[s0 + s] for s in blk.reads] if dec is not UNDEFINED
        }
        if len(parents) != 1:
            raise PartialBlock(f"block {heads[b]}: parent indices {sorted(parents)}")
        base.append(parents.pop())

    rule_ids = tuple([numbering.base_of(j_b)[0] for j_b in base])
    parent = hpatch.levels[1].parent
    if len(parent) != len(base):
        raise PartialBlock(f"{len(base)} blocks under {len(parent)} cells")
    wanted = {rule_id: system.rule(rule_id).parent for rule_id in set(rule_ids)}
    for b, (p, rule_id) in enumerate(zip(parent, rule_ids)):
        if p not in layout.facet_count:
            raise IndexOutOfRange(f"block {heads[b]}: parent {p} outside 1..{numbering.n}")
        if layout.prototype_name[p] != wanted[rule_id]:
            raise InconsistentGluing(
                f"block {heads[b]}: parent T{p} has prototype "
                f"{layout.prototype_name[p]}, not {wanted[rule_id]}"
            )
    offset = _starts(map(layout.facet_count.__getitem__, base))

    # A seam glues every member of both its macro-facets, and each of its
    # pairs has its lower slot in the lower block, so the pairs whose lower
    # slot is the first member of a macro-facet (a `lead`) are one per
    # glued pair of recovered cells.
    leads = {rule_id: _lead_row(layout.blocks[rule_id]) for rule_id in set(block_rule)}
    lead = b"".join(map(leads.__getitem__, block_rule))
    facet = b"".join([blk.facet for blk in block_of])
    ends = bottom.pair_slots
    crossing = bytes(map(lead.__getitem__, ends[::2]))
    block_at = partial(bisect_right, block_slot[1:])  # a slot's block
    recovered = []
    for side in (ends[::2], ends[1::2]):
        slots = list(compress(side, crossing))
        recovered.append(map(add, map(offset.__getitem__, map(block_at, slots)),
                             map(facet.__getitem__, slots)))
    pairs = _sorted_pairs(map(sub, chain.from_iterable(zip(*recovered)), repeat(1)))

    undefined = bytes(map(is_, decs, repeat(UNDEFINED)))
    inherits = _Memo(lambda key: _recovered_row(layout, *key))
    rows = list(map(inherits.__getitem__, zip(
        base, block_rule, _cell_rows(undefined, block_slot),
        _cell_rows(bytes(bottom.slot_origin), block_slot),
    )))
    for b, row in enumerate(rows):
        if row.__class__ is int:
            raise PartialBlock(f"block {heads[b]}: facet {row} should be undefined")

    return _decorate_level(
        layout, _decoration_rows(layout), bottom.level + 1, tuple(base), parent, rule_ids,
        None, _frozen(offset), pairs, zip(zip(base), parent, rows), heads,
    )


def _lead_row(blk: Block) -> bytes:
    """Per slot of a block, k on the first member of macro-facet k, else 0."""
    row = bytearray(len(blk.facet))
    for k, members in blk.members.items():
        row[members[0]] = k
    return bytes(row)


def _recovered_row(layout: Layout, j_b: int, rule_id: str, undefined: bytes,
                   origin: bytes) -> bytes | int:
    """The `slot_origin` bytes that a block of rule `rule_id`, recovered as
    tile j_b, inherits: per facet, one origin closer than its members' (at
    least 0) where all are UNDEFINED (by `undefined`), else 0xFF; or the
    first facet native to its level (origin 0) with a defined member."""
    members = layout.blocks[rule_id].members
    signed = array("b", origin)
    out = bytearray()
    for a, own in enumerate(layout.native_origin[j_b], start=1):
        if all(map(undefined.__getitem__, members[a])):
            out.append(max(0, max(map(signed.__getitem__, members[a])) - 1))
        elif own == 0:
            return a
        else:
            out.append(0xFF)
    return bytes(out)


@dataclass
class QuotientPatch:
    """A decomposed patch collapsed to one node per block, nodes decorated
    through phi."""

    nodes: dict[Any, DecoratedTile]
    edges: tuple[tuple[Any, int, Any, int], ...]
    report: ValidationReport

    @property
    def ok(self) -> bool:
        return self.report.ok


def quotient_preimage(decomposed, system: SubstitutionSystem,
                      numbering: GlobalNumbering, networks: NetworkSet,
                      tau: Tileset) -> QuotientPatch:
    """Collapse a fully decomposed patch: one node per block with prototype
    pi(phi(block)), an (a,b)-labeled edge wherever macro-facets meet, and a
    check of the preimage biconditional: the blocks' macro-facets match
    exactly when the phi images' facets do. Every node must be a member of
    the tileset `tau`.

    `decomposed` provides `blocks` (id -> MacroTileInstance), `adjacencies`
    ((id, a, id', b) labeled seams) and `margins`; margins raise PartialBlock.
    """
    if getattr(decomposed, "margins", ()):
        raise PartialBlock(f"{len(decomposed.margins)} cells outside full blocks")
    layout = build_layout(numbering, networks)
    report = ValidationReport()
    nodes = {
        bid: phi(layout, inst) for bid, inst in decomposed.blocks.items()
    }
    missing = set(nodes.values()).difference(tau)  # one pass, no table of tau kept
    for bid, node in nodes.items():
        if node in missing:
            report.add("PhiNotInTileset", f"block {bid}")
    edges = []
    for bid_a, a, bid_b, b in decomposed.adjacencies:
        inst_a = decomposed.blocks[bid_a]
        inst_b = decomposed.blocks[bid_b]
        seam = layout.seams.get(((inst_a.rule_id, a), (inst_b.rule_id, b)))
        if seam is None:
            report.add("NoAdjacency", f"({inst_a.rule_id},{a})~({inst_b.rule_id},{b})")
            continue
        pos_a = system.rule(inst_a.rule_id).template.position
        pos_b = system.rule(inst_b.rule_id).template.position
        seam_ok = all(
            inst_a.tiles[pos_a[ca]].triples[ka - 1] == inst_b.tiles[pos_b[cb]].triples[kb - 1]
            for (ca, ka), (cb, kb) in seam
        )
        node_ok = nodes[bid_a].triples[a - 1] == nodes[bid_b].triples[b - 1]
        if seam_ok != node_ok:
            report.add(
                "PreimageBiconditional",
                f"blocks {bid_a},{bid_b}: seam={'match' if seam_ok else 'clash'} "
                f"but nodes={'match' if node_ok else 'clash'}",
            )
        edges.append((bid_a, a, bid_b, b))
    return QuotientPatch(nodes, tuple(edges), report)
