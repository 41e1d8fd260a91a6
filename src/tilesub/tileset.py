"""Decorated tiles and the finite tileset construction.

Every facet of a decorated tile carries a triple (macro-index, parent-index,
neighbor-index); two facets match when their triples are equal. `build_layout`
is the one gate for a spec's networks: it refuses networks that break the
connecting conditions, then compiles the numbered system and its networks
once into a `Layout`, which every later step takes as its first argument.
The tileset is built as a least fixpoint of three steps: `decorate_base` for
cells off the networks, `decorate_network` for cells on network branches,
and `derive_central` for the center tiles. `close` runs it semi-naively: the
network step is fed only the (parent-index, neighbor-index) pairs new since
the last round, the central step only the new tiles. Within one `close`
call every distinct decoration is built once and shared, so equal
decorations are one object. The rounds' tables are freed before the result
is sorted in the tiles' own tuple order, so two runs on the same input
produce byte-identical dumps.

The bulk builders of the package (`close` here, and the enumeration,
verification, hierarchy and assembly builders) run under `_nogc`: they
allocate and keep many acyclic objects, which would otherwise set off
collections of the cyclic garbage collector that find nothing to free.
"""
from __future__ import annotations

import gc
from array import array
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import groupby, islice, zip_longest
from operator import getitem, itemgetter
from struct import pack
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .counting import exact_count, params_from_system
from .errors import InvalidNetwork, TilesubError
from .model import (
    BOUNDARY,
    MACRO_FACET,
    PORT,
    FacetClass,
    FacetRef,
    GlobalNumbering,
    Rule,
    SubstitutionSystem,
    internal,
)
from .network import (
    NetworkSet,
    check_port_condition,
    network_slots,
    validate_network,
)


class _Memo(dict):
    """`fn` of each key asked for, computed on first request and kept."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Numbering(dict):
    """Decoration -> id: a decoration not yet numbered gets the next id on
    first request. None, the facet a shorter tile lacks, reads -1 and is
    not numbered."""

    def __missing__(self, key):
        if key is None:
            return -1
        value = self[key] = len(self)
        return value


def _nogc(func):
    """Run `func` with the cyclic garbage collector paused, restoring the
    caller's collector state however it returns. Only for functions that
    return a built result: a generator would return before its work ran."""

    @wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class _Undefined:
    """The distinguished facet decoration of the hierarchy, placed on the
    network slots of every level; it equals only itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def render(self) -> str:
        return "u"

    def __repr__(self):
        return "UNDEFINED"


UNDEFINED = _Undefined()


class DecorationTriple(NamedTuple):
    """(macro-index f, parent-index j, neighbor-index g) on one facet.

    Two facets match exactly when their decorations are equal, so a
    decoration is its own dict key and, ordered field by field, its own sort
    key."""

    f: FacetClass
    j: int
    g: FacetClass

    def render(self) -> str:
        return f"({self.f.render()},{self.j},{self.g.render()})"


FacetDecoration = DecorationTriple | _Undefined
# (j, k) -> the (parent-index, neighbor-index) pairs on facet k of decorated T_j
PairTable = dict[tuple[int, int], set[tuple[int, FacetClass]]]


class DecoratedTile(NamedTuple):
    """A tile T_{base} with one decoration per facet. Whether it lives on a
    network center is a fact of its base: `base in layout.central_cells`."""

    base: int
    triples: tuple[FacetDecoration, ...]


class ColumnRenderer(dict):
    """Renders a tile's facet columns, `k=1:(f,j,g) k=2:...`, formatting each
    distinct (k, decoration) once. It keeps every column it has formatted,
    so make one per dump or view, not one per process."""

    def __missing__(self, key: tuple[int, FacetDecoration]) -> str:
        k, dec = key
        text = self[key] = f"k={k}:{dec.render()}"
        return text

    def __call__(self, tile: DecoratedTile) -> str:
        return " ".join(map(self.__getitem__, enumerate(tile.triples, start=1)))


PROVENANCE_BASE = "base"
PROVENANCE_NETWORK = "network"
PROVENANCE_CENTRAL = "central"


def _id_columns(tiles: Sequence[DecoratedTile], ids: _Numbering) -> tuple[array, ...]:
    """Per facet k, a C-int column: the id `ids` gives facet k of each of
    `tiles`, in order, or -1 where the tile has fewer facets. Each column
    is packed in one call, which converts the ids faster than an array
    takes them one at a time."""
    return tuple(
        array("i", pack(f"{len(column)}i", *map(ids.__getitem__, column)))
        for column in zip_longest(*[tile.triples for tile in tiles])
    )


@dataclass(frozen=True)
class Tileset:
    """A finite, canonically ordered set of decorated tiles with per-tile
    provenance (which construction stage owns its base cell).

    `decoration_ids` is the tileset as integers, which the searches of the
    verify path read: a read-only table numbering each distinct decoration
    on the tiles, in order of first appearance facet by facet, and per
    facet k one C-int column, the id of facet k of each tile (-1 where a
    tile has fewer facets). A tile is then its index. Both are built on
    first use, so the closure, the writers and the hierarchy never build
    them; `in` and `index` keep a tile -> index dict, and the package uses neither."""

    tiles: tuple[DecoratedTile, ...]
    provenance: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)

    def __contains__(self, tile: DecoratedTile) -> bool:
        return tile in self._by_tile

    def index(self, tile: DecoratedTile) -> int:
        return self._by_tile[tile]

    @cached_property
    def _by_tile(self) -> dict[DecoratedTile, int]:
        return {t: i for i, t in enumerate(self.tiles)}

    @cached_property
    def decoration_ids(self) -> tuple[Mapping[FacetDecoration, int], tuple[array, ...]]:
        ids = _Numbering()
        columns = _id_columns(self.tiles, ids)
        return MappingProxyType(dict(ids)), columns

    def lines(self) -> Iterator[str]:
        """The dump's lines, one a tile in canonical order, each formatted
        only when it is asked for: `T{base} {provenance} | k=1:(f,j,g) ...`."""
        columns = ColumnRenderer()
        return (
            f"T{tile.base} {prov} | {columns(tile)}"
            for tile, prov in zip(self.tiles, self.provenance)
        )

    def dump(self) -> str:
        """The dump's lines, newline-joined through `line_batches`."""
        return "\n".join(line_batches(self.lines()))


_LINE_BATCH = 1024  # lines a batch: 4096 measured a higher `generate` peak RSS


def line_batches(lines: Iterable[str]) -> Iterator[str]:
    """`lines` in runs of `_LINE_BATCH`, each run newline-joined, so that
    the batches newline-joined are the lines newline-joined, and no list of
    every line is built. The first batch comes even when there are none."""
    lines = iter(lines)
    yield "\n".join(islice(lines, _LINE_BATCH))
    while batch := list(islice(lines, _LINE_BATCH)):
        yield "\n".join(batch)


Side = tuple[str, int]  # (rule id, parent facet): one macro-facet


class Block(NamedTuple):
    """A rule's template as one block of a hierarchy level: its cells in
    sorted cell-id order, the order the levels use, and their slots
    numbered from the block's first slot (facet k of the i-th cell is slot
    `sum(counts[:i]) + k - 1`). `partner` and `facet` are rows with one
    entry a slot, laid end to end block by block to cover a level: a level
    reads them with no per-slot step."""

    bases: tuple[int, ...]  # the cells' tiles
    counts: tuple[int, ...]  # the cells' facet counts
    # Per slot a C int: b - a on the lower slot a of each internal pairing
    # (a, b), else 0.
    partner: bytes
    members: dict[int, tuple[int, ...]]  # macro-facet k -> its member slots, gamma order
    facet: bytes  # per slot the macro-facet k (at most 255) it is a member of, else 0
    reads: tuple[int, ...]  # the slots that read the parent index, ascending


@dataclass(frozen=True)
class Layout:
    """Every per-tile and per-seam table of one system with its networks,
    built once by `build_layout` (the only code that walks the numbering and
    the macro-adjacency table) and read by every later step. A `Layout`
    from `build_layout` holds a valid system (its numbering checked it) and
    networks that meet the connecting conditions."""

    numbering: GlobalNumbering
    networks: NetworkSet
    facet_count: dict[int, int]  # j -> facet count of T_j
    prototype_name: dict[int, str]  # j -> prototype of T_j, the projection pi
    tiles_of: dict[str, tuple[int, ...]]  # prototype -> its tile indices, ascending
    nsigma: dict[tuple[int, int], FacetClass]  # (j, k) -> class of facet k of T_j
    central_cells: tuple[int, ...]
    off_network: tuple[int, ...]
    network_cells: tuple[tuple[int, int, tuple[int, ...]], ...]  # (j0, branch k, slots)
    macro_facet_idx: dict[tuple[int, int], int]  # (j0, facet) -> macro-facet k
    parents_for: dict[int, tuple[int, ...]]  # j0 -> eligible parent indices
    parent_facets: dict[int, tuple[int, ...]]  # j0 -> internal non-crossed facets
    # Each macro-adjacency entry, in both directions -> the member slot pairs
    # ((cell_a, k_a), (cell_b, k_b)) it glues, in sorted mapping order.
    seams: dict[tuple[Side, Side], tuple[tuple[FacetRef, FacetRef], ...]]
    rule_for_prototype: dict[str, Rule]  # prototype -> the first rule expanding it
    blocks: dict[str, Block]  # rule id -> its template as a hierarchy block
    # The `seams`, keyed flat (rule a, facet a, rule b, facet b), with each
    # member slot as its block slot: the pairs (slot a, slot b) glued.
    block_seams: dict[tuple[str, int, str, int], tuple[tuple[int, int], ...]]
    # j0 -> its `slot_origin` row in a hierarchy level: per facet 0 where the
    # slot is on its rule's network (UNDEFINED at that level), else -1 (0xFF).
    native_origin: dict[int, bytes]


def build_layout(numbering: GlobalNumbering, networks: NetworkSet) -> Layout:
    """Check the networks, then compile a numbered system and its networks
    into the tables every later step reads.

    Raises InvalidNetwork when a rule has no network, when a rule's network
    fails `validate_network`, or when the networks fail
    `check_port_condition`. The system itself was checked when `numbering`
    was built. One pass per rule then classifies every slot of its cells: a
    paired slot is the internal facet of its pairing; an unpaired one is
    PORT if a branch owns it, else MACRO_FACET if gamma lists it, else
    BOUNDARY."""
    system = numbering.system
    for rule in system.rules:
        if rule.rule_id not in networks:
            raise InvalidNetwork(f"rule {rule.rule_id} has no network")
        report = validate_network(system, rule, networks[rule.rule_id])
        if not report.ok:
            raise InvalidNetwork(
                f"rule {rule.rule_id} network invalid: {sorted(report.codes())}"
            )
    report = check_port_condition(system, networks)
    if not report.ok:
        raise InvalidNetwork(f"port condition fails: {sorted(report.codes())}")
    prototypes = {j: numbering.prototype_of(j) for j in range(1, numbering.n + 1)}
    facet_count = {j: proto.facet_count for j, proto in prototypes.items()}
    tiles_of: dict[str, tuple[int, ...]] = {}
    for j, proto in prototypes.items():
        tiles_of[proto.name] = tiles_of.get(proto.name, ()) + (j,)
    nsigma: dict[tuple[int, int], FacetClass] = {}
    central_cells = []
    off = []
    on_network = []
    macro_idx = {}
    parents_for = {}
    parent_facets = {}
    rule_for_prototype: dict[str, Rule] = {}
    blocks: dict[str, Block] = {}
    block_slot: dict[str, dict[FacetRef, int]] = {}  # rule id -> (cell, k) -> block slot
    native_origin: dict[int, bytes] = {}
    for rule in system.rules:
        rule_id = rule.rule_id
        net = networks[rule_id]
        rule_for_prototype.setdefault(rule.parent, rule)
        paired = rule.template.paired_slots
        ports = {branch.port for branch in net.branches}
        macro_of = {slot: k for k, members in rule.gamma for slot in members}
        slots_of = network_slots(rule, net)
        # The hierarchy leaves every network slot undefined (ports and both
        # sides of branch-crossed pairings) and everything on the central
        # cell, whose pairs are derived data never fixed by the base decoration.
        undefined = {slot for _, slots in slots_of.values() for slot in slots}
        for cell in rule.template.cell_ids():
            j = numbering.tile_index(rule_id, cell)
            count = facet_count[j]
            for k in range(1, count + 1):
                slot = (cell, k)
                if slot in paired:
                    nsigma[(j, k)] = internal(numbering.facet_index(rule_id, paired[slot]))
                elif slot in ports:
                    nsigma[(j, k)] = PORT
                elif slot in macro_of:
                    nsigma[(j, k)] = MACRO_FACET
                else:
                    nsigma[(j, k)] = BOUNDARY
                if slot in macro_of:
                    macro_idx[(j, k)] = macro_of[slot]
            if cell == net.center:
                central_cells.append(j)
                undefined.update((cell, k) for k in range(1, count + 1))
                continue
            if cell in slots_of:
                branch_k, slots = slots_of[cell]
                slot_ks = tuple(sorted(k for (_, k) in slots))
                on_network.append((j, branch_k, slot_ks))
            else:
                off.append(j)
                slot_ks = ()
            parents_for[j] = tiles_of.get(rule.parent, ())
            parent_facets[j] = tuple(
                k
                for k in range(1, count + 1)
                if nsigma[(j, k)].is_internal and k not in slot_ks
            )
        # The template as a hierarchy block, its cells in sorted id order.
        cells = sorted(rule.template.cell_ids())
        bases = tuple(numbering.tile_index(rule_id, cell) for cell in cells)
        slots = [(cell, k) for cell, j in zip(cells, bases) for k in range(1, facet_count[j] + 1)]
        local = block_slot[rule_id] = {slot: s for s, slot in enumerate(slots)}
        for cell, j in zip(cells, bases):
            native_origin[j] = bytes(
                0 if (cell, k) in undefined else 0xFF for k in range(1, facet_count[j] + 1)
            )
        partner = array("i", bytes(4 * len(slots)))
        for a, b in rule.template.internal_pairings:
            low, high = sorted([local[a], local[b]])
            partner[low] = high - low
        members = {k: tuple(map(local.__getitem__, ms)) for k, ms in rule.gamma}
        facet = bytearray(len(slots))
        for k, ms in members.items():
            for s in ms:
                facet[s] = k
        blocks[rule_id] = Block(
            bases=bases,
            counts=tuple(facet_count[j] for j in bases),
            partner=partner.tobytes(),
            members=members,
            facet=bytes(facet),
            reads=tuple(local[(cell, k)] for cell, j in zip(cells, bases)
                        for k in parent_facets.get(j, ())),
        )
    gamma = {rule.rule_id: rule.gamma_map() for rule in system.rules}
    seams = {}
    block_seams = {}
    for entry in system.macro_adjacency:
        inverse = [(b, a) for a, b in entry.mapping]
        for (rid_a, a), (rid_b, b), mapping in ((entry.side_a, entry.side_b, entry.mapping),
                                                (entry.side_b, entry.side_a, inverse)):
            ga, gb = gamma[rid_a][a], gamma[rid_b][b]
            seam = seams[((rid_a, a), (rid_b, b))] = tuple(
                (ga[pa - 1], gb[pb - 1]) for pa, pb in sorted(mapping)
            )
            at_a, at_b = block_slot[rid_a], block_slot[rid_b]
            block_seams[(rid_a, a, rid_b, b)] = tuple((at_a[sa], at_b[sb]) for sa, sb in seam)
    return Layout(
        numbering=numbering,
        networks=networks,
        facet_count=facet_count,
        prototype_name={j: proto.name for j, proto in prototypes.items()},
        tiles_of=tiles_of,
        nsigma=nsigma,
        central_cells=tuple(central_cells),
        off_network=tuple(off),
        network_cells=tuple(on_network),
        macro_facet_idx=macro_idx,
        parents_for=parents_for,
        parent_facets=parent_facets,
        seams=seams,
        rule_for_prototype=rule_for_prototype,
        blocks=blocks,
        block_seams=block_seams,
        native_origin=native_origin,
    )


def _steps13(layout: Layout, j0: int, parent: int) -> tuple[DecorationTriple, ...]:
    """Decorations fixed before any pair flows on the network: macro-index
    everywhere, parent 0 outside / parent j inside, neighbor equal to the
    macro-index except on macro-facet members where it reports the parent's
    own facet class. `decorate_network` overwrites the network slots."""
    nsigma = layout.nsigma
    out = []
    for k in range(1, layout.facet_count[j0] + 1):
        f = nsigma[(j0, k)]
        if f.is_internal:
            out.append(DecorationTriple(f, parent, f))
        elif (j0, k) in layout.macro_facet_idx:
            mk = layout.macro_facet_idx[(j0, k)]
            out.append(DecorationTriple(f, 0, nsigma[(parent, mk)]))
        else:
            out.append(DecorationTriple(f, 0, f))
    return tuple(out)


class _Closure:
    """The construction steps with the tables of one `close` call (a single
    public step gets a table of its own). `shared` maps every distinct
    decoration built so far to its one shared object, so equal decorations
    are the same object and compare by identity. Each `_steps13` row, each
    network-slot decoration and each center conversion is built once; no
    table outlives the rounds."""

    def __init__(self, layout: Layout):
        self.layout = layout
        self.shared: dict[DecorationTriple, DecorationTriple] = {}
        self._rows: dict[tuple[int, int], tuple[DecorationTriple, ...]] = {}
        self._slots: dict[int, dict] = {}  # j0 -> pair -> its slot decorations
        self._converts: dict[int, tuple[_Converted, ...]] = {}  # center -> per facet

    def share(self, dec: DecorationTriple) -> DecorationTriple:
        return self.shared.setdefault(dec, dec)

    def row(self, j0: int, parent: int) -> tuple[DecorationTriple, ...]:
        key = (j0, parent)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = tuple(map(self.share, _steps13(self.layout, j0, parent)))
        return row

    def base(self) -> list[DecoratedTile]:
        layout = self.layout
        return [
            DecoratedTile(j0, self.row(j0, parent))
            for j0 in layout.off_network
            for parent in layout.parents_for[j0]
        ]

    def network(self, pairs: PairTable) -> set[DecoratedTile]:
        layout = self.layout
        new: set[DecoratedTile] = set()
        for j0, branch_k, slot_ks in layout.network_cells:
            heads = [layout.nsigma[(j0, k)] for k in slot_ks]
            slot_decs = self._slots.setdefault(j0, {})
            for parent in layout.parents_for[j0]:
                flowing = pairs.get((parent, branch_k))
                if not flowing:
                    continue
                triples = list(self.row(j0, parent))
                for pair in flowing:
                    decs = slot_decs.get(pair)
                    if decs is None:
                        pj, pg = pair
                        decs = slot_decs[pair] = [
                            self.share(DecorationTriple(f, pj, pg)) for f in heads
                        ]
                    for k, dec in zip(slot_ks, decs):
                        triples[k - 1] = dec
                    new.add(DecoratedTile(j0, tuple(triples)))
        return new

    def central(self, tiles: Collection[DecoratedTile]) -> set[DecoratedTile]:
        layout = self.layout
        central = layout.central_cells
        new: set[DecoratedTile] = set()
        for j in central:
            count = layout.facet_count[j]
            converts = self._converts.get(j)
            if converts is None:
                converts = self._converts[j] = tuple(
                    _Converted(layout.nsigma[(j, k)], self.shared) for k in range(1, count + 1)
                )
            for tile in tiles:
                if tile.base in central or len(tile.triples) != count:
                    continue
                if UNDEFINED in tile.triples:
                    continue
                new.add(DecoratedTile(j, tuple(map(getitem, converts, tile.triples))))
        return new


class _Converted(dict):
    """Source decoration -> the decoration a center facet of class `head`
    copies from it, `(head, j, g)`, built once and shared."""

    def __init__(self, head: FacetClass, shared: dict[DecorationTriple, DecorationTriple]):
        super().__init__()
        self.head = head
        self.shared = shared

    def __missing__(self, dec: DecorationTriple) -> DecorationTriple:
        out = DecorationTriple(self.head, dec.j, dec.g)
        out = self[dec] = self.shared.setdefault(out, out)
        return out


def decorate_base(layout: Layout) -> list[DecoratedTile]:
    """Tiles for every non-central cell off the networks, one per eligible
    parent index (any tile whose prototype equals the rule's parent,
    across all rules)."""
    return _Closure(layout).base()


def _pairs_table(tiles: Iterable[DecoratedTile]) -> PairTable:
    """Every (parent-index, neighbor-index) pair realized on facet k of some
    decorated T_j among `tiles`, keyed by (j, k); UNDEFINED facets carry
    none."""
    rows: dict[int, list[tuple[FacetDecoration, ...]]] = {}
    for tile in tiles:
        rows.setdefault(tile.base, []).append(tile.triples)
    table: PairTable = {}
    for base, triples in rows.items():
        # A column of one base's tiles repeats few decorations: read each once.
        for k, column in enumerate(zip(*triples), start=1):
            pairs = {(dec.j, dec.g) for dec in set(column) if dec is not UNDEFINED}
            if pairs:
                table[(base, k)] = pairs
    return table


def decorate_network(layout: Layout, pairs: PairTable) -> set[DecoratedTile]:
    """Pair-carrying tiles for non-central network cells, from a pair table
    (`_pairs_table` output).

    A cell serving branch k with parent j gets one tile per pair in
    `pairs[(j, k)]`; the pair is written on all its network slots at once.
    The result is a union of per-pair contributions."""
    return _Closure(layout).network(pairs)


def derive_central(layout: Layout, tiles: Collection[DecoratedTile]) -> set[DecoratedTile]:
    """Center tiles derived from every non-central tile with a matching facet
    count: the k-th facet copies the source tile's k-th parent/neighbor pair
    under the center's own macro-indices."""
    return _Closure(layout).central(tiles)


def generate_tileset(system: SubstitutionSystem, numbering: GlobalNumbering,
                     networks: NetworkSet) -> Tileset:
    """The closed tileset of a spec: `close(build_layout(numbering, networks))`.
    `system` is unused: `numbering.system` holds it."""
    return close(build_layout(numbering, networks))


@_nogc
def close(layout: Layout) -> Tileset:
    """Least fixpoint of the three construction steps over a `layout` from
    `build_layout` (so its networks are checked), canonically ordered and
    checked against step 1 and the first-network bound.

    Both closure steps are unions of per-pair or per-tile contributions, so
    the rounds are semi-naive: the network step gets only the pairs of each
    (parent, branch facet) first realized in the last round, and the central
    step only the tiles new since the last one. No network tile is built
    twice, and every distinct decoration is one shared object (see
    `_Closure`). The rounds run in `_fixpoint`, so their tables are freed
    before the tiles are sorted in their own tuple order: by base, then
    facet by facet by decoration. Provenance is a fact of the base, read
    once per base.

    `close(replace(layout, macro_facet_idx={}))` is the seam-blind negative
    control: macro-facet members stop reporting the parent's facet class and
    repeat their own macro-index, which is exactly the defect the
    self-simulation check must catch.
    """
    tiles = tuple(sorted(_fixpoint(layout)))
    kind = dict.fromkeys(layout.facet_count, PROVENANCE_NETWORK)
    kind.update(dict.fromkeys(layout.off_network, PROVENANCE_BASE))
    kind.update(dict.fromkeys(layout.central_cells, PROVENANCE_CENTRAL))
    result = Tileset(tiles, tuple(kind[base] for base, _ in tiles))
    _check_step1(layout, result)
    numbering = layout.numbering
    params = params_from_system(numbering.system, numbering, layout.networks)
    if params.p >= params.r:  # else the first-network bound is undefined
        exact_count(result, params)  # raises BoundViolated above the bound
    return result


def _fixpoint(layout: Layout) -> set[DecoratedTile]:
    """The semi-naive rounds of `close`: the closed tile set, unordered.
    `seen` holds the pairs already fed on each (parent, branch facet)."""
    steps = _Closure(layout)
    new = set(steps.base())
    tiles = set(new)
    seen = {
        (parent, branch_k): set()
        for j0, branch_k, _ in layout.network_cells
        for parent in layout.parents_for[j0]
    }
    while new:
        fresh = {}
        for key, pairs in _pairs_table(new).items():
            known = seen.get(key)
            if known is not None:
                pairs -= known
                if pairs:
                    known |= pairs
                    fresh[key] = pairs
        new = (steps.network(fresh) | steps.central(new)) - tiles
        tiles |= new
    return tiles


def _check_step1(layout: Layout, tileset: Tileset) -> None:
    """Every facet of every closure tile is defined and carries the facet's
    fixed macro-index.

    The closure lists each base's tiles together, all with the same facet
    count, so each facet of a base is checked once per distinct decoration
    on it. Only if that finds a fault, or tiles of one base whose facet
    counts differ, are the tiles walked one by one in canonical order,
    which names the first offending tile and its first offending facet.
    """
    nsigma = layout.nsigma
    for base, group in groupby(tileset, key=itemgetter(0)):
        rows = [tile.triples for tile in group]
        if len(set(map(len, rows))) != 1 or not all(
            dec is not UNDEFINED and dec.f == nsigma.get((base, k))
            for k, column in enumerate(zip(*rows), start=1) for dec in set(column)
        ):
            break
    else:
        return
    for tile in tileset:
        for k, dec in enumerate(tile.triples, start=1):
            if dec is UNDEFINED:
                raise TilesubError(f"T{tile.base} facet {k}: closure tile is undefined")
            fixed = nsigma[(tile.base, k)]
            if dec.f != fixed:
                raise TilesubError(
                    f"T{tile.base} facet {k}: macro-index {dec.f.render()} "
                    f"is not the fixed {fixed.render()}"
                )
