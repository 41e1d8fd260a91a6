"""Decorated tiles and the finite tileset construction.

Every facet of a decorated tile carries a triple (macro-index, parent-index,
neighbor-index); two facets match when their triples are equal. `build_layout`
compiles a numbered system and its networks once into a `Layout`, which the
construction steps here and the enumeration and hierarchy in `simulation`
take as their first argument. The tileset is built as a least fixpoint of
three steps: `decorate_base` for cells off the networks, `decorate_network`
for cells on network branches, and `derive_central` for the center tiles.
The closure is round-based and canonically ordered, so two runs on the same
input produce byte-identical dumps regardless of any internal scheduling.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, NamedTuple

from .counting import exact_count, params_from_system
from .errors import InvalidNetwork, InvalidSystem, TilesubError
from .model import (
    FacetClass,
    FacetRef,
    GlobalNumbering,
    Rule,
    SubstitutionSystem,
    n_sigma,
    validate_system,
)
from .network import (
    Network,
    NetworkSet,
    check_port_condition,
    crossed_facets,
    network_slots,
    validate_network,
)


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


@dataclass(frozen=True)
class DecoratedTile:
    """A tile T_{base} with one decoration per facet. `central` marks tiles
    living on a network center."""

    base: int
    triples: tuple[FacetDecoration, ...]
    central: bool = False

    def sort_key(self):
        return (self.base, self.triples)

    def columns(self) -> str:
        return " ".join(f"k={k}:{t.render()}" for k, t in enumerate(self.triples, start=1))

    def render(self, provenance: str) -> str:
        return f"T{self.base} {provenance} | {self.columns()}"


PROVENANCE_BASE = "base"
PROVENANCE_NETWORK = "network"
PROVENANCE_CENTRAL = "central"


@dataclass(frozen=True)
class Tileset:
    """A finite, canonically ordered set of decorated tiles with per-tile
    provenance (which construction stage owns its base cell)."""

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

    def dump(self) -> str:
        return "\n".join(
            tile.render(prov) for tile, prov in zip(self.tiles, self.provenance)
        )


def strip_decorations(numbering: GlobalNumbering, tile: DecoratedTile) -> str:
    """The projection pi: forget decorations, keep the prototype name."""
    return numbering.prototype_of(tile.base).name


Side = tuple[str, int]  # (rule id, parent facet): one macro-facet


@dataclass(frozen=True)
class Layout:
    """The compiled view of one system with its networks, built once by
    `build_layout` and passed to every construction, enumeration and
    hierarchy step."""

    numbering: GlobalNumbering
    networks: NetworkSet
    nsigma: dict[tuple[int, int], FacetClass]  # (j, k) -> n_sigma(j, k)
    central_cells: tuple[int, ...]
    off_network: tuple[int, ...]
    network_cells: tuple[tuple[int, int, tuple[int, ...]], ...]  # (j0, branch k, slots)
    macro_facet_idx: dict[tuple[int, int], int]  # (j0, facet) -> macro-facet k
    parents_for: dict[int, tuple[int, ...]]  # j0 -> eligible parent indices
    parent_facets: dict[int, tuple[int, ...]]  # j0 -> internal non-crossed facets
    gamma: dict[str, dict[int, tuple[FacetRef, ...]]]  # rule id -> gamma map
    adjacency: dict[tuple[Side, Side], tuple[tuple[int, int], ...]]  # both directions
    native_undefined: dict[str, frozenset[FacetRef]]  # rule id -> hierarchy slots
    rule_for_prototype: dict[str, Rule]  # prototype -> the first rule expanding it


def _native_undefined(system: SubstitutionSystem, rule: Rule, net: Network) -> frozenset[FacetRef]:
    """Rule-local slots the hierarchy leaves undefined: ports, both sides of
    branch-crossed pairings, and everything on the central cell (its pairs
    are derived data, never fixed by the base decoration)."""
    out: set[FacetRef] = {b.port for b in net.branches}
    for pairings in crossed_facets(system, rule, net).values():
        for pairing in pairings:
            out.update(pairing)
    center_proto = system.cell_prototype(rule, net.center)
    out.update((net.center, k) for k in range(1, center_proto.facet_count + 1))
    return frozenset(out)


def build_layout(numbering: GlobalNumbering, networks: NetworkSet) -> Layout:
    """Compile a numbered system and its networks (one per rule, already
    validated) into the tables every later step reads."""
    system = numbering.system
    nsigma = {
        (j, k): n_sigma(numbering, networks, j, k)
        for j in range(1, numbering.n + 1)
        for k in range(1, numbering.prototype_of(j).facet_count + 1)
    }
    central_cells = []
    off = []
    on_network = []
    macro_idx = {}
    parents_for = {}
    parent_facets = {}
    slots_by_rule = {
        rule.rule_id: network_slots(system, rule, networks[rule.rule_id])
        for rule in system.rules
    }
    by_proto: dict[str, list[int]] = {}
    for j in range(1, numbering.n + 1):
        by_proto.setdefault(numbering.prototype_of(j).name, []).append(j)
    for j in range(1, numbering.n + 1):
        rule_id, cell = numbering.base_of(j)
        rule = system.rule(rule_id)
        net = networks[rule_id]
        mf = system.macro_facet_of(rule)
        count = numbering.prototype_of(j).facet_count
        for k in range(1, count + 1):
            if (cell, k) in mf:
                macro_idx[(j, k)] = mf[(cell, k)]
        if cell == net.center:
            central_cells.append(j)
            continue
        cell_slots = slots_by_rule[rule_id].get(cell)
        if cell_slots is None:
            off.append(j)
            slot_ks: tuple[int, ...] = ()
        else:
            branch_k, slots = cell_slots
            slot_ks = tuple(sorted(k for (_, k) in slots))
            on_network.append((j, branch_k, slot_ks))
        parents_for[j] = tuple(by_proto.get(rule.parent, ()))
        parent_facets[j] = tuple(
            k
            for k in range(1, count + 1)
            if nsigma[(j, k)].is_internal and k not in slot_ks
        )
    rule_for_prototype: dict[str, Rule] = {}
    for rule in system.rules:
        rule_for_prototype.setdefault(rule.parent, rule)
    return Layout(
        numbering=numbering,
        networks=networks,
        nsigma=nsigma,
        central_cells=tuple(central_cells),
        off_network=tuple(off),
        network_cells=tuple(on_network),
        macro_facet_idx=macro_idx,
        parents_for=parents_for,
        parent_facets=parent_facets,
        gamma={rule.rule_id: rule.gamma_map() for rule in system.rules},
        adjacency={
            (e.side_a, e.side_b): e.mapping for e in system.iter_adjacency_directed()
        },
        native_undefined={
            rule.rule_id: _native_undefined(system, rule, networks[rule.rule_id])
            for rule in system.rules
        },
        rule_for_prototype=rule_for_prototype,
    )


def _steps13(layout: Layout, j0: int, parent: int, slot_ks: tuple[int, ...],
             blind_seams: bool = False) -> list[FacetDecoration | None]:
    """Decorations fixed before any pair flows on the network: macro-index
    everywhere, parent 0 outside / parent j inside, neighbor equal to the
    macro-index except on macro-facet members where it reports the parent's
    own facet class. Network slots come back as None."""
    nsigma = layout.nsigma
    out: list[FacetDecoration | None] = []
    count = layout.numbering.prototype_of(j0).facet_count
    for k in range(1, count + 1):
        if k in slot_ks:
            out.append(None)
            continue
        f = nsigma[(j0, k)]
        if f.is_internal:
            out.append(DecorationTriple(f, parent, f))
        elif (j0, k) in layout.macro_facet_idx and not blind_seams:
            mk = layout.macro_facet_idx[(j0, k)]
            out.append(DecorationTriple(f, 0, nsigma[(parent, mk)]))
        else:
            out.append(DecorationTriple(f, 0, f))
    return out


def decorate_base(layout: Layout, blind_seams: bool = False) -> list[DecoratedTile]:
    """Tiles for every non-central cell off the networks, one per eligible
    parent index (any tile whose prototype equals the rule's parent,
    across all rules)."""
    tiles = []
    for j0 in layout.off_network:
        for parent in layout.parents_for[j0]:
            triples = _steps13(layout, j0, parent, (), blind_seams)
            tiles.append(DecoratedTile(j0, tuple(triples)))
    return tiles


def _pairs_table(tiles: Iterable[DecoratedTile]) -> dict[tuple[int, int], set[tuple[int, FacetClass]]]:
    """Every (parent-index, neighbor-index) pair realized on facet k of some
    decorated T_j among `tiles`, keyed by (j, k); UNDEFINED facets carry
    none."""
    table: dict[tuple[int, int], set] = {}
    for tile in tiles:
        for k, dec in enumerate(tile.triples, start=1):
            if dec is not UNDEFINED:
                table.setdefault((tile.base, k), set()).add((dec.j, dec.g))
    return table


def decorate_network(layout: Layout, tiles: Iterable[DecoratedTile],
                     blind_seams: bool = False) -> set[DecoratedTile]:
    """One round of pair-carrying tiles for non-central network cells.

    A cell serving branch k with parent j gets one tile per pair realized on
    facet k of a decorated T_j among `tiles`; the pair is written on all its
    network slots at once.
    """
    pairs = _pairs_table(tiles)
    new: set[DecoratedTile] = set()
    for j0, branch_k, slot_ks in layout.network_cells:
        for parent in layout.parents_for[j0]:
            base = _steps13(layout, j0, parent, slot_ks, blind_seams)
            for pj, pg in pairs.get((parent, branch_k), ()):
                triples = list(base)
                for k in slot_ks:
                    triples[k - 1] = DecorationTriple(layout.nsigma[(j0, k)], pj, pg)
                new.add(DecoratedTile(j0, tuple(triples)))
    return new


def derive_central(layout: Layout, tiles: Collection[DecoratedTile]) -> set[DecoratedTile]:
    """Center tiles derived from every non-central tile with a matching facet
    count: the k-th facet copies the source tile's k-th parent/neighbor pair
    under the center's own macro-indices."""
    new: set[DecoratedTile] = set()
    numbering = layout.numbering
    for j in layout.central_cells:
        count = numbering.prototype_of(j).facet_count
        heads = tuple(layout.nsigma[(j, k)] for k in range(1, count + 1))
        for tile in tiles:
            if tile.central or len(tile.triples) != count:
                continue
            if any(t is UNDEFINED for t in tile.triples):
                continue
            triples = tuple(
                DecorationTriple(heads[i], t.j, t.g) for i, t in enumerate(tile.triples)
            )
            new.add(DecoratedTile(j, triples, central=True))
    return new


def generate_tileset(system: SubstitutionSystem, numbering: GlobalNumbering,
                     networks: NetworkSet, blind_seams: bool = False) -> Tileset:
    """Least fixpoint of the three construction steps, canonically ordered.

    `blind_seams=True` is a diagnostic negative control: macro-facet members
    stop reporting the parent's facet class and repeat their own macro-index,
    which is exactly the defect the self-simulation check must catch.
    """
    report = validate_system(system)
    if not report.ok:
        raise InvalidSystem(f"system invalid: {sorted(report.codes())}", report)
    for rule in system.rules:
        if rule.rule_id not in networks:
            raise InvalidNetwork(f"rule {rule.rule_id} has no network")
        net_report = validate_network(system, rule, networks[rule.rule_id])
        if not net_report.ok:
            raise InvalidNetwork(
                f"rule {rule.rule_id} network invalid: {sorted(net_report.codes())}"
            )
    port_report = check_port_condition(system, networks)
    if not port_report.ok:
        raise InvalidNetwork(f"port condition fails: {sorted(port_report.codes())}")

    layout = build_layout(numbering, networks)
    tiles: set[DecoratedTile] = set(decorate_base(layout, blind_seams))
    while True:
        new = decorate_network(layout, tiles, blind_seams)
        new |= derive_central(layout, tiles)
        new -= tiles
        if not new:
            break
        tiles |= new

    ordered = sorted(tiles, key=DecoratedTile.sort_key)
    provenance = tuple(_provenance_of(layout, t) for t in ordered)
    result = Tileset(tuple(ordered), provenance)
    _check_step1(layout, result)
    params = params_from_system(system, numbering, networks)
    if params.p >= params.r:  # else the first-network bound is undefined
        exact_count(result, params)  # raises BoundViolated above the bound
    return result


def _provenance_of(layout: Layout, tile: DecoratedTile) -> str:
    if tile.base in layout.central_cells:
        return PROVENANCE_CENTRAL
    if tile.base in layout.off_network:
        return PROVENANCE_BASE
    return PROVENANCE_NETWORK


def _check_step1(layout: Layout, tileset: Tileset) -> None:
    """Every facet of every closure tile is defined and carries the facet's
    fixed macro-index."""
    for tile in tileset:
        for k, dec in enumerate(tile.triples, start=1):
            if dec is UNDEFINED:
                raise TilesubError(f"T{tile.base} facet {k}: closure tile is undefined")
            fixed = layout.nsigma[(tile.base, k)]
            if dec.f != fixed:
                raise TilesubError(
                    f"T{tile.base} facet {k}: macro-index {dec.f.render()} "
                    f"is not the fixed {fixed.render()}"
                )

