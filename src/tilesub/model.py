"""Combinatorial substitution systems.

A substitution is a finite set of rules, each blowing a parent prototype up to
a macro-tile template. Everything is purely combinatorial: a tile is known
only by its facet structure, adjacency is a set of facet pairings, and no
coordinates are ever stored. All values are immutable after construction and
every operation is a pure function, so concurrent use is safe.

Facets carry an orientation sign; two facets may only be glued with opposite
signs. Facet indices are 1-based throughout.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from .errors import IndexOutOfRange, InvalidSystem

ORIENT_PLUS = "+"
ORIENT_MINUS = "-"

# The square facet convention, the only geometry the square-grid layers
# assume: a unit square's facets S, N, W, E are 1-4, with these orientations.
S, N, W, E = 1, 2, 3, 4
FACET_NAMES = {"S": S, "N": N, "W": W, "E": E}
SQUARE_ORIENTATIONS = (ORIENT_MINUS, ORIENT_PLUS, ORIENT_MINUS, ORIENT_PLUS)

# A facet slot: (cell id, facet index). A pairing glues two slots.
FacetRef = tuple[str, int]
Pairing = tuple[FacetRef, FacetRef]


def make_pairing(a: FacetRef, b: FacetRef) -> Pairing:
    """Canonical unordered pairing of two facet slots."""
    return (a, b) if a <= b else (b, a)


_KIND_INTERNAL = 0
_KIND_PORT = 1
_KIND_MACRO = 2
_KIND_BOUNDARY = 3
_KIND_RENDER = {_KIND_PORT: "p", _KIND_MACRO: "m", _KIND_BOUNDARY: "b"}


class _FacetClassFields(NamedTuple):
    kind: int
    index: int = 0


class FacetClass(_FacetClassFields):
    """What a facet slot is: internal facet f_i, port, macro-facet member, or
    plain boundary.

    A plain `(kind, index)` tuple underneath, so it hashes and compares in C
    and equals the tuple `(kind, index)`. Ordering is tuple order, which is
    the canonical dump order. (A `NamedTuple` body cannot override
    `__new__`, hence the subclass.)"""

    __slots__ = ()

    def __new__(cls, kind: int, index: int = 0):
        if kind == _KIND_INTERNAL and index < 1:
            raise ValueError("internal facet class requires a positive index")
        return super().__new__(cls, kind, index)

    @property
    def is_internal(self) -> bool:
        return self.kind == _KIND_INTERNAL

    def render(self) -> str:
        if self.kind == _KIND_INTERNAL:
            return f"f{self.index}"
        return _KIND_RENDER[self.kind]

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"FacetClass({self.render()})"


def internal(index: int) -> FacetClass:
    return FacetClass(_KIND_INTERNAL, index)


PORT = FacetClass(_KIND_PORT)
MACRO_FACET = FacetClass(_KIND_MACRO)
BOUNDARY = FacetClass(_KIND_BOUNDARY)


@dataclass(frozen=True)
class Prototype:
    """An abstract tile: a facet count and one orientation sign per facet."""

    name: str
    facet_count: int
    orientations: tuple[str, ...]

    def __post_init__(self):
        if self.facet_count < 1:
            raise ValueError(f"prototype {self.name}: facet_count must be >= 1")
        if len(self.orientations) != self.facet_count:
            raise ValueError(
                f"prototype {self.name}: {len(self.orientations)} orientations "
                f"for {self.facet_count} facets"
            )
        if any(o not in (ORIENT_PLUS, ORIENT_MINUS) for o in self.orientations):
            raise ValueError(f"prototype {self.name}: orientations must be + or -")

    def orientation(self, k: int) -> str:
        return self.orientations[k - 1]


@dataclass(frozen=True)
class MacroTileTemplate:
    """A finite connected tiling: cells plus the facet pairings gluing them.

    Cells are (cell id, prototype name) in declaration order; the order fixes
    the tile numbering. External facets are derived, not stored: every slot
    not in a pairing is external. Pairings keep declaration order, which fixes
    the internal-facet numbering.
    """

    cells: tuple[tuple[str, str], ...]
    internal_pairings: tuple[Pairing, ...]

    def cell_ids(self) -> tuple[str, ...]:
        return tuple(c for c, _ in self.cells)

    def prototype_name(self, cell: str) -> str:
        return self._prototype_by_cell[cell]

    @cached_property
    def _prototype_by_cell(self) -> dict[str, str]:
        # Built in reverse so the first declaration of a repeated id wins.
        return dict(reversed(self.cells))

    @cached_property
    def position(self) -> dict[str, int]:
        """Cell id -> its 0-based position in declaration order."""
        return {c: i for i, c in enumerate(self.cell_ids())}

    @cached_property
    def paired_slots(self) -> dict[FacetRef, Pairing]:
        """Each paired slot -> the pairing it belongs to."""
        return {slot: pairing for pairing in self.internal_pairings for slot in pairing}

    @cached_property
    def dual_masks(self) -> tuple[int, ...]:
        """Simple dual graph of the template on cell positions: position ->
        bitmask of the adjacent positions. A repeated cell id sits at its
        last position, so its earlier positions have no neighbours."""
        pos = self.position
        masks = [0] * len(self.cells)
        for (ca, _), (cb, _) in self.internal_pairings:
            if ca != cb:
                masks[pos[ca]] |= 1 << pos[cb]
                masks[pos[cb]] |= 1 << pos[ca]
        return tuple(masks)


@dataclass(frozen=True)
class Rule:
    """One substitution rule: parent prototype, template, and the gamma map
    sending each parent facet to an ordered macro-facet (sequence of external
    slots). Macro-facet members are ordered so adjacency bijections can be
    given positionally."""

    rule_id: str
    parent: str
    template: MacroTileTemplate
    gamma: tuple[tuple[int, tuple[FacetRef, ...]], ...]

    def gamma_map(self) -> dict[int, tuple[FacetRef, ...]]:
        return dict(self.gamma)


@dataclass(frozen=True)
class MacroAdjacency:
    """How macro-facet (rule a, k) may meet macro-facet (rule b, l): a
    positional bijection between the two member sequences (1-based)."""

    side_a: tuple[str, int]
    side_b: tuple[str, int]
    mapping: tuple[tuple[int, int], ...]

    def canonical(self) -> "MacroAdjacency":
        if self.side_a <= self.side_b:
            return MacroAdjacency(self.side_a, self.side_b, tuple(sorted(self.mapping)))
        inv = tuple(sorted((b, a) for a, b in self.mapping))
        return MacroAdjacency(self.side_b, self.side_a, inv)


@dataclass(frozen=True)
class SubstitutionSystem:
    """A finite set of rules plus the declared consistency flag and the table
    of macro-facet adjacencies. Consistency is an input: the artifact never
    attempts to decide it."""

    prototypes: tuple[Prototype, ...]
    rules: tuple[Rule, ...]
    consistent: bool = True
    macro_adjacency: tuple[MacroAdjacency, ...] = ()

    def prototype(self, name: str) -> Prototype:
        return self._prototype_by_name[name]

    def rule(self, rule_id: str) -> Rule:
        return self._rule_by_id[rule_id]

    # Lookup tables are built once per instance. They are not fields, so
    # equality and hashing still compare the declared data only. Each is
    # built in reverse so the first declaration of a repeated name wins.
    @cached_property
    def _prototype_by_name(self) -> dict[str, Prototype]:
        return {p.name: p for p in reversed(self.prototypes)}

    @cached_property
    def _rule_by_id(self) -> dict[str, Rule]:
        return {r.rule_id: r for r in reversed(self.rules)}

    def cell_prototype(self, rule: Rule, cell: str) -> Prototype:
        return self.prototype(rule.template.prototype_name(cell))

    def slots(self, rule: Rule) -> Iterator[FacetRef]:
        for cell, proto_name in rule.template.cells:
            proto = self.prototype(proto_name)
            for k in range(1, proto.facet_count + 1):
                yield (cell, k)

    def external_slots(self, rule: Rule) -> tuple[FacetRef, ...]:
        return tuple(s for s in self.slots(rule) if s not in rule.template.paired_slots)

    def slot_orientation(self, rule: Rule, slot: FacetRef) -> str:
        cell, k = slot
        return self.cell_prototype(rule, cell).orientation(k)


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def render(self) -> str:
        return f"VIOLATION {self.code}: {self.detail}"


@dataclass
class ValidationReport:
    """Collected violations (empty means valid) plus free-form notes."""

    entries: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.entries

    def add(self, code: str, detail: str) -> None:
        self.entries.append(Violation(code, detail))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def codes(self) -> set[str]:
        return {v.code for v in self.entries}

    def merge(self, other: "ValidationReport") -> None:
        self.entries.extend(other.entries)
        self.notes.extend(other.notes)

    def render(self) -> str:
        lines = [v.render() for v in self.entries]
        lines.extend(f"NOTE {n}" for n in self.notes)
        lines.append(f"result={'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _components(adj: Sequence[int], cells: int) -> list[int]:
    """Connected components, as bitmasks, of the graph `adj` (position ->
    neighbour bitmask) restricted to the positions set in `cells`, in order
    of their lowest position."""
    comps = []
    while cells:
        comp = frontier = cells & -cells
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                reach |= adj[bit.bit_length() - 1]
                frontier ^= bit
            frontier = reach & cells & ~comp
            comp |= frontier
        cells &= ~comp
        comps.append(comp)
    return comps


def validate_system(system: SubstitutionSystem) -> ValidationReport:
    """Structural validation of a substitution system.

    Violations, not exceptions: template slot coverage and connectivity,
    orientation opposition on pairings, gamma disjointness/nonemptiness, and
    macro-adjacency well-formedness.
    """
    report = ValidationReport()
    # A repeated name resolves to its first declaration everywhere but the
    # numbering, which numbers every rule's cells.
    for code, names in (("DuplicatePrototype", [p.name for p in system.prototypes]),
                        ("DuplicateRule", [r.rule_id for r in system.rules])):
        for name in dict.fromkeys(names):
            if names.count(name) > 1:
                report.add(code, f"{name}: declared {names.count(name)} times")
    proto_names = {p.name for p in system.prototypes}
    for rule in system.rules:
        rid = rule.rule_id
        if rule.parent not in proto_names:
            report.add("UnknownPrototype", f"{rid}: parent {rule.parent}")
            continue
        cells = rule.template.cell_ids()
        if len(set(cells)) != len(cells):
            report.add("DuplicateCell", f"{rid}: repeated cell id")
        bad = False
        for cell, pname in rule.template.cells:
            if pname not in proto_names:
                report.add("UnknownPrototype", f"{rid}: cell {cell} uses {pname}")
                bad = True
        if bad:
            continue
        slot_set = set(system.slots(rule))
        seen: set[FacetRef] = set()
        stray = False  # a pairing names a cell the template lacks
        for pairing in rule.template.internal_pairings:
            for slot in pairing:
                if slot not in slot_set:
                    report.add("SlotInvalid", f"{rid}: pairing uses unknown slot {slot}")
                    stray = stray or slot[0] not in rule.template.position
                elif slot in seen:
                    report.add("SlotConflict", f"{rid}: slot {slot} paired twice")
                seen.add(slot)
            a, b = pairing
            if a == b:
                report.add("SlotConflict", f"{rid}: slot {a} paired with itself")
            elif a in slot_set and b in slot_set:
                if system.slot_orientation(rule, a) == system.slot_orientation(rule, b):
                    report.add(
                        "OrientationClash",
                        f"{rid}: pairing {a}--{b} glues equal orientations",
                    )
        whole = (1 << len(cells)) - 1
        if not stray and len(_components(rule.template.dual_masks, whole)) > 1:
            report.add("DisconnectedTemplate", f"{rid}: dual graph is not connected")
        externals = set(system.external_slots(rule))
        parent_proto = system.prototype(rule.parent)
        gamma = rule.gamma_map()
        taken: dict[FacetRef, int] = {}
        for k in range(1, parent_proto.facet_count + 1):
            members = gamma.get(k)
            if not members:
                report.add("GammaMissing", f"{rid}: parent facet {k} has no macro-facet")
                continue
            for slot in members:
                if slot not in externals:
                    report.add("GammaNotExternal", f"{rid}: gamma {k} member {slot}")
                if slot in taken:
                    report.add(
                        "GammaOverlap",
                        f"{rid}: slot {slot} in macro-facets {taken[slot]} and {k}",
                    )
                taken[slot] = k
        for k in gamma:
            if not 1 <= k <= parent_proto.facet_count:
                report.add("GammaRange", f"{rid}: gamma facet {k} out of range")
    _validate_adjacency(system, report)
    return report


def _orientation(system: SubstitutionSystem, rule: Rule, slot: FacetRef) -> str | None:
    """The orientation of `slot`, or None where it is no facet of a template
    cell with a known prototype. `validate_system` reports such a gamma
    member already (GammaNotExternal, or UnknownPrototype for its cell), so
    the adjacency check skips it."""
    cell, k = slot
    try:
        proto = system.cell_prototype(rule, cell)
    except KeyError:
        return None
    return proto.orientation(k) if 1 <= k <= proto.facet_count else None


def _validate_adjacency(system: SubstitutionSystem, report: ValidationReport) -> None:
    canonical = {e.canonical() for e in system.macro_adjacency}
    if len(canonical) != len(system.macro_adjacency):
        report.add("AdjacencyDuplicate", "macro_adjacency entries are not canonical")
    for entry in system.macro_adjacency:
        try:
            rule_a = system.rule(entry.side_a[0])
            rule_b = system.rule(entry.side_b[0])
        except KeyError as missing:
            report.add("AdjacencyUnknown", f"unknown rule {missing}")
            continue
        ga = rule_a.gamma_map().get(entry.side_a[1])
        gb = rule_b.gamma_map().get(entry.side_b[1])
        if ga is None or gb is None:
            report.add("AdjacencyUnknown", f"{entry.side_a}~{entry.side_b}: no such macro-facet")
            continue
        if len(entry.mapping) != len(ga) or len(entry.mapping) != len(gb):
            report.add(
                "AdjacencyRange",
                f"{entry.side_a}~{entry.side_b}: bijection size mismatch",
            )
            continue
        if {a for a, _ in entry.mapping} != set(range(1, len(ga) + 1)) or {
            b for _, b in entry.mapping
        } != set(range(1, len(gb) + 1)):
            report.add(
                "AdjacencyRange",
                f"{entry.side_a}~{entry.side_b}: bijection is not a bijection",
            )
            continue
        for pa, pb in entry.mapping:
            sa, sb = ga[pa - 1], gb[pb - 1]
            oa, ob = _orientation(system, rule_a, sa), _orientation(system, rule_b, sb)
            if oa is not None and oa == ob:
                report.add(
                    "AdjacencyOrientation",
                    f"{entry.side_a}~{entry.side_b}: {sa} and {sb} share orientation",
                )


@dataclass(frozen=True)
class GlobalNumbering:
    """Global numbering T_1..T_n of cells and f_1..f_m of internal pairings.

    Tiles are ordered by (rule position, cell position); internal facets by
    (rule position, pairing declaration order). The bundled 3x3 document
    declares its pairings so that this reproduces the worked example's
    numbering. Identical systems always number identically.
    """

    system: SubstitutionSystem
    tiles: tuple[tuple[str, str], ...]
    internal_facets: tuple[tuple[str, Pairing], ...]
    n: int
    m: int

    def tile_index(self, rule_id: str, cell: str) -> int:
        return self._tile_lookup[(rule_id, cell)]

    def base_of(self, j: int) -> tuple[str, str]:
        if not 1 <= j <= self.n:
            raise IndexOutOfRange(f"tile index {j} outside 1..{self.n}")
        return self.tiles[j - 1]

    def prototype_of(self, j: int) -> Prototype:
        rule_id, cell = self.base_of(j)
        return self.system.cell_prototype(self.system.rule(rule_id), cell)

    def facet_index(self, rule_id: str, pairing: Pairing) -> int:
        return self._facet_lookup[(rule_id, pairing)]

    @cached_property
    def _tile_lookup(self) -> dict[tuple[str, str], int]:
        return {key: i + 1 for i, key in enumerate(self.tiles)}

    @cached_property
    def _facet_lookup(self) -> dict[tuple[str, Pairing], int]:
        return {key: i + 1 for i, key in enumerate(self.internal_facets)}


def build_numbering(system: SubstitutionSystem) -> GlobalNumbering:
    """Number all cells and internal facets of a validated system."""
    report = validate_system(system)
    if not report.ok:
        raise InvalidSystem(f"system invalid: {sorted(report.codes())}", report)
    tiles = []
    facets = []
    for rule in system.rules:
        tiles.extend((rule.rule_id, cell) for cell in rule.template.cell_ids())
        facets.extend((rule.rule_id, pairing) for pairing in rule.template.internal_pairings)
    return GlobalNumbering(
        system=system,
        tiles=tuple(tiles),
        internal_facets=tuple(facets),
        n=len(tiles),
        m=len(facets),
    )

