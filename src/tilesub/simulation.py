"""Macro-tile enumeration, the self-simulation map, and the hierarchy.

`enumerate_macro_tiles` lists every way a rule's template can be filled with
tiles from the tileset so that all internal facets match and the non-central
cells agree on a parent index. It runs on `_search`, the one key-indexed,
iterative backtracking search of the package, which the grid assembler also
uses to fill patches. `phi` folds such an assembly back onto a
single decorated parent tile; `verify_self_simulation` checks exhaustively
that the tileset and its assemblies behave identically through `phi`. The
steps below the public entry points read every per-tile and per-seam fact
from the `tileset.Layout`.

`hierarchy_decorate` builds the finite-depth telescope of images with the
distinguished UNDEFINED decoration confined to the networks of every level,
and `quotient_hierarchy` / `quotient_preimage` collapse a decomposed patch
one level up.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

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
    DecoratedTile,
    DecorationTriple,
    FacetDecoration,
    Layout,
    Tileset,
    UNDEFINED,
    _steps13,
    build_layout,
)


@dataclass(frozen=True)
class MacroTileInstance:
    """One decorated filling of a rule's template: all internal facets match
    and every non-central cell carries the same parent index."""

    rule_id: str
    cells: tuple[str, ...]
    tiles: tuple[DecoratedTile, ...]
    parent_index: int
    central_tile: DecoratedTile


_EXHAUSTED = object()


def _search(cells: Sequence[tuple[Iterable[Any], Callable, Callable]]
            ) -> Iterator[tuple[Any, ...]]:
    """Every way to pick one candidate per cell such that each candidate's
    key equals the key wanted by the candidates placed before it.

    `cells` lists, per cell, a candidate pool in canonical order, the key
    read off a candidate and the key wanted by the placed prefix (a list).
    Each pool is grouped by key once, so a placement is one dict lookup;
    solutions come out in lexicographic pool order. The backtracking keeps
    its own stack, so recursion depth does not bound the number of cells.
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
    placed: list[Any] = []
    stack = [iter(groups[0].get(wants[0](placed), ()))]
    while stack:
        candidate = next(stack[-1], _EXHAUSTED)
        if candidate is _EXHAUSTED:
            stack.pop()
            if placed:
                placed.pop()
            continue
        placed.append(candidate)
        depth = len(placed)
        if depth == len(cells):
            yield tuple(placed)
            placed.pop()
        else:
            stack.append(iter(groups[depth].get(wants[depth](placed), ())))


def _seam_keys(seams: Sequence[tuple[int, int, int]]) -> tuple[Callable, Callable]:
    """The key and wanted key of a cell whose facet k must carry the
    decoration of facet k2 of placed cell i, for each (k, i, k2) in
    `seams`."""
    return (lambda tile: tuple([tile.triples[k - 1] for k, _, _ in seams]),
            lambda placed: tuple([placed[i].triples[k2 - 1] for _, i, k2 in seams]))


def enumerate_macro_tiles(tau: Tileset, system: SubstitutionSystem,
                          numbering: GlobalNumbering, networks: NetworkSet
                          ) -> tuple[MacroTileInstance, ...]:
    """Every filling of each rule's template by tiles of `tau` whose internal
    facets match and whose non-central cells read one parent index.

    A cell's candidates are keyed by their decorations on all facets paired
    with earlier template cells and, once an earlier cell has fixed it, by
    the parent they read. Instances come out rule by rule, in lexicographic
    order of the tiles' canonical positions in `tau`, cells taken in
    template order.
    """
    layout = build_layout(numbering, networks)
    return tuple(
        inst for rule in system.rules for inst in _enumerate_rule(tau, layout, rule)
    )


def _enumerate_rule(tau: Tileset, layout: Layout, rule: Rule) -> Iterator[MacroTileInstance]:
    numbering = layout.numbering
    cells = rule.template.cell_ids()
    pos = rule.template.position
    pools: dict[str, list[DecoratedTile]] = {c: [] for c in cells}
    for tile in tau:
        rule_id, cell = numbering.base_of(tile.base)
        if rule_id == rule.rule_id:
            pools[cell].append(tile)
    # Seams binding each cell to earlier cells, as `_seam_keys` reads them.
    back: dict[str, list[tuple[int, int, int]]] = {c: [] for c in cells}
    for (ca, ka), (cb, kb) in rule.template.internal_pairings:
        if pos[ca] < pos[cb]:
            back[cb].append((kb, pos[ca], ka))
        else:
            back[ca].append((ka, pos[cb], kb))
    # The facet each non-central cell reads its parent index from.
    reads = {
        i: ks[0] for i, c in enumerate(cells)
        if (ks := layout.parent_facets.get(numbering.tile_index(rule.rule_id, c)))
    }
    if not reads:
        raise TilesubError(f"rule {rule.rule_id}: no cell of an instance reads its parent")
    first, k_first = min(reads.items())

    def keys(i: int, cell: str) -> tuple[Callable, Callable]:
        key, want = _seam_keys(back[cell])
        if i not in reads or i == first:
            return key, want
        k = reads[i]
        # Every later reader repeats the parent the first reader fixed.
        return (lambda tile: (*key(tile), tile.triples[k - 1].j),
                lambda placed: (*want(placed), placed[first].triples[k_first - 1].j))

    center = pos[layout.networks[rule.rule_id].center]
    for tiles in _search([(pools[c], *keys(i, c)) for i, c in enumerate(cells)]):
        parent = tiles[first].triples[k_first - 1].j
        yield MacroTileInstance(rule.rule_id, cells, tiles, parent, tiles[center])


def phi(layout: Layout, instance: MacroTileInstance) -> DecoratedTile:
    """Fold an assembly onto its parent tile: facet k of T_{parent} takes the
    parent/neighbor pair found on facet k of the central tile, under the
    parent's own macro-indices."""
    parent = instance.parent_index
    count = layout.facet_count[parent]
    triples = tuple(
        dec if dec is UNDEFINED else DecorationTriple(layout.nsigma[(parent, k)], dec.j, dec.g)
        for k, dec in enumerate(instance.central_tile.triples[:count], start=1)
    )
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


def verify_self_simulation(tau: Tileset, system: SubstitutionSystem,
                           numbering: GlobalNumbering, networks: NetworkSet,
                           instances: tuple[MacroTileInstance, ...]) -> SimulationReport:
    """Check the self-simulation conditions exhaustively at template scale,
    over `instances`, the enumeration `enumerate_macro_tiles` gives for `tau`.

    Condition (1): every assembly projects to its rule's template and its
    image under phi to the rule's parent. The image must also be a tileset
    member. Condition (3): across every macro-adjacency entry, two
    assemblies' macro-facets agree exactly when their phi images' facets do;
    the biconditional is checked as an exact logical equivalence over the
    enumeration. Condition (2) quantifies over complete tilings and is only
    evidenced at patch scale, never claimed proven.
    """
    layout = build_layout(numbering, networks)
    if not instances:
        raise NoMacroTiles("the tileset admits no macro-tile")
    failures: list[str] = []

    cond1 = True
    phi_ok = True
    images: dict[int, DecoratedTile] = {}
    by_rule: dict[str, list[int]] = {}
    for idx, inst in enumerate(instances):
        by_rule.setdefault(inst.rule_id, []).append(idx)
        rule = system.rule(inst.rule_id)
        expected = tuple(p for _, p in rule.template.cells)
        got = tuple([layout.prototype_name[t.base] for t in inst.tiles])
        image = phi(layout, inst)
        images[idx] = image
        if got != expected or layout.prototype_name[image.base] != rule.parent:
            cond1 = False
            failures.append(f"instance {idx}: projection mismatch")
        if image not in tau:
            phi_ok = False
            failures.append(f"instance {idx}: phi image not in tileset")

    def seam_keys(rule_id: str, members) -> dict[int, tuple]:
        """Each instance of the rule, read along the given facet slots."""
        pos = system.rule(rule_id).template.position
        at = [(pos[c], k - 1) for c, k in members]
        return {
            idx: tuple([instances[idx].tiles[i].triples[k] for i, k in at])
            for idx in by_rule.get(rule_id, ())
        }

    cond3 = True
    for ((rid_a, a), (rid_b, b)), seam in layout.seams.items():
        side_key_a = seam_keys(rid_a, [sa for sa, _ in seam])
        side_key_b = seam_keys(rid_b, [sb for _, sb in seam])
        phi_key_a = {idx: images[idx].triples[a - 1] for idx in side_key_a}
        phi_key_b = {idx: images[idx].triples[b - 1] for idx in side_key_b}
        label = f"({rid_a},{a})~({rid_b},{b})"
        if not _biconditional_holds(side_key_a, phi_key_a, side_key_b, phi_key_b):
            cond3 = False
            failures.append(f"condition3 fails across {label}")

    return SimulationReport(len(instances), cond1, phi_ok, cond3, failures)


def _biconditional_holds(side_a, phi_a, side_b, phi_b) -> bool:
    """[side_a(Q) == side_b(Q')] <=> [phi_a(Q) == phi_b(Q')] over all pairs.

    Equivalent finite check: on shared side keys the phi keys must agree and
    be unique, and on shared phi keys the side keys must agree and be unique.
    """
    sides_to_phi_a: dict[Any, set] = {}
    sides_to_phi_b: dict[Any, set] = {}
    phi_to_sides_a: dict[Any, set] = {}
    phi_to_sides_b: dict[Any, set] = {}
    for idx, s in side_a.items():
        sides_to_phi_a.setdefault(s, set()).add(phi_a[idx])
        phi_to_sides_a.setdefault(phi_a[idx], set()).add(s)
    for idx, s in side_b.items():
        sides_to_phi_b.setdefault(s, set()).add(phi_b[idx])
        phi_to_sides_b.setdefault(phi_b[idx], set()).add(s)
    for s in sides_to_phi_a.keys() & sides_to_phi_b.keys():
        if len(sides_to_phi_a[s] | sides_to_phi_b[s]) != 1:
            return False
    for p in phi_to_sides_a.keys() & phi_to_sides_b.keys():
        if len(phi_to_sides_a[p] | phi_to_sides_b[p]) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Hierarchy

Address = tuple[str, ...]
Slot = tuple[Address, int]


@dataclass
class LevelPatch:
    """One level of the hierarchy: cells addressed by their expansion path,
    the facet pairings gluing them, and per-slot decorations. `level` counts
    from the bottom (0 = finest); it is positional metadata and not part of
    patch equality."""

    level: int = field(compare=False)
    cells: tuple[Address, ...]
    rule_of: dict[Address, str]
    base_of: dict[Address, int]
    parent_of: dict[Address, int]
    pairs: tuple[tuple[Slot, Slot], ...]
    decoration: dict[Slot, FacetDecoration]
    undefined_from: dict[Slot, int]

    def matching_report(self) -> ValidationReport:
        report = ValidationReport()
        for sa, sb in self.pairs:
            if self.decoration[sa] != self.decoration[sb]:
                report.add("SeamMismatch", f"{sa} vs {sb}")
        return report


@dataclass
class HierarchyPatch:
    seed_rule: str
    depth: int
    top_parent: int
    levels: tuple[LevelPatch, ...]  # levels[0] is the bottom

    @property
    def bottom(self) -> LevelPatch:
        return self.levels[0]


def _sorted_pairs(pairs: Iterable[tuple[Slot, Slot]]) -> tuple[tuple[Slot, Slot], ...]:
    """The distinct pairs, each with its smaller slot first, in ascending
    order.

    One comparison orients a pair. `dict.fromkeys` drops duplicates but keeps
    generation order, and the levels generate their pairs in long ascending
    runs, which the final sort merges in near-linear time.
    """
    return tuple(sorted(dict.fromkeys((a, b) if a <= b else (b, a) for a, b in pairs)))


def hierarchy_decorate(system: SubstitutionSystem, numbering: GlobalNumbering,
                       networks: NetworkSet, seed_rule: str, depth: int,
                       top_parent: int | None = None) -> HierarchyPatch:
    """Expand the seed rule `depth` times and decorate every level.

    Every level is built by `_expand_level` and then `_decorate_level`. The
    top level expands the one block `((), top_parent, seed)`; every deeper
    level expands the cells of the level above, each by the first rule of
    its prototype. Each level's tiles carry the base decorations with the
    parent taken from the level above; UNDEFINED sits on every port and
    branch-crossed facet of every level's networks, blown down through the
    gluing so the bottom patch shows the whole stack of coarser and coarser
    grids. The parent of the topmost expansion is a free choice
    (`top_parent`, smallest eligible index by default) since nothing above
    it exists to fix one; it must have the seed rule's parent prototype.
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

    blocks: list[tuple[Address, int, Rule]] = [((), top_parent, seed)]
    pairs: tuple[tuple[Slot, Slot], ...] = ()
    undefined_from: dict[Slot, int] = {}
    levels: list[LevelPatch] = []
    rows: dict[tuple[int, int, str, str], tuple[FacetDecoration, ...]] = {}
    for level_no in reversed(range(depth)):
        level = _decorate_level(
            layout, rows, level_no, *_expand_level(layout, blocks, pairs, undefined_from)
        )
        levels.append(level)
        if level_no:
            blocks = []
            for addr in level.cells:
                j = level.base_of[addr]
                proto = layout.prototype_name[j]
                rule = layout.rule_for_prototype.get(proto)
                if rule is None:
                    raise InconsistentGluing(f"no rule expands prototype {proto}")
                blocks.append((addr, j, rule))
            pairs, undefined_from = level.pairs, level.undefined_from
    levels.reverse()
    return HierarchyPatch(seed_rule, depth, top_parent, tuple(levels))


def _decorate_level(layout: Layout, rows, level_no, cells, rule_of, base_of, parent_of,
                    pairs, inherited) -> LevelPatch:
    """Decorate one level's slots: UNDEFINED on the cell's own network
    slots (origin 0) and on the slots `inherited` from the level above,
    `_steps13` of the cell's tile and parent everywhere else. This is the
    only place that decorates a level: every level of a hierarchy and the
    quotient of its bottom go through it.

    `rows` memoises, across the levels of one call, the row of each
    (tile, parent, rule, cell): per facet the `_steps13` triple, or UNDEFINED
    where the slot is native-undefined. So `_steps13` runs once per distinct
    tile and parent, and only the `inherited` test runs per slot.
    """
    decoration: dict[Slot, FacetDecoration] = {}
    undefined_from: dict[Slot, int] = {}
    for addr in cells:
        j0, parent, rule_id, cell = base_of[addr], parent_of[addr], rule_of[addr], addr[-1]
        key = (j0, parent, rule_id, cell)
        row = rows.get(key)
        if row is None:
            local = layout.native_undefined[rule_id]
            row = rows[key] = tuple(
                UNDEFINED if (cell, k) in local else dec
                for k, dec in enumerate(_steps13(layout, j0, parent), start=1)
            )
        for k, dec in enumerate(row, start=1):
            slot = (addr, k)
            if dec is UNDEFINED:
                decoration[slot] = UNDEFINED
                undefined_from[slot] = 0
            elif slot in inherited:
                decoration[slot] = UNDEFINED
                undefined_from[slot] = inherited[slot]
            else:
                decoration[slot] = dec
    return LevelPatch(
        level=level_no,
        cells=tuple(sorted(cells)),
        rule_of=rule_of,
        base_of=base_of,
        parent_of=parent_of,
        pairs=_sorted_pairs(pairs),
        decoration=decoration,
        undefined_from=undefined_from,
    )


def _expand_level(layout: Layout, blocks: Sequence[tuple[Address, int, Rule]],
                  pairs: Sequence[tuple[Slot, Slot]], undefined_from: dict[Slot, int]):
    """Blow each block `(address, tile, rule)` up by one application of
    its rule, gluing the blocks along macro-facets via the layout's seams.

    `pairs` and `undefined_from` are those of the level the blocks form:
    each pair becomes the member pairs of its seam, and each UNDEFINED slot
    passes down to its members one origin further. Each rule's child cells
    with their tile indices, and its internal pairings oriented and sorted,
    are read off once per call. Blocks come in ascending address order, so
    the internal pairs of all blocks form one ascending run, and the seam
    pairs follow the level's sorted pairs.
    """
    new_cells: list[Address] = []
    rule_of: dict[Address, str] = {}
    base_of: dict[Address, int] = {}
    parent_of: dict[Address, int] = {}
    new_pairs: list[tuple[Slot, Slot]] = []
    expander: dict[Address, Rule] = {}
    children: dict[str, tuple[tuple[str, int], ...]] = {}
    internal: dict[str, tuple[tuple[FacetRef, FacetRef], ...]] = {}
    for addr, j, rule in blocks:
        expander[addr] = rule
        rid = rule.rule_id
        if rid not in children:
            children[rid] = tuple(
                (cell, layout.numbering.tile_index(rid, cell)) for cell, _ in rule.template.cells
            )
            internal[rid] = tuple(sorted(
                (a, b) if a <= b else (b, a) for a, b in rule.template.internal_pairings
            ))
        for cell, j0 in children[rid]:
            sub = addr + (cell,)
            new_cells.append(sub)
            rule_of[sub] = rid
            base_of[sub] = j0
            parent_of[sub] = j
        new_pairs += [
            ((addr + (ca,), ka), (addr + (cb,), kb)) for (ca, ka), (cb, kb) in internal[rid]
        ]
    for (addr_a, a), (addr_b, b) in pairs:
        ra, rb = expander[addr_a].rule_id, expander[addr_b].rule_id
        seam = layout.seams.get(((ra, a), (rb, b)))
        if seam is None:
            raise InconsistentGluing(
                f"no macro-adjacency for ({ra},{a}) ~ ({rb},{b})"
            )
        for (ca, ka), (cb, kb) in seam:
            new_pairs.append(((addr_a + (ca,), ka), (addr_b + (cb,), kb)))
    inherited: dict[Slot, int] = {}
    for (addr, a), origin in undefined_from.items():
        for cm, km in layout.gamma[expander[addr].rule_id][a]:
            inherited[(addr + (cm,), km)] = origin + 1
    return new_cells, rule_of, base_of, parent_of, new_pairs, inherited


def quotient_hierarchy(hpatch: HierarchyPatch, system: SubstitutionSystem,
                       numbering: GlobalNumbering, networks: NetworkSet,
                       ancestor_parent: int | None = None) -> LevelPatch:
    """Collapse the bottom level one step up, using only bottom-level data.

    Blocks are grouped by address prefix; each block's tiles agree on a
    parent index, which recovers the level-above tile. Two blocks are paired
    wherever a bottom pair crosses between them, on the macro-facets its
    slots belong to. A facet of a recovered tile whose whole member seam is
    UNDEFINED is inherited as UNDEFINED one origin closer (never below 0);
    a facet native to the level's networks must be one of them
    (PartialBlock otherwise). The recovered level is then decorated like
    any level, by `_decorate_level` with a memo of its own, so `_steps13`
    runs once per recovered tile index. `ancestor_parent` (the hierarchy's
    own top parent by default) is the only level-above datum the bottom
    cannot carry. It is the parent of every block, so its prototype must be
    the parent of some block's rule (InconsistentGluing otherwise).
    """
    bottom = hpatch.bottom
    if ancestor_parent is None:
        ancestor_parent = hpatch.top_parent
    layout = build_layout(numbering, networks)
    if ancestor_parent not in layout.facet_count:
        raise IndexOutOfRange(f"ancestor parent {ancestor_parent} outside 1..{numbering.n}")
    blocks: dict[Address, list[Address]] = {}
    for addr in bottom.cells:
        if len(addr) < 2:
            raise PartialBlock("bottom level is already the top expansion")
        blocks.setdefault(addr[:-1], []).append(addr)

    base_of: dict[Address, int] = {}
    for prefix, members in blocks.items():
        parents = set()
        for addr in members:
            ks = layout.parent_facets.get(bottom.base_of[addr], ())
            for k in ks:
                dec = bottom.decoration[(addr, k)]
                if dec is not UNDEFINED:
                    parents.add(dec.j)
        if len(parents) != 1:
            raise PartialBlock(f"block {prefix}: parent indices {sorted(parents)}")
        base_of[prefix] = parents.pop()

    rule_of = {prefix: numbering.base_of(j_b)[0] for prefix, j_b in base_of.items()}
    wanted = sorted({system.rule(rule_id).parent for rule_id in rule_of.values()})
    proto = layout.prototype_name[ancestor_parent]
    if proto not in wanted:
        raise InconsistentGluing(
            f"ancestor parent T{ancestor_parent} has prototype {proto}, "
            f"not {' or '.join(wanted)}"
        )

    facet_idx = layout.macro_facet_idx
    pairs: list[tuple[Slot, Slot]] = []
    for (addr_a, ka), (addr_b, kb) in bottom.pairs:
        block_a, block_b = addr_a[:-1], addr_b[:-1]
        if block_a != block_b:
            pairs.append((
                (block_a, facet_idx[(bottom.base_of[addr_a], ka)]),
                (block_b, facet_idx[(bottom.base_of[addr_b], kb)]),
            ))

    inherited: dict[Slot, int] = {}
    for prefix, j_b in base_of.items():
        rule_id, cell = numbering.base_of(j_b)
        gamma = layout.gamma[bottom.rule_of[blocks[prefix][0]]]
        native = layout.native_undefined[rule_id]
        for a in range(1, layout.facet_count[j_b] + 1):
            members = [(prefix + (cm,), km) for cm, km in gamma[a]]
            if all(bottom.decoration[m] is UNDEFINED for m in members):
                origin = max(bottom.undefined_from[m] for m in members)
                inherited[(prefix, a)] = max(0, origin - 1)
            elif (cell, a) in native:
                raise PartialBlock(f"block {prefix}: facet {a} should be undefined")
    parent_of = {prefix: ancestor_parent for prefix in base_of}
    return _decorate_level(
        layout, {}, bottom.level + 1, list(base_of), rule_of, base_of, parent_of,
        pairs, inherited,
    )


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
    for bid, node in nodes.items():
        if node not in tau:
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
