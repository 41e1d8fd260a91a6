"""Shared shorthands for building decorations and small systems in tests."""

import re
from dataclasses import dataclass
from importlib import resources

from tilesub.assembler import phase_of
from tilesub.errors import AmbiguousSignature, InconsistentGluing, PartialBlock
from tilesub.model import (  # E, N, S, W: the facet names the tests import from here
    BOUNDARY,
    E,
    MACRO_FACET,
    MacroTileTemplate,
    N,
    PORT,
    Prototype,
    Rule,
    S,
    SQUARE_ORIENTATIONS,
    SubstitutionSystem,
    ValidationReport,
    W,
    internal,
    make_pairing,
)
from tilesub.network import network_slots
from tilesub.tileset import (
    PROVENANCE_BASE,
    PROVENANCE_CENTRAL,
    PROVENANCE_NETWORK,
    UNDEFINED,
    ColumnRenderer,
    DecoratedTile,
    DecorationTriple,
    Tileset,
    _pairs_table,
    _steps13,
    build_layout,
)

SQUARE = Prototype("sq", 4, SQUARE_ORIENTATIONS)


def fc(x):
    """Facet class shorthand: int -> internal, 'p'/'m'/'b' -> special."""
    if isinstance(x, int):
        return internal(x)
    return {"p": PORT, "m": MACRO_FACET, "b": BOUNDARY}[x]


def trip(f, j, g):
    return DecorationTriple(fc(f), j, fc(g))


def domino_rule(rule_id="d1"):
    """Two squares side by side: the smallest connected template."""
    template = MacroTileTemplate(
        cells=(("a", "sq"), ("b", "sq")),
        internal_pairings=(make_pairing(("a", E), ("b", W)),),
    )
    gamma = (
        (S, (("a", S), ("b", S))),
        (N, (("a", N), ("b", N))),
        (W, (("a", W),)),
        (E, (("b", E),)),
    )
    return Rule(rule_id, "sq", template, gamma)


def domino_system(rule=None):
    return SubstitutionSystem(
        prototypes=(SQUARE,),
        rules=(rule or domino_rule(),),
        consistent=True,
        macro_adjacency=(),
    )


def dual_neighbors(template):
    """Oracle for `MacroTileTemplate.dual_masks`: the simple dual graph of a
    template keyed by cell id, cell id -> sorted adjacent ids."""
    adj = {c: set() for c in template.cell_ids()}
    for (ca, _), (cb, _) in template.internal_pairings:
        if ca != cb:
            adj[ca].add(cb)
            adj[cb].add(ca)
    return {c: sorted(ns) for c, ns in adj.items()}


def components_by_flood(cells, neighbors, removed):
    """Oracle for `model._components`: the connected components, as sets of
    cell ids, of the graph `neighbors` (cell id -> adjacent ids, as
    `dual_neighbors` gives) on `cells`, with the `removed` edges (unordered
    pairs of ids) deleted. A plain flood fill over the ids."""
    left = set(cells)
    comps = []
    while left:
        start = left.pop()
        comp = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in neighbors[cur]:
                if nxt in left and frozenset((cur, nxt)) not in removed:
                    left.discard(nxt)
                    comp.add(nxt)
                    stack.append(nxt)
        comps.append(comp)
    return comps


def partial_gamma_3x3_text():
    """The bundled 3x3 spec with its S and N macro-facets cut to their first
    two members, so the external facets c3.S and c9.N belong to no
    macro-facet. The ports stay at position 2, so the spec stays valid."""
    text = resources.files("tilesub.data").joinpath("square3x3.sub").read_text()
    for old, new in (
        ("gamma S : c1.S c2.S c3.S", "gamma S : c1.S c2.S"),
        ("gamma N : c7.N c8.N c9.N", "gamma N : c7.N c8.N"),
        ("macroadj (r1,S) ~ (r1,N) map 1:1 2:2 3:3", "macroadj (r1,S) ~ (r1,N) map 1:1 2:2"),
    ):
        if old not in text:
            raise ValueError(f"bundled 3x3 spec lacks the line {old!r}")
        text = text.replace(old, new)
    return text


def renamed_tworule_text():
    """The bundled `tworule3x3` spec with rule rb's cells c1..c9 renamed
    d1..d9, so that no cell id names a cell of both rules."""
    text = resources.files("tilesub.data").joinpath("tworule3x3.sub").read_text()
    head, rule_rb, tail = text.partition("rule rb parent b\n")
    if not rule_rb:
        raise ValueError("bundled tworule3x3 spec lacks rule rb")
    return head + rule_rb + re.sub(r"\bc([1-9])\b", r"d\1", tail)


def biconditional_by_sets(side_a, phi_a, side_b, phi_b):
    """Oracle for condition 3's one-pass check (`simulation._side` and
    `_biconditional_holds`): [side_a(Q) == side_b(Q')] <=> [phi_a(Q) ==
    phi_b(Q')] over all pairs, each argument mapping an instance to its side
    key or image.

    Equivalent finite check: on shared side keys the phi keys must agree and
    be unique, and on shared phi keys the side keys must agree and be unique.
    """
    sides_to_phi_a = {}
    sides_to_phi_b = {}
    phi_to_sides_a = {}
    phi_to_sides_b = {}
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


def phase_coherence_by_cell(patch, layout):
    """Oracle for `check_phase_coherence`: the same checks, with one
    `phase_of` call per cell and no memo."""
    report = ValidationReport()
    w, h = layout.width, layout.height
    phases = {}
    for pos, tile in sorted(patch.cells.items()):
        try:
            phases[pos] = phase_of(tile, layout)
        except (KeyError, AmbiguousSignature):
            report.note(f"cell {pos}: phase undetermined")
    for (x, y), (cx, cy) in phases.items():
        ep = phases.get((x + 1, y))
        if ep is not None and ep != ((cx + 1) % w, cy):
            report.add("PhaseIncoherent", f"({x},{y})->E: {(cx, cy)} then {ep}")
        np_ = phases.get((x, y + 1))
        if np_ is not None and np_ != (cx, (cy + 1) % h):
            report.add("PhaseIncoherent", f"({x},{y})->N: {(cx, cy)} then {np_}")
    return report


def decompose_by_scan(patch, instances, layout):
    """Oracle for `decompose_macro(wildcard=True)`: each complete block at a
    phase-(0,0) anchor, mapped to the first instance whose every tile has
    the base and every defined decoration of the block's cell at that
    tile's template position (None if no instance does), found by scanning
    every instance."""
    w, h, at = layout.width, layout.height, layout.position_of
    cells = patch.cells  # built on each access
    blocks = {}
    for (ax, ay), tile in cells.items():
        try:
            if phase_of(tile, layout) != (0, 0):
                continue
        except (KeyError, AmbiguousSignature):
            continue
        if any((ax + dx, ay + dy) not in cells for dy in range(h) for dx in range(w)):
            continue
        blocks[(ax, ay)] = next(
            (
                inst for inst in instances
                if all(
                    mine.base == theirs.base
                    and all(d is UNDEFINED or d == e
                            for d, e in zip(mine.triples, theirs.triples))
                    for theirs in inst.tiles
                    for mine in [cells[(ax + at[theirs.base][0], ay + at[theirs.base][1])]]
                )
            ),
            None,
        )
    return blocks


# ---------------------------------------------------------------------------
# Oracle for the flat hierarchy levels: the tuple-address builders that the
# flat tuples replaced, kept as they were. A level is an `AddressedLevel`:
# every per-cell and per-slot fact keyed by expansion path. `address_views`
# projects a flat `simulation.LevelPatch` onto the same fields.


@dataclass
class AddressedLevel:
    level: int
    cells: tuple
    rule_of: dict
    base_of: dict
    parent_of: dict
    pairs: tuple
    decoration: dict
    undefined_from: dict


def address_views(level):
    """The `AddressedLevel` of a flat level: its cells in address order,
    its per-cell and per-slot tuples keyed by address and by (address, k),
    in that order."""
    cells, offset = level.cells, level.offset
    return AddressedLevel(
        level=level.level,
        cells=cells,
        rule_of=dict(level.rule_of),
        base_of=dict(level.base_of),
        parent_of=dict(zip(cells, level.parent)),
        pairs=level.pairs,
        decoration={
            (cells[i], s - offset[i] + 1): level.slot_decoration[s]
            for i in range(len(cells)) for s in range(offset[i], offset[i + 1])
        },
        undefined_from=dict(level.undefined_from),
    )


def _sorted_slot_pairs(pairs):
    return tuple(sorted(dict.fromkeys((a, b) if a <= b else (b, a) for a, b in pairs)))


def addressed_hierarchy(layout, seed, top_parent, depth):
    """The levels of `hierarchy_decorate`, bottom first, for a top parent
    it has already checked."""
    blocks = [((), top_parent, seed)]
    pairs = ()
    undefined_from = {}
    levels = []
    rows = {}
    for level_no in reversed(range(depth)):
        level = _addressed_decorate(
            layout, rows, level_no, *_addressed_expand(layout, blocks, pairs, undefined_from)
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
    return levels


def native_undefined(layout, rule_id):
    """The slots (cell, k) of a rule's template that a hierarchy leaves
    UNDEFINED on its own level: every network slot (ports and both sides
    of branch-crossed pairings, by `network_slots`) and every facet of the
    centre."""
    numbering, net = layout.numbering, layout.networks[rule_id]
    rule = numbering.system.rule(rule_id)
    centre_facets = layout.facet_count[numbering.tile_index(rule_id, net.center)]
    return {slot for _, slots in network_slots(rule, net).values() for slot in slots} | {
        (net.center, k) for k in range(1, centre_facets + 1)
    }


def _addressed_decorate(layout, rows, level_no, cells, rule_of, base_of, parent_of,
                        pairs, inherited):
    decoration = {}
    undefined_from = {}
    for addr in cells:
        j0, parent, rule_id, cell = base_of[addr], parent_of[addr], rule_of[addr], addr[-1]
        key = (j0, parent, rule_id, cell)
        row = rows.get(key)
        if row is None:
            local = native_undefined(layout, rule_id)
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
    return AddressedLevel(
        level=level_no,
        cells=tuple(sorted(cells)),
        rule_of=rule_of,
        base_of=base_of,
        parent_of=parent_of,
        pairs=_sorted_slot_pairs(pairs),
        decoration=decoration,
        undefined_from=undefined_from,
    )


def _addressed_expand(layout, blocks, pairs, undefined_from):
    new_cells = []
    rule_of = {}
    base_of = {}
    parent_of = {}
    new_pairs = []
    expander = {}
    children = {}
    internal = {}
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
    inherited = {}
    for (addr, a), origin in undefined_from.items():
        for cm, km in expander[addr].gamma_map()[a]:
            inherited[(addr + (cm,), km)] = origin + 1
    return new_cells, rule_of, base_of, parent_of, new_pairs, inherited


def addressed_quotient(bottom, above, layout):
    """`quotient_hierarchy` of a hierarchy with the addressed `bottom` and
    the addressed level `above` it, whose parents it takes."""
    numbering = layout.numbering
    blocks = {}
    for addr in bottom.cells:
        if len(addr) < 2:
            raise PartialBlock("bottom level is already the top expansion")
        blocks.setdefault(addr[:-1], []).append(addr)

    base_of = {}
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

    facet_idx = layout.macro_facet_idx
    pairs = []
    for (addr_a, ka), (addr_b, kb) in bottom.pairs:
        block_a, block_b = addr_a[:-1], addr_b[:-1]
        if block_a != block_b:
            pairs.append((
                (block_a, facet_idx[(bottom.base_of[addr_a], ka)]),
                (block_b, facet_idx[(bottom.base_of[addr_b], kb)]),
            ))

    inherited = {}
    for prefix, j_b in base_of.items():
        rule_id, cell = numbering.base_of(j_b)
        gamma = numbering.system.rule(bottom.rule_of[blocks[prefix][0]]).gamma_map()
        native = native_undefined(layout, rule_id)
        for a in range(1, layout.facet_count[j_b] + 1):
            members = [(prefix + (cm,), km) for cm, km in gamma[a]]
            if all(bottom.decoration[m] is UNDEFINED for m in members):
                origin = max(bottom.undefined_from[m] for m in members)
                inherited[(prefix, a)] = max(0, origin - 1)
            elif (cell, a) in native:
                raise PartialBlock(f"block {prefix}: facet {a} should be undefined")
    parent_of = {prefix: above.parent_of[prefix] for prefix in base_of}
    return _addressed_decorate(
        layout, {}, bottom.level + 1, list(base_of), rule_of, base_of, parent_of,
        pairs, inherited,
    )


# ---------------------------------------------------------------------------
# Oracle for the closure: the tile-level semi-naive closure that the
# pair-level one with shared decorations replaced, kept as it was (without
# the step-1 and bound checks, which `close` runs on its own result). Each
# round feeds both steps every tile new since the last round, and every
# step builds fresh decorations.


def tile_level_network(layout, tiles):
    pairs = _pairs_table(tiles)
    new = set()
    for j0, branch_k, slot_ks in layout.network_cells:
        for parent in layout.parents_for[j0]:
            triples = list(_steps13(layout, j0, parent))
            for pj, pg in pairs.get((parent, branch_k), ()):
                for k in slot_ks:
                    triples[k - 1] = DecorationTriple(layout.nsigma[(j0, k)], pj, pg)
                new.add(DecoratedTile(j0, tuple(triples)))
    return new


def tile_level_central(layout, tiles):
    new = set()
    central = set(layout.central_cells)
    for j in layout.central_cells:
        count = layout.facet_count[j]
        heads = tuple(layout.nsigma[(j, k)] for k in range(1, count + 1))
        for tile in tiles:
            if tile.base in central or len(tile.triples) != count:
                continue
            if any(t is UNDEFINED for t in tile.triples):
                continue
            triples = tuple(
                DecorationTriple(heads[i], t.j, t.g) for i, t in enumerate(tile.triples)
            )
            new.add(DecoratedTile(j, triples))
    return new


def tile_level_close(layout):
    """Oracle for `close`: the same tiles, order and provenance."""
    new = {
        DecoratedTile(j0, _steps13(layout, j0, parent))
        for j0 in layout.off_network
        for parent in layout.parents_for[j0]
    }
    tiles = set(new)
    while new:
        new = (tile_level_network(layout, new) | tile_level_central(layout, new)) - tiles
        tiles |= new
    ordered = sorted(tiles)
    provenance = tuple(
        PROVENANCE_CENTRAL if t.base in layout.central_cells
        else PROVENANCE_BASE if t.base in layout.off_network
        else PROVENANCE_NETWORK
        for t in ordered
    )
    return Tileset(tuple(ordered), provenance)


def step4_by_global_sort(tau, numbering, networks):
    """Oracle for `stage_views`' step 4: every network tile's row, then one
    stable sort of all of them by (base, parent, pair)."""
    layout = build_layout(numbering, networks)
    columns = ColumnRenderer()
    slots_of = {j0: ks for j0, _, ks in layout.network_cells}
    rows4 = []
    for tile, prov in zip(tau.tiles, tau.provenance):
        if prov != PROVENANCE_NETWORK:
            continue
        pair_dec = tile.triples[slots_of[tile.base][0] - 1]
        parent_ks = layout.parent_facets[tile.base]
        parent = tile.triples[parent_ks[0] - 1].j if parent_ks else 0
        rows4.append((tile.base, parent, pair_dec, tile))
    rows4.sort(key=lambda r: r[:3])
    lines = [
        f"T{base} parent={parent} pair=({pair.j},{pair.g.render()}) | {columns(tile)}"
        for base, parent, pair, tile in rows4
    ]
    return "\n".join(lines) + "\n"
