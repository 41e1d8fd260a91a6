"""Networks: per-rule stars in the dual graph carrying parent information.

A network is a star subgraph with one branch per macro-facet; the leaf of the
k-th branch owns the k-th port. `validate_network` checks the four connecting
conditions at template scale, for a network a spec declares.
`search_networks` enumerates every valid network of a rule exhaustively and
builds only valid ones, so it checks no candidate after the fact. Both test
residual connectivity with `model._components` on cell-position bitmasks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import MissingNetwork
from .model import (
    FacetRef,
    Pairing,
    Rule,
    SubstitutionSystem,
    ValidationReport,
    _components,
    build_numbering,
)


@dataclass(frozen=True)
class Branch:
    """One branch: the cells walked from the center (center excluded, leaf
    last) and the port facet owned by the leaf."""

    k: int
    path: tuple[str, ...]
    port: FacetRef


@dataclass(frozen=True)
class Network:
    rule_id: str
    center: str
    branches: tuple[Branch, ...]

    def cells(self) -> tuple[str, ...]:
        out = [self.center]
        for branch in self.branches:
            out.extend(branch.path)
        return tuple(out)

    def branch(self, k: int) -> Branch:
        return self._branch_by_k[k]

    @cached_property
    def _branch_by_k(self) -> dict[int, Branch]:
        # Built in reverse so the first branch of a repeated k wins.
        return {b.k: b for b in reversed(self.branches)}


# Networks attached to a system: one per rule id.
NetworkSet = dict[str, Network]


def branch_edges(net: Network) -> list[tuple[int, str, str]]:
    """Dual-graph edges used by the network, as (branch k, cell, cell)."""
    edges = []
    for branch in net.branches:
        prev = net.center
        for cell in branch.path:
            edges.append((branch.k, prev, cell))
            prev = cell
    return edges


def crossed_facets(rule: Rule, net: Network) -> dict[int, tuple[Pairing, ...]]:
    """Internal pairings traversed by each branch. Between multi-adjacent
    cells every shared pairing counts as crossed."""
    out: dict[int, list[Pairing]] = {b.k: [] for b in net.branches}
    for k, ca, cb in branch_edges(net):
        out[k].extend(
            p for p in rule.template.internal_pairings if {p[0][0], p[1][0]} == {ca, cb}
        )
    return {k: tuple(v) for k, v in out.items()}


def network_slots(rule: Rule, net: Network) -> dict[str, tuple[int, tuple[FacetRef, ...]]]:
    """Per non-central network cell: the branch it serves and the facet slots
    written in one stroke by the pair-carrying construction step (its port
    and/or its sides of branch-crossed pairings)."""
    crossed = crossed_facets(rule, net)
    out: dict[str, tuple[int, tuple[FacetRef, ...]]] = {}
    for branch in net.branches:
        for cell in branch.path:
            slots = [
                slot
                for pairing in crossed[branch.k]
                for slot in pairing
                if slot[0] == cell
            ]
            if branch.port[0] == cell:
                slots.append(branch.port)
            out[cell] = (branch.k, tuple(dict.fromkeys(slots)))
    return out


def validate_network(system: SubstitutionSystem, rule: Rule, net: Network) -> ValidationReport:
    """Check the connecting conditions for one rule's network.

    Strong residual reading: deleting the center and the network edges must
    leave a single connected graph; the weak reading (only the cells owning
    non-port macro-facet members need to share a component) is surfaced as a
    note either way.
    """
    report = ValidationReport()
    rid = rule.rule_id
    cells = set(rule.template.cell_ids())
    gamma = rule.gamma_map()
    if net.center not in cells:
        report.add("UnknownCell", f"{rid}: center {net.center} not in template")
        return report
    # The dual graph needs every paired cell (`validate_system` reports the
    # stray slot as SlotInvalid).
    stray = sorted({c for pairing in rule.template.internal_pairings for c, _ in pairing} - cells)
    if stray:
        report.add("UnknownCell", f"{rid}: pairings name cells {stray} not in template")
        return report
    if sorted(b.k for b in net.branches) != sorted(gamma):
        report.add(
            "BranchCount",
            f"{rid}: branches for {sorted(b.k for b in net.branches)}, "
            f"macro-facets are {sorted(gamma)}",
        )
    used: dict[str, int] = {}
    pos = rule.template.position
    adj = list(rule.template.dual_masks)
    for branch in net.branches:
        if not branch.path:
            report.add("EmptyBranch", f"{rid}: branch {branch.k} has no cells")
            continue
        prev = net.center
        for cell in branch.path:
            if cell not in cells:
                report.add("UnknownCell", f"{rid}: branch {branch.k} cell {cell}")
                break
            if cell == net.center:
                report.add("StarShape", f"{rid}: branch {branch.k} revisits the center")
            if cell in used:
                report.add(
                    "StarShape",
                    f"{rid}: cell {cell} on branches {used[cell]} and {branch.k}",
                )
            used[cell] = branch.k
            if not adj[pos[prev]] >> pos[cell] & 1:
                report.add(
                    "PathBroken", f"{rid}: branch {branch.k} jumps {prev} -> {cell}"
                )
            prev = cell
        leaf = branch.path[-1] if branch.path else None
        members = gamma.get(branch.k, ())
        if branch.port not in members:
            report.add(
                "PortMembership",
                f"{rid}: port {branch.port} not in macro-facet {branch.k}",
            )
        if leaf is not None and branch.port[0] != leaf:
            report.add("PortOwnership", f"{rid}: port {branch.port} not on leaf {leaf}")
    ports = {b.port for b in net.branches}
    for k, members in gamma.items():
        non_port = [s for s in members if s not in ports]
        if not non_port:
            report.add("NoNonPortFacet", f"{rid}: macro-facet {k} is all ports")
        foreign = [
            b.port for b in net.branches if b.k != k and b.port in members
        ]
        if foreign:
            report.add(
                "PortForeign",
                f"{rid}: macro-facet {k} contains other branches' ports {foreign}",
            )
    external = set(system.external_slots(rule))
    if any(slot[0] == net.center for slot in external):
        report.add("CenterNotInterior", f"{rid}: center {net.center} has external facets")
    for _, a, b in branch_edges(net):
        if a in pos and b in pos:  # an unknown cell is reported above
            adj[pos[a]] &= ~(1 << pos[b])
            adj[pos[b]] &= ~(1 << pos[a])
    comps = _components(adj, sum(1 << p for c, p in pos.items() if c != net.center))
    macro_cells = {
        slot[0]
        for k, members in gamma.items()
        for slot in members
        if slot not in ports
    }
    weak_ok = not macro_cells or any(
        all(c in pos and comp >> pos[c] & 1 for c in macro_cells) for comp in comps
    )
    if len(comps) != 1:
        report.add(
            "ResidualDisconnected",
            f"{rid}: residual graph has {len(comps)} components",
        )
    report.note(f"{rid}: residual_weak={'connected' if weak_ok else 'disconnected'}")
    return report


def check_port_condition(system: SubstitutionSystem, networks: NetworkSet) -> ValidationReport:
    """Across every macro-adjacency entry, ports must meet ports.

    The condition is symmetric, so each declared entry is checked in its
    declared direction only and a misaligned position is reported once.
    Raises MissingNetwork when a rule has no network. An empty adjacency
    table is itself a violation: macro-tiles could never meet.
    """
    report = ValidationReport()
    for rule in system.rules:
        if rule.rule_id not in networks:
            raise MissingNetwork(f"rule {rule.rule_id} has no network")
    if not system.macro_adjacency:
        report.add("NoAdjacency", "macro_adjacency table is empty")
        return report
    for entry in system.macro_adjacency:
        (rid_a, ka), (rid_b, kb) = entry.side_a, entry.side_b
        rule_a, rule_b = system.rule(rid_a), system.rule(rid_b)
        ga = rule_a.gamma_map()[ka]
        gb = rule_b.gamma_map()[kb]
        port_a = networks[rid_a].branch(ka).port
        port_b = networks[rid_b].branch(kb).port
        for pa, pb in entry.mapping:
            sa, sb = ga[pa - 1], gb[pb - 1]
            if (sa == port_a) != (sb == port_b):
                report.add(
                    "PortMisaligned",
                    f"({rid_a},{ka})~({rid_b},{kb}): position {pa}:{pb} pairs "
                    f"{'port' if sa == port_a else 'non-port'} with "
                    f"{'port' if sb == port_b else 'non-port'}",
                )
    return report


def search_networks(system: SubstitutionSystem, rule: Rule) -> tuple[Network, ...]:
    """Exhaustively enumerate all valid networks of a rule, in canonical
    order: by center position, then by branch paths in macro-facet order,
    then by ports in macro-facet member order.

    Raises InvalidSystem when `system` fails `validate_system`: the search
    relies on disjoint macro-facets, so a macro-facet holds no port but its
    own and keeps a non-port member exactly when it has two or more members.
    Depth-first over vertex-disjoint path systems from an interior center,
    one branch per macro-facet in ascending order, each ending on a cell
    that owns a member of its macro-facet. The walk visits neighbours in
    sorted cell-id order, so it emits the canonical order unsorted. Each
    step cuts the edge it walks from one list of dual-graph bitmasks and
    restores it on return; cut edges only disconnect the residual graph
    further, so a branch that reaches a port cell with the residual graph
    already disconnected is pruned with every extension of it. The check at
    the last port covers every network edge, so every network built passes
    `validate_network`. Ports constrain nothing else: each complete path
    system emits the product of its leaves' port choices."""
    build_numbering(system)  # raises InvalidSystem if `validate_system` fails
    gamma = rule.gamma_map()
    if any(len(members) < 2 for members in gamma.values()):
        return ()
    ks = sorted(gamma)
    template = rule.template
    ids = template.cell_ids()
    pos = template.position
    adj = list(template.dual_masks)
    neighbors = [sorted((p for p in pos.values() if m >> p & 1), key=ids.__getitem__)
                 for m in adj]
    external = {cell for cell, _ in system.external_slots(rule)}
    # Per branch: each cell owning members of its macro-facet -> those members.
    owned = [{pos[c]: [s for s in gamma[k] if s[0] == c] for c, _ in gamma[k]} for k in ks]
    results: list[Network] = []
    path: list[int] = []  # the built branches' cells, then the current branch's
    branches: list[list[Branch]] = []  # per built branch: one per port choice

    def extend_branch(center, k_pos, taken):
        if k_pos == len(ks):
            results.extend(Network(rule.rule_id, ids[center], b) for b in product(*branches))
            return
        for first in neighbors[center]:
            if not taken >> first & 1:
                walk(center, k_pos, len(path), center, first, taken | 1 << first)

    def walk(center, k_pos, start, prev, cell, taken):
        adj[prev] ^= 1 << cell
        adj[cell] ^= 1 << prev
        path.append(cell)
        choices = owned[k_pos].get(cell)
        if choices is None or len(_components(adj, every ^ 1 << center)) == 1:
            if choices is not None:
                cells = tuple(ids[p] for p in path[start:])
                branches.append([Branch(ks[k_pos], cells, port) for port in choices])
                extend_branch(center, k_pos + 1, taken)
                branches.pop()
            for nxt in neighbors[cell]:
                if not taken >> nxt & 1:
                    walk(center, k_pos, start, cell, nxt, taken | 1 << nxt)
        path.pop()
        adj[prev] ^= 1 << cell
        adj[cell] ^= 1 << prev

    every = (1 << len(ids)) - 1
    for center, cell in enumerate(ids):
        if cell not in external:
            extend_branch(center, 0, 1 << center)
    return tuple(results)
