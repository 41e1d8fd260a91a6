"""Line-oriented substitution spec documents (.sub).

Format (comments start with #, blank lines ignored):

    substitution <name>
    prototype <id> facets <k> orient <+/- list>
    rule <rid> parent <prototype-id>
      cell <cid> <prototype-id>
      adj <cid>.<facet> -- <cid>.<facet>
      gamma <k> : <cid>.<facet> <cid>.<facet> ...
      network center <cid> branch <k> : <cid> ... port <cid>.<facet>
      network2 cells <cid> ... crossings <cid> ...
    macroadj (<rid>,<k>) ~ (<rid>,<l>) map <i:j> <i:j> ...
    consistent <true|false>

Facets are numbered from 1; S, N, W, E alias 1-4 on four-facet prototypes.
Printing is canonical and parse(print_spec(doc)) == doc.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import ParseError, UnresolvedReference
from .model import (
    FACET_NAMES,
    FacetRef,
    MacroAdjacency,
    MacroTileTemplate,
    Prototype,
    Rule,
    SubstitutionSystem,
    make_pairing,
)
from .network import Branch, Network, NetworkSet

FACET_LABELS = {v: k for k, v in FACET_NAMES.items()}


@dataclass(frozen=True)
class SecondNetwork:
    """Auxiliary connected subgraph used only by the counting bounds."""

    rule_id: str
    cells: tuple[str, ...]
    crossings: tuple[str, ...]


@dataclass
class SpecDocument:
    """A parsed document: the system plus attached networks."""

    name: str
    system: SubstitutionSystem
    networks: NetworkSet
    second_networks: dict[str, SecondNetwork]


def _facet_number(token: str, facet_count: int, line: int) -> int:
    if token in FACET_NAMES:
        k = FACET_NAMES[token]
        if facet_count != 4:
            raise ParseError(
                f"facet name {token} only aliases an index on 4-facet prototypes",
                line,
            )
        return k
    try:
        k = int(token)
    except ValueError:
        raise ParseError(f"bad facet {token!r}", line) from None
    if not 1 <= k <= facet_count:
        raise UnresolvedReference(f"facet {k} outside 1..{facet_count}", line)
    return k


class _RuleBuilder:
    def __init__(self, rule_id: str, parent: str, line: int):
        self.rule_id = rule_id
        self.parent = parent
        self.line = line
        self.cells: list[tuple[str, str]] = []
        self.pairings = []
        self.gamma: dict[int, tuple[FacetRef, ...]] = {}
        self.net_center: str | None = None
        self.branches: list[Branch] = []
        self.second: SecondNetwork | None = None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.name = None
        self.prototypes: list[Prototype] = []
        self.rules: list[_RuleBuilder] = []
        self.adjacency: list[MacroAdjacency] = []
        self.consistent = True
        self.current: _RuleBuilder | None = None

    def prototype(self, name: str, line: int) -> Prototype:
        for p in self.prototypes:
            if p.name == name:
                return p
        raise UnresolvedReference(f"prototype {name}", line)

    def cell_proto(self, rb: _RuleBuilder, cell: str, line: int) -> Prototype:
        for c, pname in rb.cells:
            if c == cell:
                return self.prototype(pname, line)
        raise UnresolvedReference(f"cell {cell}", line)

    def facet_ref(self, rb: _RuleBuilder, token: str, line: int) -> FacetRef:
        if "." not in token:
            raise ParseError(f"expected <cell>.<facet>, got {token!r}", line)
        cell, facet = token.rsplit(".", 1)
        proto = self.cell_proto(rb, cell, line)
        return (cell, _facet_number(facet, proto.facet_count, line))

    def rule_builder(self, rule_id: str, line: int) -> _RuleBuilder:
        for rb in self.rules:
            if rb.rule_id == rule_id:
                return rb
        raise UnresolvedReference(f"rule {rule_id}", line)

    def parse(self) -> SpecDocument:
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            handler = getattr(self, f"_kw_{tokens[0]}", None)
            if handler is None:
                raise ParseError(f"unknown directive {tokens[0]!r}", lineno)
            handler(tokens, lineno)
        return self._finish()

    def _kw_substitution(self, tokens, lineno):
        if len(tokens) != 2:
            raise ParseError("usage: substitution <name>", lineno)
        self.name = tokens[1]

    def _kw_prototype(self, tokens, lineno):
        if len(tokens) < 6 or tokens[2] != "facets" or tokens[4] != "orient":
            raise ParseError("usage: prototype <id> facets <k> orient <signs>", lineno)
        try:
            count = int(tokens[3])
            proto = Prototype(tokens[1], count, tuple(tokens[5:]))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        self.prototypes.append(proto)

    def _kw_rule(self, tokens, lineno):
        if len(tokens) != 4 or tokens[2] != "parent":
            raise ParseError("usage: rule <rid> parent <prototype>", lineno)
        self.prototype(tokens[3], lineno)
        self.current = _RuleBuilder(tokens[1], tokens[3], lineno)
        self.rules.append(self.current)

    def _require_rule(self, lineno) -> _RuleBuilder:
        if self.current is None:
            raise ParseError("directive outside a rule block", lineno)
        return self.current

    def _kw_cell(self, tokens, lineno):
        rb = self._require_rule(lineno)
        if len(tokens) != 3:
            raise ParseError("usage: cell <cid> <prototype>", lineno)
        self.prototype(tokens[2], lineno)
        rb.cells.append((tokens[1], tokens[2]))

    def _kw_adj(self, tokens, lineno):
        rb = self._require_rule(lineno)
        if len(tokens) != 4 or tokens[2] != "--":
            raise ParseError("usage: adj <cid>.<facet> -- <cid>.<facet>", lineno)
        a = self.facet_ref(rb, tokens[1], lineno)
        b = self.facet_ref(rb, tokens[3], lineno)
        rb.pairings.append(make_pairing(a, b))

    def _kw_gamma(self, tokens, lineno):
        rb = self._require_rule(lineno)
        if len(tokens) < 4 or tokens[2] != ":":
            raise ParseError("usage: gamma <k> : <members...>", lineno)
        parent = self.prototype(rb.parent, lineno)
        k = _facet_number(tokens[1], parent.facet_count, lineno)
        members = tuple(self.facet_ref(rb, t, lineno) for t in tokens[3:])
        if k in rb.gamma:
            raise ParseError(f"gamma {k} declared twice", lineno)
        rb.gamma[k] = members

    def _kw_network(self, tokens, lineno):
        rb = self._require_rule(lineno)
        if (
            len(tokens) < 8
            or tokens[1] != "center"
            or tokens[3] != "branch"
            or tokens[5] != ":"
            or tokens[-2] != "port"
        ):
            raise ParseError(
                "usage: network center <cid> branch <k> : <cells...> port <cid>.<facet>",
                lineno,
            )
        center = tokens[2]
        self.cell_proto(rb, center, lineno)
        if rb.net_center is not None and rb.net_center != center:
            raise ParseError(
                f"network center {center} disagrees with {rb.net_center}", lineno
            )
        rb.net_center = center
        parent = self.prototype(rb.parent, lineno)
        k = _facet_number(tokens[4], parent.facet_count, lineno)
        path = tuple(tokens[6:-2])
        if not path:
            raise ParseError(f"branch {tokens[4]} has an empty path", lineno)
        for cell in path:
            self.cell_proto(rb, cell, lineno)
        port = self.facet_ref(rb, tokens[-1], lineno)
        rb.branches.append(Branch(k, path, port))

    def _kw_network2(self, tokens, lineno):
        rb = self._require_rule(lineno)
        if len(tokens) < 2 or tokens[1] != "cells" or "crossings" not in tokens:
            raise ParseError("usage: network2 cells <cids...> crossings <cids...>", lineno)
        split = tokens.index("crossings")
        cells = tuple(tokens[2:split])
        crossings = tuple(tokens[split + 1 :])
        for cell in cells + crossings:
            self.cell_proto(rb, cell, lineno)
        rb.second = SecondNetwork(rb.rule_id, cells, crossings)

    def _kw_macroadj(self, tokens, lineno):
        self.current = None
        if len(tokens) < 6 or tokens[2] != "~" or tokens[4] != "map":
            raise ParseError(
                "usage: macroadj (<rid>,<k>) ~ (<rid>,<l>) map <i:j> ...", lineno
            )
        side_a = self._side(tokens[1], lineno)
        side_b = self._side(tokens[3], lineno)
        mapping = []
        for pair in tokens[5:]:
            try:
                i, j = pair.split(":")
                mapping.append((int(i), int(j)))
            except ValueError:
                raise ParseError(f"bad map entry {pair!r}", lineno) from None
        entry = MacroAdjacency(side_a, side_b, tuple(mapping)).canonical()
        if entry not in self.adjacency:
            self.adjacency.append(entry)

    def _side(self, token: str, lineno) -> tuple[str, int]:
        if not (token.startswith("(") and token.endswith(")")) or token.count(",") != 1:
            raise ParseError(f"expected (<rid>,<k>), got {token!r}", lineno)
        rid, facet = token[1:-1].split(",")
        rb = self.rule_builder(rid, lineno)
        parent = self.prototype(rb.parent, lineno)
        return (rid, _facet_number(facet, parent.facet_count, lineno))

    def _kw_consistent(self, tokens, lineno):
        self.current = None
        if len(tokens) != 2 or tokens[1] not in ("true", "false"):
            raise ParseError("usage: consistent <true|false>", lineno)
        self.consistent = tokens[1] == "true"

    def _finish(self) -> SpecDocument:
        if self.name is None:
            raise ParseError("missing 'substitution <name>' header")
        rules = []
        networks: NetworkSet = {}
        seconds: dict[str, SecondNetwork] = {}
        for rb in self.rules:
            parent = self.prototype(rb.parent, rb.line)
            missing = [
                k for k in range(1, parent.facet_count + 1) if k not in rb.gamma
            ]
            if missing:
                raise ParseError(
                    f"rule {rb.rule_id}: no gamma line for parent facet(s) {missing}",
                    rb.line,
                )
            template = MacroTileTemplate(tuple(rb.cells), tuple(rb.pairings))
            gamma = tuple((k, rb.gamma[k]) for k in sorted(rb.gamma))
            rules.append(Rule(rb.rule_id, rb.parent, template, gamma))
            if rb.net_center is not None:
                branches = tuple(sorted(rb.branches, key=lambda b: b.k))
                networks[rb.rule_id] = Network(rb.rule_id, rb.net_center, branches)
            if rb.second is not None:
                seconds[rb.rule_id] = rb.second
        system = SubstitutionSystem(
            prototypes=tuple(self.prototypes),
            rules=tuple(rules),
            consistent=self.consistent,
            macro_adjacency=tuple(self.adjacency),
        )
        return SpecDocument(self.name, system, networks, seconds)


def parse_spec(text: str) -> SpecDocument:
    """Parse a .sub document. Structural validation beyond identifier
    resolution is deferred to validate_system."""
    return _Parser(text).parse()


def _facet_label(proto: Prototype, k: int) -> str:
    if proto.facet_count == 4:
        return FACET_LABELS[k]
    return str(k)


def _ref_label(system: SubstitutionSystem, rule: Rule, ref: FacetRef) -> str:
    proto = system.cell_prototype(rule, ref[0])
    return f"{ref[0]}.{_facet_label(proto, ref[1])}"


def print_spec(doc: SpecDocument) -> str:
    """Canonical serialization; stable across runs and platforms."""
    system = doc.system
    out = [f"substitution {doc.name}"]
    for proto in system.prototypes:
        signs = " ".join(proto.orientations)
        out.append(f"prototype {proto.name} facets {proto.facet_count} orient {signs}")
    for rule in system.rules:
        parent = system.prototype(rule.parent)
        out.append(f"rule {rule.rule_id} parent {rule.parent}")
        for cell, pname in rule.template.cells:
            out.append(f"  cell {cell} {pname}")
        for a, b in rule.template.internal_pairings:
            out.append(
                f"  adj {_ref_label(system, rule, a)} -- {_ref_label(system, rule, b)}"
            )
        for k, members in rule.gamma:
            refs = " ".join(_ref_label(system, rule, m) for m in members)
            out.append(f"  gamma {_facet_label(parent, k)} : {refs}")
        net = doc.networks.get(rule.rule_id)
        if net is not None:
            for branch in net.branches:
                path = " ".join(branch.path)
                out.append(
                    f"  network center {net.center} branch "
                    f"{_facet_label(parent, branch.k)} : {path} port "
                    f"{_ref_label(system, rule, branch.port)}"
                )
        second = doc.second_networks.get(rule.rule_id)
        if second is not None:
            cells = " ".join(second.cells)
            crossings = " ".join(second.crossings)
            out.append(f"  network2 cells {cells} crossings {crossings}")
    for entry in system.macro_adjacency:
        parent_a = system.prototype(system.rule(entry.side_a[0]).parent)
        parent_b = system.prototype(system.rule(entry.side_b[0]).parent)
        pairs = " ".join(f"{a}:{b}" for a, b in entry.mapping)
        out.append(
            f"macroadj ({entry.side_a[0]},{_facet_label(parent_a, entry.side_a[1])})"
            f" ~ ({entry.side_b[0]},{_facet_label(parent_b, entry.side_b[1])})"
            f" map {pairs}"
        )
    out.append(f"consistent {'true' if system.consistent else 'false'}")
    return "\n".join(out) + "\n"


def load_bundled(name: str = "square3x3") -> SpecDocument:
    """Parse one of the documents shipped with the package."""
    text = resources.files("tilesub.data").joinpath(f"{name}.sub").read_text()
    return parse_spec(text)
