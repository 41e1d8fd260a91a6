"""Tile-count bounds for the generated tileset.

Pure arithmetic over the free parameters (rules r, tiles n, internal facets m,
first-network tiles p, optionally second-network tiles q and crossings c).
Parameters are extracted from attached networks, with manual construction
available for bound exploration.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundViolated, InvalidParams
from .model import GlobalNumbering, SubstitutionSystem
from .network import NetworkSet, branch_edges


@dataclass(frozen=True)
class CountParams:
    r: int
    n: int
    m: int
    p: int
    q: int | None = None
    c: int | None = None

    def __post_init__(self):
        if self.r < 1:
            raise InvalidParams("r >= 1 required")
        if not 0 <= self.p <= self.n:
            raise InvalidParams("0 <= p <= n required")
        if self.m < 0:
            raise InvalidParams("m >= 0 required")
        if (self.q is None) != (self.c is None):
            raise InvalidParams("q and c come together")
        if self.q is not None:
            if self.c < 1:
                raise InvalidParams("second network must cross every branch (c >= 1)")
            if self.q > self.n:
                raise InvalidParams("q <= n required")
            if self.c > min(self.p, self.q):
                raise InvalidParams("c <= min(p, q) required")


@dataclass(frozen=True)
class FirstBound:
    n0: int
    np_: int
    bound: int
    coarse: int

    def render(self) -> str:
        return f"N0={self.n0} Np={self.np_} bound={self.bound} coarse={self.coarse}"


@dataclass(frozen=True)
class SecondBound:
    n0: int
    nq: int
    np_: int
    nc: int
    bound: int
    coarse: int

    def render(self) -> str:
        return (
            f"N'0={self.n0} N'q={self.nq} N'p={self.np_} N'c={self.nc} "
            f"bound={self.bound} coarse={self.coarse}"
        )


def count_bound_first(params: CountParams) -> FirstBound:
    """First-network bound: tiles off the network carry only a parent index;
    tiles on it carry a parent/neighbor pair; centers derive from the rest."""
    if params.p < params.r:
        raise InvalidParams(f"p={params.p} < r={params.r}")
    r, n, m, p = params.r, params.n, params.m, params.p
    n0 = (n - p) * n
    np_ = (p - r) * ((n - p) * n + p * m * n)
    bound = (r + 1) * (n0 + np_)
    coarse = (r + 2) * p * p * m * n
    if bound > coarse:
        # Templates of a valid system are connected, which makes the coarse
        # bound dominate; parameters breaking this describe no such system.
        raise InvalidParams(f"bound={bound} exceeds coarse={coarse}")
    return FirstBound(n0, np_, bound, coarse)


def count_bound_second(params: CountParams) -> SecondBound:
    """Second-network variant: parent pairs travel only along the second
    network and are controlled where the two networks cross."""
    if params.q is None or params.c is None:
        raise InvalidParams("second-network fields q and c are required")
    if params.c < 1:
        raise InvalidParams("second network must cross every branch (c >= 1)")
    r, n, m, p, q, c = params.r, params.n, params.m, params.p, params.q, params.c
    n0 = n - p - q + c
    nq = (q - c) * n
    np_ = (p - c) * (m + q * n)
    nc = c * (n0 + nq + np_)
    bound = (r + 1) * (n0 + nq + np_ + nc)
    coarse = (r + 2) * c * p * (m + q * n)
    return SecondBound(n0, nq, np_, nc, bound, coarse)


@dataclass(frozen=True)
class ComparisonReport:
    tile_count: int
    params: CountParams
    first: FirstBound
    ok: bool

    def render(self) -> str:
        return (
            f"tiles={self.tile_count} bound={self.first.bound} "
            f"holds={'yes' if self.ok else 'no'}"
        )


def exact_count(tau, params: CountParams) -> ComparisonReport:
    """Compare a generated tileset against its first-network bound. A bound
    violation signals an implementation bug, never an expected outcome."""
    first = count_bound_first(params)
    count = len(tau)
    if count > first.bound:
        raise BoundViolated(f"{count} tiles exceed bound {first.bound}")
    return ComparisonReport(count, params, first, True)


def params_from_system(system: SubstitutionSystem, numbering: GlobalNumbering,
                       networks: NetworkSet, second_networks=None) -> CountParams:
    """Extract (r, n, m, p[, q, c]) from attached networks.

    With second networks present, crossings must be exactly the cells shared
    with first-network branches and every branch must be crossed.
    """
    r = len(system.rules)
    p = 0
    branch_cells: dict[str, list[set[str]]] = {}
    for rule in system.rules:
        net = networks.get(rule.rule_id)
        if net is None:
            continue
        p += len(set(net.cells()))
        per_branch: dict[int, set[str]] = {}
        for k, _, cell in branch_edges(net):
            per_branch.setdefault(k, set()).add(cell)
        branch_cells[rule.rule_id] = list(per_branch.values())
    q = c = None
    if second_networks:
        q = c = 0
        for rule in system.rules:
            snet = second_networks.get(rule.rule_id)
            if snet is None:
                raise InvalidParams(f"rule {rule.rule_id} has no second network")
            cells = set(snet.cells)
            on_branches = cells & {
                cell for group in branch_cells.get(rule.rule_id, []) for cell in group
            }
            if set(snet.crossings) != on_branches:
                raise InvalidParams(
                    f"rule {rule.rule_id}: crossings must be the cells shared "
                    f"with first-network branches"
                )
            for group in branch_cells.get(rule.rule_id, []):
                if not (cells & group):
                    raise InvalidParams(
                        f"rule {rule.rule_id}: a first-network branch is uncrossed"
                    )
            q += len(cells)
            c += len(on_branches)
    return CountParams(r=r, n=numbering.n, m=numbering.m, p=p, q=q, c=c)
