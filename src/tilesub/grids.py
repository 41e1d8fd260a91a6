"""Programmatic square-grid substitutions: one rule blowing a unit square up
to a w x h block. Used by tests and handy for bound exploration; the 3x3
instance equals the bundled document exactly."""
from __future__ import annotations

from .model import (
    MacroAdjacency,
    MacroTileTemplate,
    Prototype,
    Rule,
    SubstitutionSystem,
    make_pairing,
)
from .network import Branch, Network
from .specfile import SecondNetwork, SpecDocument

S, N, W, E = 1, 2, 3, 4


def make_square_grid_document(width: int, height: int) -> SpecDocument:
    """Build the w x h square substitution with a straight-cross network
    through the central interior cell, and a second network made of that
    cross. Requires width, height >= 3 so the template has an interior cell
    at all."""
    if width < 3 or height < 3:
        raise ValueError("grid substitutions need width and height >= 3")

    def cid(x: int, y: int) -> str:
        return f"c{y * width + x + 1}"

    cells = tuple((cid(x, y), "sq") for y in range(height) for x in range(width))
    pairings = []
    for y in range(height):
        for x in range(width - 1):
            pairings.append(make_pairing((cid(x, y), E), (cid(x + 1, y), W)))
        if y + 1 < height:
            for x in range(width):
                pairings.append(make_pairing((cid(x, y), N), (cid(x, y + 1), S)))
    gamma = (
        (S, tuple((cid(x, 0), S) for x in range(width))),
        (N, tuple((cid(x, height - 1), N) for x in range(width))),
        (W, tuple((cid(0, y), W) for y in range(height))),
        (E, tuple((cid(width - 1, y), E) for y in range(height))),
    )
    template = MacroTileTemplate(cells, tuple(pairings))
    rule = Rule("r1", "sq", template, gamma)

    cx, cy = (width - 1) // 2, (height - 1) // 2
    branches = (
        Branch(S, tuple(cid(cx, y) for y in range(cy - 1, -1, -1)), (cid(cx, 0), S)),
        Branch(N, tuple(cid(cx, y) for y in range(cy + 1, height)), (cid(cx, height - 1), N)),
        Branch(W, tuple(cid(x, cy) for x in range(cx - 1, -1, -1)), (cid(0, cy), W)),
        Branch(E, tuple(cid(x, cy) for x in range(cx + 1, width)), (cid(width - 1, cy), E)),
    )
    network = Network("r1", cid(cx, cy), branches)

    adjacency = (
        MacroAdjacency(("r1", S), ("r1", N), tuple((i, i) for i in range(1, width + 1))),
        MacroAdjacency(("r1", W), ("r1", E), tuple((i, i) for i in range(1, height + 1))),
    )
    system = SubstitutionSystem(
        prototypes=(Prototype("sq", 4, ("-", "+", "-", "+")),),
        rules=(rule,),
        consistent=True,
        macro_adjacency=adjacency,
    )
    crossing = tuple(c for b in branches for c in b.path)
    second = SecondNetwork("r1", (network.center,) + crossing, crossing)
    return SpecDocument(
        f"square{width}x{height}", system, {"r1": network}, {"r1": second}
    )
