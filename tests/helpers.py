"""Shared shorthands for building decorations and small systems in tests."""

from tilesub.assembler import phase_of
from tilesub.errors import AmbiguousSignature
from tilesub.model import (
    BOUNDARY,
    MACRO_FACET,
    MacroTileTemplate,
    PORT,
    Prototype,
    Rule,
    SubstitutionSystem,
    internal,
    make_pairing,
)
from tilesub.tileset import UNDEFINED, DecorationTriple

S, N, W, E = 1, 2, 3, 4

SQUARE = Prototype("sq", 4, ("-", "+", "-", "+"))


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


def decompose_by_scan(patch, instances, layout):
    """Oracle for `decompose_macro(wildcard=True)`: each complete block at a
    phase-(0,0) anchor, mapped to the first instance that has the block's
    bases and every defined decoration of the block (None if no instance
    does), found by scanning every instance."""
    order = [layout.position_of[j] for j in sorted(layout.position_of)]
    blocks = {}
    for (ax, ay), tile in patch.cells.items():
        try:
            if phase_of(tile, layout) != (0, 0):
                continue
        except (KeyError, AmbiguousSignature):
            continue
        if any((ax + dx, ay + dy) not in patch.cells for dx, dy in order):
            continue
        tiles = [patch.cells[(ax + dx, ay + dy)] for dx, dy in order]
        blocks[(ax, ay)] = next(
            (
                inst for inst in instances
                if all(
                    mine.base == theirs.base
                    and all(d is UNDEFINED or d == e
                            for d, e in zip(mine.triples, theirs.triples))
                    for mine, theirs in zip(tiles, inst.tiles)
                )
            ),
            None,
        )
    return blocks
