"""Shared shorthands for building decorations and small systems in tests."""

from importlib import resources

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
