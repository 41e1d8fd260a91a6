"""Deterministic SVG rendering of square tiles and patches.

Each facet shows its decoration as three labels in (f, j, g) order: along the
south side west-to-east, along the north side west-to-east, and bottom-to-top
beside the west and east sides. Internal facet classes render as
bare indices, the special classes as p/m/b/u. Output is byte-stable.
"""
from __future__ import annotations

import re
from operator import itemgetter

from .assembler import GridPatch
from .errors import NonSquareSystem
from .tileset import DecoratedTile, UNDEFINED, _Memo

CELL = 100
MARGIN = 10
FONT = 11

S, N, W, E = 0, 1, 2, 3


def _text(x: str, y: str, content: str, anchor: str = "middle") -> str:
    return (
        f'<text x="{x}" y="{y}" font-size="{FONT}" '
        f'font-family="monospace" text-anchor="{anchor}">{content}</text>'
    )


def _tile_template() -> tuple[str, itemgetter]:
    """The <rect> and nine <text> elements of one tile as a `%` template,
    and the getter that puts a tile's values in the order of its fields.

    The values are numbered: 0-3 are the tile's x coordinates (`_xs`), 4-9
    its y coordinates (`_ys`) and 10-22 its labels (`_fields`), which are
    in text order. The getter takes the tuple of all 23 values."""
    x_left, x_west, x_mid, x_east = "{0}", "{1}", "{2}", "{3}"
    y_top, y_north, y_side2, y_side1, y_side0, y_south = (f"{{{i}}}" for i in range(4, 10))
    facet = {S: ["{10}", "{11}", "{12}"], N: ["{13}", "{14}", "{15}"],
             W: ["{16}", "{18}", "{20}"], E: ["{17}", "{19}", "{21}"]}
    frags = [
        f'<rect x="{x_left}" y="{y_top}" width="{CELL}" height="{CELL}" '
        f'fill="none" stroke="black"/>',
        _text(x_mid, y_south, " ".join(facet[S])),
        _text(x_mid, y_north, " ".join(facet[N])),
    ]
    for part, y in ((0, y_side0), (1, y_side1), (2, y_side2)):
        frags.append(_text(x_west, y, facet[W][part], "start"))
        frags.append(_text(x_east, y, facet[E][part], "end"))
    frags.append(_text(x_mid, y_side1, "T{22}"))
    text = "\n".join(frags)
    field = re.compile(r"\{(\d+)\}")
    return field.sub("%s", text), itemgetter(*map(int, field.findall(text)))


_TILE, _TILE_FIELDS = _tile_template()


def _xs(ox: float) -> tuple[str, ...]:
    """The x values of `_TILE` for a tile whose left side is at ox."""
    return (f"{ox:.1f}", f"{ox + 6:.1f}", f"{ox + CELL / 2:.1f}", f"{ox + CELL - 6:.1f}")


def _ys(oy: float) -> tuple[str, ...]:
    """The y values of `_TILE` for a tile whose top side is at oy."""
    mid = oy + CELL / 2
    return (f"{oy:.1f}", f"{oy + 13:.1f}", f"{mid - 10:.1f}", f"{mid + 4:.1f}",
            f"{mid + 18:.1f}", f"{oy + CELL - 5:.1f}")


# Facet class -> its label. It holds one entry per facet class ever
# rendered, so it is bounded by the specs' facet classes.
_CLASS_LABELS = _Memo(lambda value: str(value.index) if value.is_internal else value.render())


def _labels(dec) -> tuple[str, str, str]:
    if dec is UNDEFINED:
        return ("u", "u", "u")
    return (_CLASS_LABELS[dec.f], str(dec.j), _CLASS_LABELS[dec.g])


def _fields(tile: DecoratedTile, labels=_labels) -> tuple:
    """Values 10-22 of `_TILE`, in text order: the (f, j, g) labels of the S
    and N facets, those of the W and E facets part by part, then the base
    index. `labels` gives a decoration's three labels."""
    if len(tile.triples) != 4:
        raise NonSquareSystem("SVG rendering needs four-facet tiles")
    s, n, w, e = tile.triples
    (w0, w1, w2), (e0, e1, e2) = labels(w), labels(e)
    return (*labels(s), *labels(n), w0, e0, w1, e1, w2, e2, tile.base)


def _document(width: int, height: int, body: list[str]) -> str:
    total_w = width * CELL + 2 * MARGIN
    total_h = height * CELL + 2 * MARGIN
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">'
    )
    return "\n".join([head, *body, "</svg>\n"])


# The whole one-tile document with the tile's coordinates filled in: a `%`
# template whose fields are `_fields`.
_SINGLE = _document(1, 1, [_TILE % _TILE_FIELDS((*_xs(MARGIN), *_ys(MARGIN), *["%s"] * 13))])


def render_tile_svg(tile: DecoratedTile) -> str:
    return _SINGLE % _fields(tile)


def render_patch_svg(patch: GridPatch) -> str:
    """Grid plus one decorated square per filled cell; empty patches render
    the bare grid."""
    body = []
    for gy in range(patch.height + 1):
        y = MARGIN + gy * CELL
        body.append(
            f'<line x1="{MARGIN}" y1="{y}" x2="{MARGIN + patch.width * CELL}" '
            f'y2="{y}" stroke="lightgray"/>'
        )
    for gx in range(patch.width + 1):
        x = MARGIN + gx * CELL
        body.append(
            f'<line x1="{x}" y1="{MARGIN}" x2="{x}" '
            f'y2="{MARGIN + patch.height * CELL}" stroke="lightgray"/>'
        )
    # Each column's and row's coordinates and each decoration's labels are
    # formatted once per call.
    xs = _Memo(lambda x: _xs(MARGIN + x * CELL))
    ys = _Memo(lambda y: _ys(MARGIN + (patch.height - 1 - y) * CELL))
    labels = _Memo(_labels).__getitem__
    # Column by column, each from the south: sorted position order. Each
    # column's tiles are joined as it is done, so the document is built from
    # one string a column, not one a tile.
    width = patch.width
    for x in range(width):
        column = xs[x]
        tiles = [
            _TILE % _TILE_FIELDS((*column, *ys[i // width], *_fields(patch[i], labels)))
            for i in range(x, width * patch.height, width) if patch[i] is not None
        ]
        if tiles:
            body.append("\n".join(tiles))
    return _document(patch.width, patch.height, body)
