"""SVG rendering: byte pins for single tiles and whole patches."""

import hashlib
from importlib import resources

import pytest

from helpers import trip
from tilesub.assembler import GridPatch, grid_from_hierarchy
from tilesub.errors import NonSquareSystem
from tilesub.model import build_numbering
from tilesub.render import render_patch_svg, render_tile_svg
from tilesub.simulation import hierarchy_decorate
from tilesub.specfile import parse_spec
from tilesub.tileset import DecoratedTile, generate_tileset

# Regression pins measured before the tile template was introduced: the
# SHA-256 of the rendered bytes, not independent answers.
TILES_SHA256 = "1d7eb63d0a7361642256d949fe4585aa699016e4b556338d7c208f6acc6b8941"
HIERARCHY_D2_SHA256 = "1ae337df644277c64f2238f95e2e04375454404dce703410b2f8634a0349056f"
EMPTY_2X3_SHA256 = "5fdc70e2e2220c02e694eb8013bf8845c3bbb5ebd70faa7c108288052f3e3f25"
# The depth-4 hierarchy document (6249335 bytes), pinned before the writer
# joined each column's tiles on its own.
HIERARCHY_D4_SHA256 = "2c9d75c4fed624fd7468906a33dfa113f1df8647e6d793923987b200599e8457"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_bundled_tile_renders_as_pinned():
    parts = []
    for name in ("square3x3.sub", "tworule3x3.sub"):
        doc = parse_spec(resources.files("tilesub.data").joinpath(name).read_text())
        numbering = build_numbering(doc.system)
        tau = generate_tileset(doc.system, numbering, doc.networks)
        parts.extend(render_tile_svg(tile) for tile in tau)
    assert len(parts) == 9152
    assert _sha("".join(parts)) == TILES_SHA256


def test_hierarchy_patch_renders_as_pinned(doc3, numbering, layout):
    hpatch = hierarchy_decorate(doc3.system, numbering, doc3.networks, "r1", 2)
    patch = grid_from_hierarchy(hpatch, layout, doc3.networks)
    assert _sha(render_patch_svg(patch)) == HIERARCHY_D2_SHA256


def test_depth4_hierarchy_patch_renders_as_pinned(doc3, numbering, layout):
    hpatch = hierarchy_decorate(doc3.system, numbering, doc3.networks, "r1", 4)
    svg = render_patch_svg(grid_from_hierarchy(hpatch, layout, doc3.networks))
    assert len(svg) == 6249335
    assert _sha(svg) == HIERARCHY_D4_SHA256


def test_empty_patch_renders_as_pinned():
    assert _sha(render_patch_svg(GridPatch(2, 3))) == EMPTY_2X3_SHA256


def test_tile_without_four_facets_is_rejected():
    three = DecoratedTile(1, (trip(1, 0, 1),) * 3)
    with pytest.raises(NonSquareSystem):
        render_tile_svg(three)
    with pytest.raises(NonSquareSystem):
        render_patch_svg(GridPatch(1, 1, {(0, 0): three}))
