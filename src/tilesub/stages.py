"""Construction-stage views of a generated tileset.

Five line-oriented dumps staging the construction for golden comparison:
the fixed macro-indices, the parent skeleton, the fully decorated off-network
tiles, the pair-carrying network tiles, and the derived center tiles. All
views are byte-stable.
"""
from __future__ import annotations

from .model import GlobalNumbering
from .network import NetworkSet
from .tileset import (
    PROVENANCE_CENTRAL,
    PROVENANCE_NETWORK,
    ColumnRenderer,
    Tileset,
    _steps13,
    build_layout,
)

STAGE_NAMES = ("step1", "step2", "step3", "step4", "step5")


def stage_views(tau: Tileset, numbering: GlobalNumbering,
                networks: NetworkSet) -> dict[str, str]:
    """Render the five stage files from a generated tileset."""
    layout = build_layout(numbering, networks)
    columns = ColumnRenderer()
    slots_of = {j0: ks for j0, _, ks in layout.network_cells}
    facets = layout.facet_count

    step1 = [
        f"T{j} | " + " ".join(
            f"k={k}:{layout.nsigma[(j, k)].render()}" for k in range(1, facets[j] + 1)
        )
        for j in range(1, numbering.n + 1)
    ]

    step2: list[str] = []
    step3: list[str] = []
    for j in range(1, numbering.n + 1):
        if j in layout.central_cells:
            cols2 = " ".join(
                f"k={k}:({layout.nsigma[(j, k)].render()},-)"
                for k in range(1, facets[j] + 1)
            )
            step2.append(f"T{j} | {cols2}")
            cols3 = " ".join(f"k={k}:-" for k in range(1, facets[j] + 1))
            step3.append(f"T{j} | {cols3}")
            continue
        slot_ks = slots_of.get(j, ())
        for parent in layout.parents_for[j]:
            partial = _steps13(layout, j, parent)
            cols2 = []
            cols3 = []
            for k in range(1, facets[j] + 1):
                f = layout.nsigma[(j, k)].render()
                if k in slot_ks:
                    cols2.append(f"k={k}:({f},-)")
                    cols3.append(f"k={k}:-")
                else:
                    triple = partial[k - 1]
                    cols2.append(f"k={k}:({f},{triple.j})")
                    cols3.append(f"k={k}:{triple.render()}")
            step2.append(f"T{j} parent={parent} | " + " ".join(cols2))
            step3.append(f"T{j} parent={parent} | " + " ".join(cols3))

    rows4 = []
    for tile, prov in zip(tau.tiles, tau.provenance):
        if prov != PROVENANCE_NETWORK:
            continue
        slot_ks = slots_of[tile.base]
        pair_dec = tile.triples[slot_ks[0] - 1]
        parent_ks = layout.parent_facets[tile.base]
        parent = tile.triples[parent_ks[0] - 1].j if parent_ks else 0
        rows4.append((tile.base, parent, pair_dec, tile))
    rows4.sort(key=lambda r: r[:3])
    step4 = [
        f"T{base} parent={parent} pair=({pair.j},{pair.g.render()}) | {columns(tile)}"
        for base, parent, pair, tile in rows4
    ]

    step5 = [
        f"T{tile.base} | {columns(tile)}"
        for tile, prov in zip(tau.tiles, tau.provenance)
        if prov == PROVENANCE_CENTRAL
    ]

    views = (step1, step2, step3, step4, step5)
    return {name: "\n".join(lines) + "\n" for name, lines in zip(STAGE_NAMES, views)}
