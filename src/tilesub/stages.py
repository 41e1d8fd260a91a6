"""Construction-stage views of a generated tileset.

Five line-oriented dumps staging the construction for golden comparison:
the fixed macro-indices, the parent skeleton, the fully decorated off-network
tiles, the pair-carrying network tiles, and the derived center tiles. All
views are byte-stable.
"""
from __future__ import annotations

from itertools import compress, groupby
from operator import attrgetter, itemgetter

from .model import GlobalNumbering
from .network import NetworkSet
from .tileset import (
    PROVENANCE_CENTRAL,
    PROVENANCE_NETWORK,
    ColumnRenderer,
    Tileset,
    _steps13,
    build_layout,
    line_batches,
)

STAGE_NAMES = ("step1", "step2", "step3", "step4", "step5")


def stage_views(tau: Tileset, numbering: GlobalNumbering,
                networks: NetworkSet) -> dict[str, str]:
    """Render the five stage files from a generated tileset, each its lines
    and a final newline joined through `line_batches`. `tau` must be in
    canonical order: step 4 sorts one base's network tiles at a time."""
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
        # A center tile has no parent, and each of its facets is a slot.
        central = j in layout.central_cells
        slot_ks = range(1, facets[j] + 1) if central else slots_of.get(j, ())
        for parent in (None,) if central else layout.parents_for[j]:
            head = f"T{j}" if central else f"T{j} parent={parent}"
            partial = () if central else _steps13(layout, j, parent)
            cols2, cols3 = [], []
            for k in range(1, facets[j] + 1):
                f = layout.nsigma[(j, k)].render()
                if k in slot_ks:
                    cols2.append(f"k={k}:({f},-)")
                    cols3.append(f"k={k}:-")
                else:
                    triple = partial[k - 1]
                    cols2.append(f"k={k}:({f},{triple.j})")
                    cols3.append(f"k={k}:{triple.render()}")
            step2.append(f"{head} | " + " ".join(cols2))
            step3.append(f"{head} | " + " ".join(cols3))

    def step4():
        # In canonical order a base's tiles are contiguous and the bases
        # ascend, so stable sorts per base give one sort by (base, parent, pair).
        network = compress(tau.tiles, map(PROVENANCE_NETWORK.__eq__, tau.provenance))
        for base, group in groupby(network, key=attrgetter("base")):
            pair_k = slots_of[base][0] - 1
            parent_ks = layout.parent_facets[base]
            rows = [(t.triples[parent_ks[0] - 1].j if parent_ks else 0, t.triples[pair_k], t)
                    for t in group]
            for parent, pair, t in sorted(rows, key=itemgetter(0, 1)):
                yield f"T{base} parent={parent} pair=({pair.j},{pair.g.render()}) | {columns(t)}"

    step5 = (f"T{t.base} | {columns(t)}"
             for t in compress(tau.tiles, map(PROVENANCE_CENTRAL.__eq__, tau.provenance)))

    views = (step1, step2, step3, step4(), step5)
    return {name: "\n".join([*line_batches(lines), ""]) for name, lines in zip(STAGE_NAMES, views)}
