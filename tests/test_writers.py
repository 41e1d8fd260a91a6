"""The output writers: the line batcher, the dump and the stage views."""

import hashlib
import tracemalloc

import pytest

from helpers import step4_by_global_sort
from tilesub import tileset
from tilesub.grids import make_square_grid_document
from tilesub.model import build_numbering
from tilesub.specfile import load_bundled
from tilesub.stages import stage_views
from tilesub.tileset import Tileset, generate_tileset, line_batches


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def closed(doc):
    numbering = build_numbering(doc.system)
    return numbering, generate_tileset(doc.system, numbering, doc.networks)


BATCH = tileset._LINE_BATCH


@pytest.mark.parametrize("count", [0, 1, BATCH - 1, BATCH, BATCH + 1, 4096, 4097, 3 * BATCH + 5])
def test_line_batches_join_to_the_lines(count):
    """Full batches of `_LINE_BATCH` lines, at least one batch, that join
    to the lines."""
    lines = [f"line {i}" for i in range(count)]
    batches = list(line_batches(iter(lines)))
    assert "\n".join(batches) == "\n".join(lines)
    assert len(batches) == max(1, -(-count // BATCH))
    assert [batch.count("\n") + 1 for batch in batches[:-1]] == [BATCH] * (len(batches) - 1)


def test_line_batches_keep_empty_lines(monkeypatch):
    """An empty line ends no batch run, even alone in the last batch."""
    monkeypatch.setattr(tileset, "_LINE_BATCH", 2)
    for lines in ([""], ["", ""], ["a", "", ""], ["a", "b", ""]):
        assert "\n".join(line_batches(lines)) == "\n".join(lines)


def test_writers_of_no_lines(numbering, networks):
    """The dump of no tiles is empty, and a stage view with no lines is one
    newline, as the joins of all lines gave."""
    empty = Tileset((), ())
    assert empty.dump() == ""
    views = stage_views(empty, numbering, networks)
    assert views["step4"] == views["step5"] == "\n"
    assert views["step1"].count("\n") == 9


# SHA-256 of the dump and of the five stage views in name order: the 5x5
# grid's are the benchmark's pins, tworule3x3's were taken while step 4 was
# one sort of every network tile.
WRITER_SHA256 = {
    "grid5x5": (
        "0e3391e62ddcfcb22de2029aca70487b098171ab7ca5d855ac831123c4d2d12f",
        "c92dbca6d6e60367ee69274c0cd1109d4bf1619ee52720eac15e0ce1ce126322",
    ),
    "tworule3x3": (
        "dd60683ecdea1134e8d720ebbf7946a688dfe4e99e9a5be2631eaf0c3c6779a1",
        "b8828172aaf153131b2270df865326a39bf49c21c6044492603cef438bd3417a",
    ),
}
WRITER_SPECS = {
    "square3x3": load_bundled,
    "tworule3x3": lambda: load_bundled("tworule3x3"),
    "grid4x4": lambda: make_square_grid_document(4, 4),
    "grid5x5": lambda: make_square_grid_document(5, 5),
}


@pytest.mark.parametrize("spec", sorted(WRITER_SHA256))
def test_dump_and_stage_views_are_pinned(spec):
    doc = WRITER_SPECS[spec]()
    numbering, tau = closed(doc)
    views = stage_views(tau, numbering, doc.networks)
    dump_sha, views_sha = WRITER_SHA256[spec]
    assert sha256(tau.dump()) == dump_sha
    assert sha256("".join(views[name] for name in sorted(views))) == views_sha


@pytest.mark.parametrize("spec", ["square3x3", "tworule3x3", "grid4x4"])
def test_step4_sorts_as_one_global_sort(spec):
    """Sorting each base's network tiles on their own gives the text of one
    stable sort of all of them by (base, parent, pair)."""
    doc = WRITER_SPECS[spec]()
    numbering, tau = closed(doc)
    step4 = stage_views(tau, numbering, doc.networks)["step4"]
    assert step4 == step4_by_global_sort(tau, numbering, doc.networks)
    assert len({line.split()[0] for line in step4.splitlines()}) > 1


def test_writers_hold_no_list_of_every_line(grid4x4):
    """On the 4x4 grid the dump, kept, and then the stage views peak at
    about 2.25 MB of traced memory (3.5-4.2 MB while each writer joined a
    list of all its lines)."""
    doc, numbering, tau, _ = grid4x4
    tracemalloc.start()
    try:
        dump = tau.dump()
        views = stage_views(tau, numbering, doc.networks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dump.splitlines()) == len(tau) == 10104 and len(views) == 5
    assert peak <= 2_500_000
