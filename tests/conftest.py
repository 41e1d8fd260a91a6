import pytest

from tilesub.assembler import assemble_patches, build_grid_layout
from tilesub.grids import make_square_grid_document
from tilesub.model import build_numbering
from tilesub.simulation import enumerate_macro_tiles
from tilesub.specfile import load_bundled
from tilesub.tileset import build_layout, generate_tileset


@pytest.fixture(scope="session")
def doc3():
    return load_bundled()


@pytest.fixture(scope="session")
def system(doc3):
    return doc3.system


@pytest.fixture(scope="session")
def numbering(doc3):
    return build_numbering(doc3.system)


@pytest.fixture(scope="session")
def networks(doc3):
    return doc3.networks


@pytest.fixture(scope="session")
def compiled(numbering, networks):
    """The compiled tileset layout of the bundled system (not the grid
    layout, which is the `layout` fixture)."""
    return build_layout(numbering, networks)


@pytest.fixture(scope="session")
def tau(doc3, numbering):
    return generate_tileset(doc3.system, numbering, doc3.networks)


@pytest.fixture(scope="session")
def instances(tau, doc3, numbering):
    return enumerate_macro_tiles(tau, doc3.system, numbering, doc3.networks)


@pytest.fixture(scope="session")
def layout(doc3, numbering):
    return build_grid_layout(doc3.system, numbering, doc3.networks)


@pytest.fixture(scope="session")
def patches_2x2(tau, numbering):
    return assemble_patches(tau, numbering, 2, 2)


@pytest.fixture(scope="session")
def grid4x4():
    """The 4x4 grid spec, its numbering and tileset, and its 2x2 patches."""
    doc = make_square_grid_document(4, 4)
    numbering = build_numbering(doc.system)
    tau = generate_tileset(doc.system, numbering, doc.networks)
    return doc, numbering, tau, assemble_patches(tau, numbering, 2, 2)
