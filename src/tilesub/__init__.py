"""Decorated-tileset construction and verification for combinatorial
substitution tilings."""

from .counting import (
    CountParams,
    count_bound_first,
    count_bound_second,
    exact_count,
    params_from_system,
)
from .model import (
    BOUNDARY,
    FacetClass,
    GlobalNumbering,
    MACRO_FACET,
    MacroAdjacency,
    MacroTileTemplate,
    PORT,
    Prototype,
    Rule,
    SubstitutionSystem,
    ValidationReport,
    build_numbering,
    internal,
    validate_system,
)
from .network import (
    Branch,
    Network,
    check_port_condition,
    search_networks,
    validate_network,
)
from .simulation import (
    HierarchyPatch,
    MacroTileInstance,
    enumerate_macro_tiles,
    hierarchy_decorate,
    phi,
    quotient_hierarchy,
    quotient_preimage,
    verify_self_simulation,
)
from .specfile import SpecDocument, load_bundled, parse_spec, print_spec
from .tileset import (
    DecoratedTile,
    DecorationTriple,
    Layout,
    Tileset,
    UNDEFINED,
    build_layout,
    close,
    decorate_base,
    decorate_network,
    derive_central,
    generate_tileset,
)

__all__ = [
    "CountParams", "count_bound_first", "count_bound_second", "exact_count",
    "params_from_system",
    "BOUNDARY", "FacetClass", "GlobalNumbering", "MACRO_FACET", "MacroAdjacency",
    "MacroTileTemplate", "PORT", "Prototype", "Rule", "SubstitutionSystem",
    "ValidationReport", "build_numbering", "internal", "validate_system",
    "Branch", "Network", "check_port_condition", "search_networks", "validate_network",
    "HierarchyPatch", "MacroTileInstance", "enumerate_macro_tiles", "hierarchy_decorate",
    "phi", "quotient_hierarchy", "quotient_preimage", "verify_self_simulation",
    "SpecDocument", "load_bundled", "parse_spec", "print_spec",
    "DecoratedTile", "DecorationTriple", "Layout", "Tileset", "UNDEFINED",
    "build_layout", "close", "decorate_base", "decorate_network", "derive_central",
    "generate_tileset",
]
