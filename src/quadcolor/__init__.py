"""Workbench for origin-anchored colorings of the quadrant.

A coloring system constrains the colors of horizontally and vertically
adjacent unit tiles of the first quadrant and pins the corner color.
This package checks finite colorings, searches for maximal ones,
certifies infinite ones with periodic witnesses, and runs censuses over
every system at a fixed color count.
"""

from .census import (
    CensusRecord,
    CensusSummary,
    census_records,
    parse_record_line,
    record_line,
    run_census,
    summary_to_json,
    system_at,
    system_index,
    total_systems,
)
from .checker import Violation, check_sequence, check_triangle, check_witness
from .diagonal import tile_at, tile_index, triangular
from .fileio import (
    FileFormatError,
    load_coloring,
    load_system,
    parse_system,
    system_to_json,
    verdict_to_json,
    witness_to_json,
)
from .render import Palette, default_palette, render_triangle
from .search import (
    Enumeration,
    ExactMax,
    Indeterminate,
    LengthProfile,
    ReachedCap,
    SearchBudget,
    Unreachable,
    build_chain,
    classify,
    enumerate_sequences,
    find_periodic_witness,
    length_profile,
    max_accept_length,
)
from .systems import (
    Bounded,
    ColoringSystem,
    HasColoring,
    InputError,
    PeriodicWitness,
    TriangleColoring,
    Unknown,
    Verdict,
    canonical_form,
    canonicalize,
    full_triangle_depth,
    is_isomorphic,
    verdict_kind,
)

__version__ = "0.1.0"

__all__ = [
    "Bounded",
    "CensusRecord",
    "CensusSummary",
    "ColoringSystem",
    "Enumeration",
    "ExactMax",
    "FileFormatError",
    "HasColoring",
    "Indeterminate",
    "InputError",
    "LengthProfile",
    "Palette",
    "PeriodicWitness",
    "ReachedCap",
    "SearchBudget",
    "TriangleColoring",
    "Unknown",
    "Unreachable",
    "Verdict",
    "Violation",
    "build_chain",
    "canonical_form",
    "canonicalize",
    "census_records",
    "check_sequence",
    "check_triangle",
    "check_witness",
    "classify",
    "default_palette",
    "enumerate_sequences",
    "find_periodic_witness",
    "full_triangle_depth",
    "is_isomorphic",
    "length_profile",
    "load_coloring",
    "load_system",
    "max_accept_length",
    "parse_record_line",
    "parse_system",
    "record_line",
    "render_triangle",
    "run_census",
    "summary_to_json",
    "system_at",
    "system_index",
    "system_to_json",
    "tile_at",
    "tile_index",
    "total_systems",
    "triangular",
    "verdict_kind",
    "verdict_to_json",
    "witness_to_json",
]
