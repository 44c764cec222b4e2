"""Exact triangulations of cubes and polytope products.

Staircase lifts, coloring-driven product triangulations, the Cayley
correspondence with fine mixed subdivisions, explicit optimal seeds for
one to three cube summands, exhaustive minimum search on tiny instances,
and a recursive cube-building pipeline with exact validity certificates.
"""

from .cayley import (
    MixedCell,
    MixedSubdivision,
    count_area2_squares,
    mixed_from_json,
    mixed_to_json,
    mixed_to_triangulation,
    mixed_weighted_size,
    scale_mixed,
    summand_projection,
    triangulation_to_mixed,
    validate_mixed,
)
from .coloring import (
    Coloring,
    exact_expected_size,
    make_coloring,
    monte_carlo_size,
    product_size,
    size_bound,
    triangulate_product,
)
from .complexes import (
    Simplex,
    SimplexType,
    Triangulation,
    ValidityReport,
    efficiency,
    ridge_report,
    simplex_type,
    triangulation_from_json,
    triangulation_to_json,
    validate_dissection,
    validate_face_to_face,
    weighted_size,
)
from .geometry import (
    PointConfiguration,
    affine_rank,
    ambient_normalized_volume,
    cube_config,
    minkowski_config,
    normalized_volume,
    parse_label,
    product_config,
    simplex_config,
)
from .oracle import SearchProblem, enumerate_triangulations, min_weighted_size
from .pipeline import (
    PipelineSpec,
    build_cube_haiman,
    build_cube_recursive,
    haiman_baseline_sizes,
    report_table,
)
from .seeds import (
    cayley_seed,
    hadamard_lower,
    known_constants,
    minimal_cube,
    seed_i3d1,
    seed_i3d2,
    square_family,
    unimodular_cube,
)
from .staircase import (
    LiftedCell,
    lift_cell,
    lift_triangulation,
    multi_staircase_count,
    multi_staircases,
    staircase_triangulation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
