"""Exact enumeration of nonintersecting lattice paths, lozenge tilings with
free boundaries, and plane partition generating functions."""

from .ring import (
    QtPolynomial,
    qbinomial,
    qint,
    parse_polynomial,
    parse_scalar,
    scalar_str,
    substitute,
)
from .linalg import (
    ExactMatrix,
    determinant,
    pfaffian,
    pfaffian_by_expansion,
    pfaffian_by_matchings,
    shift_entries,
    skew_ones,
    skew_shift_block_invariant,
    sum_max_minors,
    sum_max_minors_pfaffian,
    sum_max_minors_squared,
    upper_twos,
)
from .budget import Budget, BudgetExceeded
from .dag import (
    CycleError,
    EndpointSpec,
    WeightedDag,
    grid_graph,
    is_compatible,
    nonintersecting_gf,
    path_gf,
    path_matrix,
    signed_path_sum,
    signed_sum_squared_dets,
    unfixed_end_pfaffian,
)
from .reflect import (
    ReflectionInput,
    ReflectionReport,
    build_mirrored_graph,
    check_reflection_identity,
)
from .lozenge import (
    Cell,
    Region,
    check_hexagon_factorization,
    check_square_identity,
    count_symmetric_tilings,
    count_tilings,
    double_staircase,
    double_staircase_free_product,
    double_staircase_tiling_product,
    doubled_region,
    free_hook_region,
    free_tiling_count_formula,
    holed_hexagon,
    iter_tilings,
    mirrored_hook_region,
    mirrored_tiling_gf_formula,
    punctured_hexagon,
    shifted_wedge_hook,
    wedge_hook,
)
from .partitions import (
    ShiftedPlanePartition,
    check_count_identity,
    enumerate_spp,
    lattice_path_gf,
    qt_gf_determinant,
    qt_gf_enumerated,
    qt_weight,
    shifted_from_symmetric,
    spp_count,
    symmetrize_shape,
    to_symmetric_plane_partition,
    volume_gf,
)

__version__ = "0.1.0"
