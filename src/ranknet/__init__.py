"""Rank-summing comparator networks and their counting sequences."""

from .analytics import (
    ComplexityProfile,
    addition_complexity,
    binary_equivalent,
    comparator_coefficients,
    complexity_profile,
    level_coefficients,
    maundy_a,
    partial_rank_count,
    prime_power_levels,
    total_comparators,
    two_prime_levels,
)
from .engine import (
    PartialRankTable,
    apply_permutation,
    execute,
    partial_rank_table,
    rank,
    table_to_csv,
)
from .errors import (
    DimensionError,
    DomainError,
    InvalidKey,
    PermutationError,
    RankNetError,
    ValidationError,
)
from .netbuild import (
    Builder,
    Comparator,
    Level,
    Network,
    ValidationReport,
    ascending_factorization,
    binary_network,
    build_network,
    divisor_network,
    index_vector_v,
    index_vector_w,
    is_prime,
    network_from_json,
    network_to_dot,
    network_to_json,
    prime_network,
    smallest_prime_factor,
    validate_network,
)
from .rankcore import (
    comparison_matrix,
    delta_identity_check,
    delta_matrix,
    half_vectorize,
    integer_matrix_rank,
    is_realizable,
    row_sum_ranks,
    stable_rank,
)

__version__ = "0.1.0"
