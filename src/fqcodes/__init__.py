"""Finite-field coding theory toolkit.

Pseudometrics (subspace, subset, folded variants) and the insdel metric on
words over F_{q^n}; Gabidulin rank-metric codes and their Delsarte rank
distribution; constant-dimension subspace codes (lifted MRD, spreads, Sidon
orbits, block enlargements); derived span / all-vectors / folded evaluation
codes from difference sets; closed-form bounds with a constructive
zero-distance witness; and a seeded insertion-deletion channel with an
exhaustive nearest-codeword decoder.
"""

__version__ = "0.1.0"

from .errors import FqcodesError
from .gf import FieldCtx
from .linalg import (
    Subspace,
    enumerate_subspaces,
    kernel,
    rref,
    span,
)
from .metrics import (
    FoldedWord,
    MetricReport,
    VectorCode,
    Word,
    code_min_distance,
    fold,
    generalized_hamming_weights,
    hamming_distance,
    insdel_distance,
    r_subset_distance,
    r_subspace_distance,
    subset_distance,
    subspace_distance,
    word,
)
from .rankmetric import (
    LinearizedPoly,
    RankCode,
    RankDistribution,
    delsarte_rank_distribution,
    empirical_rank_distribution,
    gabidulin_code,
    gabidulin_rect,
    linearized_eval,
    poly_to_matrix,
    rank_distance_of_code,
)
from .constructions import (
    SubspaceCode,
    block_enlarged_family,
    lift_rank_code,
    orbit_cyclic_code,
    sidon_check,
    sidon_search,
    spread,
    subspace_code_min_distance,
)
from .derived import (
    DifferenceSet,
    FoldedCode,
    all_vectors_code,
    evaluation_folded_code,
    folded_code_from_vector_code,
    folded_code_min_distance,
    m_of_d,
    partial_span_code,
    singer_difference_set,
    span_code,
)
from .bounds import (
    BoundReport,
    cyclic_shift_witness,
    half_singleton,
    klo_bound,
    levenshtein_bound,
    singleton_bound,
    strong_half_singleton,
    verify_bounds,
)
from .channel import (
    AMBIGUOUS,
    ChannelSpec,
    correction_capability,
    decode_nearest,
    run_trials,
)
