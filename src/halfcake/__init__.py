"""Half-the-cake DoF analysis for rank-constrained MIMO interference networks."""

from .alignment_schemes import (
    LinearScheme,
    VerificationReport,
    best_exceeding_scheme,
    counterexample_scheme,
    ergodic_half_cake,
    example2_scheme,
    lift_scheme,
    scheme_cd1,
    scheme_cd7,
    scheme_for_cd_violation,
    verify_scheme,
)
from .channel_model import (
    ChannelRealization,
    ExtendedRealization,
    NetworkSpec,
    assemble,
    canonical_realization,
    extend_ergodic_pair,
    random_square_spec,
    sample_generic,
    single_slot,
    strip_desired,
    validate_spec,
)
from .exact_linalg import (
    MERSENNE61,
    BlockPattern,
    ScalarDomain,
    generic_rank,
    generic_rank_pattern,
    left_null_space_basis,
    null_space_basis,
    rank,
    rank_mod_p,
)
from .rank_feasibility import (
    HalfCakeVerdict,
    ReducedRankCertificate,
    SymmetricClassification,
    assign_reduced_ranks_3user,
    boundary_case_verdict,
    check_condition_eq5,
    classify_symmetric_3user,
    evaluate_cd_inequalities,
    feasibility_evidence,
    half_cake_verdict,
    lemma1_equivalence_run,
    necessity_reduction,
    reduced_rank_feasible,
    validate_certificate,
)
from .replication_bounds import (
    CooperativeChannel,
    CreatedNetwork,
    DofBound,
    ReplicatedNetwork,
    ReplicationPlan,
    WeightedBoundStatement,
    build_created_network,
    build_replicated,
    contiguous_partition,
    cooperate,
    created_extension,
    outer_bound,
    realize_replicated,
    search_bounds,
    weighted_dof_bound,
)

__version__ = "0.1.0"
