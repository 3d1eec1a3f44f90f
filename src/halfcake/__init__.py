"""Half-the-cake DoF analysis for rank-constrained MIMO interference networks."""

from .alignment_schemes import (
    LinearScheme,
    VerificationReport,
    best_exceeding_scheme,
    counterexample_scheme,
    ergodic_half_cake,
    example2_scheme,
    scheme_cd1,
    scheme_cd7,
    verify_scheme,
)
from .channel_model import (
    ChannelRealization,
    ExtendedRealization,
    NetworkSpec,
    extend_ergodic_pair,
    random_square_spec,
    sample_generic,
    single_slot,
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
    boundary_case_verdict,
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
    DofBound,
    ReplicatedNetwork,
    ReplicationPlan,
    build_replicated,
    contiguous_partition,
    cooperate,
    outer_bound,
    search_bounds,
)

__version__ = "0.1.0"
