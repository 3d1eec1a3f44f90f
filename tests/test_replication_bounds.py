"""Replicated networks, cooperation bounds, plan search, created networks."""

import json
from fractions import Fraction

import numpy as np
import pytest

from halfcake import (
    NetworkSpec,
    ReplicationPlan,
    build_created_network,
    build_replicated,
    contiguous_partition,
    cooperate,
    created_extension,
    outer_bound,
    realize_replicated,
    sample_generic,
    search_bounds,
    weighted_dof_bound,
)
from halfcake import presets
from halfcake.errors import (
    BadPartition,
    InconsistentBound,
    InvalidArgument,
    NonUniformMu,
    PlanViolatesDefinition1,
)
from halfcake.replication_bounds import DofBound, candidate_potentials


# ---------------------------------------------------------------------------
# plan construction and validation
# ---------------------------------------------------------------------------


def test_identity_plan_reproduces_original(reduced_spec):
    repnet = build_replicated(reduced_spec, ReplicationPlan.identity(3))
    assert repnet.rep_spec == reduced_spec
    real = sample_generic(reduced_spec, seed=0)
    lifted = realize_replicated(repnet, real)
    for key in real.blocks:
        assert np.array_equal(lifted.blocks[key], real.blocks[key])


def test_mirror_plan_wires_opposite_copies():
    spec = NetworkSpec.square((2, 2, 2))
    repnet = build_replicated(spec, ReplicationPlan.mirror(3))
    # users: (0,0),(0,1),(1,0),(1,1),(2,0),(2,1)
    idx = {u: t for t, u in enumerate(repnet.users)}
    assert repnet.source[(idx[(1, 0)], idx[(0, 1)])] == (1, 0)
    assert (idx[(1, 0)], idx[(0, 0)]) not in repnet.source
    assert (idx[(0, 0)], idx[(0, 1)]) not in repnet.source  # same-user replicas silent


def test_replicated_receivers_hear_exactly_k_minus_1_interferers(rect23_spec):
    for plan in (presets.rect_2x3_plan(), ReplicationPlan.mirror(3)):
        repnet = build_replicated(rect23_spec, plan)
        R = len(repnet.users)
        for r in range(R):
            cross = [t for t in range(R)
                     if t != r and (r, t) in repnet.source]
            assert len(cross) == 2
            origins = {repnet.source[(r, t)][1] for t in cross}
            assert len(origins) == 2  # one interferer per original user


def test_replicated_cross_ranks_inherit_budgets(counterexample_spec):
    repnet = build_replicated(counterexample_spec, ReplicationPlan.mirror(3))
    idx = {u: t for t, u in enumerate(repnet.users)}
    assert repnet.rep_spec.D[idx[(1, 0)]][idx[(0, 1)]] == 5
    assert repnet.rep_spec.D[idx[(0, 0)]][idx[(1, 1)]] == 6
    assert repnet.rep_spec.D[idx[(2, 0)]][idx[(0, 0)]] == 0


def test_plan_validation_rejects_gaps():
    plan = ReplicationPlan.mirror(3)
    broken = dict(plan.assign)
    broken.pop((1, 0, 0))
    with pytest.raises(PlanViolatesDefinition1):
        build_replicated(NetworkSpec.square((2, 2, 2)),
                         ReplicationPlan(plan.mu, broken, plan.partition))
    bad_alpha = dict(plan.assign)
    bad_alpha[(1, 0, 0)] = 5
    with pytest.raises(PlanViolatesDefinition1):
        build_replicated(NetworkSpec.square((2, 2, 2)),
                         ReplicationPlan(plan.mu, bad_alpha, plan.partition))


def test_partition_must_cover():
    spec = NetworkSpec.square((2, 2, 2))
    repnet = build_replicated(spec, ReplicationPlan.mirror(3))
    with pytest.raises(BadPartition):
        cooperate(repnet, (((0, 0),), ((1, 0), (1, 1), (2, 0), (2, 1))))
    with pytest.raises(BadPartition):
        cooperate(repnet, (((0, 0), (0, 1), (0, 0)),
                           ((1, 0), (1, 1), (2, 0), (2, 1))))


def test_plan_json_roundtrip():
    plan = presets.rect_2x3_plan()
    again = ReplicationPlan.from_json(json.loads(json.dumps(plan.to_json())))
    assert again == plan
    mirror = ReplicationPlan.from_json(
        {"mu": [2, 2, 2], "assign": "mirror",
         "partition": [[[1, 1], [2, 1], [3, 1]], [[1, 2], [2, 2], [3, 2]]]})
    assert mirror == ReplicationPlan.mirror(3)


# ---------------------------------------------------------------------------
# cooperation shapes and bounds
# ---------------------------------------------------------------------------


def test_mirror_cooperation_is_stripped_matrix(reduced_spec):
    repnet = build_replicated(reduced_spec, ReplicationPlan.mirror(3))
    coop = cooperate(repnet, ReplicationPlan.mirror(3).partition)
    assert (coop.Mbar1, coop.Nbar1, coop.Mbar2, coop.Nbar2) == (24, 24, 24, 24)
    assert coop.pattern.shape == (24, 24)
    assert coop.pattern.entries == {
        (r, c): (r, c) for r in range(3) for c in range(3) if r != c
    }


def test_rect23_cooperation_shape(rect23_spec):
    plan = presets.rect_2x3_plan()
    coop = cooperate(build_replicated(rect23_spec, plan), plan.partition)
    assert (coop.Mbar1, coop.Nbar1, coop.Mbar2, coop.Nbar2) == (18, 27, 12, 18)
    assert coop.pattern.shape == (18, 18)


def test_asym_cooperation_shape(asym_spec):
    plan = presets.mixed_dims_plan()
    coop = cooperate(build_replicated(asym_spec, plan), plan.partition)
    assert (coop.Mbar1, coop.Nbar2) == (24, 23)
    assert coop.pattern.shape == (23, 24)


def test_outer_bound_rect23(rect23_spec):
    bound = outer_bound(rect23_spec, presets.rect_2x3_plan(), trials=8, seed=0)
    assert bound.value == Fraction(18, 5)
    assert (bound.rank, bound.Mbar1, bound.Nbar2, bound.mu) == (18, 18, 18, 5)
    witness = outer_bound(rect23_spec, presets.rect_2x3_plan(),
                          realization=presets.rect_2x3_witness(rect23_spec))
    assert witness.rank == 18 and witness.value == Fraction(18, 5)


def test_outer_bound_asym(asym_spec):
    bound = outer_bound(asym_spec, presets.mixed_dims_plan(), trials=8, seed=0)
    assert bound.value == Fraction(12) and bound.rank == 23
    witness = outer_bound(asym_spec, presets.mixed_dims_plan(),
                          realization=presets.mixed_dims_witness(asym_spec))
    assert witness.rank == 23 and witness.value == Fraction(12)


def test_outer_bound_mirror_specializes_to_half_cake(reduced_spec, counterexample_spec):
    # full-rank stripped matrix: bound is exactly half the cake
    bound = outer_bound(reduced_spec, ReplicationPlan.mirror(3), trials=8, seed=0)
    assert bound.value == reduced_spec.half_cake == Fraction(12)
    # rank-deficient stripped matrix: bound exceeds half the cake
    loose = outer_bound(counterexample_spec, ReplicationPlan.mirror(3), trials=8, seed=0)
    assert loose.rank == 23 and loose.value == Fraction(25, 2)


def test_outer_bound_rationals_are_exact(rect23_spec):
    bound = outer_bound(rect23_spec, presets.rect_2x3_plan(), trials=4, seed=3)
    assert bound.value * bound.mu + bound.rank == bound.Mbar1 + bound.Nbar2


def test_outer_bound_rejects_nonuniform():
    spec = NetworkSpec.square((2, 2, 2))
    shifts = [[0] * 3 for _ in range(3)]
    plan = ReplicationPlan.from_shifts(
        (2, 1, 1), shifts, contiguous_partition((2, 1, 1), (1, 1, 0)))
    with pytest.raises(NonUniformMu):
        outer_bound(spec, plan)


def test_dof_bound_rejects_inconsistent_fields():
    plan = ReplicationPlan.mirror(3)
    with pytest.raises(InconsistentBound):
        DofBound(Fraction(13, 2), 2, 23, 24, 24, plan, "made-up")


def test_bound_json_keys(rect23_spec):
    out = outer_bound(rect23_spec, presets.rect_2x3_plan(), trials=2, seed=0).to_json()
    assert out["bound"] == {"num": 18, "den": 5}
    assert out["mu"] == 5 and out["rank"] == 18
    assert out["Mbar1"] == 18 and out["Nbar2"] == 18


# ---------------------------------------------------------------------------
# weighted statements
# ---------------------------------------------------------------------------


def test_weighted_single_user_vs_rest():
    spec = NetworkSpec.square((5, 3, 2), {(1, 0): 3, (2, 0): 2}, default="zero")
    plan = presets.boundary_sum_plan()
    stmt = weighted_dof_bound(spec, (1, 1, 1), plan, trials=6, seed=0)
    # rhs = M_1 + (N_2 + N_3) - rank([H_21; H_31])
    assert stmt.rhs == 5 + 5 - 5
    assert stmt.statement() == "1*d_1 + 1*d_2 + 1*d_3 <= 5"


def test_weighted_matches_uniform_bound(reduced_spec):
    plan = ReplicationPlan.mirror(3)
    stmt = weighted_dof_bound(reduced_spec, (2, 2, 2), plan, trials=6, seed=0)
    bound = outer_bound(reduced_spec, plan, trials=6, seed=0)
    assert Fraction(stmt.rhs, 2) == bound.value


def test_weighted_accepts_nonuniform_plan():
    spec = NetworkSpec.square((2, 2, 2))
    mu = (3, 2, 1)
    shifts = [[1 if i != j else 0 for i in range(3)] for j in range(3)]
    plan = ReplicationPlan.from_shifts(mu, shifts,
                                       contiguous_partition(mu, (2, 1, 0)))
    stmt = weighted_dof_bound(spec, mu, plan, trials=4, seed=0)
    assert stmt.mu == mu and stmt.rhs >= 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_two_user_full_rank():
    best = search_bounds(NetworkSpec.square((3, 3)), mu_max=2, budget=400, seed=0)
    assert best.value == Fraction(3)


def test_search_counterexample_sound(counterexample_spec):
    best = search_bounds(counterexample_spec, mu_max=2, budget=1500, seed=0)
    assert best.value >= Fraction(25, 2)
    assert best.value == Fraction(25, 2)  # the mirror plan attains it


def test_search_finds_rect23_bound(rect23_spec):
    best = search_bounds(rect23_spec, mu_max=5, budget=10000, seed=0)
    assert best.value <= Fraction(18, 5)
    assert best.value == Fraction(18, 5)


def test_search_soundness_random_small_specs():
    for t in range(50):
        rng = np.random.default_rng((60, t))
        M = tuple(int(v) for v in rng.integers(1, 4, size=3))
        cross = {
            (j, i): int(rng.integers(0, min(M[i], M[j]) + 1))
            for j in range(3) for i in range(3) if i != j
        }
        spec = NetworkSpec.square(M, cross)
        best = search_bounds(spec, mu_max=2, budget=40, seed=t, certify_trials=4)
        assert best.value >= spec.half_cake


def test_candidate_potentials_match_cooperation():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(60):
        K = int(rng.integers(2, 6))
        mu = int(rng.integers(1, 5))
        M = tuple(int(v) for v in rng.integers(1, 5, size=K))
        N = tuple(int(v) for v in rng.integers(1, 5, size=K))
        # rank 0 on roughly a third of the links
        cross = {(j, i): int(rng.integers(0, min(M[i], N[j]) + 1)) * int(rng.integers(0, 3) > 0)
                 for j in range(K) for i in range(K) if i != j}
        spec = NetworkSpec.make(M, N, cross)
        shifts = rng.integers(0, mu, size=(10, K, K))
        cuts = rng.integers(0, mu + 1, size=(10, K))
        swap = np.arange(10) % 2 == 1
        got = candidate_potentials(spec, mu, shifts, cuts, swap)
        for n in range(10):
            plan = ReplicationPlan.from_shifts(
                [mu] * K, shifts[n], contiguous_partition([mu] * K, cuts[n].tolist()))
            if swap[n]:
                plan = plan.swapped()
            coop = cooperate(build_replicated(spec, plan), plan.partition)
            assert got[n] == coop.Mbar1 + coop.Nbar2 - coop.pattern.structural_cap(spec)
            checked += 1
    assert checked == 600


#: search_bounds(spec, mu_max=3) per preset: bound, mu, rank, shift table, partition
SEARCH_PINS = {
    "counterexample": (Fraction(25, 2), 2, 23,
                       [[None, 1, 1], [1, None, 1], [1, 1, None]],
                       [[[1, 1], [2, 1], [3, 1]], [[1, 2], [2, 2], [3, 2]]]),
    "reduced-example": (Fraction(12), 2, 24,
                        [[None, 1, 1], [1, None, 1], [1, 1, None]],
                        [[[1, 1], [2, 1], [3, 1]], [[1, 2], [2, 2], [3, 2]]]),
    "example-2x3": (Fraction(4), 1, 3,
                    [[None, 0, 0], [0, None, 0], [0, 0, None]],
                    [[[1, 1], [2, 1]], [[3, 1]]]),
    "example-asym": (Fraction(12), 2, 21,
                     [[None, 1, 0], [0, None, 1], [1, 0, None]],
                     [[[2, 1], [2, 2], [3, 1]], [[1, 1], [1, 2], [3, 2]]]),
    "theorem5": (Fraction(5), 1, 5,
                 [[None, 0, 0], [0, None, 0], [0, 0, None]],
                 [[[1, 1]], [[2, 1], [3, 1]]]),
    "theorem6": (Fraction(13, 2), 2, 13,
                 [[None, 0, 1], [1, None, 0], [0, 1, None]],
                 [[[1, 1], [1, 2], [3, 1]], [[2, 1], [2, 2], [3, 2]]]),
}


@pytest.mark.parametrize("name", sorted(SEARCH_PINS))
def test_search_pinned_on_presets(name):
    value, mu, rank, shifts, partition = SEARCH_PINS[name]
    best = search_bounds(presets.NETWORKS[name](), mu_max=3)
    assert (best.value, best.mu, best.rank) == (value, mu, rank)
    assert best.to_json()["plan"] == {"mu": [mu] * 3, "assign": {"shifts": shifts},
                                      "partition": partition}


@pytest.mark.parametrize("kwargs", [{"mu_max": 0}, {"mu_max": 2, "budget": 0}])
def test_search_rejects_bad_arguments(kwargs):
    with pytest.raises(InvalidArgument):
        search_bounds(NetworkSpec.square((2, 2)), **kwargs)


# ---------------------------------------------------------------------------
# created networks
# ---------------------------------------------------------------------------


def test_created_network_scalars_deterministic():
    spec = NetworkSpec.square((2, 2, 2))
    a = build_created_network(spec, (2, 2, 2), seed=5)
    b = build_created_network(spec, (2, 2, 2), seed=5)
    assert a.scalars == b.scalars
    c = build_created_network(spec, (2, 2, 2), seed=6)
    assert a.scalars != c.scalars
    assert all(0.0 <= v < 1.0 for v in a.scalars.values())


def test_created_single_copy_scales_cross_links():
    spec = NetworkSpec.square((2, 3))
    created = build_created_network(spec, (1, 1), seed=1)
    real = sample_generic(spec, seed=0)
    ext = created_extension(created, _single(real))
    lifted = ext.slots[0]
    assert np.array_equal(lifted.blocks[(0, 0)], real.blocks[(0, 0)])
    scale = created.scalars[(0, 0, 1, 0)]
    assert np.allclose(lifted.blocks[(0, 1)], scale * real.blocks[(0, 1)])


def _single(real):
    from halfcake import single_slot

    return single_slot(real)
