"""Replicated networks, cooperation bounds, plan search, created networks."""

import hashlib
import json
from fractions import Fraction
from itertools import product

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
    random_square_spec,
    realize_replicated,
    sample_generic,
    search_bounds,
    weighted_dof_bound,
)
from halfcake import presets
from halfcake.errors import (
    BadPartition,
    BadShape,
    InconsistentBound,
    InvalidArgument,
    NonUniformMu,
    PlanViolatesDefinition1,
    SearchTooLarge,
)
from halfcake.replication_bounds import (
    DofBound,
    _cut_rows,
    _FloorTable,
    _potential_floors,
    candidate_potentials,
)


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


def _mirror_with(assign_edit=None, partition_edit=None):
    """Arguments of ``ReplicationPlan(...)`` for the 3-user mirror plan, with one edit."""
    plan = ReplicationPlan.mirror(3)
    assign = dict(plan.assign)
    if assign_edit is not None:
        assign_edit(assign)
    partition = plan.partition if partition_edit is None else partition_edit(plan.partition)
    return plan.mu, assign, partition


#: invalid plan -> (constructor arguments, error raised on construction)
BAD_PLANS = {
    "gap": (_mirror_with(lambda a: a.pop((1, 0, 0))), PlanViolatesDefinition1),
    "missing-replica": (_mirror_with(lambda a: a.update({(1, 0, 0): 5})),
                        PlanViolatesDefinition1),
    "desired-key": (_mirror_with(lambda a: a.update({(1, 0, 1): 0})), PlanViolatesDefinition1),
    "key-out-of-range": (_mirror_with(lambda a: a.update({(1, 2, 0): 0})),
                         PlanViolatesDefinition1),
    "mu-zero": (((0, 2, 2), {}, ((), ())), PlanViolatesDefinition1),
    "one-group": (_mirror_with(partition_edit=lambda p: p[:1]), BadPartition),
    "three-groups": (_mirror_with(partition_edit=lambda p: p + ((),)), BadPartition),
    "uncovered": (_mirror_with(partition_edit=lambda p: (p[0][1:], p[1])), BadPartition),
    "twice": (_mirror_with(partition_edit=lambda p: (p[0] + ((0, 1),), p[1])), BadPartition),
}


@pytest.mark.parametrize("case", sorted(BAD_PLANS))
def test_plan_construction_rejects_invalid_plans(case):
    args, error = BAD_PLANS[case]
    with pytest.raises(error):
        ReplicationPlan(*args)


def test_from_shifts_checks_counts_table_and_partition():
    shifts = [[None, 1], [1, None]]
    with pytest.raises(PlanViolatesDefinition1):
        ReplicationPlan.from_shifts([0, 2], shifts, contiguous_partition([0, 2], [0, 1]))
    with pytest.raises(BadShape):
        ReplicationPlan.from_shifts([2, 2], [[None, 1]], contiguous_partition([2, 2], [1, 1]))
    with pytest.raises(BadPartition):
        ReplicationPlan.from_shifts([2, 2], shifts, contiguous_partition([2, 2], [1, 1]) + ((),))
    with pytest.raises(PlanViolatesDefinition1):
        build_created_network(NetworkSpec.square((2, 2)), (0, 2))


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


#: two networks with rank-deficient cross links, and explicit circulant plans
#: on them whose cooperation matrices (24x24 to 104x104, mostly zero blocks)
#: stay below the structural cap, so all 8 prime-field trials run
LADDER_SPECS = {
    "cx": ((10, 8, 6), {(0, 1): 6, (1, 0): 5}),
    "k4": ((8, 7, 6, 5), {(0, 1): 4, (1, 0): 3, (2, 3): 2, (3, 2): 3, (0, 2): 5, (1, 3): 4}),
}

#: (spec key, mu, shift table, cuts) -> (rank, bound), recorded at trials=8, seed=0
LADDER_PINS = {
    ("cx", 2, ((0, 1, 1), (1, 0, 1), (1, 1, 0)), (1, 1, 1)): (23, Fraction(25, 2)),
    ("cx", 3, ((0, 1, 1), (2, 0, 2), (2, 1, 0)), (2, 1, 2)): (31, Fraction(41, 3)),
    ("cx", 4, ((0, 3, 1), (1, 0, 2), (2, 1, 0)), (2, 3, 1)): (36, Fraction(15)),
    ("cx", 5, ((0, 2, 3), (3, 0, 2), (3, 0, 0)), (3, 3, 1)): (44, Fraction(76, 5)),
    ("cx", 6, ((0, 4, 4), (4, 0, 3), (1, 3, 0)), (2, 3, 4)): (55, Fraction(89, 6)),
    ("cx", 7, ((0, 4, 3), (4, 0, 0), (4, 5, 0)), (4, 4, 2)): (70, Fraction(14)),
    ("cx", 8, ((0, 5, 4), (4, 0, 3), (6, 1, 0)), (4, 5, 4)): (77, Fraction(115, 8)),
    ("k4", 2, ((0, 1, 0, 1), (0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0)), (1, 1, 1, 1)):
        (17, Fraction(35, 2)),
    ("k4", 3, ((0, 0, 2, 1), (0, 0, 1, 2), (1, 2, 0, 1), (2, 1, 0, 0)), (1, 2, 2, 1)):
        (34, Fraction(44, 3)),
    ("k4", 4, ((0, 1, 2, 2), (1, 0, 3, 0), (3, 0, 0, 1), (3, 1, 3, 0)), (3, 1, 2, 1)):
        (44, Fraction(15)),
    ("k4", 5, ((0, 1, 4, 2), (3, 0, 3, 3), (4, 4, 0, 2), (1, 3, 0, 0)), (3, 2, 3, 2)):
        (55, Fraction(15)),
    ("k4", 6, ((0, 4, 5, 3), (3, 0, 3, 2), (2, 4, 0, 5), (5, 3, 4, 0)), (3, 3, 2, 2)):
        (66, Fraction(15)),
    ("k4", 7, ((0, 4, 0, 4), (2, 0, 4, 5), (4, 1, 0, 6), (3, 2, 4, 0)), (3, 4, 4, 3)):
        (81, Fraction(101, 7)),
    ("k4", 8, ((0, 3, 4, 6), (5, 0, 6, 5), (2, 4, 0, 3), (3, 0, 1, 0)), (4, 4, 4, 4)):
        (91, Fraction(117, 8)),
}


@pytest.mark.parametrize("case", sorted(LADDER_PINS), ids=lambda c: f"{c[0]}-mu{c[1]}")
def test_outer_bound_pinned_on_large_circulant_plans(case):
    key, mu, shifts, cuts = case
    spec = NetworkSpec.square(*LADDER_SPECS[key])
    plan = ReplicationPlan.from_shifts([mu] * spec.K, [list(row) for row in shifts],
                                       contiguous_partition([mu] * spec.K, cuts))
    bound = outer_bound(spec, plan, trials=8, seed=0)
    assert (bound.rank, bound.value) == LADDER_PINS[case]


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


def _all_shift_tables(K: int, mu: int) -> np.ndarray:
    """Every K x K shift table with entries in range(mu) off the diagonal."""
    links = ~np.eye(K, dtype=bool)
    tables = np.zeros((mu ** (K * (K - 1)), K, K), dtype=np.int64)
    tables[:, links] = list(product(range(mu), repeat=K * (K - 1)))
    return tables


def _cut_groups(K: int, mu_max: int):
    """``(mus, cuts, swap)`` for each mu <= mu_max: every per-user cut in both orientations."""
    for mu in range(1, mu_max + 1):
        one_side = _cut_rows(K, mu)
        yield (np.full(2 * len(one_side), mu), np.concatenate([one_side, one_side]),
               np.repeat([False, True], len(one_side)))


def test_potential_floor_never_exceeds_potential():
    rng = np.random.default_rng(2025)
    exact = 0
    for _ in range(60):
        K = int(rng.integers(2, 6))
        M = tuple(int(v) for v in rng.integers(1, 5, size=K))
        N = tuple(int(v) for v in rng.integers(1, 5, size=K))
        # rank 0 on roughly a third of the links
        cross = {(j, i): int(rng.integers(0, min(M[i], N[j]) + 1)) * int(rng.integers(0, 3) > 0)
                 for j in range(K) for i in range(K) if i != j}
        spec = NetworkSpec.make(M, N, cross)
        mus = rng.integers(1, 5, size=20)
        shifts = rng.integers(0, mus[:, None, None], size=(20, K, K))
        cuts = rng.integers(0, mus[:, None] + 1, size=(20, K))
        swap = rng.integers(0, 2, size=20).astype(bool)
        floors = _potential_floors(spec, mus, cuts, swap)
        for mu in np.unique(mus):
            sel = mus == mu
            got = candidate_potentials(spec, int(mu), shifts[sel], cuts[sel], swap[sel])
            assert (floors[sel] <= got).all()
            if mu == 1:  # one copy per user: the shift table does not matter
                assert (floors[sel] == got).all()
                exact += int(sel.sum())
    assert exact > 100
    # exhaustive: every (mu, cuts, orientation) against its least potential over
    # every shift table, for K <= 3 and mu <= 3
    for _ in range(8):
        K = int(rng.integers(2, 4))
        M = tuple(int(v) for v in rng.integers(1, 6, size=K))
        N = tuple(int(v) for v in rng.integers(1, 6, size=K))
        cross = {(j, i): int(rng.integers(0, min(M[i], N[j]) + 1)) * int(rng.integers(0, 3) > 0)
                 for j in range(K) for i in range(K) if i != j}
        spec = NetworkSpec.make(M, N, cross)
        for mus, cuts, swap in _cut_groups(K, 3):
            mu, rows = int(mus[0]), len(cuts)
            tables = _all_shift_tables(K, mu)
            least = candidate_potentials(
                spec, mu, np.repeat(tables, rows, axis=0), np.tile(cuts, (len(tables), 1)),
                np.tile(swap, len(tables))).reshape(len(tables), rows).min(axis=0)
            floors = _potential_floors(spec, mus, cuts, swap)
            assert (floors <= least).all()
            if mu == 1:
                assert (floors == least).all()
    # example-asym at mu = 2, n1 = (0, 2, 1): user 3's one group-1 copy reaches
    # one of user 1's two group-2 copies, so the row budgets are 10 + 8, not 20
    args = (presets.NETWORKS["example-asym"](), np.array([2]), np.array([[0, 2, 1]]),
            np.array([False]))
    assert _potential_floors(*args)[0] == 24


def test_mixed_mu_batches_match_per_mu_calls():
    rng = np.random.default_rng(2026)
    mixed = 0
    for t in range(40):
        K = int(rng.integers(2, 6))
        mu_max = int(rng.integers(1, 5))
        M = tuple(int(v) for v in rng.integers(1, 5, size=K))
        N = tuple(int(v) for v in rng.integers(1, 5, size=K))
        # rank 0 on roughly a third of the links
        cross = {(j, i): int(rng.integers(0, min(M[i], N[j]) + 1)) * int(rng.integers(0, 3) > 0)
                 for j in range(K) for i in range(K) if i != j}
        spec = NetworkSpec.make(M, N, cross)
        n = int(rng.integers(1, 600))  # often more than one scoring pass
        mus = rng.integers(1, mu_max + 1, size=n)
        shifts = rng.integers(0, mus[:, None, None], size=(n, K, K))
        cuts = rng.integers(0, mus[:, None] + 1, size=(n, K))
        swap = rng.integers(0, 2, size=n).astype(bool)
        got = candidate_potentials(spec, mus, shifts, cuts, swap)
        for mu in np.unique(mus):
            sel = mus == mu
            want = candidate_potentials(spec, int(mu), shifts[sel], cuts[sel], swap[sel])
            assert (got[sel] == want).all()
        mixed += int(len(np.unique(mus)) > 1)
        # the floor table as the search builds it: one entry per (mu, n1)
        table = _FloorTable(spec, mu_max)
        assert len(table.floors) == sum((mu + 1) ** K for mu in range(1, mu_max + 1))
        for g_mus, g_cuts, g_swap in _cut_groups(K, mu_max):
            group = _potential_floors(spec, g_mus, g_cuts, g_swap)
            assert (table.lookup(g_mus, g_cuts, g_swap) == group).all()
            assert table.least[g_mus[0]] == group.min()
        assert (table.lookup(mus, cuts, swap) == _potential_floors(spec, mus, cuts, swap)).all()
    assert mixed > 20


#: SHA-256 of the sorted-key ``search_bounds(...).to_json()`` of searches whose
#: floors prune nearly every candidate: (spec, mu_max) -> digest.  The comment
#: is the bound.
FLOOR_PINS = {
    "full-rank K=4, M=4": (NetworkSpec.square((4,) * 4), 6,
                           "3149d915a602775a11cbf34f4b7bebae046ec70beaf33f22ab4800e880d3308d"),  # 8
    "K=4 (8,7,6,5), six reduced links": (
        NetworkSpec.square((8, 7, 6, 5), {(0, 1): 4, (1, 0): 3, (2, 3): 2, (3, 2): 3,
                                          (0, 2): 5, (1, 3): 4}), 6,
        "68b8097c004cd89ef0e6480a7bcc2829a66cfb72e08ded8ebbdfff70509864c7"),  # 13
    "full-rank K=5, M=3": (NetworkSpec.square((3,) * 5), 4,
                           "8f94b6aba8bc20b8651f86effa04ed9144b12b2b6850181dacc782c2319a917c"),  # 15/2
}


@pytest.mark.parametrize("name", sorted(FLOOR_PINS))
def test_search_pinned_where_floors_prune(name):
    spec, mu_max, digest = FLOOR_PINS[name]
    text = json.dumps(search_bounds(spec, mu_max=mu_max).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


#: search_bounds(spec, mu_max=3) per preset: generic_rank_pattern calls (the
#: final certification included), candidate_potentials calls, rows scored
WORK_PINS = {
    "counterexample": (3, 22, 389),
    "example-2x3": (2, 1, 16),
    "example-asym": (5, 2, 32),
    "reduced-example": (3, 2, 24),
    "theorem5": (2, 1, 16),
    "theorem6": (5, 2, 24),
}


@pytest.mark.parametrize("name", sorted(WORK_PINS))
def test_search_work_pinned_on_presets(monkeypatch, name):
    from halfcake import replication_bounds

    ranks, scored = [], []
    rank_pattern = replication_bounds.generic_rank_pattern
    potentials = replication_bounds.candidate_potentials
    monkeypatch.setattr(replication_bounds, "generic_rank_pattern",
                        lambda *a, **kw: ranks.append(1) or rank_pattern(*a, **kw))
    monkeypatch.setattr(replication_bounds, "candidate_potentials",
                        lambda spec, mu, shifts, cuts, swap, arrays=None:
                        scored.append(len(cuts)) or potentials(spec, mu, shifts, cuts, swap, arrays))
    search_bounds(presets.NETWORKS[name](), mu_max=3)
    assert (len(ranks), len(scored), sum(scored)) == WORK_PINS[name]


@pytest.mark.parametrize("kwargs", [{"mu_max": 0}, {"mu_max": 2, "budget": 0}])
def test_search_rejects_bad_arguments(kwargs):
    with pytest.raises(InvalidArgument):
        search_bounds(NetworkSpec.square((2, 2)), **kwargs)


#: SHA-256 of the sorted-key ``search_bounds(...).to_json()`` of searches that
#: run out of budget: each preset at mu_max 3 and budgets 3 and 50, keyed
#: (preset, budget), and random_square_spec((0, t), K_min=3, K_max=4, M_max=6)
#: at mu_max 3, budget 200 and seed t, keyed t.  The comment is the bound.
BUDGET_PINS = {
    ("counterexample", 3): "52999627d2eaf449a7401eb0070a4b0895b714fde29de9c681a8d942336d64b6",  # 25/2
    ("counterexample", 50): "52999627d2eaf449a7401eb0070a4b0895b714fde29de9c681a8d942336d64b6",  # 25/2
    ("example-2x3", 3): "9ba5be870f6b3defac924ea90d0b88f8b0fbfb5c31729cbb1b65bccd5190c130",  # 4
    ("example-2x3", 50): "9ba5be870f6b3defac924ea90d0b88f8b0fbfb5c31729cbb1b65bccd5190c130",  # 4
    ("example-asym", 3): "7e2bdaf20e4997ce338de6cb4dced4df3e15f7f65552fef60f97934e7042e3ac",  # 13
    ("example-asym", 50): "8ac5dabdf9454112583bae8b20607f3a98fbd5378e9187dea511ad80c7b6de6f",  # 12
    ("reduced-example", 3): "58b7afd4d9845a52f72b690d64b131e6c671062c3190f144ab0324c2bfff4619",  # 12
    ("reduced-example", 50): "58b7afd4d9845a52f72b690d64b131e6c671062c3190f144ab0324c2bfff4619",  # 12
    ("theorem5", 3): "f941e64c231d0e35ba855a07efa57e9b939d918e879e290a0d3a418fc87da08d",  # 5
    ("theorem5", 50): "f941e64c231d0e35ba855a07efa57e9b939d918e879e290a0d3a418fc87da08d",  # 5
    ("theorem6", 3): "2aa0cc7d9dbc65af5d50f5cc2844c2db5f491daf62034eb905a6680dd17506bf",  # 8
    ("theorem6", 50): "9f772034fbc2508990bb5a340686f3d0a87fc2d567ad2eed3850f5225ccd78ed",  # 13/2
    0: "9484f71db64305178161a6ba477c139d66aa62f8beecf574b569efbf1d26ebc4",  # 4
    1: "cae3516a480159de964d8c898f2d124b9ea1a36a3ccde1a8e1cc0b17a42acbad",  # 22/3
    2: "b8155af4bc28abc9cbae425c535fd3c8c360b86d4cc14e81fd80e498b330093a",  # 7
    3: "7d29b9dcbd44a01380192e86b5d5333ea1df38dd1a8ee3492de5e242c0040c93",  # 13/2
    4: "e00d43b5971c94f7bd52a5bddf64e2cb368d681e4197dc08cd2c84222993a66f",  # 7
    5: "1cf744064d035fe08b175a5708b4a02b23045017e934b16f4627d48da084b345",  # 8
    6: "0c110b94133c28fd4e9042e3d535115e43794e2d51528e6768a4726dc7fa0822",  # 6
    7: "7aad8cbd79591d2f7b0a3e1b9712c36615eb88b50600ad0f4a6db0aac912a1f4",  # 5
    8: "e744a33fd5b409ae02f761792e752ec84f79dd3845ada0d21e4f570bade5bfcb",  # 9
    9: "f878afb98b7c83066ee2f1450fc19bf88a5c6a3b495d68741df1c68d4a1631a6",  # 6
    10: "b659c66cc2206c2073c0689069ec5b8915f3b958f142cc22312f875c4b6dfa43",  # 11
    11: "196152005598b1a79d9309374c24e189222b7df65e559d397222c0afd6b8210e",  # 17/2
}


def test_search_pinned_under_budget():
    got = {}
    for key in BUDGET_PINS:
        if isinstance(key, tuple):
            name, budget = key
            best = search_bounds(presets.NETWORKS[name](), mu_max=3, budget=budget)
        else:
            spec = random_square_spec((0, key), K_min=3, K_max=4, M_max=6)
            best = search_bounds(spec, mu_max=3, budget=200, seed=key)
        text = json.dumps(best.to_json(), sort_keys=True)
        got[key] = hashlib.sha256(text.encode()).hexdigest()
    assert got == BUDGET_PINS


#: SHA-256 of the sorted-key ``search_bounds(...).to_json()`` of searches at the
#: default budget that reach the random phase:
#: random_square_spec((0, 17), K_min=3, K_max=4, M_max=6) at mu_max 3 and seed
#: 17, keyed 17, whose tie-broken plan comes from a random candidate; and each
#: preset at mu_max 2 and 4, keyed (preset, mu_max).  The comment is the bound.
RANDOM_PHASE_PINS = {
    17: "dad9f187811caa5da47085933c66b7fcaec507120a8ad78f26c942d38633c692",  # 19/2
    ("counterexample", 2): "52999627d2eaf449a7401eb0070a4b0895b714fde29de9c681a8d942336d64b6",  # 25/2
    ("counterexample", 4): "52999627d2eaf449a7401eb0070a4b0895b714fde29de9c681a8d942336d64b6",  # 25/2
    ("example-2x3", 2): "9ba5be870f6b3defac924ea90d0b88f8b0fbfb5c31729cbb1b65bccd5190c130",  # 4
    ("example-2x3", 4): "9ba5be870f6b3defac924ea90d0b88f8b0fbfb5c31729cbb1b65bccd5190c130",  # 4
    ("example-asym", 2): "8ac5dabdf9454112583bae8b20607f3a98fbd5378e9187dea511ad80c7b6de6f",  # 12
    ("example-asym", 4): "8ac5dabdf9454112583bae8b20607f3a98fbd5378e9187dea511ad80c7b6de6f",  # 12
    ("reduced-example", 2): "58b7afd4d9845a52f72b690d64b131e6c671062c3190f144ab0324c2bfff4619",  # 12
    ("reduced-example", 4): "58b7afd4d9845a52f72b690d64b131e6c671062c3190f144ab0324c2bfff4619",  # 12
    ("theorem5", 2): "f941e64c231d0e35ba855a07efa57e9b939d918e879e290a0d3a418fc87da08d",  # 5
    ("theorem5", 4): "f941e64c231d0e35ba855a07efa57e9b939d918e879e290a0d3a418fc87da08d",  # 5
    ("theorem6", 2): "9f772034fbc2508990bb5a340686f3d0a87fc2d567ad2eed3850f5225ccd78ed",  # 13/2
    ("theorem6", 4): "9f772034fbc2508990bb5a340686f3d0a87fc2d567ad2eed3850f5225ccd78ed",  # 13/2
}


def test_search_pinned_through_random_phase():
    got = {}
    for key in RANDOM_PHASE_PINS:
        if isinstance(key, tuple):
            name, mu_max = key
            best = search_bounds(presets.NETWORKS[name](), mu_max=mu_max)
        else:
            spec = random_square_spec((0, key), K_min=3, K_max=4, M_max=6)
            best = search_bounds(spec, mu_max=3, seed=key)
        text = json.dumps(best.to_json(), sort_keys=True)
        got[key] = hashlib.sha256(text.encode()).hexdigest()
    assert got == RANDOM_PHASE_PINS


def _search_corpus():
    """(spec, search_bounds keywords) of the 314 searches that ``CORPUS_DIGEST`` pins."""
    for t in range(40):
        yield random_square_spec((0, t), K_min=3, K_max=4, M_max=6), dict(mu_max=3, seed=t)
    for t in range(200):
        yield (random_square_spec((7, t), K_min=2, K_max=3, M_max=4),
               dict(mu_max=3, budget=200, seed=t))
    for t in range(20):
        yield (random_square_spec((9, t), K_min=4, K_max=5, M_max=5),
               dict(mu_max=3, budget=300, seed=t))
    for name in presets.NETWORKS:
        for mu_max in (2, 3, 4):
            for budget in (3, 50, 10000):
                yield presets.NETWORKS[name](), dict(mu_max=mu_max, budget=budget)


#: SHA-256 of the newline-joined sorted-key ``search_bounds(...).to_json()`` over
#: ``_search_corpus()``, in its order
CORPUS_DIGEST = "647066c2353fb403b201791271b74e91bc0db32c7b0343b9ee7d101df744fa5a"


def test_search_pinned_on_corpus():
    texts = [json.dumps(search_bounds(spec, **kwargs).to_json(), sort_keys=True)
             for spec, kwargs in _search_corpus()]
    assert len(texts) == 314
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == CORPUS_DIGEST


def test_search_rejects_oversized_floor_tables():
    # 2**10 + 3**10 + 4**10 = 1 108 649 entries; K = 9 (282 339) still runs
    with pytest.raises(SearchTooLarge):
        search_bounds(NetworkSpec.square((1,) * 10), mu_max=3)
    with pytest.raises(SearchTooLarge):  # the size check stops summing early
        search_bounds(NetworkSpec.square((2, 2)), mu_max=3_000_000_000)


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
