"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

from halfcake import (
    NetworkSpec,
    classify_symmetric_3user,
    counterexample_scheme,
    ergodic_half_cake,
    extend_ergodic_pair,
    generic_rank,
    half_cake_verdict,
    lemma1_equivalence_run,
    outer_bound,
    random_square_spec,
    reduced_rank_feasible,
    validate_certificate,
    verify_scheme,
)
from halfcake import presets
from paper_constructs import (
    build_created_network,
    check_condition_eq5,
    created_extension,
    lift_scheme,
    scheme_for_cd_violation,
)


class _gate:
    """Context manager printing the per-criterion verdict and enforcing a time limit."""

    def __init__(self, number, name, limit_seconds=None):
        self.number, self.name, self.limit = number, name, limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {status} ({elapsed:.2f} s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit} s"
        return False


def test_acceptance_1_counterexample_reproduction():
    with _gate(1, "counterexample reproduction", 5.0):
        spec = presets.counterexample_network()
        verdict = half_cake_verdict(spec, seed=0, trials=8)
        assert verdict.status != "OPTIMAL_CERTIFIED"
        assert verdict.certificate is None
        assert generic_rank(spec) == 23
        ext = extend_ergodic_pair(spec, seed=0)
        scheme = counterexample_scheme(ext, seed=0)
        report = verify_scheme(ext, scheme, tol=1e-8)
        assert report.passed
        assert report.sum_dof == Fraction(25, 2)


def test_acceptance_2_shifted_plan_bound():
    with _gate(2, "2x3 shifted-plan bound 18/5", 5.0):
        spec = presets.rect_2x3_network()
        plan = presets.rect_2x3_plan()
        bound = outer_bound(spec, plan, trials=8, seed=0)
        assert bound.value == Fraction(18, 5)
        witness = outer_bound(spec, plan, realization=presets.rect_2x3_witness(spec))
        assert witness.rank == 18
        assert witness.value == Fraction(18, 5)


def test_acceptance_3_mixed_dimension_bound_and_scheme():
    with _gate(3, "mixed-dimension bound 12 with scheme (7,3,2)", 10.0):
        from halfcake import sample_generic, single_slot, example2_scheme

        spec = presets.mixed_dims_network()
        plan = presets.mixed_dims_plan()
        generic = outer_bound(spec, plan, trials=8, seed=0)
        assert generic.rank == 23 and generic.value == Fraction(12)
        witness = outer_bound(spec, plan, realization=presets.mixed_dims_witness(spec))
        assert witness.rank == 23 and witness.value == Fraction(12)
        ext = single_slot(sample_generic(spec, seed=0))
        scheme = example2_scheme(ext, seed=0)
        report = verify_scheme(ext, scheme, tol=1e-8)
        assert report.passed
        assert scheme.m == (7, 3, 2) and scheme.n == 1


def test_acceptance_4_flow_rank_equivalence():
    with _gate(4, "flow feasibility equals generic full rank, 200 specs", 60.0):
        run = lemma1_equivalence_run(seed=0, trials=8)
        assert run["disagreements"] == []
        assert run["agreement_rate"] == 1.0


def test_acceptance_5_polytope_equivalence_and_symmetric_schemes():
    with _gate(5, "3-user polytope equivalence + exceeding schemes", 120.0):
        instances = 0
        for M in product((1, 2, 3), repeat=3):
            links = [(j, i) for j in range(3) for i in range(3) if i != j]
            ranges = [range(min(M[i], M[j]) + 1) for j, i in links]
            for combo in product(*ranges):
                spec = NetworkSpec.square(M, dict(zip(links, combo)))
                instances += 1
                assert check_condition_eq5(spec) == (reduced_rank_feasible(spec) is not None)
        assert instances > 5000

        verified = 0
        for M in product((1, 2, 3), repeat=3):
            pairs = [(0, 1), (0, 2), (1, 2)]
            ranges = [range(min(M[a], M[b]) + 1) for a, b in pairs]
            for combo in product(*ranges):
                cross = {}
                for (a, b), v in zip(pairs, combo):
                    cross[(a, b)] = cross[(b, a)] = v
                spec = NetworkSpec.square(M, cross)
                out = classify_symmetric_3user(spec)
                if out.status != "EXCEEDS_HALF_CAKE":
                    continue
                for seed in range(3):
                    ext = extend_ergodic_pair(spec, seed=(seed, verified))
                    scheme = scheme_for_cd_violation(ext, out.violated, seed=seed)
                    report = verify_scheme(ext, scheme, tol=1e-8)
                    if report.passed:
                        break
                assert report.passed, (spec.to_json(), out.violated)
                assert report.sum_dof == Fraction(spec.M_sigma + 1, 2) > spec.half_cake
                verified += 1
        assert verified > 200


def test_acceptance_6_prior_work_allocations():
    with _gate(6, "full-rank and uniform-rank results as facts of Lemma 1's flow", 60.0):
        # full-rank cross channels: feasible iff no user has more antennas
        # than all the others combined (every M in 1..6 for K <= 5, every
        # sorted M for K = 6)
        specs = [M for K in range(2, 6) for M in product(range(1, 7), repeat=K)]
        specs += list(combinations_with_replacement(range(1, 7), 6))
        for M in specs:
            spec = NetworkSpec.square(M)
            cert = reduced_rank_feasible(spec)
            assert (cert is not None) == (max(M) <= sum(M) - max(M)), M
            if cert is not None:
                validate_certificate(spec, cert)
        assert len(specs) == 9786

        # uniform cross rank D among K users with M antennas each:
        # feasible iff (K-1)*D >= M
        grid = [(K, M, D) for K in range(2, 8) for M in range(1, 10) for D in range(M + 1)]
        for K, M, D in grid:
            spec = NetworkSpec.square(
                [M] * K, {(j, i): D for j in range(K) for i in range(K) if i != j})
            cert = reduced_rank_feasible(spec)
            assert (cert is not None) == ((K - 1) * D >= M), (K, M, D)
            if cert is not None:
                validate_certificate(spec, cert)
        assert len(grid) == 324


def test_acceptance_7_boundary_cases():
    with _gate(7, "boundary cases certify without a certificate"):
        for spec in (presets.boundary_sum_network(), presets.boundary_equal_network()):
            verdict = half_cake_verdict(spec, seed=0)
            assert verdict.status == "OPTIMAL_CERTIFIED"
            assert verdict.bound == spec.half_cake
            assert verdict.certificate is None
            assert reduced_rank_feasible(spec) is None


def test_acceptance_8_ergodic_half_cake_property():
    with _gate(8, "repetition scheme reaches half the cake, 30 specs", 60.0):
        for t in range(30):
            spec = random_square_spec((8, t), K_max=4, M_max=5)
            ext = extend_ergodic_pair(spec, seed=t)
            report = verify_scheme(ext, ergodic_half_cake(ext), tol=1e-8)
            assert report.passed
            assert report.sum_dof == spec.half_cake


def test_acceptance_9_lifting_to_created_networks():
    with _gate(9, "lifted schemes verify on created networks, 10 seeds", 60.0):
        for seed in range(10):
            spec = random_square_spec((9, seed), K_max=3, M_max=4, K_min=3)
            ext = extend_ergodic_pair(spec, seed=seed)
            scheme = ergodic_half_cake(ext)
            created = build_created_network(spec, (2, 2, 2), seed=seed)
            lifted = lift_scheme(scheme, created.mu)
            report = verify_scheme(created_extension(created, ext), lifted, tol=1e-8)
            assert report.passed
            assert report.sum_dof == 2 * spec.half_cake
