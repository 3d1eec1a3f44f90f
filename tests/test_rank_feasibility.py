"""Feasibility conditions: flow, 3-user inequalities, closed forms, verdicts."""

import hashlib
import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from halfcake import (
    BlockPattern,
    NetworkSpec,
    ReducedRankCertificate,
    boundary_case_verdict,
    classify_symmetric_3user,
    evaluate_cd_inequalities,
    feasibility_evidence,
    generic_rank,
    half_cake_verdict,
    lemma1_equivalence_run,
    necessity_reduction,
    random_square_spec,
    reduced_rank_feasible,
    validate_certificate,
)
from halfcake import presets
from halfcake.exact_linalg import instantiate_pattern, rank_mod_p, rng_from, spec_pattern
from halfcake.errors import (
    ConditionFails,
    NotSquareCase,
    NotSymmetric,
    WrongK,
)
from paper_constructs import assign_reduced_ranks_3user, check_condition_eq5


# ---------------------------------------------------------------------------
# reference oracle: brute-force reduced-rank search
# ---------------------------------------------------------------------------


def reference_feasible_bruteforce(spec: NetworkSpec) -> bool:
    """Enumerate all integer reduced-rank matrices; desk-scale instances only."""
    K = spec.K
    links = [(j, i) for j in range(K) for i in range(K) if i != j]
    ranges = [range(spec.D[j][i] + 1) for j, i in links]
    for combo in product(*ranges):
        rows = [[0] * K for _ in range(K)]
        for (j, i), v in zip(links, combo):
            rows[j][i] = v
        ok = all(
            sum(rows[j][i] for j in range(K) if j != i) == spec.M[i]
            and sum(rows[i][j] for j in range(K) if j != i) == spec.M[i]
            for i in range(K)
        )
        if ok:
            return True
    return False


def _random_small_spec(seed):
    from halfcake import random_square_spec

    return random_square_spec(seed, K_max=3, M_max=3)


def test_flow_agrees_with_bruteforce_small():
    checked = 0
    for t in range(120):
        spec = _random_small_spec((900, t))
        if spec.M_sigma > 9:
            continue
        checked += 1
        assert (reduced_rank_feasible(spec) is not None) == reference_feasible_bruteforce(spec)
    assert checked >= 60


def test_flow_counterexample_infeasible(counterexample_spec):
    assert reduced_rank_feasible(counterexample_spec) is None
    evidence = feasibility_evidence(counterexample_spec)
    assert evidence == {
        "feasible": False,
        "max_flow": 23,
        "required": 24,
        "cut": {"tx_source_side": [1, 2], "rx_source_side": [3]},
        "certificate": None,
    }


def test_feasibility_evidence_runs_one_max_flow(monkeypatch, reduced_spec):
    calls = []
    flow = BlockPattern.max_flow
    monkeypatch.setattr(BlockPattern, "max_flow",
                        lambda pattern: calls.append(pattern) or flow(pattern))
    evidence = feasibility_evidence(reduced_spec)
    assert len(calls) == 1
    assert evidence["certificate"] == reduced_rank_feasible(reduced_spec).to_json()


def test_flow_reduced_example_certificate(reduced_spec):
    cert = reduced_rank_feasible(reduced_spec)
    assert cert is not None
    assert cert.rx_sums() == (10, 8, 6) and cert.tx_sums() == (10, 8, 6)
    validate_certificate(reduced_spec, cert)


def _flow_corpus():
    """The 2 404 specs that ``FLOW_DIGEST`` and ``FLOW_CUT_DIGEST`` pin: square presets, then
    random specs."""
    for build in presets.NETWORKS.values():
        spec = build()
        if spec.is_square:
            yield spec
    for t in range(2000):
        yield random_square_spec((23, t), K_max=12, M_max=6)
    for t in range(400):
        yield random_square_spec((24, t))


#: SHA-256 of the newline-joined ``feasibility_evidence`` reports (JSON with
#: sorted keys: max flow, certificate or min cut) over ``_flow_corpus()``,
#: recorded with augmenting paths that walk the blocks in ``entries`` order.
#: That moved 787 of the 1 150 feasible certificates from the ones the earlier
#: set-order search gave; values and cuts, pinned by ``FLOW_CUT_DIGEST``, did
#: not move
FLOW_DIGEST = "70aba0be7330ae9c295530eda88c2e4d40f52921cc425b5027b32941e72218a7"

#: the same reports with the ``certificate`` key dropped: feasibility, max flow
#: and min cut, which every maximum flow shares, whatever its visiting order
FLOW_CUT_DIGEST = "6ced1b910b74165853258f82e5c0f77b865bff8deb1251d0959e5c450167cd63"


def test_feasibility_evidence_pinned_on_corpus():
    texts, cut_texts = [], []
    for spec in _flow_corpus():
        evidence = feasibility_evidence(spec)
        # Lemma 1's flow is the block max flow of the stripped pattern
        assert spec_pattern(spec).flow_cap == evidence["max_flow"]
        texts.append(json.dumps(evidence, sort_keys=True))
        cut_texts.append(json.dumps({k: v for k, v in evidence.items() if k != "certificate"},
                                    sort_keys=True))
    assert len(texts) == 2404 and sum('"feasible": true' in t for t in texts) == 1150
    assert hashlib.sha256("\n".join(cut_texts).encode()).hexdigest() == FLOW_CUT_DIGEST
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == FLOW_DIGEST


def test_flow_two_user_forced():
    spec = NetworkSpec.square((4, 4))
    cert = reduced_rank_feasible(spec)
    assert int(cert.reduced_ranks[0][1]) == 4 and int(cert.reduced_ranks[1][0]) == 4


def test_flow_requires_square(asym_spec):
    with pytest.raises(NotSquareCase):
        reduced_rank_feasible(asym_spec)


# ---------------------------------------------------------------------------
# 3-user explicit condition: eq. (5) (tests/paper_constructs.py)
# ---------------------------------------------------------------------------


def test_eq5_counterexample_mins(counterexample_spec):
    # min{16, 14, 11} + min{12, 16, 14} = 23 < 24
    assert check_condition_eq5(counterexample_spec) is False


def test_eq5_full_rank_small():
    assert check_condition_eq5(NetworkSpec.square((2, 2, 2))) is True


def test_eq5_wrong_k():
    with pytest.raises(WrongK):
        check_condition_eq5(NetworkSpec.square((2, 2)))


def test_eq5_equals_flow_feasibility_exhaustive_small():
    """Exhaustive equivalence for K = 3, M_k <= 2 (the M_k <= 3 sweep runs in acceptance)."""
    for M in product((1, 2), repeat=3):
        links = [(j, i) for j in range(3) for i in range(3) if i != j]
        ranges = [range(min(M[i], M[j]) + 1) for j, i in links]
        for combo in product(*ranges):
            spec = NetworkSpec.square(M, dict(zip(links, combo)))
            assert check_condition_eq5(spec) == (reduced_rank_feasible(spec) is not None)


# ---------------------------------------------------------------------------
# symmetric classification
# ---------------------------------------------------------------------------


def test_classify_aligned_pair_violation():
    spec = NetworkSpec.square((4, 4, 4), {(0, 1): 1, (1, 0): 1})
    out = classify_symmetric_3user(spec)
    assert out.status == "EXCEEDS_HALF_CAKE"
    assert out.violated == "cd7" and out.scheme_family == "aligned-pair"
    lhs, rhs, ok = evaluate_cd_inequalities(spec)["cd7"]
    assert (lhs, rhs, ok) == (2, 4, False)


def test_classify_zero_forcing_violation():
    spec = NetworkSpec.square((4, 2, 2), {(0, 1): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1})
    out = classify_symmetric_3user(spec)
    assert out.status == "EXCEEDS_HALF_CAKE"
    assert out.violated == "cd1" and out.scheme_family == "zero-forcing"


def test_classify_all_hold():
    out = classify_symmetric_3user(NetworkSpec.square((2, 2, 2)))
    assert out.status == "HALF_CAKE_OPTIMAL" and out.violated is None


def test_classify_requires_symmetry(counterexample_spec):
    with pytest.raises(NotSymmetric):
        classify_symmetric_3user(counterexample_spec)


# ---------------------------------------------------------------------------
# closed-form assignment (tests/paper_constructs.py)
# ---------------------------------------------------------------------------


def test_assign_reduced_example_matches_known_reduction(reduced_spec):
    cert = assign_reduced_ranks_3user(reduced_spec)
    assert cert.to_json() == [[None, 8, 2], [4, None, 4], [6, 0, None]]


def test_assign_uniform_small():
    cert = assign_reduced_ranks_3user(NetworkSpec.square((2, 2, 2)))
    validate_certificate(NetworkSpec.square((2, 2, 2)), cert)


def test_assign_degenerate_equals_constraints():
    spec = NetworkSpec.square(
        (1, 1, 2), {(0, 1): 0, (1, 0): 0, (0, 2): 1, (2, 0): 1, (1, 2): 1, (2, 1): 1})
    cert = assign_reduced_ranks_3user(spec)
    for j in range(3):
        for i in range(3):
            if i != j:
                assert int(cert.reduced_ranks[j][i]) == spec.D[j][i]


def test_assign_rejects_outside_polytope(counterexample_spec):
    with pytest.raises(ConditionFails):
        assign_reduced_ranks_3user(counterexample_spec)


def test_assign_valid_on_random_in_polytope_specs():
    from halfcake import random_square_spec

    hits = 0
    for t in range(300):
        spec = random_square_spec((41, t), K_max=3, M_max=4, K_min=3)
        if spec.K != 3 or not check_condition_eq5(spec):
            continue
        hits += 1
        validate_certificate(spec, assign_reduced_ranks_3user(spec))
    assert hits >= 10


# ---------------------------------------------------------------------------
# prior-work special cases, decided by the flow
# ---------------------------------------------------------------------------


def test_chips_5_3_2():
    # full rank with M_1 = M_2 + M_3: user 1's links are forced, so the certificate is unique
    cert = reduced_rank_feasible(NetworkSpec.square((5, 3, 2)))
    assert cert.to_json() == [[None, 3, 2], [3, None, 0], [2, 0, None]]


def test_chips_equal_three():
    cert = reduced_rank_feasible(NetworkSpec.square((3, 3, 3)))
    assert cert.rx_sums() == (3, 3, 3) and cert.tx_sums() == (3, 3, 3)


def test_chips_dominant_user_rejected():
    spec = NetworkSpec.square((8, 3, 2))
    assert reduced_rank_feasible(spec) is None
    evidence = feasibility_evidence(spec)
    assert evidence["max_flow"] == 10 and evidence["required"] == 13


def test_symmetric_allocation_4_5_2():
    spec = NetworkSpec.square([5] * 4, {(j, i): 2 for j in range(4) for i in range(4) if i != j})
    cert = reduced_rank_feasible(spec)
    for i in range(4):
        col = sorted((int(cert.reduced_ranks[j][i]) for j in range(4) if j != i), reverse=True)
        assert col == [2, 2, 1]
    assert cert.tx_sums() == (5, 5, 5, 5)


def test_symmetric_allocation_exact_division():
    spec = NetworkSpec.square([4] * 3, {(j, i): 2 for j in range(3) for i in range(3) if i != j})
    cert = reduced_rank_feasible(spec)
    assert all(int(cert.reduced_ranks[j][i]) == 2 for j in range(3) for i in range(3) if i != j)


def test_symmetric_allocation_condition_fails():
    spec = NetworkSpec.square([4] * 3, {(j, i): 1 for j in range(3) for i in range(3) if i != j})
    assert reduced_rank_feasible(spec) is None


# ---------------------------------------------------------------------------
# certificate extraction by generic-rank tests
# ---------------------------------------------------------------------------


def test_necessity_reduction_reduced_example(reduced_spec):
    cert = necessity_reduction(reduced_spec)
    assert cert is not None
    assert cert.rx_sums() == (10, 8, 6) and cert.tx_sums() == (10, 8, 6)


def test_necessity_reduction_two_user_keeps_everything():
    spec = NetworkSpec.square((3, 3))
    cert = necessity_reduction(spec)
    assert int(cert.reduced_ranks[0][1]) == 3 and int(cert.reduced_ranks[1][0]) == 3


def test_necessity_reduction_infeasible_returns_none(counterexample_spec):
    assert necessity_reduction(counterexample_spec) is None


def test_necessity_reduction_matches_flow_row_sums():
    rng = np.random.default_rng(55)
    hits = 0
    while hits < 6:
        M = tuple(int(v) for v in rng.integers(1, 4, size=3))
        if max(M) > sum(M) - max(M):
            continue  # dominant user: full-rank cross still infeasible
        spec = NetworkSpec.square(M)
        assert reduced_rank_feasible(spec) is not None
        cert = necessity_reduction(spec)
        assert cert is not None
        assert cert.tx_sums() == spec.M and cert.rx_sums() == spec.M
        hits += 1


def test_necessity_reduction_rejects_non_square():
    with pytest.raises(NotSquareCase):
        necessity_reduction(NetworkSpec.make((2, 2), (3, 2)))


def _reduction_corpus():
    """The specs of the 239 ``necessity_reduction`` runs that ``REDUCTION_DIGEST`` pins."""
    yield presets.reduced_example_network()
    yield NetworkSpec.square((3, 3))
    yield presets.counterexample_network()
    rng = np.random.default_rng(55)
    hits = 0
    while hits < 6:
        M = tuple(int(v) for v in rng.integers(1, 4, size=3))
        if max(M) <= sum(M) - max(M):
            yield NetworkSpec.square(M)
            hits += 1
    for t in range(150):
        yield random_square_spec((77, t))
    t = hits = 0
    while hits < 80:
        spec = random_square_spec((78, t), K_min=2, K_max=4, M_max=4)
        if reduced_rank_feasible(spec) is not None:
            yield spec
            hits += 1
        t += 1


#: SHA-256 of the newline-joined ``necessity_reduction(spec)`` certificates
#: (``to_json()``, or null) over ``_reduction_corpus()``, in its order,
#: recorded with the rank-1 coefficient determinant tests this replaced
REDUCTION_DIGEST = "ac7b90bb682ef611ca49c486cd637b4b4790927c93d57a29c38a726c1db01c18"


def test_necessity_reduction_pinned_on_corpus():
    certs = [necessity_reduction(spec) for spec in _reduction_corpus()]
    assert len(certs) == 239 and sum(c is not None for c in certs) == 96
    texts = [json.dumps(None if c is None else c.to_json()) for c in certs]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == REDUCTION_DIGEST


def test_full_rank_checks_work_pinned(monkeypatch):
    """The reduction's full-rank checks read the flow and draw nothing, and
    the Lemma 1 run works out one flow per spec, on its rank side none."""
    from halfcake import exact_linalg

    instantiated, flows = [], []
    instantiate, max_flow = exact_linalg.instantiate_pattern, BlockPattern.max_flow
    monkeypatch.setattr(exact_linalg, "instantiate_pattern",
                        lambda *a, **kw: instantiated.append(1) or instantiate(*a, **kw))
    for spec in _reduction_corpus():
        necessity_reduction(spec)
    assert instantiated == []
    monkeypatch.setattr(BlockPattern, "max_flow", lambda self: flows.append(1) or max_flow(self))
    assert lemma1_equivalence_run(seed=0)["feasible"] == 16
    assert len(flows) == 200


def _sampled_full_rank(spec, seed) -> bool:
    """Generic full rank by sampling alone, as ``lemma1_equivalence_run``'s
    rank side decides it: the structural cap reaches M_sigma and one of 8
    seeded instantiations has rank M_sigma."""
    pattern = spec_pattern(spec)
    return pattern.structural_cap() >= spec.M_sigma and any(
        rank_mod_p(instantiate_pattern(pattern, rng_from(seed, 0x6C, k))) == spec.M_sigma
        for k in range(8))


def test_cap_shortcut_equals_the_sampled_answer(monkeypatch):
    """The flow answers each full-rank check as 8 sampled trials do, on every
    check ``necessity_reduction`` makes on ``_reduction_corpus()`` and every
    spec ``lemma1_equivalence_run`` draws at seeds 0-4."""
    from halfcake import rank_feasibility

    checks = []
    monkeypatch.setattr(rank_feasibility, "generic_rank",
                        lambda spec: checks.append(spec) or generic_rank(spec))
    for spec in _reduction_corpus():
        necessity_reduction(spec)
    monkeypatch.undo()
    assert len(checks) == 1197
    cases = [(spec, (0xA1, n)) for n, spec in enumerate(checks)]
    cases += [(random_square_spec((s, t)), (s, t)) for s in range(5) for t in range(200)]
    full = 0
    for spec, seed in cases:
        answer = generic_rank(spec) == spec.M_sigma
        assert answer == _sampled_full_rank(spec, seed)
        full += answer
    # 530 reduction checks, and 16, 11, 9, 5 and 12 lemma1 draws at seeds 0-4, are full rank
    assert full == 530 + 53


# ---------------------------------------------------------------------------
# boundary cases and verdict dispatch
# ---------------------------------------------------------------------------


def test_boundary_sum_instance():
    spec = NetworkSpec.square((5, 3, 2), {(1, 0): 3, (2, 0): 2}, default="zero")
    verdict = boundary_case_verdict(spec)
    assert verdict.status == "OPTIMAL_CERTIFIED"
    assert any(w.startswith("Theorem5") for w in verdict.witnesses)
    assert verdict.bound == Fraction(5)
    assert reduced_rank_feasible(spec) is None


def test_boundary_equal_instance():
    spec = NetworkSpec.square((5, 5, 3), {(1, 0): 5, (2, 0): 3, (1, 2): 3}, default="zero")
    verdict = boundary_case_verdict(spec)
    assert verdict.status == "OPTIMAL_CERTIFIED"
    assert any(w.startswith("Theorem6") for w in verdict.witnesses)
    assert verdict.bound == Fraction(13, 2)
    assert reduced_rank_feasible(spec) is None


def test_boundary_relabeled_instance_found():
    # same shape with users listed in a different order
    spec = NetworkSpec.square((3, 5, 2), {(0, 1): 3, (2, 1): 2}, default="zero")
    verdict = boundary_case_verdict(spec)
    assert verdict.status == "OPTIMAL_CERTIFIED"


def test_boundary_no_condition_is_undecided():
    verdict = boundary_case_verdict(NetworkSpec.square((3, 2, 2), default="zero"))
    assert verdict.status == "UNDECIDED"


def test_boundary_theorem5_bound_is_half_cake_exactly_under_condition():
    spec = NetworkSpec.square((5, 3, 2), {(0, 1): 3, (0, 2): 2}, default="zero")
    verdict = boundary_case_verdict(spec)
    assert verdict.status == "OPTIMAL_CERTIFIED"
    assert verdict.bound == spec.half_cake


def test_verdict_counterexample_undecided(counterexample_spec):
    verdict = half_cake_verdict(counterexample_spec)
    assert verdict.status == "UNDECIDED"
    assert verdict.certificate is None
    assert "aligned-pair-scheme-available" in verdict.witnesses
    assert verdict.half_cake == Fraction(12)


def test_verdict_reduced_example_certified(reduced_spec):
    verdict = half_cake_verdict(reduced_spec)
    assert verdict.status == "OPTIMAL_CERTIFIED"
    assert verdict.witnesses == ("Lemma1-flow",)
    assert verdict.half_cake == Fraction(12)
    assert verdict.to_json()["half_cake"] == {"num": 12, "den": 1}


def test_verdict_two_user_full():
    verdict = half_cake_verdict(NetworkSpec.square((2, 2)))
    assert verdict.status == "OPTIMAL_CERTIFIED"
    assert verdict.half_cake == Fraction(2)


def test_verdict_symmetric_violation_reports_scheme_family():
    spec = NetworkSpec.square((4, 4, 4), {(0, 1): 1, (1, 0): 1})
    verdict = half_cake_verdict(spec)
    assert verdict.status == "MORE_THAN_HALF_POSSIBLE"
    assert "Theorem4-cd7" in verdict.witnesses
    assert "aligned-pair" in verdict.witnesses


def test_certificate_validation_rejects_violations(reduced_spec):
    from halfcake.errors import CertificateInfeasible

    with pytest.raises(CertificateInfeasible, match=r"^entry \(1,2\) = 9 outside \[0, D\] = \[0, 8\]$"):
        validate_certificate(reduced_spec,
                             ReducedRankCertificate.from_rows([[0, 9, 1], [4, 0, 4], [6, 0, 0]]))
    with pytest.raises(CertificateInfeasible, match=r"^sums \(9, 8, 6\) / \(10, 8, 5\) do not "
                                                    r"all equal M = \(10, 8, 6\)$"):
        validate_certificate(reduced_spec,
                             ReducedRankCertificate.from_rows([[0, 8, 1], [4, 0, 4], [6, 0, 0]]))
    with pytest.raises(CertificateInfeasible, match="^certificate size disagrees with the spec$"):
        validate_certificate(reduced_spec, ReducedRankCertificate.from_rows([[0, 1], [1, 0]]))


class _CountingRow(tuple):
    """A certificate row that counts the cells read from it."""

    reads = 0

    def __getitem__(self, i):
        _CountingRow.reads += 1
        return super().__getitem__(i)


def test_certificate_validation_reads_each_cell_once():
    K = 300
    spec = NetworkSpec.square((1,) * K)
    rows = reduced_rank_feasible(spec).reduced_ranks
    cert = ReducedRankCertificate(tuple(_CountingRow(row) for row in rows))
    _CountingRow.reads = 0
    assert validate_certificate(spec, cert) is cert
    assert _CountingRow.reads == K * (K - 1)
