"""Replication-based sum-DoF outer bounds.

A replication plan copies user i into mu_i replicas and wires each
receiver replica to exactly one replica of every interfering transmitter,
so any coding scheme for the original network keeps working replica-wise.
Splitting the replicas into two fully cooperating groups leaves a 2-user
channel whose cross matrix is assembled from original blocks and zeros;
its rank turns into the bound (Mbar1 + Nbar2 - rank) / mu for uniform
replica counts, and into a weighted-sum statement otherwise.

The all-connected variant with uniform random link scalars supports the
linear-scheme lifting argument and is unique up to those scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .channel_model import (
    ChannelRealization,
    ExtendedRealization,
    NetworkSpec,
    _json_int,
)
from .errors import (
    BadPartition,
    BadShape,
    InconsistentBound,
    InvalidArgument,
    NonUniformMu,
    PlanViolatesDefinition1,
)
from .exact_linalg import (
    MERSENNE61,
    BlockPattern,
    _place_blocks,
    generic_rank_pattern,
    numerical_rank,
    rank_mod_p,
    rng_from,
)

Replica = Tuple[int, int]  # (user, copy), 0-based


@dataclass(frozen=True)
class ReplicationPlan:
    """Replica counts, interference wiring, and a cooperation partition.

    ``assign[(j, beta, i)] = alpha`` says receiver replica (j, beta) hears
    transmitter replica (i, alpha) on the original (j, i) cross link; all
    other replicas of user i stay disconnected from it.  Construction
    raises PlanViolatesDefinition1 or BadPartition unless every count is at
    least 1, every receiver replica hears one replica of each interferer,
    and the partition splits the replicas into two groups.
    """

    mu: Tuple[int, ...]
    assign: Dict[Tuple[int, int, int], int]
    partition: Tuple[Tuple[Replica, ...], Tuple[Replica, ...]]

    def __post_init__(self):
        K = len(_replica_counts(self.mu))
        _check_partition(self.mu, self.partition)  # bounds sum(mu) before the wiring expands it
        wiring = {(j, b, i) for j in range(K) for b in range(self.mu[j])
                  for i in range(K) if i != j}
        if self.assign.keys() != wiring:
            j, beta, i = min(self.assign.keys() ^ wiring)
            what = "missing" if (j, beta, i) in wiring else "not a cross link"
            raise PlanViolatesDefinition1(
                f"receiver ({j + 1},{beta + 1}) must hear each interferer once; "
                f"its entry for user {i + 1} is {what}")
        for (j, beta, i), alpha in self.assign.items():
            if not 0 <= alpha < self.mu[i]:
                raise PlanViolatesDefinition1(f"receiver ({j + 1},{beta + 1}) wired to missing "
                                              f"replica {alpha + 1} of user {i + 1}")

    @property
    def K(self) -> int:
        return len(self.mu)

    @property
    def uniform_mu(self) -> Optional[int]:
        return self.mu[0] if len(set(self.mu)) == 1 else None

    def swapped(self) -> "ReplicationPlan":
        return ReplicationPlan(self.mu, self.assign, (self.partition[1], self.partition[0]))

    def encoding(self) -> tuple:
        return (self.mu, tuple(sorted(self.assign.items())), self.partition)

    @classmethod
    def from_shifts(cls, mu: Sequence[int], shifts, partition) -> "ReplicationPlan":
        """Circulant wiring: receiver copy beta hears transmitter copy beta + shift."""
        mu = _replica_counts(mu)
        K = len(mu)
        if len(shifts) != K or any(len(row) != K for row in shifts):
            raise BadShape(f"plan shift table must be {K} x {K}")
        partition = _normalize_partition(partition)
        _check_partition(mu, partition)
        assign = {}
        for j in range(K):
            for i in range(K):
                if i == j:
                    continue
                s = int(shifts[j][i])
                for beta in range(mu[j]):
                    assign[(j, beta, i)] = (beta + s) % mu[i]
        return cls(mu, assign, partition)

    @classmethod
    def mirror(cls, K: int, partition=None) -> "ReplicationPlan":
        """Two copies per user; each receiver copy hears the other copy of each interferer."""
        shifts = [[1 if i != j else 0 for i in range(K)] for j in range(K)]
        if partition is None:
            partition = contiguous_partition([2] * K, [1] * K)
        return cls.from_shifts([2] * K, shifts, partition)

    @classmethod
    def identity(cls, K: int, partition=None) -> "ReplicationPlan":
        if partition is None:
            partition = contiguous_partition([1] * K, [1] + [0] * (K - 1))
        shifts = [[0] * K for _ in range(K)]
        return cls.from_shifts([1] * K, shifts, partition)

    def to_json(self) -> dict:
        shifts = _as_shift_table(self)
        assign_json = (
            {"shifts": shifts}
            if shifts is not None
            else {"table": [[j + 1, b + 1, i + 1, a + 1] for (j, b, i), a in sorted(self.assign.items())]}
        )
        return {
            "mu": list(self.mu),
            "assign": assign_json,
            "partition": [
                [[u + 1, c + 1] for (u, c) in group] for group in self.partition
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ReplicationPlan":
        try:
            mu = tuple(_json_int(m, "mu") for m in obj["mu"])
            partition = tuple(
                tuple((_json_int(u, "partition") - 1, _json_int(c, "partition") - 1)
                      for u, c in group)
                for group in obj["partition"]
            )
            raw = obj["assign"]
            shifts = table = None
            if isinstance(raw, dict) and "shifts" in raw:
                shifts = [[0 if v is None else _json_int(v, "shifts") for v in row]
                          for row in raw["shifts"]]
            elif isinstance(raw, dict) and "table" in raw:
                table = {
                    (_json_int(j, "table") - 1, _json_int(b, "table") - 1,
                     _json_int(i, "table") - 1): _json_int(a, "table") - 1
                    for j, b, i, a in raw["table"]
                }
        except (KeyError, TypeError, ValueError) as exc:
            raise BadShape(f"malformed replication plan: {exc}") from exc
        if raw == "mirror":
            if any(m != 2 for m in mu):
                raise PlanViolatesDefinition1("mirror wiring needs mu = 2 for every user")
            return cls.mirror(len(mu), partition)
        if shifts is not None:
            return cls.from_shifts(mu, shifts, partition)
        if table is not None:
            return cls(mu, table, _normalize_partition(partition))
        raise BadShape("unrecognized plan assignment encoding")


def _normalize_partition(partition) -> Tuple[Tuple[Replica, ...], ...]:
    return tuple(tuple((int(u), int(c)) for u, c in group) for group in partition)


def _replica_counts(mu: Sequence[int]) -> Tuple[int, ...]:
    """``mu`` as a tuple of ints; PlanViolatesDefinition1 unless every count is at least 1."""
    mu = tuple(int(m) for m in mu)
    if any(m < 1 for m in mu):
        raise PlanViolatesDefinition1("replica counts must be positive")
    return mu


def _check_partition(mu: Sequence[int], partition) -> None:
    """BadPartition unless ``partition`` is two groups covering every replica exactly once."""
    if len(partition) != 2:
        raise BadPartition(f"partition needs two groups, got {len(partition)}")
    seen = sorted(tuple(replica) for group in partition for replica in group)
    if len(seen) != sum(mu) or seen != [(i, a) for i, m in enumerate(mu) for a in range(m)]:
        raise BadPartition("partition must cover every replica exactly once")


def _as_shift_table(plan: ReplicationPlan):
    """Recover a circulant shift table when the wiring is circulant, else None."""
    K = len(plan.mu)
    shifts = [[None] * K for _ in range(K)]
    for j in range(K):
        for i in range(K):
            if i == j:
                continue
            base = plan.assign[(j, 0, i)]
            for beta in range(plan.mu[j]):
                if plan.assign[(j, beta, i)] != (beta + base) % plan.mu[i]:
                    return None
            shifts[j][i] = base
    return shifts


def contiguous_partition(mu: Sequence[int], cuts: Sequence[int]
                         ) -> Tuple[Tuple[Replica, ...], Tuple[Replica, ...]]:
    """Group 1 takes the first cuts[i] copies of user i, group 2 the rest."""
    g1, g2 = [], []
    for i, (m, c) in enumerate(zip(mu, cuts)):
        if not 0 <= c <= m:
            raise BadPartition(f"cut {c} outside [0, {m}] for user {i + 1}")
        g1.extend((i, a) for a in range(c))
        g2.extend((i, a) for a in range(c, m))
    return tuple(g1), tuple(g2)


# ---------------------------------------------------------------------------
# replicated network construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReplicatedNetwork:
    """Replicas of every user of ``spec`` plus the source of every replica-pair block."""

    spec: NetworkSpec
    plan: ReplicationPlan
    users: Tuple[Replica, ...]
    #: (rx index, tx index) into ``users`` -> original (j, i), absent means zero
    source: Dict[Tuple[int, int], Tuple[int, int]]

    def index(self, replica: Replica) -> int:
        return self.users.index(replica)

    @property
    def rep_spec(self) -> NetworkSpec:
        """The replicated network as a spec of its own, one user per replica."""
        spec, users, source = self.spec, self.users, self.source
        R = len(users)
        D = tuple(
            tuple(
                None if r == t else (spec.D[source[(r, t)][0]][source[(r, t)][1]]
                                     if (r, t) in source else 0)
                for t in range(R)
            )
            for r in range(R)
        )
        return NetworkSpec(tuple(spec.M[u] for u, _ in users),
                           tuple(spec.N[u] for u, _ in users), D)


def build_replicated(spec: NetworkSpec, plan: ReplicationPlan) -> ReplicatedNetwork:
    """Wire the replicated network of a plan with one replica count per user of ``spec``."""
    if plan.K != spec.K:
        raise PlanViolatesDefinition1("plan user count disagrees with the spec")
    K = spec.K
    users = tuple((i, a) for i in range(K) for a in range(plan.mu[i]))
    idx = {u: t for t, u in enumerate(users)}
    source: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for t, (i, alpha) in enumerate(users):
        source[(t, t)] = (i, i)
    for (j, beta, i), alpha in plan.assign.items():
        source[(idx[(j, beta)], idx[(i, alpha)])] = (j, i)
    return ReplicatedNetwork(spec, plan, users, source)


def realize_replicated(repnet: ReplicatedNetwork, real: ChannelRealization
                       ) -> ChannelRealization:
    """Fill the replicated network's blocks from an original realization."""
    R = len(repnet.users)
    spec = repnet.rep_spec
    blocks = {(r, t): real.blocks[repnet.source[(r, t)]] if (r, t) in repnet.source
              else np.zeros((spec.N[r], spec.M[t]), dtype=real.domain.dtype)
              for r in range(R) for t in range(R)}
    return ChannelRealization(spec, real.domain, blocks, real.seed)


# ---------------------------------------------------------------------------
# cooperation and bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CooperativeChannel:
    """2-user channel after full intra-group cooperation."""

    repnet: ReplicatedNetwork
    group1: Tuple[Replica, ...]
    group2: Tuple[Replica, ...]
    Mbar1: int
    Nbar1: int
    Mbar2: int
    Nbar2: int
    #: cross matrix from group-1 transmitters to group-2 receivers
    pattern: BlockPattern

    def instantiate(self, real: ChannelRealization) -> np.ndarray:
        """Dense group1-tx -> group2-rx matrix for a concrete realization."""
        return _place_blocks(self.pattern, real.blocks, real.domain.dtype)


def cooperate(repnet: ReplicatedNetwork,
              partition: Tuple[Sequence[Replica], Sequence[Replica]]) -> CooperativeChannel:
    partition = _normalize_partition(partition)
    _check_partition(repnet.plan.mu, partition)
    g1, g2 = partition
    spec = repnet.spec
    idx = {u: t for t, u in enumerate(repnet.users)}
    entries = {}
    for r, rx in enumerate(g2):
        for c, tx in enumerate(g1):
            src = repnet.source.get((idx[rx], idx[tx]))
            if src is not None:
                entries[(r, c)] = src
    pattern = BlockPattern(
        tuple(spec.N[u] for u, _ in g2), tuple(spec.M[u] for u, _ in g1), entries
    )
    return CooperativeChannel(
        repnet, g1, g2,
        Mbar1=sum(spec.M[u] for u, _ in g1),
        Nbar1=sum(spec.N[u] for u, _ in g1),
        Mbar2=sum(spec.M[u] for u, _ in g2),
        Nbar2=sum(spec.N[u] for u, _ in g2),
        pattern=pattern,
    )


@dataclass(frozen=True)
class DofBound:
    """One replication outer bound with its full provenance."""

    value: Fraction
    mu: int
    rank: int
    Mbar1: int
    Nbar2: int
    plan: ReplicationPlan
    method: str

    def __post_init__(self):
        if self.value * self.mu + self.rank != self.Mbar1 + self.Nbar2:
            raise InconsistentBound(
                f"bound {self.value} * mu {self.mu} + rank {self.rank} "
                f"!= Mbar1 {self.Mbar1} + Nbar2 {self.Nbar2}")

    def to_json(self) -> dict:
        return {
            "bound": {"num": self.value.numerator, "den": self.value.denominator},
            "mu": self.mu,
            "rank": self.rank,
            "Mbar1": self.Mbar1,
            "Nbar2": self.Nbar2,
            "plan": self.plan.to_json(),
            "method": self.method,
        }


def _coop_rank(spec, plan: ReplicationPlan, trials, seed, p,
               realization: Optional[ChannelRealization]
               ) -> Tuple[CooperativeChannel, int, str]:
    """Cooperation channel of ``plan`` and the rank of its cross matrix, with the method."""
    coop = cooperate(build_replicated(spec, plan), plan.partition)
    if realization is not None:
        mat = coop.instantiate(realization)
        if realization.domain.is_complex:
            return coop, numerical_rank(mat, realization.domain.tol), "realized-complex"
        return coop, rank_mod_p(mat, realization.domain.p), "realized-prime"
    r = generic_rank_pattern(spec, coop.pattern, trials=trials, seed=seed, p=p)
    return coop, r, f"generic-prime-field(trials={trials})"


def outer_bound(spec: NetworkSpec, plan: ReplicationPlan, trials: int = 8, seed: int = 0,
                realization: Optional[ChannelRealization] = None,
                p: int = MERSENNE61) -> DofBound:
    """Sum-DoF outer bound (Mbar1 + Nbar2 - rank) / mu for a uniform plan."""
    mu = plan.uniform_mu
    if mu is None:
        raise NonUniformMu("sum-DoF bound needs uniform replica counts; "
                           "use weighted_dof_bound for weighted statements")
    coop, rank_val, method = _coop_rank(spec, plan, trials, seed, p, realization)
    value = Fraction(coop.Mbar1 + coop.Nbar2 - rank_val, mu)
    return DofBound(value, mu, rank_val, coop.Mbar1, coop.Nbar2, plan, method)


@dataclass(frozen=True)
class WeightedBoundStatement:
    """Inequality sum_k mu_k d_k <= rhs, with the cooperation evidence."""

    mu: Tuple[int, ...]
    rhs: int
    rank: int
    Mbar1: int
    Nbar2: int
    plan: ReplicationPlan
    method: str

    def statement(self) -> str:
        lhs = " + ".join(f"{m}*d_{k + 1}" for k, m in enumerate(self.mu))
        return f"{lhs} <= {self.rhs}"

    def to_json(self) -> dict:
        return {
            "mu": list(self.mu),
            "rhs": self.rhs,
            "rank": self.rank,
            "Mbar1": self.Mbar1,
            "Nbar2": self.Nbar2,
            "statement": self.statement(),
            "plan": self.plan.to_json(),
            "method": self.method,
        }


def weighted_dof_bound(spec: NetworkSpec, mu: Sequence[int], plan: ReplicationPlan,
                       trials: int = 8, seed: int = 0,
                       realization: Optional[ChannelRealization] = None,
                       p: int = MERSENNE61) -> WeightedBoundStatement:
    """Weighted-sum DoF statement from one replicated network after cooperation."""
    if tuple(mu) != plan.mu:
        raise PlanViolatesDefinition1("weight vector disagrees with the plan's replica counts")
    coop, rank_val, method = _coop_rank(spec, plan, trials, seed, p, realization)
    rhs = coop.Mbar1 + coop.Nbar2 - rank_val
    return WeightedBoundStatement(plan.mu, rhs, rank_val, coop.Mbar1, coop.Nbar2, plan, method)


# ---------------------------------------------------------------------------
# bounded search over plans
# ---------------------------------------------------------------------------

#: trials of each screening rank inside the search; the winner is re-certified
_SCREEN_TRIALS = 1

#: candidates scored per numpy call; keeps the kernel's scratch arrays small
_CHUNK = 1024


def _oriented_partition(mu: int, cuts, swap) -> Tuple[Tuple[Replica, ...], Tuple[Replica, ...]]:
    """Contiguous partition of uniform copies, with the groups exchanged if ``swap``."""
    partition = contiguous_partition([mu] * len(cuts), [int(c) for c in cuts])
    return partition[::-1] if swap else partition


def _offset_class_shifts(K: int, mu: int):
    """Shift tables that depend only on (i - j) mod K; covers the mirror wiring."""
    for combo in product(range(mu), repeat=K - 1):
        table = [[0] * K for _ in range(K)]
        for j in range(K):
            for i in range(K):
                if i != j:
                    table[j][i] = combo[(i - j) % K - 1]
        yield table


def _candidates(K: int, mu_max: int, budget: int, seed: int):
    """Groups ``(mus, cuts, swap, tables, ranked)`` of circulant candidates.

    Cuts sit on the outer loop: a group's rows (replica count ``mus[n]``,
    per-user cuts ``cuts[n]``, groups exchanged where ``swap[n]``) are
    paired with each shift table that ``tables`` yields in turn, either one
    K x K table for every row or one table per row.  Tables are built
    lazily, so a consumer that stops iterating ``tables`` never builds the
    rest.  First, for each mu <= mu_max, every per-user cut in both group
    orientations, paired with each offset-class shift table (``ranked``:
    the search walks each table's rows best potential first).  Then up to
    ``2 * budget`` random rows with 2 <= mu <= mu_max and a random full
    shift table each, drawn lazily from one seeded stream ``_CHUNK`` at a
    time (walked in draw order).
    """
    for mu in range(1, mu_max + 1):
        one_side = np.array(list(product(range(mu + 1), repeat=K)), dtype=np.int64)
        cuts = np.concatenate([one_side, one_side])
        swap = np.repeat([False, True], len(one_side))
        yield np.full(len(cuts), mu), cuts, swap, _offset_class_shifts(K, mu), True
    if mu_max < 2:
        return
    rng = rng_from(seed, 0x5E)
    links = ~np.eye(K, dtype=bool)
    for drawn in range(0, 2 * budget, _CHUNK):
        n = min(_CHUNK, 2 * budget - drawn)
        mus = rng.integers(2, mu_max + 1, size=n)
        shifts = rng.integers(0, mus[:, None, None], size=(n, K, K)) * links
        cuts = rng.integers(0, mus[:, None] + 1, size=(n, K))
        swap = rng.integers(0, 2, size=n).astype(bool)
        yield mus, cuts, swap, [shifts], False


def _link_ranks(spec: NetworkSpec) -> np.ndarray:
    """``D[j][i]`` as an int64 K x K array with a zero diagonal."""
    K = spec.K
    return np.array([[0 if i == j else spec.D[j][i] for i in range(K)] for j in range(K)],
                    dtype=np.int64)


def candidate_potentials(spec: NetworkSpec, mu: int, shifts, cuts, swap) -> np.ndarray:
    """Mbar1 + Nbar2 - structural rank cap for a batch of circulant candidates.

    Row n is the plan with uniform replica count ``mu``, shift table
    ``shifts[n]`` (K x K, diagonal ignored), contiguous cuts ``cuts[n]``
    and, where ``swap[n]``, the two groups exchanged.  The integers equal
    those of ``cooperate(build_replicated(spec, plan), plan.partition)``
    and its ``pattern.structural_cap(spec)``, without building either:
    receiver copy (j, b) in group 2 hears transmitter copy
    (i, (b + s_ji) % mu), so its row budget sums D[j][i] over the i whose
    copy is in group 1, and transmitter copy (i, a) in group 1 reaches
    receiver copy (j, (a - s_ji) % mu), so its column budget sums D[j][i]
    over the j whose copy is in group 2.
    """
    K = spec.K
    M = np.array(spec.M, dtype=np.int64)
    N = np.array(spec.N, dtype=np.int64)
    D = _link_ranks(spec)[None, :, None, :]
    shifts, cuts, swap = np.asarray(shifts), np.asarray(cuts), np.asarray(swap, dtype=bool)
    copies = np.arange(mu)
    users = np.arange(K)
    out = np.empty(len(cuts), dtype=np.int64)
    for lo in range(0, len(cuts), _CHUNK):
        hi = lo + _CHUNK
        s = shifts[lo:hi, :, None, :]                                     # (n, j, 1, i)
        g1 = (copies < cuts[lo:hi, :, None]) ^ swap[lo:hi, None, None]    # (n, user, copy)
        g2 = ~g1
        cand = np.arange(len(g1))[:, None, None, None]
        # [n, j, b, i]: transmitter copy (i, (b + s_ji) % mu) sits in group 1
        heard = g1[cand, users, (copies[:, None] + s) % mu]
        row = (heard * D).sum(axis=3)                                     # (n, j, b)
        # [n, j, a, i]: receiver copy (j, (a - s_ji) % mu) sits in group 2
        reached = g2[cand, users[:, None, None], (copies[:, None] - s) % mu]
        col = (reached * D).sum(axis=1).transpose(0, 2, 1)                # (n, i, a)
        rows = (g2 * np.minimum(N[:, None], row)).sum(axis=(1, 2))
        cols = (g1 * np.minimum(M[:, None], col)).sum(axis=(1, 2))
        mbar1 = g1.sum(axis=2) @ M
        nbar2 = g2.sum(axis=2) @ N
        out[lo:hi] = mbar1 + nbar2 - np.minimum(np.minimum(rows, cols), np.minimum(mbar1, nbar2))
    return out


def _potential_floors(spec: NetworkSpec, mus, cuts, swap) -> np.ndarray:
    """Lower bound on ``candidate_potentials`` that holds for every shift table.

    Row n has n1 = copies of each user in group 1 and n2 = mus[n] - n1 in
    group 2.  A group-2 receiver copy of user j hears at most the
    interferers with a copy in group 1, so its row budget is at most
    rowcap_j = min(N_j, sum of D[j][i] over i with n1_i > 0); likewise a
    group-1 transmitter copy of user i has column budget at most
    colcap_i = min(M_i, sum of D[j][i] over j with n2_j > 0).  So the
    structural cap is at most min(n2 . rowcap, n1 . colcap, Mbar1, Nbar2),
    and Mbar1 + Nbar2 minus that depends only on (mu, cuts, swap).  With
    mu = 1 every copy sits on its user's side and the floor is the potential.
    """
    M = np.array(spec.M, dtype=np.int64)
    N = np.array(spec.N, dtype=np.int64)
    D = _link_ranks(spec)
    mus = np.asarray(mus)[:, None]
    cuts = np.asarray(cuts)
    n1 = np.where(np.asarray(swap, dtype=bool)[:, None], mus - cuts, cuts)
    n2 = mus - n1
    rowcap = np.minimum(N, (n1 > 0) @ D.T)
    colcap = np.minimum(M, (n2 > 0) @ D)
    mbar1 = n1 @ M
    nbar2 = n2 @ N
    cap = np.minimum(np.minimum((n2 * rowcap).sum(axis=1), (n1 * colcap).sum(axis=1)),
                     np.minimum(mbar1, nbar2))
    return mbar1 + nbar2 - cap


def search_bounds(spec: NetworkSpec, mu_max: int, budget: int = 10000, seed: int = 0,
                  certify_trials: int = 8) -> DofBound:
    """Best bound over circulant plans with contiguous cooperation groups.

    Walks one stream of candidates (``_candidates``): for each uniform
    mu <= mu_max the offset-class shift tables with all per-user
    contiguous cuts in both group orientations, then up to ``2 * budget``
    seeded random full shift tables.  Candidates are screened
    cheapest-first.  A floor that ignores the shift table
    (``_potential_floors``, one value per mu, cuts and orientation) drops
    the rows that cannot beat the current best before anything else is
    computed.  The structural rank cap, computed on integer arrays by
    ``candidate_potentials``, then gives each remaining row a potential
    (best value it could still reach), and only rows whose potential
    beats the current best are built as plans and pay for a rank
    evaluation over 2**61-1.  Offset-class candidates are walked by
    (potential, partition), random ones in draw order.  The best only
    falls, so a mu whose least floor over all cuts cannot beat it never
    can: its remaining offset-class tables are skipped, and the random
    phase ends once no mu in 2..mu_max can win.  None of this changes the
    rows that are evaluated or their order.  ``budget`` bounds the work:
    at most ``budget`` rank evaluations (memo hits are free) and at most
    ``2 * budget`` random candidates scored.  The winner is re-certified
    at ``certify_trials``.  Ties break lexicographically on (bound, mu,
    plan encoding).
    """
    if mu_max < 1:
        raise InvalidArgument(f"mu_max must be >= 1, got {mu_max}")
    if budget < 1:
        raise InvalidArgument(f"budget must be >= 1, got {budget}")
    K = spec.K
    best_key = best_plan = None  # best_key = (value, mu, plan encoding)
    evals = 0
    rank_memo: dict = {}
    least_floor = np.zeros(mu_max + 1, dtype=np.int64)  # per mu, over all cuts and orientations
    random_mus = np.arange(2, mu_max + 1)

    def beats_best(potential, mu):
        """Whether potential / mu is below the best value; broadcasts over arrays."""
        if best_key is None:
            return np.ones_like(potential, dtype=bool)
        return potential * best_key[0].denominator < best_key[0].numerator * mu

    for mus, cuts, swap, tables, ranked in _candidates(K, mu_max, budget, seed):
        if evals >= budget:
            break
        floors = _potential_floors(spec, mus, cuts, swap)
        if ranked:
            least_floor[mus[0]] = floors.min()
        elif not beats_best(least_floor[random_mus], random_mus).any():
            break
        for table in tables:
            live = np.flatnonzero(beats_best(floors, mus))
            if evals >= budget or not len(live):
                break
            shifts = np.broadcast_to(table, (len(mus), K, K))
            potentials = np.zeros(len(mus), dtype=np.int64)
            for mu in np.unique(mus[live]):
                sel = live[mus[live] == mu]
                potentials[sel] = candidate_potentials(spec, int(mu), shifts[sel], cuts[sel],
                                                       swap[sel])
            rows = [(int(potentials[n]), int(mus[n]),
                     _oriented_partition(mus[n], cuts[n], swap[n]), n)
                    for n in live[beats_best(potentials[live], mus[live])]]
            for potential, mu, partition, n in sorted(rows) if ranked else rows:
                if evals >= budget:
                    break
                if not beats_best(potential, mu):
                    continue
                plan = ReplicationPlan.from_shifts([mu] * K, shifts[n], partition)
                coop = cooperate(build_replicated(spec, plan), plan.partition)
                key = (coop.pattern.row_sizes, coop.pattern.col_sizes,
                       tuple(sorted(coop.pattern.entries.items())))
                if key not in rank_memo:
                    evals += 1
                    rank_memo[key] = generic_rank_pattern(spec, coop.pattern,
                                                          trials=_SCREEN_TRIALS,
                                                          seed=(seed, evals))
                value = Fraction(coop.Mbar1 + coop.Nbar2 - rank_memo[key], mu)
                cand_key = (value, mu, plan.encoding())
                if best_key is None or cand_key < best_key:
                    best_key, best_plan = cand_key, plan

    return outer_bound(spec, best_plan, trials=certify_trials, seed=seed)


# ---------------------------------------------------------------------------
# all-connected networks for linear-scheme lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CreatedNetwork:
    """All-connected replica network with uniform random cross scalars."""

    spec: NetworkSpec
    mu: Tuple[int, ...]
    rep_spec: NetworkSpec
    users: Tuple[Replica, ...]
    scalars: Dict[Tuple[int, int, int, int], float]  # (j, beta, i, alpha) -> [0, 1)
    seed: int


def build_created_network(spec: NetworkSpec, mu: Sequence[int], seed: int = 0
                          ) -> CreatedNetwork:
    """Unique-up-to-scalars network where every cross replica pair is connected."""
    mu = _replica_counts(mu)
    if len(mu) != spec.K:
        raise BadShape("need one replica count per user")
    rng = rng_from(seed, 0xCE)
    users = tuple((i, a) for i in range(spec.K) for a in range(mu[i]))
    scalars = {}
    for j in range(spec.K):
        for beta in range(mu[j]):
            for i in range(spec.K):
                if i == j:
                    continue
                for alpha in range(mu[i]):
                    scalars[(j, beta, i, alpha)] = float(rng.uniform(0.0, 1.0))
    M = tuple(spec.M[u] for u, _ in users)
    N = tuple(spec.N[u] for u, _ in users)
    D = tuple(tuple(None if r == t else 0 if i == j else spec.D[j][i]
                    for t, (i, _) in enumerate(users))
              for r, (j, _) in enumerate(users))
    rep_spec = NetworkSpec(M, N, D)
    return CreatedNetwork(spec, mu, rep_spec, users, scalars, seed)


def created_extension(created: CreatedNetwork, ext: ExtendedRealization
                      ) -> ExtendedRealization:
    """Channel realization of the created network lifted from an original extension."""
    if ext.spec != created.spec:
        raise BadShape("extension was sampled for a different spec")
    slots = []
    for slot in ext.slots:
        blocks = {}
        for r, (j, beta) in enumerate(created.users):
            for t, (i, alpha) in enumerate(created.users):
                if r == t:
                    blocks[(r, t)] = slot.blocks[(j, j)]
                elif i == j:
                    blocks[(r, t)] = np.zeros((created.rep_spec.N[r], created.rep_spec.M[t]),
                                              dtype=ext.domain.dtype)
                else:
                    blocks[(r, t)] = created.scalars[(j, beta, i, alpha)] * slot.blocks[(j, i)]
        slots.append(ChannelRealization(created.rep_spec, ext.domain, blocks, created.seed))
    return ExtendedRealization(tuple(slots))
