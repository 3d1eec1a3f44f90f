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
from itertools import islice, product
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .channel_model import (
    ChannelRealization,
    ExtendedRealization,
    NetworkSpec,
    _json_frac,
    _json_int,
)
from .errors import (
    BadPartition,
    BadShape,
    InconsistentBound,
    InvalidArgument,
    NonUniformMu,
    PlanViolatesDefinition1,
    SearchTooLarge,
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
        assign = {(j, beta, i): (beta + int(shifts[j][i])) % mu[i]
                  for j in range(K) for i in range(K) if i != j for beta in range(mu[j])}
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
    shifts = [[None if i == j else plan.assign[(j, 0, i)] for i in range(K)] for j in range(K)]
    if any(alpha != (beta + shifts[j][i]) % plan.mu[i]
           for (j, beta, i), alpha in plan.assign.items()):
        return None
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
            "bound": _json_frac(self.value),
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

#: random candidates drawn from the seeded stream at a time
_CHUNK = 1024

#: rows scored per numpy pass; keeps the kernel's scratch arrays small
_BATCH = 256

#: most floor-table entries a search may need, sum over mu <= mu_max of
#: (mu + 1)**K; it enumerates twice as many cut rows, so K = 9 at mu_max 3
#: (282 339 entries, several seconds and a few hundred MB) passes and
#: K = 10 at mu_max 3 does not
MAX_FLOOR_ENTRIES = 2 ** 20


def _oriented_partition(mu: int, cuts, swap) -> Tuple[Tuple[Replica, ...], Tuple[Replica, ...]]:
    """Contiguous partition of uniform copies, with the groups exchanged if ``swap``."""
    partition = contiguous_partition([mu] * len(cuts), [int(c) for c in cuts])
    return partition[::-1] if swap else partition


def _offset_class_shifts(K: int, mu: int):
    """Shift tables that depend only on (i - j) mod K; covers the mirror wiring."""
    for combo in product(range(mu), repeat=K - 1):
        yield [[0 if i == j else combo[(i - j) % K - 1] for i in range(K)] for j in range(K)]


def _cut_rows(K: int, mu: int) -> np.ndarray:
    """Every per-user cut in range(mu + 1), the last user's varying fastest."""
    return np.indices((mu + 1,) * K, dtype=np.int64).reshape(K, -1).T


def _spec_arrays(spec: NetworkSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(M, N, D)`` as int64 arrays, ``D[j][i]`` K x K with a zero diagonal."""
    K = spec.K
    D = np.array([[0 if i == j else spec.D[j][i] for i in range(K)] for j in range(K)],
                 dtype=np.int64)
    return np.array(spec.M, dtype=np.int64), np.array(spec.N, dtype=np.int64), D


def candidate_potentials(spec: NetworkSpec, mu, shifts, cuts, swap, arrays=None) -> np.ndarray:
    """Mbar1 + Nbar2 - structural rank cap for a batch of circulant candidates.

    Row n is the plan with uniform replica count ``mu`` (``mu[n]`` if
    ``mu`` is an array, so one call scores rows of mixed counts), shift
    table ``shifts[n]`` (K x K, diagonal ignored), contiguous cuts
    ``cuts[n]`` and, where ``swap[n]``, the two groups exchanged.  The
    integers equal those of ``cooperate(build_replicated(spec, plan),
    plan.partition)`` and its ``pattern.structural_cap(spec)``, without
    building either: receiver copy (j, b) in group 2 hears transmitter copy
    (i, (b + s_ji) % mu), so its row budget sums D[j][i] over the i whose
    copy is in group 1, and transmitter copy (i, a) in group 1 reaches
    receiver copy (j, (a - s_ji) % mu), so its column budget sums D[j][i]
    over the j whose copy is in group 2.  Copy a of user i is in group 1
    when (a < cuts[n][i]) != swap[n], so membership of a shifted copy is one
    comparison, with no gather.  Rows are scored ``_BATCH`` at a
    time, each with its copies padded up to the largest mu among them; a
    padded copy sits in neither group, so it adds nothing.  ``arrays`` is
    ``_spec_arrays(spec)``, built once by a caller that scores many batches.
    """
    M, N, D = _spec_arrays(spec) if arrays is None else arrays
    D = D[None, :, None, :]
    shifts, cuts, swap = np.asarray(shifts), np.asarray(cuts), np.asarray(swap, dtype=bool)
    mus = np.broadcast_to(mu, len(cuts))
    out = np.empty(len(cuts), dtype=np.int64)
    for lo in range(0, len(cuts), _BATCH):
        hi = lo + _BATCH
        m, c, sw = mus[lo:hi, None, None], cuts[lo:hi], swap[lo:hi, None, None]
        copies = np.arange(m.max())
        real = copies < m                                                 # (n, 1, copy)
        g1 = ((copies < c[:, :, None]) ^ sw) & real                       # (n, user, copy)
        g2 = real & ~g1
        s = shifts[lo:hi, :, None, :]                                     # (n, j, 1, i)
        m, sw = m[..., None], sw[..., None]
        # [n, j, b, i]: transmitter copy (i, (b + s_ji) % mu) sits in group 1
        heard = ((copies[:, None] + s) % m < c[:, None, None, :]) ^ sw
        row = (heard * D).sum(axis=3)                                     # (n, j, b)
        # [n, j, a, i]: receiver copy (j, (a - s_ji) % mu) sits in group 2
        reached = ((copies[:, None] - s) % m < c[:, :, None, None]) == sw
        col = (reached * D).sum(axis=1).transpose(0, 2, 1)                # (n, i, a)
        rows = (g2 * np.minimum(N[:, None], row)).sum(axis=(1, 2))
        cols = (g1 * np.minimum(M[:, None], col)).sum(axis=(1, 2))
        mbar1 = g1.sum(axis=2) @ M
        nbar2 = g2.sum(axis=2) @ N
        out[lo:hi] = mbar1 + nbar2 - np.minimum(np.minimum(rows, cols), np.minimum(mbar1, nbar2))
    return out


def _group_copies(mus, cuts, swap) -> Tuple[np.ndarray, np.ndarray]:
    """``(n1, n2)``: each row's copies of every user in group 1 and in group 2."""
    mus = np.asarray(mus)[:, None]
    cuts = np.asarray(cuts)
    n1 = np.where(np.asarray(swap, dtype=bool)[:, None], mus - cuts, cuts)
    return n1, mus - n1


def _potential_floors(spec: NetworkSpec, mus, cuts, swap, arrays=None) -> np.ndarray:
    """Lower bound on ``candidate_potentials`` that holds for every shift table.

    Row n has n1 = copies of each user in group 1 and n2 = mus[n] - n1 in
    group 2.  In a circulant wiring the group-2 copies b of receiver j hear
    the distinct copies (b + s_ji) % mu of transmitter i, so at most
    min(n1_i, n2_j) of them hear a group-1 copy of i.  Split the
    interferers of j into the big ones, n1_i >= n2_j, whose ranks sum to
    B_j = sum of D[j][i], and the small ones, 0 < n1_i < n2_j, and let
    H_j = max(N_j - B_j, 0).  A group-2 copy hears big interferers of
    weight B <= B_j and small ones of weight T in group 1, so its row
    budget is

        min(N_j, B + T) <= min(N_j, B_j + T) = min(N_j, B_j) + min(H_j, T),

    and min(H_j, T) is at most the sum of min(D[j][i], H_j) over the small
    i it hears.  Summed over the n2_j copies, the last term is at most
    n2_j * H_j, and at most the sum over small i of n1_i * min(D[j][i], H_j),
    since a small i reaches at most n1_i of them.  So the row budgets of
    user j sum to at most

        n2_j * min(N_j, B_j) + min(n2_j * H_j, sum of n1_i * min(D[j][i], H_j)),

    and the column budgets of transmitter i to the same bound with M_i, its
    n1_i group-1 copies and the receivers' n2_j (``_budget_bound``).  The
    structural cap is at most min(sum of row bounds, sum of column bounds,
    Mbar1, Nbar2), and Mbar1 + Nbar2 minus that depends only on (mu, n1).
    With mu = 1 every copy sits on its user's side, no interferer is small,
    and the floor is the potential.  ``arrays`` is ``_spec_arrays(spec)``,
    as in ``candidate_potentials``.
    """
    M, N, D = _spec_arrays(spec) if arrays is None else arrays
    n1, n2 = _group_copies(mus, cuts, swap)
    mbar1 = n1 @ M
    nbar2 = n2 @ N
    cap = np.minimum(mbar1, nbar2)
    for lo in range(0, len(cap), _BATCH):  # the bounds' scratch arrays hold K * K per row
        part = slice(lo, lo + _BATCH)
        cap[part] = np.minimum(cap[part], np.minimum(_budget_bound(n2[part], n1[part], D, N),
                                                     _budget_bound(n1[part], n2[part], D.T, M)))
    return mbar1 + nbar2 - cap


def _budget_bound(own, other, W, cap) -> np.ndarray:
    """Per row, the bound of ``_potential_floors`` on one side's summed budgets.

    ``own[n][u]`` copies of user u sit on this side, each with budget
    min(cap[u], rank it hears), ``other[n][v]`` copies of user v on the
    far side, and ``W[u][v]`` is the rank between u and v (zero for u = v).
    """
    big = other[:, None, :] >= own[:, :, None]                  # (n, u, v)
    base = (big * W).sum(axis=2)
    head = np.maximum(cap - base, 0)
    # a small v reaches at most other[v] of u's copies; one with no copy there adds nothing
    extra = (np.where(big, 0, other[:, None, :]) * np.minimum(W, head[:, :, None])).sum(axis=2)
    return (own * np.minimum(cap, base) + np.minimum(own * head, extra)).sum(axis=1)


class _FloorTable:
    """``_potential_floors`` of every (mu, n1) with mu <= mu_max, computed once.

    n1 is the copies of each user in group 1, and a row's floor depends on
    the row only through (mu, n1).  The entries of one mu follow those of
    all smaller ones, ordered by n1 read as a base-(mu + 1) number;
    ``least[mu]`` is the least floor of that mu.
    """

    def __init__(self, spec: NetworkSpec, mu_max: int, arrays=None):
        self.starts = np.concatenate([[0, 0], np.cumsum(np.arange(2, mu_max + 2) ** spec.K)])
        parts = []
        for mu in range(1, mu_max + 1):
            n1 = _cut_rows(spec.K, mu)
            parts.append(_potential_floors(spec, np.full(len(n1), mu), n1,
                                           np.zeros(len(n1), dtype=bool), arrays))
        self.floors = np.concatenate(parts)
        self.least = np.array([0] + [part.min() for part in parts])

    def lookup(self, mus, cuts, swap) -> np.ndarray:
        """The floor of each row."""
        mus = np.asarray(mus)
        n1, _ = _group_copies(mus, cuts, swap)
        index = n1[:, 0]
        for k in range(1, n1.shape[1]):
            index = index * (mus + 1) + n1[:, k]
        return self.floors[self.starts[mus] + index]


def search_bounds(spec: NetworkSpec, mu_max: int, budget: int = 10000, seed: int = 0,
                  certify_trials: int = 8) -> DofBound:
    """Best bound over circulant plans with contiguous cooperation groups.

    Walks the candidates in two phases.  First, for each uniform
    mu <= mu_max, the offset-class shift tables (``_offset_class_shifts``)
    with every per-user contiguous cut in both group orientations, as many
    tables at a time as fit in ``_BATCH`` rows.  Then up to ``2 * budget``
    seeded random full shift tables with 2 <= mu <= mu_max, drawn
    ``_CHUNK`` rows at a time.  A floor that holds for every shift table
    (``_potential_floors``, which gives the proof) drops the rows that
    cannot beat the current best before anything else is computed; it
    depends only on (mu, n1), so ``_FloorTable`` computes it once for
    every (mu, n1) before the walk, and both phases read it there.  Both
    phases hand the remaining rows to one step, ``rank``: the structural
    rank cap, computed on integer arrays by ``candidate_potentials``,
    gives each row a potential (best value it could still reach), and only
    rows whose potential beats the current best are built as plans and
    pay for a rank evaluation over 2**61-1.  They are walked by (group,
    potential, partition), the group being a row's table within its batch
    in the offset-class phase and its draw index in the random phase.
    Each row is tested against the best again when its turn comes, so the
    checks that end a phase early change nothing: the walk of a mu ends,
    between batches, once its least floor cannot beat the best (if a row's
    floor no longer beats the best, neither does its potential), and no
    random chunk is drawn once no mu in 2..mu_max can win.  None of this
    changes the rows that are evaluated or their order.
    ``budget`` bounds the work: at most ``budget`` rank evaluations (memo
    hits are free) and at most ``2 * budget`` random candidates scored.
    The winner is re-certified at ``certify_trials``.  Ties break
    lexicographically on (bound, mu, plan encoding).  SearchTooLarge if
    the floor table would have more than ``MAX_FLOOR_ENTRIES`` entries.
    """
    if mu_max < 1:
        raise InvalidArgument(f"mu_max must be >= 1, got {mu_max}")
    if budget < 1:
        raise InvalidArgument(f"budget must be >= 1, got {budget}")
    K = spec.K
    entries = 0
    for mu in range(1, mu_max + 1):  # Python ints: stops early on a huge mu_max
        entries += (mu + 1) ** K
        if entries > MAX_FLOOR_ENTRIES:
            raise SearchTooLarge(f"a search over {K} users up to mu_max {mu_max} needs more "
                                 f"than {MAX_FLOOR_ENTRIES} (mu, cut) floor entries")
    arrays = _spec_arrays(spec)
    floors = _FloorTable(spec, mu_max, arrays)
    best_key = best_plan = None  # best_key = (value, mu, plan encoding)
    evals = 0
    rank_memo: dict = {}

    def beats_best(potential, mu):
        """Whether potential / mu is below the best value; broadcasts over arrays."""
        if best_key is None:
            return np.ones_like(potential, dtype=bool)
        return potential * best_key[0].denominator < best_key[0].numerator * mu

    def rank(mus, shifts, cuts, swap, group):
        """Score rows, then rank those that beat the best by (group, potential, mu, partition)."""
        nonlocal evals, best_key, best_plan
        potentials = candidate_potentials(spec, mus, shifts, cuts, swap, arrays)
        keep = np.flatnonzero(beats_best(potentials, mus))
        rows = sorted((g, p, mu, _oriented_partition(mu, cuts[n], swap[n]), n)
                      for g, p, mu, n in zip(group[keep].tolist(), potentials[keep].tolist(),
                                             mus[keep].tolist(), keep.tolist()))
        for _, potential, mu, partition, n in rows:
            if evals >= budget:
                return
            if not beats_best(potential, mu):
                continue
            plan = ReplicationPlan.from_shifts([mu] * K, shifts[n].tolist(), partition)
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

    for mu in range(1, mu_max + 1):
        one_side = _cut_rows(K, mu)
        cuts = np.concatenate([one_side, one_side])
        swap = np.repeat([False, True], len(one_side))
        row_floors = floors.lookup(np.full(len(cuts), mu), cuts, swap)
        tables = _offset_class_shifts(K, mu)
        while evals < budget and beats_best(floors.least[mu], mu):
            live = np.flatnonzero(beats_best(row_floors, mu))
            batch = list(islice(tables, max(1, _BATCH // len(live))))
            if not batch:
                break
            n = len(batch) * len(live)
            rank(np.full(n, mu), np.repeat(batch, len(live), axis=0),
                 np.tile(cuts[live], (len(batch), 1)), np.tile(swap[live], len(batch)),
                 np.arange(n) // len(live))

    rng = rng_from(seed, 0x5E)
    links = ~np.eye(K, dtype=bool)
    random_mus = np.arange(2, mu_max + 1)
    for drawn in range(0, 2 * budget, _CHUNK):
        if evals >= budget or not beats_best(floors.least[random_mus], random_mus).any():
            break
        n = min(_CHUNK, 2 * budget - drawn)
        mus = rng.integers(2, mu_max + 1, size=n)
        shifts = rng.integers(0, mus[:, None, None], size=(n, K, K)) * links
        cuts = rng.integers(0, mus[:, None] + 1, size=(n, K))
        swap = rng.integers(0, 2, size=n).astype(bool)
        live = np.flatnonzero(beats_best(floors.lookup(mus, cuts, swap), mus))
        if len(live):
            rank(mus[live], shifts[live], cuts[live], swap[live], live)

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
