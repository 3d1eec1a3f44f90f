"""Replication-based sum-DoF outer bounds.

A replication plan copies user i into mu_i replicas and wires each
receiver replica to exactly one replica of every interfering transmitter,
so any coding scheme for the original network keeps working replica-wise.
Splitting the replicas into two fully cooperating groups leaves a 2-user
channel whose cross matrix is assembled from original blocks and zeros;
its rank turns into the bound (Mbar1 + Nbar2 - rank) / mu for uniform
replica counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .channel_model import (
    ChannelRealization,
    NetworkSpec,
    _json_field,
    _json_frac,
    _json_int,
    _json_list,
)
from .errors import (
    BadPartition,
    BadShape,
    InvalidArgument,
    NonUniformMu,
    PlanViolatesDefinition1,
    SearchTooLarge,
)
from .exact_linalg import (
    BlockPattern,
    _block_rank_bound,
    _place_blocks,
    generic_rank_pattern,
    rank,
    rng_from,
)

Replica = Tuple[int, int]  # (user, copy), 0-based

#: how a plan file is named in the messages of ``ReplicationPlan.from_json``
_PLAN = "replication plan"


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
    def identity(cls, K: int, partition) -> "ReplicationPlan":
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
        mu = tuple(_json_int(m, "mu") for m in _json_list(_json_field(obj, "mu", _PLAN), "mu"))
        partition = tuple(
            tuple((_json_int(u, "partition") - 1, _json_int(c, "partition") - 1)
                  for u, c in (_json_list(entry, "partition entry", 2)
                               for entry in _json_list(group, "partition group")))
            for group in _json_list(_json_field(obj, "partition", _PLAN), "partition"))
        raw = _json_field(obj, "assign", _PLAN)
        if type(raw) is dict and "shifts" in raw:
            shifts = [[v if i == j else _json_int(v, "shifts")
                       for i, v in enumerate(_json_list(row, "shifts row"))]
                      for j, row in enumerate(_json_list(raw["shifts"], "shifts"))]
            if any(row[j] is not None for j, row in enumerate(shifts) if j < len(row)):
                raise BadShape("shifts: a desired link has no shift; the diagonal must be null")
            return cls.from_shifts(mu, shifts, partition)
        if type(raw) is dict and "table" in raw:
            table = {}
            for entry in _json_list(raw["table"], "table"):
                j, b, i, a = (_json_int(v, "table") for v in _json_list(entry, "table entry", 4))
                if (j - 1, b - 1, i - 1) in table:
                    raise PlanViolatesDefinition1(
                        f"receiver ({j},{b}) must hear each interferer once; "
                        f"the table wires it to user {i} twice")
                table[(j - 1, b - 1, i - 1)] = a - 1
            return cls(mu, table, _normalize_partition(partition))
        raise BadShape('assign: expected {"shifts": [...]} or {"table": [...]}')


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


def _check_user_count(spec: NetworkSpec, plan: ReplicationPlan) -> None:
    """PlanViolatesDefinition1 unless ``plan`` has one replica count per user of ``spec``."""
    if plan.K != spec.K:
        raise PlanViolatesDefinition1("plan user count disagrees with the spec")


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
    users: Tuple[Replica, ...]
    #: (rx index, tx index) into ``users`` -> original (j, i), absent means zero
    source: Dict[Tuple[int, int], Tuple[int, int]]


def build_replicated(spec: NetworkSpec, plan: ReplicationPlan) -> ReplicatedNetwork:
    """Wire the replicated network of a plan with one replica count per user of ``spec``."""
    _check_user_count(spec, plan)
    K = spec.K
    users = tuple((i, a) for i in range(K) for a in range(plan.mu[i]))
    idx = {u: t for t, u in enumerate(users)}
    source: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for t, (i, alpha) in enumerate(users):
        source[(t, t)] = (i, i)
    for (j, beta, i), alpha in plan.assign.items():
        source[(idx[(j, beta)], idx[(i, alpha)])] = (j, i)
    return ReplicatedNetwork(spec, users, source)


# ---------------------------------------------------------------------------
# cooperation and bounds
# ---------------------------------------------------------------------------


def cooperate(spec: NetworkSpec, plan: ReplicationPlan) -> BlockPattern:
    """Cross matrix of ``plan``'s two cooperating groups, read straight from its wiring.

    Its shape is (Nbar2, Mbar1): group-2 receivers by group-1 transmitters.
    Receiver replica (j, beta) in group 2 hears transmitter replica
    (i, assign[(j, beta, i)]); when that replica is in group 1, block (j, i)
    sits at their row and column of the cross matrix.
    """
    _check_user_count(spec, plan)
    g1, g2 = plan.partition
    rows = {rx: r for r, rx in enumerate(g2)}
    cols = {tx: c for c, tx in enumerate(g1)}
    entries = {(rows[(j, beta)], cols[(i, alpha)]): (j, i)
               for (j, beta, i), alpha in plan.assign.items()
               if (j, beta) in rows and (i, alpha) in cols}
    return BlockPattern(tuple(spec.N[u] for u, _ in g2), tuple(spec.M[u] for u, _ in g1), entries,
                        {ref: _block_rank_bound(spec, *ref) for ref in entries.values()})


@dataclass(frozen=True)
class DofBound:
    """One replication outer bound of a uniform plan with its full provenance."""

    rank: int
    Mbar1: int
    Nbar2: int
    plan: ReplicationPlan
    method: str

    @property
    def mu(self) -> int:
        return self.plan.mu[0]

    @property
    def value(self) -> Fraction:
        """The bound (Mbar1 + Nbar2 - rank) / mu."""
        return Fraction(self.Mbar1 + self.Nbar2 - self.rank, self.mu)

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


def outer_bound(spec: NetworkSpec, plan: ReplicationPlan, trials: int = 8, seed: int = 0,
                realization: Optional[ChannelRealization] = None) -> DofBound:
    """Sum-DoF outer bound (Mbar1 + Nbar2 - rank) / mu for a uniform plan.

    The rank is the generic one (``generic_rank_pattern``: the block max flow
    when no reference repeats, else sampled over 2**61-1), or that of
    ``realization``'s blocks placed in the cross matrix when one is given.
    """
    if len(set(plan.mu)) > 1:
        raise NonUniformMu(f"sum-DoF bound needs uniform replica counts, got mu {list(plan.mu)}")
    pattern = cooperate(spec, plan)
    if realization is None:
        rank_val = generic_rank_pattern(pattern, trials=trials, seed=seed)
        method = f"generic-prime-field(trials={trials})"
    else:
        domain = realization.domain
        rank_val = rank(_place_blocks(pattern, realization.blocks, domain.dtype), domain)
        method = "realized-complex" if domain.is_complex else "realized-prime"
    Nbar2, Mbar1 = pattern.shape
    return DofBound(rank_val, Mbar1, Nbar2, plan, method)


# ---------------------------------------------------------------------------
# bounded search over plans
# ---------------------------------------------------------------------------

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


def candidate_potentials(spec: NetworkSpec, mu, shifts, cuts, swap) -> np.ndarray:
    """Mbar1 + Nbar2 - structural rank cap for a batch of circulant candidates.

    Row n is the plan with uniform replica count ``mu`` (``mu[n]`` if
    ``mu`` is an array, so one call scores rows of mixed counts), shift
    table ``shifts[n]`` (K x K, diagonal ignored), contiguous cuts
    ``cuts[n]`` and, where ``swap[n]``, the two groups exchanged.  Each
    value is ``sum(pattern.shape) - pattern.structural_cap()`` for
    ``pattern = cooperate(spec, plan)``, without building either: receiver
    copy (j, b) in group 2 hears transmitter copy (i, (b + s_ji) % mu),
    so its row budget sums D[j][i] over the i whose
    copy is in group 1, and transmitter copy (i, a) in group 1 reaches
    receiver copy (j, (a - s_ji) % mu), so its column budget sums D[j][i]
    over the j whose copy is in group 2.  Copy a of user i is in group 1
    when (a < cuts[n][i]) != swap[n], so membership of a shifted copy is one
    comparison, with no gather.  Rows are scored ``_BATCH`` at a
    time, each with its copies padded up to the largest mu among them; a
    padded copy sits in neither group, so it adds nothing.
    """
    M, N, D = _spec_arrays(spec)
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


def _potential_floors(spec: NetworkSpec, mus, n1) -> np.ndarray:
    """Lower bound on ``candidate_potentials`` that holds for every shift table.

    Row n has n1[n] = copies of each user in group 1 and n2 = mus[n] - n1[n]
    in group 2.  In a circulant wiring the group-2 copies b of receiver j hear
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
    and the floor is the potential.
    """
    M, N, D = _spec_arrays(spec)
    n2 = np.asarray(mus)[:, None] - n1
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

    def __init__(self, spec: NetworkSpec, mu_max: int):
        self.starts = np.concatenate([[0, 0], np.cumsum(np.arange(2, mu_max + 2) ** spec.K)])
        n1 = np.concatenate([_cut_rows(spec.K, mu) for mu in range(1, mu_max + 1)])
        mus = np.repeat(np.arange(1, mu_max + 1), np.diff(self.starts[1:]))
        self.floors = _potential_floors(spec, mus, n1)
        self.least = np.concatenate([[0], np.minimum.reduceat(self.floors, self.starts[1:-1])])

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
    rows whose potential beats the current best are built as plans.  They
    are walked by (group, potential, partition), the group being a row's
    table within its batch in the offset-class phase and its draw index in
    the random phase, whose rows are scored in one call once ``_CHUNK`` of
    them have passed the floor, and once at the end.
    A pattern seen for the first time counts as one rank evaluation; the
    memo keeps it, and with it its max-flow cap (``BlockPattern.flow_cap``,
    worked out once), which no rank exceeds.  Only when (Mbar1 + Nbar2 -
    cap) / mu, with its mu and plan encoding, still beats the best key does
    it pay for its generic rank (``generic_rank_pattern`` at
    ``certify_trials``: the cap itself when no reference repeats, else trials
    over 2**61-1 that stop at the first to reach it), seeded by that
    evaluation's index, so a pattern skipped once and ranked at a later memo
    hit gets the same rank, and the rank the search compares is the one it
    returns.
    Each row is tested against the best again when its turn comes, so the
    checks that end a phase early change nothing: the walk of a mu ends,
    between batches, once its least floor cannot beat the best (if a row's
    floor no longer beats the best, neither does its potential), and no
    random chunk is drawn once no mu in 2..mu_max can beat the best as of
    the last scoring call.  None of this
    changes the rows that are evaluated or their order.
    ``budget`` bounds the work: at most ``budget`` rank evaluations (memo
    hits are free, and a pattern the flow cap rules out counts as one) and
    at most ``2 * budget`` random candidates scored.  Ties break
    lexicographically on (bound, mu, plan encoding).  SearchTooLarge if
    the floor table would have more than ``MAX_FLOOR_ENTRIES`` entries.
    """
    if mu_max < 1:
        raise InvalidArgument(f"mu_max must be >= 1, got {mu_max}")
    if budget < 1:
        raise InvalidArgument(f"budget must be >= 1, got {budget}")
    if certify_trials < 1:
        raise InvalidArgument(f"trials must be >= 1, got {certify_trials}")
    K = spec.K
    entries = 0
    for mu in range(1, mu_max + 1):  # Python ints: stops early on a huge mu_max
        entries += (mu + 1) ** K
        if entries > MAX_FLOOR_ENTRIES:
            raise SearchTooLarge(f"a search over {K} users up to mu_max {mu_max} needs more "
                                 f"than {MAX_FLOOR_ENTRIES} (mu, cut) floor entries")
    floors = _FloorTable(spec, mu_max)
    best_key = winner = None  # best_key = (value, mu, plan encoding)
    evals = 0
    rank_memo: dict = {}  # pattern key -> [generic rank or None, its eval index, first pattern]
    method = f"generic-prime-field(trials={certify_trials})"

    def beats_best(potential, mu):
        """Whether potential / mu is below the best value; broadcasts over arrays."""
        if best_key is None:
            return np.ones_like(potential, dtype=bool)
        return potential * best_key[0].denominator < best_key[0].numerator * mu

    def rank(mus, shifts, cuts, swap, group):
        """Score rows, then rank those that beat the best by (group, potential, mu, partition)."""
        nonlocal evals, best_key, winner
        potentials = candidate_potentials(spec, mus, shifts, cuts, swap)
        keep = np.flatnonzero(beats_best(potentials, mus))
        rows = sorted((g, p, mu, _oriented_partition(mu, cuts[n], swap[n]), n)
                      for g, p, mu, n in zip(group[keep].tolist(), potentials[keep].tolist(),
                                             mus[keep].tolist(), keep.tolist()))
        for _, potential, mu, partition, n in rows:
            if evals >= budget:
                break
            if not beats_best(potential, mu):
                continue
            plan = ReplicationPlan.from_shifts([mu] * K, shifts[n].tolist(), partition)
            pattern = cooperate(spec, plan)
            key = (pattern.row_sizes, pattern.col_sizes, tuple(sorted(pattern.entries.items())))
            if key not in rank_memo:
                evals += 1
                rank_memo[key] = [None, evals, pattern]
            rank_val, index, pattern = rank_memo[key]
            cap, total, encoding = pattern.flow_cap, sum(pattern.shape), plan.encoding()
            # no rank exceeds the flow cap, so a plan whose floor key is not below the
            # best cannot win, and its rank is left to a later memo hit that needs it
            if best_key is not None and (Fraction(total - cap, mu), mu, encoding) >= best_key:
                continue
            if rank_val is None:
                rank_val = rank_memo[key][0] = generic_rank_pattern(
                    pattern, trials=certify_trials, seed=(seed, index))
            cand_key = (Fraction(total - rank_val, mu), mu, encoding)
            if best_key is None or cand_key < best_key:
                Nbar2, Mbar1 = pattern.shape
                best_key, winner = cand_key, DofBound(rank_val, Mbar1, Nbar2, plan, method)

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
    pending, held = [], 0  # rows that passed the floor, each with its draw index
    for drawn in range(0, 2 * budget, _CHUNK):
        if evals >= budget or not beats_best(floors.least[random_mus], random_mus).any():
            break
        n = min(_CHUNK, 2 * budget - drawn)
        mus = rng.integers(2, mu_max + 1, size=n)
        shifts = rng.integers(0, mus[:, None, None], size=(n, K, K)) * links
        cuts = rng.integers(0, mus[:, None] + 1, size=(n, K))
        swap = rng.integers(0, 2, size=n).astype(bool)
        live = np.flatnonzero(beats_best(floors.lookup(mus, cuts, swap), mus))
        pending.append((mus[live], shifts[live], cuts[live], swap[live], drawn + live))
        held += len(live)
        if held >= _CHUNK:
            rank(*map(np.concatenate, zip(*pending)))
            pending, held = [], 0
    if held:
        rank(*map(np.concatenate, zip(*pending)))

    return winner
