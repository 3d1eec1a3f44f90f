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
    validate_spec,
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
    other replicas of user i stay disconnected from it.
    """

    mu: Tuple[int, ...]
    assign: Dict[Tuple[int, int, int], int]
    partition: Tuple[Tuple[Replica, ...], Tuple[Replica, ...]]

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
        mu = tuple(int(m) for m in mu)
        K = len(mu)
        assign = {}
        for j in range(K):
            for i in range(K):
                if i == j:
                    continue
                s = int(shifts[j][i])
                for beta in range(mu[j]):
                    assign[(j, beta, i)] = (beta + s) % mu[i]
        return cls(mu, assign, _normalize_partition(partition))

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


def _normalize_partition(partition) -> Tuple[Tuple[Replica, ...], Tuple[Replica, ...]]:
    g1, g2 = partition
    return (tuple((int(u), int(c)) for u, c in g1), tuple((int(u), int(c)) for u, c in g2))


def _as_shift_table(plan: ReplicationPlan):
    """Recover a circulant shift table when the wiring is circulant, else None."""
    K = len(plan.mu)
    shifts = [[None] * K for _ in range(K)]
    for j in range(K):
        for i in range(K):
            if i == j:
                continue
            base = plan.assign.get((j, 0, i))
            if base is None:
                return None
            for beta in range(plan.mu[j]):
                if plan.assign.get((j, beta, i)) != (beta + base) % plan.mu[i]:
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
    """Replicated spec plus the source of every replica-pair block."""

    spec: NetworkSpec
    plan: ReplicationPlan
    rep_spec: NetworkSpec
    users: Tuple[Replica, ...]
    #: (rx index, tx index) into ``users`` -> original (j, i), absent means zero
    source: Dict[Tuple[int, int], Tuple[int, int]]

    def index(self, replica: Replica) -> int:
        return self.users.index(replica)


def build_replicated(spec: NetworkSpec, plan: ReplicationPlan) -> ReplicatedNetwork:
    """Wire the replicated network, validating both wiring constraints."""
    validate_spec(spec)
    if plan.K != spec.K:
        raise PlanViolatesDefinition1("plan user count disagrees with the spec")
    if any(m < 1 for m in plan.mu):
        raise PlanViolatesDefinition1("replica counts must be positive")
    K = spec.K
    for (j, beta, i), alpha in plan.assign.items():
        if i == j:
            raise PlanViolatesDefinition1("desired links are wired implicitly, not via assign")
        if not (0 <= j < K and 0 <= i < K and 0 <= beta < plan.mu[j]):
            raise PlanViolatesDefinition1(f"assignment key ({j}, {beta}, {i}) out of range")
        if not 0 <= alpha < plan.mu[i]:
            raise PlanViolatesDefinition1(
                f"receiver ({j + 1},{beta + 1}) wired to missing replica {alpha + 1} of user {i + 1}"
            )
    for j in range(K):
        for beta in range(plan.mu[j]):
            for i in range(K):
                if i != j and (j, beta, i) not in plan.assign:
                    raise PlanViolatesDefinition1(
                        f"receiver ({j + 1},{beta + 1}) has no wiring for interferer {i + 1}"
                    )

    users = tuple((i, a) for i in range(K) for a in range(plan.mu[i]))
    idx = {u: t for t, u in enumerate(users)}
    source: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for t, (i, alpha) in enumerate(users):
        source[(t, t)] = (i, i)
    for (j, beta, i), alpha in plan.assign.items():
        source[(idx[(j, beta)], idx[(i, alpha)])] = (j, i)

    R = len(users)
    M = tuple(spec.M[u] for u, _ in users)
    N = tuple(spec.N[u] for u, _ in users)
    D = tuple(
        tuple(
            None if r == t else (spec.D[source[(r, t)][0]][source[(r, t)][1]]
                                 if (r, t) in source else 0)
            for t in range(R)
        )
        for r in range(R)
    )
    rep_spec = NetworkSpec(M, N, D)
    return ReplicatedNetwork(spec, plan, rep_spec, users, source)


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
    g1, g2 = _normalize_partition(partition)
    seen = list(g1) + list(g2)
    if sorted(seen) != sorted(repnet.users) or len(set(seen)) != len(seen):
        raise BadPartition("partition must cover every replica exactly once")
    spec = repnet.spec
    idx = {u: t for t, u in enumerate(repnet.users)}
    entries = {}
    for r, rx in enumerate(g2):
        for c, tx in enumerate(g1):
            src = repnet.source.get((idx[rx], idx[tx]))
            if src is not None and src[0] != src[1]:
                entries[(r, c)] = src
            elif src is not None:
                # same-user desired block can never cross groups: replicas
                # are whole users, so (i, a) -> (i, a) stays inside a group
                raise BadPartition("internal: desired block crossed the partition")
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


def _coop_rank(spec, coop: CooperativeChannel, trials, seed, p,
               realization: Optional[ChannelRealization]) -> Tuple[int, str]:
    if realization is not None:
        mat = coop.instantiate(realization)
        if realization.domain.is_complex:
            return numerical_rank(mat, realization.domain.tol), "realized-complex"
        return rank_mod_p(mat, realization.domain.p), "realized-prime"
    r = generic_rank_pattern(spec, coop.pattern, trials=trials, seed=seed, p=p)
    return r, f"generic-prime-field(trials={trials})"


def outer_bound(spec: NetworkSpec, plan: ReplicationPlan, trials: int = 8, seed: int = 0,
                realization: Optional[ChannelRealization] = None,
                p: int = MERSENNE61) -> DofBound:
    """Sum-DoF outer bound (Mbar1 + Nbar2 - rank) / mu for a uniform plan."""
    mu = plan.uniform_mu
    if mu is None:
        raise NonUniformMu("sum-DoF bound needs uniform replica counts; "
                           "use weighted_dof_bound for weighted statements")
    repnet = build_replicated(spec, plan)
    coop = cooperate(repnet, plan.partition)
    rank_val, method = _coop_rank(spec, coop, trials, seed, p, realization)
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
    repnet = build_replicated(spec, plan)
    coop = cooperate(repnet, plan.partition)
    rank_val, method = _coop_rank(spec, coop, trials, seed, p, realization)
    rhs = coop.Mbar1 + coop.Nbar2 - rank_val
    return WeightedBoundStatement(plan.mu, rhs, rank_val, coop.Mbar1, coop.Nbar2, plan, method)


# ---------------------------------------------------------------------------
# bounded search over plans
# ---------------------------------------------------------------------------

#: int64-safe prime for cheap screening ranks inside the search
_SCREEN_PRIME = (1 << 31) - 1

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
    D = np.array([[0 if i == j else spec.D[j][i] for i in range(K)] for j in range(K)],
                 dtype=np.int64)[None, :, None, :]
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


def search_bounds(spec: NetworkSpec, mu_max: int, budget: int = 10000, seed: int = 0,
                  screen_trials: int = 1, certify_trials: int = 8) -> DofBound:
    """Best bound over circulant plans with contiguous cooperation groups.

    Enumerates, for each uniform mu <= mu_max, the offset-class shift
    tables and all per-user contiguous cuts (both group orientations),
    then draws up to ``2 * budget`` seeded random full shift tables.
    Candidates are screened cheapest-first: the structural rank cap,
    computed on integer arrays by ``candidate_potentials``, gives every
    candidate a potential (best value it could still reach), and only
    candidates whose potential beats the current best are built as plans
    and pay for a rank evaluation.  ``budget`` bounds the work: at most
    ``budget`` rank evaluations (memo hits are free) and at most
    ``2 * budget`` random candidates scored.  The winner is re-certified
    over the default field at ``certify_trials``.  Ties break
    lexicographically on (bound, mu, plan encoding).
    """
    if mu_max < 1:
        raise InvalidArgument(f"mu_max must be >= 1, got {mu_max}")
    if budget < 1:
        raise InvalidArgument(f"budget must be >= 1, got {budget}")
    validate_spec(spec)
    K = spec.K
    best: Optional[DofBound] = None
    best_key = None
    evals = 0
    rank_memo: dict = {}

    def beats_best(potential: int, mu: int) -> bool:
        return best is None or potential * best.value.denominator < best.value.numerator * mu

    def evaluate(mu: int, shifts, partition) -> None:
        nonlocal best, best_key, evals
        plan = ReplicationPlan.from_shifts([mu] * K, shifts, partition)
        coop = cooperate(build_replicated(spec, plan), plan.partition)
        key = (coop.pattern.row_sizes, coop.pattern.col_sizes,
               tuple(sorted(coop.pattern.entries.items())))
        if key in rank_memo:
            r = rank_memo[key]
        else:
            evals += 1
            r = generic_rank_pattern(spec, coop.pattern, trials=screen_trials,
                                     seed=(seed, evals), p=_SCREEN_PRIME)
            rank_memo[key] = r
        value = Fraction(coop.Mbar1 + coop.Nbar2 - r, mu)
        cand_key = (value, mu, plan.encoding())
        if best_key is None or cand_key < best_key:
            best = DofBound(value, mu, r, coop.Mbar1, coop.Nbar2, plan,
                            f"screen-prime-field(trials={screen_trials})")
            best_key = cand_key

    def run_table(mu: int, shifts, cuts, swap) -> None:
        """Screen every cut of one shift table, best (potential, partition) first."""
        potentials = candidate_potentials(spec, mu, np.broadcast_to(shifts, (len(cuts), K, K)),
                                          cuts, swap)
        for potential in np.unique(potentials):
            if not beats_best(int(potential), mu):
                return
            group = sorted(_oriented_partition(mu, cuts[n], swap[n])
                           for n in np.flatnonzero(potentials == potential))
            for partition in group:
                if not beats_best(int(potential), mu) or evals >= budget:
                    return
                evaluate(mu, shifts, partition)

    for mu in range(1, mu_max + 1):
        one_side = np.array(list(product(range(mu + 1), repeat=K)), dtype=np.int64)
        cuts = np.concatenate([one_side, one_side])
        swap = np.repeat([False, True], len(one_side))
        for shifts in _offset_class_shifts(K, mu):
            if evals >= budget:
                break
            run_table(mu, shifts, cuts, swap)

    # random full shift tables, scored a chunk at a time; repeats are skipped.
    # best is set: the single mu = 1 table always evaluates its first cut.
    rng = rng_from(seed, 0x5E)
    links = ~np.eye(K, dtype=bool)
    seen = set()
    drawn = 0
    while mu_max > 1 and evals < budget and drawn < 2 * budget:
        n = min(_CHUNK, 2 * budget - drawn)
        drawn += n
        mus = rng.integers(2, mu_max + 1, size=n)
        shifts = rng.integers(0, mus[:, None, None], size=(n, K, K)) * links
        cuts = rng.integers(0, mus[:, None] + 1, size=(n, K))
        swap = rng.integers(0, 2, size=n).astype(bool)
        potentials = np.empty(n, dtype=np.int64)
        for mu in np.unique(mus):
            sel = mus == mu
            potentials[sel] = candidate_potentials(spec, int(mu), shifts[sel], cuts[sel], swap[sel])
        survivors = np.flatnonzero(potentials * best.value.denominator
                                   < best.value.numerator * mus)
        for t in survivors:
            mu = int(mus[t])
            key = (mu, shifts[t].tobytes(), cuts[t].tobytes(), bool(swap[t]))
            if key in seen:
                continue
            seen.add(key)
            if evals >= budget:
                break
            if beats_best(int(potentials[t]), mu):
                evaluate(mu, shifts[t], _oriented_partition(mu, cuts[t], swap[t]))

    return outer_bound(spec, best.plan, trials=certify_trials, seed=seed)


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
    validate_spec(spec)
    mu = tuple(int(m) for m in mu)
    if len(mu) != spec.K or any(m < 1 for m in mu):
        raise BadShape("need one positive replica count per user")
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
