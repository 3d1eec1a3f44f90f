"""Paper constructs that only the tests use, kept as reference implementations.

None of these is reached by a ``halfcake`` command: the 3-user closed form
of eq. (5) is checked against Lemma 1's max flow, the 0/1 realization is
Lemma 1's sufficiency construction, and created networks with replica-wise
lifting are the linear-scheme lifting argument.  The library's own paths
(``reduced_rank_feasible``, ``best_exceeding_scheme``, ``outer_bound``)
answer the same questions.
"""

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from halfcake import (
    ChannelRealization,
    ExtendedRealization,
    LinearScheme,
    NetworkSpec,
    ReducedRankCertificate,
    ReplicatedNetwork,
    ScalarDomain,
    validate_certificate,
)
from halfcake.alignment_schemes import _build
from halfcake.errors import BadShape, ConditionFails, NotSquareCase
from halfcake.exact_linalg import _place_blocks, rng_from, spec_pattern
from halfcake.rank_feasibility import _FAMILY_OF, CD_TABLE, _require_3user_square
from halfcake.replication_bounds import Replica, _replica_counts


# ---------------------------------------------------------------------------
# the stripped matrix and Lemma 1's sufficiency construction
# ---------------------------------------------------------------------------


def strip_desired(real: ChannelRealization) -> np.ndarray:
    """Overall matrix with the desired (diagonal) blocks replaced by zeros:
    the matrix ``generic_rank`` instantiates, defined for the square case."""
    if not real.spec.is_square:
        raise NotSquareCase("stripped matrix is defined for the square case M == N")
    return _place_blocks(spec_pattern(real.spec), real.blocks, real.domain.dtype)


def canonical_realization(spec: NetworkSpec, cert: ReducedRankCertificate,
                          domain: ScalarDomain = ScalarDomain.prime_default()
                          ) -> ChannelRealization:
    """0/1 realization whose stripped matrix is a permutation matrix.

    Receiver i's antennas are split into consecutive segments sized by the
    certificate entries for transmitters i+1, i+2, ... (cyclic), and
    transmitter j's antennas likewise by the entries for receivers
    j+1, j+2, ...; matching segments are wired with identities.  Cross
    block (j, i) then has rank exactly cert[j][i] and every antenna is used
    exactly once, so the stripped matrix has full rank.
    """
    if not spec.is_square:
        raise NotSquareCase("canonical construction is defined for the square case")
    K = spec.K
    Db = validate_certificate(spec, cert).reduced_ranks

    dtype = domain.dtype
    # segment offsets: at receiver a the segments run over transmitters
    # b = a+1, ..., a+K-1, at transmitter a over receivers b in the same order
    rx_start, tx_start = {}, {}
    for a in range(K):
        rx_pos = tx_pos = 0
        for step in range(1, K):
            b = (a + step) % K
            rx_start[(a, b)], rx_pos = rx_pos, rx_pos + Db[a][b]
            tx_start[(b, a)], tx_pos = tx_pos, tx_pos + Db[b][a]

    blocks = {}
    for j in range(K):
        for i in range(K):
            if i == j:
                blocks[(j, i)] = np.eye(spec.M[i], dtype=dtype)
                continue
            blk = np.zeros((spec.M[j], spec.M[i]), dtype=dtype)
            r0, c0 = rx_start[(j, i)], tx_start[(j, i)]
            for l in range(Db[j][i]):
                blk[r0 + l, c0 + l] = 1
            blocks[(j, i)] = blk
    return ChannelRealization(spec, domain, blocks, None)


# ---------------------------------------------------------------------------
# eq. (5): the 3-user closed form
# ---------------------------------------------------------------------------


def check_condition_eq5(spec: NetworkSpec) -> bool:
    """3-user min-expression form of the exact-sum condition."""
    _require_3user_square(spec)
    M, d = spec.M, spec.cross_rank
    first = min(M[0] + d(2, 1), M[1] + d(0, 2), M[2] + d(1, 0))
    second = min(M[2] + d(0, 1), M[0] + d(1, 2), M[1] + d(2, 0))
    return first + second >= sum(M)


def assign_reduced_ranks_3user(spec: NetworkSpec) -> ReducedRankCertificate:
    """Closed-form certificate for 3-user specs satisfying the min-expression condition.

    The formulas assume the second min is attained at the first user's
    argument; other cases reduce to it by a cyclic relabeling.
    """
    _require_3user_square(spec)
    if not check_condition_eq5(spec):
        raise ConditionFails("the 3-user sum condition does not hold")
    d = spec.cross_rank
    args = [spec.M[k] + d((k + 1) % 3, (k + 2) % 3) for k in range(3)]
    shift = min(range(3), key=lambda k: (args[k], k))
    perm = tuple((n + shift) % 3 for n in range(3))  # perm[new] = old
    ps = spec.permute(perm)
    M, c = ps.M, ps.cross_rank(1, 2)
    reduced = [[None, M[0] + c - M[2], M[2] - c],
               [M[1] - c, None, c],
               [M[0] + c - M[1], M[1] + M[2] - M[0] - c, None]]
    rows = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            if a != b:
                rows[perm[a]][perm[b]] = reduced[a][b]
    return validate_certificate(spec, ReducedRankCertificate.from_rows(rows))


def scheme_for_cd_violation(ext: ExtendedRealization, violated: str, seed: int = 0
                            ) -> LinearScheme:
    """Build the matching construction for a violated 3-user inequality.

    Relabels users so the violating pair (or receiver) sits in the
    canonical position, builds the aligned-pair or zero-forcing scheme
    there, and returns the scheme in the original user order.
    """
    perm, kind = CD_TABLE[violated]
    return _build(ext, perm, _FAMILY_OF[kind], seed)


# ---------------------------------------------------------------------------
# replicated and all-connected networks for linear-scheme lifting
# ---------------------------------------------------------------------------


def rep_spec(repnet: ReplicatedNetwork) -> NetworkSpec:
    """The replicated network as a spec of its own, one user per replica."""
    spec, users, source = repnet.spec, repnet.users, repnet.source
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


@dataclass(frozen=True, eq=False)
class CreatedNetwork:
    """All-connected replica network with uniform random cross scalars,
    unique up to those scalars."""

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


def lift_scheme(scheme: LinearScheme, mu: Sequence[int]) -> LinearScheme:
    """Reuse each user's beamformer and filter on every one of its replicas."""
    m, V, U = [], [], []
    for k, copies in enumerate(mu):
        for _ in range(int(copies)):
            m.append(scheme.m[k])
            V.append(scheme.V[k])
            U.append(scheme.U[k])
    return LinearScheme(scheme.n, tuple(m), tuple(V), tuple(U))
