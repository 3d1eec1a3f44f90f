"""Half-the-cake optimality conditions.

The core test asks for reduced cross ranks whose row and column sums equal
every user's antenna count.  That is a transportation-polytope feasibility
question (supply M_i at each transmitter, demand M_j at each receiver, arc
capacities D[j][i]), and its network is the block max flow of the stripped
pattern, ``spec_pattern(spec).max_flow``: transmitters are its block
columns, receivers its block rows.  Integral capacities make the optimum
integral, so a saturating flow *is* a certificate (the flow of augmenting
paths taken in ``entries`` order), and by Lemma 1 it exists exactly when the
stripped matrix is generically full rank; the earlier full-rank and
uniform-rank results are special cases of that flow.  On top of that sit the
explicit 3-user inequality form, the symmetric-necessity classification and
the boundary cases that certify optimality without any certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Optional, Tuple

from .channel_model import NetworkSpec, _json_frac
from .errors import (
    CertificateInfeasible,
    ConditionFails,
    InvalidArgument,
    NotSquareCase,
    NotSymmetric,
    WrongK,
)
from .exact_linalg import (generic_rank, instantiate_pattern, rank_mod_p, rng_from,
                           spec_pattern)

OPTIMAL_CERTIFIED = "OPTIMAL_CERTIFIED"
MORE_THAN_HALF_POSSIBLE = "MORE_THAN_HALF_POSSIBLE"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class ReducedRankCertificate:
    """K x K matrix of reduced cross ranks (diagonal unused, kept as None)."""

    reduced_ranks: Tuple[Tuple[Optional[int], ...], ...]

    @property
    def K(self) -> int:
        return len(self.reduced_ranks)

    def entry(self, j: int, i: int) -> int:
        return int(self.reduced_ranks[j][i])

    def _cross_rows(self) -> List[List[int]]:
        """The K x K ranks as ints, 0 on the diagonal, each row read once."""
        K = self.K
        return [[0 if i == j else int(row[i]) for i in range(K)]
                for j, row in enumerate(self.reduced_ranks)]

    def tx_sums(self) -> Tuple[int, ...]:
        return tuple(map(sum, zip(*self._cross_rows())))

    def rx_sums(self) -> Tuple[int, ...]:
        return tuple(map(sum, self._cross_rows()))

    def to_json(self) -> list:
        return [[None if v is None else int(v) for v in row] for row in self.reduced_ranks]

    @classmethod
    def from_rows(cls, rows) -> "ReducedRankCertificate":
        return cls(tuple(tuple(None if a == b else int(rows[a][b]) for b in range(len(rows)))
                         for a in range(len(rows))))


def validate_certificate(spec: NetworkSpec, cert: ReducedRankCertificate
                         ) -> ReducedRankCertificate:
    """Enforce entrywise caps and both sum families; raises when violated."""
    if cert.K != spec.K:
        raise CertificateInfeasible("certificate size disagrees with the spec")
    rows = cert._cross_rows()
    for j, row in enumerate(rows):
        for i, v in enumerate(row):
            if i != j and not 0 <= v <= spec.D[j][i]:
                raise CertificateInfeasible(
                    f"entry ({j + 1},{i + 1}) = {v} outside [0, D] = [0, {spec.D[j][i]}]"
                )
    tx, rx = tuple(map(sum, zip(*rows))), tuple(map(sum, rows))
    if tx != spec.M or rx != spec.M:
        raise CertificateInfeasible(f"sums {rx} / {tx} do not all equal M = {spec.M}")
    return cert


# ---------------------------------------------------------------------------
# transportation feasibility by max-flow
# ---------------------------------------------------------------------------


def _lemma1_flow(spec: NetworkSpec):
    """Lemma 1's max flow: (value, certificate or None, min cut).

    The certificate holds the cross flows when the flow saturates every
    supply; otherwise the transmitters (block columns) and receivers
    (block rows) reachable in the final residual graph describe a minimum
    cut.
    """
    if not spec.is_square:
        raise NotSquareCase("reduced-rank sums are defined for the square case")
    value, flow, reach_rx, reach_tx = spec_pattern(spec).max_flow()
    cert = None
    if value == spec.M_sigma:
        rows = [[0] * spec.K for _ in range(spec.K)]
        for (j, i), f in flow.items():
            rows[j][i] = f
        cert = validate_certificate(spec, ReducedRankCertificate.from_rows(rows))
    return value, cert, (reach_tx, reach_rx)


def reduced_rank_feasible(spec: NetworkSpec) -> Optional[ReducedRankCertificate]:
    """Reduced ranks with exact row/column sums, or None when none exist."""
    return _lemma1_flow(spec)[1]


def _evidence(spec: NetworkSpec, flow) -> dict:
    value, cert, (reach_tx, reach_rx) = flow
    out = {"feasible": cert is not None, "max_flow": value, "required": spec.M_sigma}
    if cert is None:
        out["cut"] = {
            "tx_source_side": [i + 1 for i in reach_tx],
            "rx_source_side": [j + 1 for j in reach_rx],
        }
    out["certificate"] = cert.to_json() if cert else None
    return out


def feasibility_evidence(spec: NetworkSpec) -> dict:
    """Max-flow value plus a certificate (feasible) or a min cut (infeasible)."""
    return _evidence(spec, _lemma1_flow(spec))


# ---------------------------------------------------------------------------
# explicit 3-user conditions
# ---------------------------------------------------------------------------


def _require_3user_square(spec: NetworkSpec):
    if spec.K != 3:
        raise WrongK("3-user conditions and schemes need exactly 3 users")
    if not spec.is_square:
        raise NotSquareCase("3-user conditions and schemes need the square case M == N")


# Every 3-user inequality of Theorem 4 is one of three canonical ones, read
# on a relabeled spec (perm[new] = old, 0-based users):
#   rx:   D_01 + D_02 >= M_0              receiver 0's inbound cross ranks
#   tx:   D_10 + D_20 >= M_0              transmitter 0's outbound cross ranks
#   pair: D_01 + D_10 >= M_0 + M_1 - M_2  the pair (0, 1) against user 2
# _CANONICAL holds them as (lhs cross links (j, i), rhs coefficients on M)
# and CD_TABLE names the nine relabelings.  A scheme family beats half the
# cake on a relabeling where all of its SCHEME_FAMILIES entries fail: the
# aligned pair (scheme_cd7) when pair fails, double zero-forcing
# (scheme_cd1) when tx and rx both fail.
_CANONICAL = {
    "rx": (((0, 1), (0, 2)), (1, 0, 0)),
    "tx": (((1, 0), (2, 0)), (1, 0, 0)),
    "pair": (((0, 1), (1, 0)), (1, 1, -1)),
}

#: inequality name -> (user relabeling perm[new] = old, canonical inequality)
CD_TABLE = {
    "cd1": ((0, 1, 2), "rx"), "cd2": ((1, 2, 0), "rx"), "cd3": ((2, 0, 1), "rx"),
    "cd4": ((0, 1, 2), "tx"), "cd5": ((1, 2, 0), "tx"), "cd6": ((2, 0, 1), "tx"),
    "cd7": ((0, 1, 2), "pair"), "cd8": ((1, 2, 0), "pair"), "cd9": ((0, 2, 1), "pair"),
}

#: scheme family -> canonical inequalities that must all fail for it to apply
SCHEME_FAMILIES = {"aligned-pair": ("pair",), "zero-forcing": ("tx", "rx")}

_FAMILY_OF = {kind: family for family, kinds in SCHEME_FAMILIES.items() for kind in kinds}


def _canonical(spec: NetworkSpec, kind: str, perm=(0, 1, 2)) -> Tuple[int, int, bool]:
    """(lhs, rhs, holds) of one canonical inequality on ``spec.permute(perm)``."""
    pairs, coeffs = _CANONICAL[kind]
    lhs = sum(spec.cross_rank(perm[j], perm[i]) for j, i in pairs)
    rhs = sum(c * spec.M[perm[k]] for k, c in enumerate(coeffs))
    return lhs, rhs, lhs >= rhs


def _require_failing(spec: NetworkSpec, family: str) -> None:
    """ConditionFails unless every inequality behind ``family`` fails on ``spec``."""
    for kind in SCHEME_FAMILIES[family]:
        lhs, rhs, holds = _canonical(spec, kind)
        if holds:
            pairs, coeffs = _CANONICAL[kind]
            links = " + ".join(f"D_{j + 1}{i + 1}" for j, i in pairs)
            antennas = " ".join(f"{'+-'[c < 0]} M_{k + 1}" for k, c in enumerate(coeffs) if c)
            raise ConditionFails(f"{family} scheme needs {links} < {antennas[2:]}, "
                                 f"got {lhs} >= {rhs}")


def _exceeding_candidates(spec: NetworkSpec) -> List[Tuple[Tuple[int, ...], str]]:
    """(relabeling, family) of every scheme that applies, by permutation, aligned pair first."""
    return [(perm, family) for perm in permutations(range(3))
            for family, kinds in SCHEME_FAMILIES.items()
            if not any(_canonical(spec, kind, perm)[2] for kind in kinds)]


def evaluate_cd_inequalities(spec: NetworkSpec) -> Dict[str, Tuple[int, int, bool]]:
    """Each inequality as (lhs, rhs, holds)."""
    _require_3user_square(spec)
    return {name: _canonical(spec, kind, perm) for name, (perm, kind) in CD_TABLE.items()}


@dataclass(frozen=True)
class SymmetricClassification:
    status: str  # HALF_CAKE_OPTIMAL or EXCEEDS_HALF_CAKE
    violated: Optional[str] = None
    scheme_family: Optional[str] = None


def classify_symmetric_3user(spec: NetworkSpec) -> SymmetricClassification:
    """Necessary-and-sufficient classification under symmetric cross ranks."""
    _require_3user_square(spec)
    if not spec.is_symmetric():
        raise NotSymmetric("classification requires D[j][i] == D[i][j]")
    evaluated = evaluate_cd_inequalities(spec)
    for name in sorted(evaluated):
        if not evaluated[name][2]:
            return SymmetricClassification(
                "EXCEEDS_HALF_CAKE", violated=name, scheme_family=_FAMILY_OF[CD_TABLE[name][1]]
            )
    return SymmetricClassification("HALF_CAKE_OPTIMAL")


# ---------------------------------------------------------------------------
# certificate extraction by generic-rank tests
# ---------------------------------------------------------------------------


def necessity_reduction(spec: NetworkSpec) -> Optional[ReducedRankCertificate]:
    """Extract a certificate by greedily lowering cross ranks.

    Visits the cross links (j, i) in lexicographic order and lowers D[j][i]
    one unit at a time while the stripped matrix stays generically full
    rank, stopping the link at its first failure.  Lowering a generic
    block's rank by one zeroes one of its interchangeable rank-1 terms, so
    this is Lemma 1's necessity argument.  The lowered ranks form the
    certificate.  Different visiting orders can produce different (all
    valid) certificates.  Returns None when the stripped matrix is not
    generically full rank.
    """
    if not spec.is_square:
        raise NotSquareCase("reduction is defined for the square case")
    if generic_rank(spec) != spec.M_sigma:
        return None
    D = [list(row) for row in spec.D]
    for j in range(spec.K):
        for i in range(spec.K):
            while i != j and D[j][i] > 0:
                D[j][i] -= 1
                lowered = NetworkSpec(spec.M, spec.N, tuple(map(tuple, D)))
                if generic_rank(lowered) != spec.M_sigma:
                    D[j][i] += 1
                    break
    return validate_certificate(spec, ReducedRankCertificate.from_rows(D))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def lemma1_equivalence_run(seed: int = 0, trials: int = 8) -> dict:
    """Flow feasibility vs. generic full rank of the stripped matrix, over 200
    random square specs of 2 to 4 users with 1 to 5 antennas each.

    The two must agree on every instance; any disagreement is returned with
    its seed for inspection.  The rank side never reads the flow: it is full
    when ``structural_cap`` (a cut, so a bound on every rank) reaches
    M_sigma and one of ``trials`` seeded instantiations has rank M_sigma.
    """
    from .channel_model import random_square_spec

    if trials < 1:
        raise InvalidArgument(f"trials must be >= 1, got {trials}")
    count = 200
    disagreements = []
    feasible_count = 0
    for t in range(count):
        spec = random_square_spec((seed, t))
        pattern = spec_pattern(spec)
        flow_ok = pattern.flow_cap == spec.M_sigma
        rank_ok = pattern.structural_cap() >= spec.M_sigma and any(
            rank_mod_p(instantiate_pattern(pattern, rng_from((seed, t), 0x6C, k))) == spec.M_sigma
            for k in range(trials))
        feasible_count += flow_ok
        if flow_ok != rank_ok:
            disagreements.append({"seed": t, "spec": spec.to_json(),
                                  "flow": flow_ok, "full_rank": rank_ok})
    return {
        "count": count,
        "feasible": feasible_count,
        "agreement_rate": 1.0 - len(disagreements) / count,
        "disagreements": disagreements,
    }


@dataclass(frozen=True)
class HalfCakeVerdict:
    """Outcome of the optimality conditions for one network."""

    status: str
    half_cake: Fraction
    certificate: Optional[ReducedRankCertificate] = None
    witnesses: Tuple[str, ...] = ()
    bound: Optional[Fraction] = None

    def __post_init__(self):
        if self.status == OPTIMAL_CERTIFIED and self.certificate is None and not any(
            w.startswith("Theorem5") or w.startswith("Theorem6") for w in self.witnesses
        ):
            raise ValueError("optimality needs a certificate or a boundary-case witness")

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "half_cake": _json_frac(self.half_cake),
            "certificate": self.certificate.to_json() if self.certificate else None,
            "witnesses": list(self.witnesses),
        }
        if self.bound is not None:
            out["bound"] = _json_frac(self.bound)
        return out


def boundary_case_verdict(spec: NetworkSpec) -> HalfCakeVerdict:
    """Optimality at the two boundary antenna configurations.

    All user relabelings of both stated orientations are tried.  The first
    family needs one user's antennas to equal the other two's combined and
    that user's inbound or outbound cross ranks full; the matching
    cooperation bound M_sigma - max(inbound, outbound sums) then equals
    half the cake.  The second family needs two equal users and a full
    chain of ranks through the third.
    """
    if spec.K != 3:
        raise WrongK("boundary cases are stated for 3 users")
    if not spec.is_square:
        raise NotSquareCase("boundary cases are stated for the square case")
    M, D = spec.M, spec.D
    half = spec.half_cake
    for a, b, c in permutations(range(3)):
        if M[a] == M[b] + M[c] and (
            (D[a][b] == M[b] and D[a][c] == M[c])
            or (D[b][a] == M[b] and D[c][a] == M[c])
        ):
            coop = sum(M) - max(D[b][a] + D[c][a], D[a][b] + D[a][c])
            return HalfCakeVerdict(
                OPTIMAL_CERTIFIED, half,
                witnesses=(f"Theorem5[{a + 1},{b + 1},{c + 1}]",),
                bound=Fraction(coop),
            )
    for a, b, c in permutations(range(3)):
        if M[a] == M[b] and (
            (D[b][a] == M[a] and D[c][a] == M[c] and D[b][c] == M[c])
            or (D[a][b] == M[a] and D[a][c] == M[c] and D[c][b] == M[c])
        ):
            return HalfCakeVerdict(
                OPTIMAL_CERTIFIED, half,
                witnesses=(f"Theorem6[{a + 1},{b + 1},{c + 1}]",),
                bound=half,
            )
    return HalfCakeVerdict(UNDECIDED, half)


def _exceeding_scheme_notes(spec: NetworkSpec) -> List[str]:
    """Scheme families applicable even without symmetric ranks."""
    found = {family for _, family in _exceeding_candidates(spec)}
    return [f"{family}-scheme-available" for family in SCHEME_FAMILIES if family in found]


def half_cake_verdict(spec: NetworkSpec, seed: int = 0, trials: int = 8) -> HalfCakeVerdict:
    """Dispatch the optimality conditions, strongest evidence first: Lemma 1's
    flow certificate, then (3 users) the boundary cases and the symmetric
    classification.  It runs one max flow; ``seed`` and ``trials`` are
    accepted for a uniform call signature and sample nothing.
    """
    if not spec.is_square:
        raise NotSquareCase("half-the-cake verdicts are defined for the square case")
    return _verdict(spec, reduced_rank_feasible(spec))


def feasibility_report(spec: NetworkSpec) -> dict:
    """``halfcake feasibility``'s report from one max flow:
    ``{"feasibility": feasibility_evidence(spec), "verdict":
    half_cake_verdict(spec).to_json()}``.

    A non-square spec raises NotSquareCase, as ``feasibility_evidence`` does.
    """
    flow = _lemma1_flow(spec)
    return {"feasibility": _evidence(spec, flow), "verdict": _verdict(spec, flow[1]).to_json()}


def _verdict(spec: NetworkSpec, cert: Optional[ReducedRankCertificate]) -> HalfCakeVerdict:
    """The verdict on a square spec given Lemma 1's certificate, or None."""
    half = spec.half_cake
    if cert is not None:
        return HalfCakeVerdict(OPTIMAL_CERTIFIED, half, certificate=cert,
                               witnesses=("Lemma1-flow",), bound=half)
    if spec.K == 3:
        boundary = boundary_case_verdict(spec)
        if boundary.status == OPTIMAL_CERTIFIED:
            return boundary
        if spec.is_symmetric():
            cls = classify_symmetric_3user(spec)
            if cls.status == "EXCEEDS_HALF_CAKE":
                return HalfCakeVerdict(
                    MORE_THAN_HALF_POSSIBLE, half,
                    witnesses=(f"Theorem4-{cls.violated}", cls.scheme_family),
                )
        return HalfCakeVerdict(UNDECIDED, half,
                               witnesses=tuple(_exceeding_scheme_notes(spec)))
    return HalfCakeVerdict(UNDECIDED, half)
