"""Linear achievability schemes and their decodability verifier.

A scheme over n channel uses gives every user a beamformer V_k
(M_k*n x m_k), a filter U_k (m_k x N_k*n), and stream count m_k; it is
valid when every cross product U_j H_ji^ex V_i vanishes and every desired
product U_k H_kk^ex V_k has rank m_k.  The verifier checks exactly that,
so each constructor below only has to realize its null-space recipe and
let the verifier referee.

Streams come in two shapes on a two-slot extension: repeated columns
(stacked [x; x], cancelled by difference filters [W, -W]) and fresh
columns (block-diagonal, one new symbol per slot, decoded by per-slot
filter rows).  Encoding both inside V_k / U_k keeps the verifier free of
special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .channel_model import ExtendedRealization, NetworkSpec, _json_int, decode_matrix, encode_matrix
from .errors import (
    BadShape,
    ConditionFails,
    DegenerateDesiredDifference,
    DimensionMismatch,
    HalfCakeError,
    NotSquareCase,
    NullSpaceEmpty,
)
from .exact_linalg import (
    ScalarDomain,
    _complex_gaussian,
    left_null_space_basis,
    null_space_basis,
    numerical_rank,
    rng_from,
)
from .rank_feasibility import (
    _FAMILY_OF,
    CD_TABLE,
    _exceeding_candidates,
    _require_3user_square,
    _require_failing,
)

_COMPLEX = ScalarDomain.complex_default()


@dataclass(frozen=True, eq=False)
class LinearScheme:
    """Beamformers, filters, and stream counts over an n-slot extension."""

    n: int
    m: Tuple[int, ...]
    V: Tuple[np.ndarray, ...]
    U: Tuple[np.ndarray, ...]

    @property
    def dof(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(mk, self.n) for mk in self.m)

    @property
    def sum_dof(self) -> Fraction:
        return Fraction(sum(self.m), self.n)

    def reordered(self, perm: Sequence[int]) -> "LinearScheme":
        """Undo a user relabeling; ``perm[new] = old``."""
        K = len(self.m)
        m = [0] * K
        V: list = [None] * K
        U: list = [None] * K
        for new in range(K):
            old = perm[new]
            m[old], V[old], U[old] = self.m[new], self.V[new], self.U[new]
        return LinearScheme(self.n, tuple(m), tuple(V), tuple(U))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "users": [
                {"m": int(mk), "V": encode_matrix(vk, _COMPLEX), "U": encode_matrix(uk, _COMPLEX)}
                for mk, vk, uk in zip(self.m, self.V, self.U)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, spec: NetworkSpec) -> "LinearScheme":
        try:
            n, users = _json_int(obj["n"], "n"), obj["users"]
            if len(users) != spec.K:
                raise DimensionMismatch("scheme user count disagrees with the spec")
            m = tuple(_json_int(entry["m"], "m") for entry in users)
            if n < 1 or min(m) < 0:
                raise BadShape(f"need n >= 1 and stream counts m >= 0, got n = {n}, m = {m}")
            V = tuple(decode_matrix(entry["V"], _COMPLEX, (spec.M[k] * n, m[k]))
                      for k, entry in enumerate(users))
            U = tuple(decode_matrix(entry["U"], _COMPLEX, (m[k], spec.N[k] * n))
                      for k, entry in enumerate(users))
        except (KeyError, TypeError) as exc:
            raise BadShape(f"malformed scheme: {exc!r}") from exc
        return cls(n, m, V, U)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Interference residuals and desired-signal ranks for one scheme."""

    residuals: Dict[Tuple[int, int], float]
    desired_ranks: Tuple[int, ...]
    m: Tuple[int, ...]
    passed: bool
    sum_dof: Fraction
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def to_json(self) -> dict:
        return {
            "passed": bool(self.passed),
            "sum_dof": {"num": self.sum_dof.numerator, "den": self.sum_dof.denominator},
            "tol": self.tol,
            "residuals": {f"{j + 1},{i + 1}": v for (j, i), v in sorted(self.residuals.items())},
            "desired_ranks": list(self.desired_ranks),
            "stream_counts": list(self.m),
        }


def verify_scheme(ext: ExtendedRealization, scheme: LinearScheme, tol: float = 1e-8,
                  rank_tol: float = 1e-9) -> VerificationReport:
    """Check zero interference and full desired rank on the extended channels."""
    spec = ext.spec
    if not ext.domain.is_complex:
        raise DimensionMismatch("scheme verification runs on complex realizations")
    if scheme.n != ext.n or len(scheme.m) != spec.K:
        raise DimensionMismatch("scheme extension length or user count disagrees")
    for k in range(spec.K):
        if scheme.V[k].shape != (spec.M[k] * scheme.n, scheme.m[k]):
            raise DimensionMismatch(f"V_{k + 1} has shape {scheme.V[k].shape}")
        if scheme.U[k].shape != (scheme.m[k], spec.N[k] * scheme.n):
            raise DimensionMismatch(f"U_{k + 1} has shape {scheme.U[k].shape}")

    # a NaN or inf entry yields a NaN residual and desired rank 0, so the check fails
    residuals = {}
    with np.errstate(invalid="ignore"):
        for j in range(spec.K):
            for i in range(spec.K):
                if i == j:
                    continue
                H = ext.extended_block(j, i)
                R = scheme.U[j] @ H @ scheme.V[i]
                scale = (
                    np.linalg.norm(scheme.U[j]) * np.linalg.norm(H) * np.linalg.norm(scheme.V[i])
                )
                residuals[(j, i)] = float(np.linalg.norm(R) / scale) if scale != 0 else 0.0
        products = [scheme.U[k] @ ext.extended_block(k, k) @ scheme.V[k] for k in range(spec.K)]
    desired = tuple(numerical_rank(P, rank_tol) if np.isfinite(P).all() else 0 for P in products)
    passed = all(r <= tol for r in residuals.values()) and desired == scheme.m
    return VerificationReport(residuals, desired, scheme.m, passed,
                              Fraction(sum(scheme.m), scheme.n), tol)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def _rng(seed, *tags) -> np.random.Generator:
    return rng_from(seed, 0xA5, *tags)


def _pick_in_span(basis: np.ndarray, count: int, rng, what: str) -> np.ndarray:
    """``count`` generic columns inside the span of ``basis`` columns."""
    width = basis.shape[1]
    if width < count:
        raise NullSpaceEmpty(f"{what}: null space width {width} < required {count}")
    if width == count == 0:
        return np.zeros((basis.shape[0], 0), dtype=complex)
    return basis @ _complex_gaussian(rng, width, count)


def _pick_left_null_rows(mat: np.ndarray, count: int, rng, what: str) -> np.ndarray:
    """``count`` generic rows u with u @ mat = 0."""
    rows = left_null_space_basis(mat)
    if rows.shape[0] < count:
        raise NullSpaceEmpty(f"{what}: left null space width {rows.shape[0]} < required {count}")
    if count == 0:
        return np.zeros((0, mat.shape[0]), dtype=complex)
    return _complex_gaussian(rng, count, rows.shape[0]) @ rows


def _tx_fresh_repeat(v: Optional[np.ndarray], E: np.ndarray) -> np.ndarray:
    """Two-slot beamformer: one fresh symbol per slot on v, repeated columns E."""
    Mk = E.shape[0] if v is None else v.shape[0]
    rep = np.vstack([E, E])
    if v is None:
        return rep
    z = np.zeros((Mk, 1), dtype=complex)
    fresh = np.block([[v.reshape(-1, 1), z], [z, v.reshape(-1, 1)]])
    return np.hstack([fresh, rep])


def _rx_fresh_repeat(u: Optional[np.ndarray], Ue: np.ndarray) -> np.ndarray:
    """Two-slot filter: per-slot rows on u, difference rows on Ue."""
    Nk = Ue.shape[1] if u is None else u.shape[-1]
    diff = np.hstack([Ue, -Ue])
    if u is None:
        return diff
    z = np.zeros((1, Nk), dtype=complex)
    fresh = np.block([[u.reshape(1, -1), z], [z, u.reshape(1, -1)]])
    return np.vstack([fresh, diff])


def _require_pair_extension(ext: ExtendedRealization):
    if ext.n != 2:
        raise DimensionMismatch("this construction operates on a two-slot extension")
    if not ext.has_constant_cross():
        raise DimensionMismatch("cross blocks must be identical across the two slots")


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------


def ergodic_half_cake(ext: ExtendedRealization) -> LinearScheme:
    """Repetition over two slots; difference filters cancel all interference.

    Every user repeats M_k symbols, the filter [I, -I] subtracts the two
    received slots, and the desired slot-difference channel keeps full
    rank, so each user gets M_k / 2 DoF.
    """
    spec = ext.spec
    if not spec.is_square:
        raise NotSquareCase("repetition scheme needs square desired channels")
    _require_pair_extension(ext)
    V, U = [], []
    for k in range(spec.K):
        if numerical_rank(ext.desired_difference(k), ext.domain.tol) < spec.M[k]:
            raise DegenerateDesiredDifference(f"desired difference of user {k + 1} is singular")
        eye = np.eye(spec.M[k], dtype=complex)
        V.append(np.vstack([eye, eye]))
        U.append(np.hstack([eye, -eye]))
    return LinearScheme(2, tuple(spec.M), tuple(V), tuple(U))


def scheme_cd7(ext: ExtendedRealization, seed: int = 0) -> LinearScheme:
    """One aligned zero-forced pair plus repetition on the remaining streams.

    Users 1 and 2 each send one fresh stream per slot, chosen so that user
    1's is invisible at receiver 2, user 2's at receiver 1, and both land
    on a common line at receiver 3; the mirror-image filter pair does the
    same on the receive side.  User 3's repeated streams stay inside the
    null spaces those choices leave open.  Needs the strict deficit
    D_12 + D_21 < M_1 + M_2 - M_3 (1-based user labels).
    """
    spec = ext.spec
    _require_3user_square(spec)
    _require_pair_extension(ext)
    _require_failing(spec, "aligned-pair")
    M = spec.M
    B = ext.slots[0].blocks
    H10, H01 = B[(1, 0)], B[(0, 1)]
    H20, H21 = B[(2, 0)], B[(2, 1)]
    H02, H12 = B[(0, 2)], B[(1, 2)]
    rng = _rng(seed, 7)

    z10 = np.zeros((M[1], M[1]), dtype=complex)
    z01 = np.zeros((M[0], M[0]), dtype=complex)
    A = np.block([[H10, z10], [z01, H01], [H20, -H21]])
    v = _pick_in_span(null_space_basis(A), 1, rng, "aligned transmit pair")[:, 0]
    v1, v2 = v[: M[0]], v[M[0]:]

    C = np.block([
        [H01, np.zeros((M[0], M[0]), dtype=complex), H02],
        [np.zeros((M[1], M[1]), dtype=complex), H10, -H12],
    ])
    u = _pick_left_null_rows(C, 1, rng, "aligned receive pair")[0]
    u1, u2 = u[: M[0]], u[M[0]:]
    if min(np.linalg.norm(x) for x in (v1, v2, u1, u2)) < 1e-10:
        raise NullSpaceEmpty("degenerate aligned pair; resample the realization")

    E3 = _pick_in_span(null_space_basis((u2 @ H12).reshape(1, -1)), M[2] - 1, rng,
                       "user-3 repeated streams")
    U3e = _pick_left_null_rows((H21 @ v2).reshape(-1, 1), M[2] - 1, rng, "user-3 filters")

    E1, E2 = _complex_gaussian(rng, M[0], M[0] - 1), _complex_gaussian(rng, M[1], M[1] - 1)
    U1e, U2e = _complex_gaussian(rng, M[0] - 1, M[0]), _complex_gaussian(rng, M[1] - 1, M[1])

    V = (_tx_fresh_repeat(v1, E1), _tx_fresh_repeat(v2, E2), _tx_fresh_repeat(None, E3))
    U = (_rx_fresh_repeat(u1, U1e), _rx_fresh_repeat(u2, U2e), _rx_fresh_repeat(None, U3e))
    return LinearScheme(2, (M[0] + 1, M[1] + 1, M[2] - 1), V, U)


def scheme_cd1(ext: ExtendedRealization, seed: int = 0) -> LinearScheme:
    """One doubly zero-forced stream at user 1 plus repetition everywhere else.

    User 1 sends a fresh stream per slot invisible at both other receivers
    (and filters it through a row that no interference reaches), so it
    rides for free on top of the plain repetition scheme.  Needs both
    strict deficits D_21 + D_31 < M_1 and D_12 + D_13 < M_1 (1-based
    user labels).
    """
    spec = ext.spec
    _require_3user_square(spec)
    _require_pair_extension(ext)
    _require_failing(spec, "zero-forcing")
    M = spec.M
    B = ext.slots[0].blocks
    rng = _rng(seed, 11)
    v1 = _pick_in_span(null_space_basis(np.vstack([B[(1, 0)], B[(2, 0)]])), 1, rng,
                       "doubly zero-forced stream")[:, 0]
    u1 = _pick_left_null_rows(np.hstack([B[(0, 1)], B[(0, 2)]]), 1, rng,
                              "interference-free filter row")[0]

    E1 = _complex_gaussian(rng, M[0], M[0] - 1)
    U1e = _complex_gaussian(rng, M[0] - 1, M[0])
    V = [_tx_fresh_repeat(v1, E1)]
    U = [_rx_fresh_repeat(u1, U1e)]
    for k in (1, 2):
        Q = _complex_gaussian(rng, M[k], M[k])
        W = _complex_gaussian(rng, M[k], M[k])
        V.append(np.vstack([Q, Q]))
        U.append(np.hstack([W, -W]))
    return LinearScheme(2, (M[0] + 1, M[1], M[2]), tuple(V), tuple(U))


def scheme_for_cd_violation(ext: ExtendedRealization, violated: str, seed: int = 0
                            ) -> LinearScheme:
    """Build the matching construction for a violated 3-user inequality.

    Relabels users so the violating pair (or receiver) sits in the
    canonical position, builds the aligned-pair or zero-forcing scheme
    there, and returns the scheme in the original user order.
    """
    perm, kind = CD_TABLE[violated]
    return _build(ext, perm, _FAMILY_OF[kind], seed)


def _build(ext: ExtendedRealization, perm, family: str, seed: int) -> LinearScheme:
    """Build ``family``'s scheme on the relabeled extension, in the original user order."""
    builder = scheme_cd7 if family == "aligned-pair" else scheme_cd1
    return builder(ext.permute(perm), seed=seed).reordered(perm)


_COUNTEREXAMPLE_M = (10, 8, 6)


def counterexample_scheme(ext: ExtendedRealization, seed: int = 0) -> LinearScheme:
    """Aligned-pair scheme on the (10, 8, 6) network with ranks 6 / 5 across the top pair.

    Stream counts are (11, 9, 5) over two slots, i.e. 25 symbols in 2 uses.
    """
    spec = ext.spec
    expected = NetworkSpec.square(_COUNTEREXAMPLE_M, {(0, 1): 6, (1, 0): 5})
    if spec != expected:
        raise ConditionFails("this construction is specific to the (10,8,6) 6/5 network")
    return scheme_cd7(ext, seed=seed)


_ASYM_M = (10, 8, 6)
_ASYM_N = (10, 10, 3)


def example2_scheme(ext: ExtendedRealization, seed: int = 0) -> LinearScheme:
    """Single-slot scheme with DoF (7, 3, 2) for the mixed-dimension network.

    Transmit sides: one pair aligned at receiver 1 and nulled at receiver
    3, one extra null-space stream at transmitter 2, one pair aligned
    through the column-space intersection at receiver 1, two streams at
    transmitter 1 covering transmitter 3's interference at receiver 2, and
    five generic streams.  Filters are left null spaces of the realized
    interference at each receiver.
    """
    spec = ext.spec
    expected = NetworkSpec.make(_ASYM_M, _ASYM_N, {(2, 0): 0})
    if spec != expected:
        raise ConditionFails("this construction is specific to the (10x10)(8x10)(6x3) network")
    if ext.n != 1:
        raise DimensionMismatch("this construction uses a single channel use")
    B = ext.slots[0].blocks
    H12, H13 = B[(0, 1)], B[(0, 2)]
    H21, H23 = B[(1, 0)], B[(1, 2)]
    H32 = B[(2, 1)]
    rng = _rng(seed, 13)

    stacked = np.block([[H32, np.zeros((3, 6), dtype=complex)], [H12, -H13]])
    x = _pick_in_span(null_space_basis(stacked), 1, rng, "aligned-and-nulled pair")[:, 0]
    v21, v31 = x[:8], x[8:]

    v22 = _pick_in_span(null_space_basis(H32), 1, rng, "extra nulled stream")[:, 0]
    overlap = null_space_basis(np.hstack([H12, -H13]))
    if overlap.shape[1] < 1:
        raise NullSpaceEmpty("column spaces of the two inbound links do not overlap")
    y = _pick_in_span(overlap, 1, rng, "intersection pair")[:, 0]
    v23, v32 = y[:8], y[8:]

    V3 = np.column_stack([v31, v32])
    V2 = np.column_stack([v21, v22, v23])
    try:
        covering = np.linalg.solve(H21, H23 @ V3)
    except np.linalg.LinAlgError as exc:
        raise NullSpaceEmpty("desired-covering solve hit a singular link") from exc
    V1 = np.hstack([covering, _complex_gaussian(rng, 10, 5)])

    U1 = _pick_left_null_rows(np.hstack([H12 @ V2, H13 @ V3]), 7, rng, "receiver-1 filters")
    U2 = _pick_left_null_rows(np.hstack([H21 @ V1, H23 @ V3]), 3, rng, "receiver-2 filters")
    U3 = _pick_left_null_rows(H32 @ V2, 2, rng, "receiver-3 filters")
    return LinearScheme(1, (7, 3, 2), (V1, V2, V3), (U1, U2, U3))


def best_exceeding_scheme(ext: ExtendedRealization, seed: int = 0
                          ) -> Optional[Tuple[LinearScheme, str]]:
    """First verified construction beating half the cake, trying all relabelings.

    The aligned-pair condition does not need symmetric ranks, so this also
    covers asymmetric specs; returns None when neither family applies.
    """
    spec = ext.spec
    if spec.K != 3 or not spec.is_square:
        return None
    for perm, family in _exceeding_candidates(spec):
        try:
            scheme = _build(ext, perm, family, seed)
        except HalfCakeError:
            continue
        if verify_scheme(ext, scheme).passed:
            return scheme, family
    return None


# ---------------------------------------------------------------------------
# replica-wise lifting
# ---------------------------------------------------------------------------


def lift_scheme(scheme: LinearScheme, mu: Sequence[int]) -> LinearScheme:
    """Reuse each user's beamformer and filter on every one of its replicas."""
    m, V, U = [], [], []
    for k, copies in enumerate(mu):
        for _ in range(int(copies)):
            m.append(scheme.m[k])
            V.append(scheme.V[k])
            U.append(scheme.U[k])
    return LinearScheme(scheme.n, tuple(m), tuple(V), tuple(U))
