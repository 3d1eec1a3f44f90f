"""Network instances and channel realizations.

A network is K user pairs with M_k transmit / N_k receive antennas and a
per-cross-link rank budget D[j][i] (receiver j, transmitter i).  Generic
realizations draw each cross block as a product of two i.i.d. factor
matrices so its rank equals the budget almost surely; desired blocks are
dense.  Rank-0 links are explicit zero blocks.

All values are immutable after construction and all sampling is
deterministic in (spec, seed, domain).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadShape,
    DegenerateDesiredDifference,
    RankExceedsDimension,
    SpecTooLarge,
)
from .exact_linalg import (
    ScalarDomain,
    _block_rank_bound,
    _sample_block,
    rank,
    rng_from,
)

Cross = Dict[Tuple[int, int], int]

#: most antennas a spec may have on each side, sum(M) and sum(N); a
#: realization holds sum(N) * sum(M) entries per slot
MAX_ANTENNAS = 1024


@dataclass(frozen=True)
class NetworkSpec:
    """Problem instance: antenna counts and cross-link rank constraints.

    ``D[j][i]`` (i != j, 0-based) caps the rank of the channel from
    transmitter i to receiver j; diagonal entries are None (desired links
    are always full rank).  Construction runs ``validate_spec``, so an
    invalid spec raises BadShape, RankExceedsDimension or SpecTooLarge and
    never exists.
    """

    M: Tuple[int, ...]
    N: Tuple[int, ...]
    D: Tuple[Tuple[Optional[int], ...], ...]

    def __post_init__(self):
        validate_spec(self)

    @property
    def K(self) -> int:
        return len(self.M)

    @property
    def M_sigma(self) -> int:
        return sum(self.M)

    @property
    def N_sigma(self) -> int:
        return sum(self.N)

    @property
    def is_square(self) -> bool:
        return self.M == self.N

    @property
    def half_cake(self) -> Fraction:
        return Fraction(self.M_sigma, 2)

    def cross_rank(self, j: int, i: int) -> int:
        if i == j:
            raise ValueError("desired links carry no cross-rank constraint")
        return int(self.D[j][i])

    def is_symmetric(self) -> bool:
        return all(
            self.D[j][i] == self.D[i][j]
            for j in range(self.K)
            for i in range(j + 1, self.K)
        )

    def permute(self, perm: Sequence[int]) -> "NetworkSpec":
        """Relabel users; ``perm[new] = old``."""
        perm = tuple(perm)
        M = tuple(self.M[o] for o in perm)
        N = tuple(self.N[o] for o in perm)
        D = tuple(
            tuple(None if a == b else self.D[perm[a]][perm[b]] for b in range(self.K))
            for a in range(self.K)
        )
        return NetworkSpec(M, N, D)

    @classmethod
    def make(cls, M: Sequence[int], N: Optional[Sequence[int]] = None,
             cross: Optional[Cross] = None, default: str = "full") -> "NetworkSpec":
        """Build a spec with full-rank (or zero) cross links plus overrides.

        ``cross`` maps 0-based (j, i) pairs to explicit rank constraints.
        """
        M = tuple(int(m) for m in M)
        N = M if N is None else tuple(int(n) for n in N)
        K = len(M)
        cross = cross or {}
        rows = []
        for j in range(K):
            row = []
            for i in range(K):
                if i == j:
                    row.append(None)
                elif (j, i) in cross:
                    row.append(int(cross[(j, i)]))
                else:
                    row.append(min(M[i], N[j]) if default == "full" else 0)
            rows.append(tuple(row))
        return cls(M, N, tuple(rows))

    @classmethod
    def square(cls, M: Sequence[int], cross: Optional[Cross] = None,
               default: str = "full") -> "NetworkSpec":
        return cls.make(M, None, cross, default)

    def to_json(self) -> dict:
        return {
            "K": self.K,
            "M": list(self.M),
            "N": list(self.N),
            "D": [[None if v is None else int(v) for v in row] for row in self.D],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NetworkSpec":
        M, N, D = (_json_list(_json_field(obj, key, "network spec"), key) for key in "MND")
        spec = cls(tuple(_json_int(v, "M") for v in M), tuple(_json_int(v, "N") for v in N),
                   tuple(tuple(None if v is None else _json_int(v, "D")
                               for v in _json_list(row, "D row")) for row in D))
        if "K" in obj and _json_int(obj["K"], "K") != spec.K:
            raise BadShape("declared K disagrees with M length")
        return spec


def _json_int(value, what: str) -> int:
    """A JSON integer; floats, bools, strings and the like raise BadShape."""
    if type(value) is not int:
        raise BadShape(f"{what}: expected an integer, got {_json_text(value)}")
    return value


def _json_field(obj, key: str, what: str):
    """Field ``key`` of the JSON object ``obj``, which ``what`` names; BadShape
    when ``obj`` is not an object or lacks the field."""
    if type(obj) is not dict:
        raise BadShape(f"{what}: expected an object, got {_json_text(obj)}")
    if key not in obj:
        raise BadShape(f"{what}: missing field {key!r}")
    return obj[key]


def _json_list(value, what: str, length: Optional[int] = None) -> list:
    """A JSON array, of ``length`` entries when the format fixes one; else BadShape."""
    if type(value) is not list or length not in (None, len(value)):
        size = "" if length is None else f" of {length} entries"
        raise BadShape(f"{what}: expected an array{size}, got {_json_text(value)}")
    return value


def _json_text(value) -> str:
    """``value`` as JSON text, cut to one short line for an error message."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:37] + "..."


def _json_frac(value: Fraction) -> dict:
    """A fraction as the JSON object ``{"num": ..., "den": ...}``."""
    return {"num": value.numerator, "den": value.denominator}


def validate_spec(spec: NetworkSpec) -> NetworkSpec:
    """Check shapes, rank caps and the ``MAX_ANTENNAS`` ceiling; returns the spec unchanged."""
    K = spec.K
    if K < 1:
        raise BadShape("need at least one user")
    if len(spec.N) != K or len(spec.D) != K or any(len(row) != K for row in spec.D):
        raise BadShape("M, N, D shapes disagree with K")
    if any(m < 1 for m in spec.M) or any(n < 1 for n in spec.N):
        raise BadShape("antenna counts must be positive")
    if spec.M_sigma > MAX_ANTENNAS or spec.N_sigma > MAX_ANTENNAS:
        raise SpecTooLarge(f"sum(M) = {spec.M_sigma} and sum(N) = {spec.N_sigma} must each "
                           f"be at most {MAX_ANTENNAS}")
    for j in range(K):
        for i in range(K):
            if i == j:
                if spec.D[j][i] is not None:
                    raise BadShape(f"D[{j + 1}][{j + 1}] is a desired link and must be null")
                continue
            d = spec.D[j][i]
            if d is None or d < 0:
                raise BadShape(f"cross rank D[{j + 1}][{i + 1}] must be a nonnegative integer")
            cap = min(spec.M[i], spec.N[j])
            if d > cap:
                raise RankExceedsDimension(j, i, d, cap)
    return spec


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Concrete channel blocks for one time slot."""

    spec: NetworkSpec
    domain: ScalarDomain
    blocks: Dict[Tuple[int, int], np.ndarray]
    seed: Optional[int] = None

    def block(self, j: int, i: int) -> np.ndarray:
        return self.blocks[(j, i)]

    def permute(self, perm: Sequence[int]) -> "ChannelRealization":
        perm = tuple(perm)
        blocks = {
            (a, b): self.blocks[(perm[a], perm[b])]
            for a in range(self.spec.K)
            for b in range(self.spec.K)
        }
        return ChannelRealization(self.spec.permute(perm), self.domain, blocks, self.seed)

    def to_json(self) -> dict:
        out = {"seed": self.seed, "domain": self.domain.tag}
        for (j, i), blk in sorted(self.blocks.items()):
            out[f"H_{j + 1}_{i + 1}"] = encode_matrix(blk, self.domain)
        return out

    @classmethod
    def from_json(cls, obj: dict, spec: NetworkSpec) -> "ChannelRealization":
        if type(obj) is not dict:
            raise BadShape(f"channel slot: expected an object, got {_json_text(obj)}")
        domain = ScalarDomain.from_tag(obj.get("domain", "complex"))
        blocks = {}
        for j in range(spec.K):
            for i in range(spec.K):
                key = f"H_{j + 1}_{i + 1}"
                blocks[(j, i)] = decode_matrix(_json_field(obj, key, "channel slot"), domain,
                                               (spec.N[j], spec.M[i]), key)
        return cls(spec, domain, blocks, obj.get("seed"))


def encode_matrix(mat: np.ndarray, domain: ScalarDomain):
    """JSON rows: ``[re, im]`` pairs over the complex domain, residues over a prime field."""
    if domain.is_complex:
        mat = np.asarray(mat, complex)
        return np.stack((mat.real, mat.imag), axis=-1).tolist()
    return np.asarray(mat).tolist()


def decode_matrix(obj, domain: ScalarDomain, shape: Tuple[int, int],
                  what: str = "matrix") -> np.ndarray:
    """Inverse of ``encode_matrix``.

    Raises BadShape, naming the matrix as ``what``, on a wrong shape, a
    complex entry that is not an ``[re, im]`` pair of finite numbers, or a
    residue outside [0, p).
    """
    rows, cols = shape
    if not (isinstance(obj, list) and len(obj) == rows
            and all(isinstance(row, list) and len(row) == cols for row in obj)):
        raise BadShape(f"{what}: expected {rows} rows of {cols} entries")
    if not domain.is_complex:
        flat = [x for row in obj for x in row]
        if not all(type(x) is int and 0 <= x < domain.p for x in flat):
            raise BadShape(f"{what}: prime-field entries must be integers in [0, {domain.p})")
        return np.array(flat, dtype=np.int64).reshape(shape)
    try:
        mat = np.array([[complex(re, im) for re, im in row] for row in obj], dtype=complex)
    except (TypeError, ValueError, OverflowError):
        mat = None
    # complex(True, False) succeeds, so JSON booleans are caught by type, once per matrix
    if mat is None or bool in set(map(type, chain.from_iterable(chain.from_iterable(obj)))):
        raise BadShape(f"{what}: complex entries must be [re, im] number pairs")
    if not np.isfinite(mat).all():
        raise BadShape(f"{what}: complex entries must be finite")
    return mat.reshape(shape)


def sample_generic(spec: NetworkSpec, seed: int = 0,
                   domain: ScalarDomain = ScalarDomain.complex_default()) -> ChannelRealization:
    """Generic realization: cross blocks hit their rank budgets almost surely."""
    p = None if domain.is_complex else domain.p
    blocks = {}
    for j in range(spec.K):
        for i in range(spec.K):
            rng = rng_from(seed, 0xC4, 0, j, i)  # the 0 keeps recorded realizations unchanged
            bound = _block_rank_bound(spec, j, i)
            blocks[(j, i)] = _sample_block(rng, spec.N[j], spec.M[i], bound, p)
    return ChannelRealization(spec, domain, blocks, seed)


# ---------------------------------------------------------------------------
# symbol extensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExtendedRealization:
    """n channel uses sharing one spec; slot t blocks are slots[t].blocks."""

    slots: Tuple[ChannelRealization, ...]

    @property
    def n(self) -> int:
        return len(self.slots)

    @property
    def spec(self) -> NetworkSpec:
        return self.slots[0].spec

    @property
    def domain(self) -> ScalarDomain:
        return self.slots[0].domain

    def extended_block(self, j: int, i: int) -> np.ndarray:
        """Block-diagonal n*N_j x n*M_i matrix of link (j, i)."""
        spec = self.spec
        out = np.zeros((self.n * spec.N[j], self.n * spec.M[i]), dtype=self.domain.dtype)
        for t, slot in enumerate(self.slots):
            out[t * spec.N[j]: (t + 1) * spec.N[j], t * spec.M[i]: (t + 1) * spec.M[i]] = \
                slot.blocks[(j, i)]
        return out

    def has_constant_cross(self) -> bool:
        spec = self.spec
        return all(
            np.array_equal(slot.blocks[(j, i)], self.slots[0].blocks[(j, i)])
            for slot in self.slots[1:]
            for j in range(spec.K)
            for i in range(spec.K)
            if i != j
        )

    def desired_difference(self, k: int) -> np.ndarray:
        if self.n != 2:
            raise ValueError("desired difference needs exactly two slots")
        return self.slots[0].blocks[(k, k)] - self.slots[1].blocks[(k, k)]

    def permute(self, perm: Sequence[int]) -> "ExtendedRealization":
        return ExtendedRealization(tuple(slot.permute(perm) for slot in self.slots))

    def to_json(self) -> dict:
        return {"n": self.n, "slots": [slot.to_json() for slot in self.slots]}

    @classmethod
    def from_json(cls, obj: dict, spec: NetworkSpec) -> "ExtendedRealization":
        if type(obj) is not dict or "slots" not in obj:
            return cls((ChannelRealization.from_json(obj, spec),))
        if not _json_list(obj["slots"], "slots"):
            raise BadShape("slots: expected at least one slot")
        slots = tuple(ChannelRealization.from_json(s, spec) for s in obj["slots"])
        tags = sorted({slot.domain.tag for slot in slots})
        if len(tags) > 1:
            raise BadShape(f"channel slots disagree on the domain: {', '.join(tags)}")
        return cls(slots)


def single_slot(real: ChannelRealization) -> ExtendedRealization:
    return ExtendedRealization((real,))


def random_square_spec(seed: int, K_max: int = 4, M_max: int = 5,
                       K_min: int = 2) -> NetworkSpec:
    """Uniformly random square spec with uniformly random cross ranks."""
    rng = rng_from(seed, 0xB0)
    K = int(rng.integers(K_min, K_max + 1))
    M = [int(rng.integers(1, M_max + 1)) for _ in range(K)]
    cross = {
        (j, i): int(rng.integers(0, min(M[i], M[j]) + 1))
        for j in range(K)
        for i in range(K)
        if i != j
    }
    return NetworkSpec.square(M, cross)


def extend_ergodic_pair(spec: NetworkSpec, seed: int = 0,
                        domain: ScalarDomain = ScalarDomain.complex_default()
                        ) -> ExtendedRealization:
    """Two slots with identical cross blocks and generically differing desired blocks.

    The desired-slot difference is resampled until it has full rank, which
    holds almost surely on the first draw.
    """
    base = sample_generic(spec, seed, domain)
    p = None if domain.is_complex else domain.p
    for attempt in range(32):
        blocks2 = dict(base.blocks)
        for k in range(spec.K):
            rng = rng_from(seed, 0xE2, attempt, k)
            full = _block_rank_bound(spec, k, k)
            blk = _sample_block(rng, spec.N[k], spec.M[k], full, p)
            diff = base.blocks[(k, k)] - blk
            if rank(diff, domain) != full:
                break
            blocks2[(k, k)] = blk
        else:
            return ExtendedRealization((base, ChannelRealization(spec, domain, blocks2, seed)))
    raise DegenerateDesiredDifference("could not sample a full-rank desired difference")
