"""Rank, null-space, and randomized determinant kernels over two scalar domains.

Structural questions (does a block matrix with given per-block rank budgets
have full rank for generic entries?) are decided exactly over a large prime
field: each trial instantiates the rank-bounded blocks with random factor
products mod p and takes the exact elimination rank.  The maximum over
trials never exceeds the generic rank, and reaches it with per-trial
failure probability at most (total degree)/p, so a handful of trials is a
certificate for desk-scale matrices.

Numerical work on concrete complex realizations (null spaces for
beamformer construction, decodability ranks) uses SVD with a relative
singular-value tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import InvalidArgument, NotSquare

MERSENNE61 = (1 << 61) - 1
#: largest prime whose elimination fits int64 arithmetic (products < 2**62)
_INT64_SAFE_LIMIT = 1 << 31


def seed_key(*parts) -> tuple:
    """Flatten nested integer seed parts into entropy for default_rng."""
    flat = []

    def rec(x):
        if isinstance(x, (tuple, list)):
            for y in x:
                rec(y)
        else:
            flat.append(int(x) & 0xFFFFFFFFFFFFFFFF)

    rec(parts)
    return tuple(flat)


def rng_from(*parts) -> np.random.Generator:
    return np.random.default_rng(seed_key(*parts))

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2**64."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ScalarDomain:
    """Scalar domain tag: complex floats with tolerance, or a prime field."""

    kind: str  # "complex" or "prime"
    tol: float = 1e-9
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "complex":
            if not self.tol > 0:
                raise InvalidArgument("complex domain needs a positive tolerance")
        elif self.kind == "prime":
            if self.p is None or self.p <= (1 << 32) or not is_prime(self.p):
                raise InvalidArgument(f"prime domain needs a prime p > 2**32, got {self.p}")
        else:
            raise InvalidArgument(f"unknown scalar domain kind {self.kind!r}")

    @classmethod
    def complex_default(cls, tol: float = 1e-9) -> "ScalarDomain":
        return cls("complex", tol=tol)

    @classmethod
    def prime_default(cls, p: int = MERSENNE61) -> "ScalarDomain":
        return cls("prime", p=p)

    @property
    def is_complex(self) -> bool:
        return self.kind == "complex"

    @property
    def dtype(self):
        return complex if self.is_complex else np.int64

    @property
    def tag(self) -> str:
        return "complex" if self.is_complex else f"prime:{self.p}"

    @classmethod
    def from_tag(cls, tag: str) -> "ScalarDomain":
        """Parse ``complex``, ``prime`` or ``prime:<p>``."""
        kind, colon, rest = str(tag).partition(":")
        if tag == "complex":
            return cls.complex_default()
        if kind == "prime" and (not colon or rest.isdigit()):
            return cls.prime_default(int(rest)) if colon else cls.prime_default()
        raise InvalidArgument(f"unknown domain tag {tag!r}; use complex or prime[:p]")


# ---------------------------------------------------------------------------
# exact rank over a prime field
# ---------------------------------------------------------------------------


def _eliminate_rank(A: np.ndarray, p: int) -> int:
    """Row elimination rank; A must already be reduced mod p."""
    m, n = A.shape
    r = 0
    for c in range(n):
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = A[r] * inv % p
        below = A[r + 1 :, c]
        if below.size:
            A[r + 1 :] = (A[r + 1 :] - np.outer(below, A[r])) % p
        r += 1
        if r == m:
            break
    return r


def rank_mod_p(mat, p: int = MERSENNE61) -> int:
    """Exact rank of an integer matrix over the field of integers mod p."""
    A = np.asarray(mat)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if 0 in A.shape:
        return 0
    if p < _INT64_SAFE_LIMIT:
        return _eliminate_rank(A.astype(np.int64) % p, p)
    # Python ints: products of 61-bit residues do not fit int64.
    obj = np.array(A.tolist(), dtype=object) % p
    return _eliminate_rank(obj, p)


def _as_object_ints(mat) -> np.ndarray:
    return np.array(np.asarray(mat).tolist(), dtype=object)


def matmul_mod_p(A, B, p: int = MERSENNE61) -> np.ndarray:
    """Exact product of integer matrices mod p (returned as int64)."""
    prod = np.dot(_as_object_ints(A), _as_object_ints(B)) % p
    return np.array(prod.tolist(), dtype=np.int64)


# ---------------------------------------------------------------------------
# numerical rank and null spaces (complex domain)
# ---------------------------------------------------------------------------


def numerical_rank(mat, tol: float = 1e-9) -> int:
    """Count of singular values above tol times the largest one."""
    A = np.asarray(mat)
    if A.ndim != 2 or 0 in A.shape:
        return 0
    s = np.linalg.svd(A, compute_uv=False)  # descending; all-zero s counts 0
    return int(np.count_nonzero(s > tol * s[0]))


def rank(mat, domain: ScalarDomain) -> int:
    """Rank in the given domain: exact elimination or SVD thresholding."""
    if domain.is_complex:
        return numerical_rank(mat, domain.tol)
    return rank_mod_p(mat, domain.p)


def null_space_basis(mat, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space of a complex matrix."""
    A = np.asarray(mat, dtype=complex)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows, cols = A.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if rows == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    r = int(np.count_nonzero(s > tol * s[0]))
    return vh[r:].conj().T


def left_null_space_basis(mat, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal rows u with u @ mat = 0."""
    return null_space_basis(np.asarray(mat, dtype=complex).conj().T, tol).conj().T


# ---------------------------------------------------------------------------
# structural patterns and generic (maximal) rank certification
# ---------------------------------------------------------------------------


@dataclass
class BlockPattern:
    """Block matrix whose entries reference original channel blocks.

    ``entries[(r, c)] = (j, i)`` places (a copy of) the cross/desired block
    from transmitter i to receiver j; absent entries are zero blocks.  The
    same (j, i) reference may appear several times, and every placement is
    instantiated with the same sampled matrix.
    """

    row_sizes: tuple
    col_sizes: tuple
    entries: dict

    @property
    def shape(self) -> tuple:
        return (sum(self.row_sizes), sum(self.col_sizes))

    def block_slices(self):
        return _offsets(self.row_sizes), _offsets(self.col_sizes)

    def structural_cap(self, spec) -> int:
        """Cheap upper bound on the generic rank from per-block rank budgets."""
        row_budget = [0] * len(self.row_sizes)
        col_budget = [0] * len(self.col_sizes)
        for (r, c), (j, i) in self.entries.items():
            b = _block_rank_bound(spec, j, i)
            row_budget[r] += b
            col_budget[c] += b
        rows = sum(min(sz, b) for sz, b in zip(self.row_sizes, row_budget))
        cols = sum(min(sz, b) for sz, b in zip(self.col_sizes, col_budget))
        return min(rows, cols, *self.shape)


def _offsets(sizes) -> tuple:
    """Start offsets of consecutive blocks, plus the total: (0, s0, s0 + s1, ...)."""
    return tuple(accumulate(sizes, initial=0))


def _place_blocks(pattern: BlockPattern, blocks: dict, dtype) -> np.ndarray:
    """Dense matrix of ``pattern`` with each entry's reference looked up in ``blocks``."""
    out = np.zeros(pattern.shape, dtype=dtype)
    r_off, c_off = pattern.block_slices()
    for (r, c), ref in pattern.entries.items():
        out[r_off[r] : r_off[r + 1], c_off[c] : c_off[c + 1]] = blocks[ref]
    return out


def _block_rank_bound(spec, j: int, i: int) -> int:
    if i == j:
        return min(spec.M[i], spec.N[j])
    return spec.D[j][i]


def _complex_gaussian(rng, rows: int, cols: int) -> np.ndarray:
    """I.i.d. circularly symmetric unit-variance complex Gaussian entries."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def _sample_block(rng, rows: int, cols: int, bound: int, p: Optional[int]) -> np.ndarray:
    """Random block whose rank is ``bound`` almost surely (capped by its shape).

    Complex Gaussian when ``p`` is None, else uniform residues mod p; below
    full rank the block is a product of two such factors.
    """
    def draw(r, c):
        if p is None:
            return _complex_gaussian(rng, r, c)
        return rng.integers(0, p, size=(r, c), dtype=np.int64)

    if bound <= 0 or rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=complex if p is None else np.int64)
    if bound >= min(rows, cols):
        return draw(rows, cols)
    if p is None:
        return draw(rows, bound) @ draw(bound, cols)
    return matmul_mod_p(draw(rows, bound), draw(bound, cols), p)


def instantiate_pattern(spec, pattern: BlockPattern, rng, p: int = MERSENNE61) -> np.ndarray:
    """One random prime-field instantiation of a block pattern (int64 matrix)."""
    refs = sorted(set(pattern.entries.values()))
    sampled = {
        (j, i): _sample_block(rng, spec.N[j], spec.M[i], _block_rank_bound(spec, j, i), p)
        for (j, i) in refs
    }
    return _place_blocks(pattern, sampled, np.int64)


def generic_rank_pattern(spec, pattern: BlockPattern, trials: int = 8, seed: int = 0,
                         p: int = MERSENNE61) -> int:
    """Generic rank of a block pattern: max exact rank over seeded trials."""
    if trials < 1:
        raise InvalidArgument(f"trials must be >= 1, got {trials}")
    cap = pattern.structural_cap(spec)
    best = 0
    for t in range(trials):
        rng = rng_from(seed, 0x6C, t)
        best = max(best, rank_mod_p(instantiate_pattern(spec, pattern, rng, p), p))
        if best >= cap:
            break
    return best


def spec_pattern(spec, shape="stripped") -> BlockPattern:
    """K x K block pattern for a network: 'full', 'stripped', or a mask of (j, i) pairs."""
    K = spec.K
    if shape == "full":
        mask = {(j, i) for j in range(K) for i in range(K)}
    elif shape == "stripped":
        mask = {(j, i) for j in range(K) for i in range(K) if i != j}
    else:
        mask = {(int(j), int(i)) for (j, i) in shape}
    entries = {(j, i): (j, i) for (j, i) in mask if _block_rank_bound(spec, j, i) > 0}
    return BlockPattern(tuple(spec.N), tuple(spec.M), entries)


def generic_rank(spec, shape="stripped", trials: int = 8, seed: int = 0,
                 p: int = MERSENNE61) -> int:
    """Generic rank of the (full / stripped / masked) overall channel matrix."""
    return generic_rank_pattern(spec, spec_pattern(spec, shape), trials, seed, p)


# ---------------------------------------------------------------------------
# symbolic rank-1 decomposition with free coefficients
# ---------------------------------------------------------------------------


@dataclass
class StructuredMatrix:
    """Desired-zeroed overall matrix with each cross block written as a sum of
    rank-1 terms: block (j, i) = sum_m a_m * v_m u_m with frozen generic
    vectors v, u and free coefficients a.  Coefficients in ``zeroed`` are
    pinned to zero during evaluation.
    """

    spec: object
    p: int
    factors: dict  # (j, i) -> (V: N_j x D_ji, U: D_ji x M_i) object arrays
    zeroed: set = field(default_factory=set)

    @classmethod
    def from_spec(cls, spec, seed: int = 0, p: int = MERSENNE61) -> "StructuredMatrix":
        factors = {}
        for j in range(spec.K):
            for i in range(spec.K):
                if i == j:
                    continue
                d = spec.D[j][i]
                if d == 0:
                    continue
                rng = rng_from(seed, 0x5F, j, i)
                V = _as_object_ints(rng.integers(0, p, size=(spec.N[j], d), dtype=np.int64))
                U = _as_object_ints(rng.integers(0, p, size=(d, spec.M[i]), dtype=np.int64))
                factors[(j, i)] = (V, U)
        return cls(spec=spec, p=p, factors=factors)

    @property
    def is_square(self) -> bool:
        return sum(self.spec.M) == sum(self.spec.N)

    def variables(self):
        """All coefficient indices (j, i, m) in lexicographic order."""
        out = []
        for j in range(self.spec.K):
            for i in range(self.spec.K):
                if i != j and (j, i) in self.factors:
                    out.extend((j, i, m) for m in range(self.spec.D[j][i]))
        return out

    def evaluate(self, rng, extra_zeroed=frozenset()) -> np.ndarray:
        """Random evaluation of the free coefficients (object-int matrix mod p)."""
        spec, p = self.spec, self.p
        dead = self.zeroed | set(extra_zeroed)
        blocks = {}
        for (j, i), (V, U) in sorted(self.factors.items()):
            d = spec.D[j][i]
            coeffs = rng.integers(0, p, size=d, dtype=np.int64)
            a = np.array([0 if (j, i, m) in dead else int(coeffs[m]) for m in range(d)],
                         dtype=object)
            blocks[(j, i)] = np.dot(V * a[None, :], U) % p
        pattern = BlockPattern(spec.N, spec.M, {key: key for key in blocks})
        return _place_blocks(pattern, blocks, object)


def det_nonzero_with_var_zeroed(struct: StructuredMatrix, var, trials: int = 8,
                                seed: int = 0) -> bool:
    """Whether the determinant polynomial stays nonzero with one coefficient pinned to 0.

    True iff some random evaluation (coefficient ``var`` and all previously
    zeroed ones fixed to 0, every other coefficient uniform in the field)
    yields a full-rank matrix.
    """
    if not struct.is_square:
        raise NotSquare("determinant test needs a square overall matrix")
    n = sum(struct.spec.M)
    for t in range(trials):
        rng = rng_from(seed, 0xD7, t)
        if rank_mod_p(struct.evaluate(rng, extra_zeroed={tuple(var)}), struct.p) == n:
            return True
    return False
