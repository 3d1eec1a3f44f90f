"""Rank, null-space, and randomized determinant kernels over two scalar domains.

Structural questions (does a block matrix with given per-block rank budgets
have full rank for generic entries?) are decided exactly over a large prime
field: each trial instantiates the rank-bounded blocks with random factor
products mod p and takes the exact elimination rank.  The maximum over
trials never exceeds the generic rank, and reaches it with per-trial
failure probability at most (total degree)/p, so a handful of trials is a
certificate for desk-scale matrices.

Exact ranks and products mod p run on one of three kernels, and none of
them uses object arrays:

* p = 2**61-1, large inputs: uint64 elimination.  Each operand splits into
  a 30-bit and a 31-bit limb, so limb products fit 62 bits; 2**61 = 1 and
  2**62 = 2 mod p fold the high parts back, and ``(x & p) + (x >> 61)``
  plus one conditional subtraction reduces.  A pivot updates only the
  rows with a nonzero entry below it, right of its column.
* p = 2**61-1, small inputs, and every other p: elimination and products
  on plain rows of Python ints, which accept any p.
* p < 2**31, ranks only: int64 elimination, whose products stay below 2**62.

The cutoff between the first two is a size, fixed from a measured
crossover: the uint64 kernel spends about twenty numpy calls per pivot
whatever the matrix size, which Python ints undercut on small matrices
(below about 17 x 17 for a rank, 100 multiply-adds for a product).

Numerical work on concrete complex realizations (null spaces for
beamformer construction, decodability ranks) uses SVD with a relative
singular-value tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul
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
            # residues are drawn and stored as int64
            if self.p is None or not (1 << 32) < self.p < (1 << 63) or not is_prime(self.p):
                raise InvalidArgument(f"prime domain needs a prime 2**32 < p < 2**63, got {self.p}")
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
# exact rank and products over a prime field
# ---------------------------------------------------------------------------

#: Below these sizes the uint64 kernels at 2**61-1 lose to Python ints: they
#: pay about twenty numpy calls per pivot (per product) whatever the size.
#: Crossovers measured on random dense residues: a rank at about 17 x 17
#: cells, a product at about 100 multiply-adds (5 x 4 x 5).
_RANK_CUTOFF_CELLS = 289
_MATMUL_CUTOFF_MACS = 100

_P61 = np.uint64(MERSENNE61)
_LO30 = np.uint64((1 << 30) - 1)
_LO31 = np.uint64((1 << 31) - 1)
_S1, _S30, _S31, _S61 = (np.uint64(s) for s in (1, 30, 31, 61))


def _residues(A: np.ndarray, mat, p: int) -> np.ndarray:
    """New int64 or uint64 array of the residues in [0, p) of ``mat``, given as
    ``A = np.asarray(mat)``; p < 2**63.  Entries that are not machine integers
    (Python ints of any size) are read from ``mat``, which ``A`` may have
    rounded to floats."""
    if A.dtype.kind == "u":
        return A.astype(np.uint64, copy=False) % np.uint64(p)
    if A.dtype.kind in "ib":
        return A.astype(np.int64, copy=False) % p
    return np.array([[int(x) % p for x in row] for row in mat], dtype=np.uint64)


def _residue_rows(A: np.ndarray, mat, p: int) -> list:
    """Rows of Python-int residues in [0, p) of ``mat``, for any p."""
    if p < 1 << 63:
        return _residues(A, mat, p).tolist()
    return [[int(x) % p for x in row] for row in mat]


def _reduce61(x: np.ndarray) -> np.ndarray:
    """x mod 2**61-1 for any uint64 x: fold with 2**61 = 1, then subtract p once.

    The fold leaves at most p + 7; where it is below p, ``y - p`` wraps
    around above ``y`` and the minimum keeps ``y``.
    """
    y = (x & _P61) + (x >> _S61)
    return np.minimum(y, y - _P61)


def _mul61_lazy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b mod 2**61-1 up to a multiple of p, as uint64 below 2**63 + 2**32.

    Operands broadcast and hold residues below p.  Each splits into a
    30-bit high and a 31-bit low limb, so every limb product fits 62 bits;
    the high-high product has weight 2**62 = 2 and the cross terms weight
    2**31, whose part above bit 30 wraps through 2**61 = 1.
    """
    a1, a0 = a >> _S31, a & _LO31
    b1, b0 = b >> _S31, b & _LO31
    mid = a1 * b0 + a0 * b1  # < 2**62
    return ((a1 << _S1) * b1 + a0 * b0
            + (mid >> _S30) + ((mid & _LO30) << _S31))


def _rank_m61(A: np.ndarray) -> int:
    """Rank mod 2**61-1 of a uint64 matrix of residues; overwrites A.

    Column by column, the first row with a nonzero entry is the pivot, and
    only the rows with a nonzero entry below it are updated, only right of
    the pivot column.  A used pivot row is then zeroed right of its column,
    so no row swaps are needed and it is never picked again.
    """
    if A.shape[0] < A.shape[1]:
        A = np.ascontiguousarray(A.T)  # at most min(shape) columns to sweep
    m, n = A.shape
    r = 0
    for c in range(n):
        nz = np.flatnonzero(A[:, c])
        if nz.size == 0:
            continue
        r += 1
        if r == m or c + 1 == n:
            break
        piv, rows = nz[0], nz[1:]
        if rows.size:
            neg_inv = MERSENNE61 - pow(int(A[piv, c]), -1, MERSENNE61)
            f = np.array([x * neg_inv % MERSENNE61 for x in A[rows, c].tolist()],
                         dtype=np.uint64)
            update = _mul61_lazy(f[:, None], A[piv, c + 1 :])
            A[rows, c + 1 :] = _reduce61(A[rows, c + 1 :] + update)
        A[piv, c + 1 :] = 0
    return r


def _rank_rows(rows: list, p: int) -> int:
    """Rank mod p of equal-length rows of Python-int residues; overwrites rows."""
    if len(rows) > len(rows[0]):
        rows = [list(col) for col in zip(*rows)]  # fewer, longer rows
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        piv = rows[i]
        rows[i], rows[r] = rows[r], piv
        neg_inv = p - pow(piv[c], -1, p)
        tail = piv[c + 1 :]
        for row in rows[r + 1 :]:
            if row[c]:
                f = row[c] * neg_inv % p
                row[c + 1 :] = [(x + f * y) % p for x, y in zip(row[c + 1 :], tail)]
        r += 1
        if r == m:
            break
    return r


def _rank_int64(A: np.ndarray, p: int) -> int:
    """Row elimination rank for p < 2**31, where products fit int64; overwrites A."""
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
        return _rank_int64(_residues(A, mat, p).astype(np.int64, copy=False), p)
    if p == MERSENNE61 and A.size >= _RANK_CUTOFF_CELLS:
        return _rank_m61(_residues(A, mat, p).view(np.uint64))
    return _rank_rows(_residue_rows(A, mat, p), p)


def matmul_mod_p(A, B, p: int = MERSENNE61) -> np.ndarray:
    """Exact product of integer matrices mod p (returned as int64; p < 2**63)."""
    A_arr, B_arr = np.asarray(A), np.asarray(B)
    (m, k), (k2, n) = A_arr.shape, B_arr.shape
    if k != k2:
        raise ValueError(f"cannot multiply {A_arr.shape} by {B_arr.shape}")
    if p == MERSENNE61 and m * k * n >= _MATMUL_CUTOFF_MACS:
        terms = _reduce61(_mul61_lazy(_residues(A_arr, A, p).view(np.uint64)[:, :, None],
                                      _residues(B_arr, B, p).view(np.uint64)[None, :, :]))
        acc = np.zeros((m, n), dtype=np.uint64)
        for j in range(0, k, 7):  # p plus 7 residues stay below 2**64
            acc = _reduce61(acc + terms[:, j : j + 7].sum(axis=1))
        return acc.astype(np.int64)
    cols = list(zip(*_residue_rows(B_arr, B, p))) or [()] * n  # k = 0: no rows to zip
    prod = [[sum(map(mul, row, col)) % p for col in cols]
            for row in _residue_rows(A_arr, A, p)]
    return np.array(prod, dtype=np.int64).reshape(m, n)


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
    factors: dict  # (j, i) -> (V: N_j x D_ji, U: D_ji x M_i) int64 residue arrays
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
                V = rng.integers(0, p, size=(spec.N[j], d), dtype=np.int64)
                U = rng.integers(0, p, size=(d, spec.M[i]), dtype=np.int64)
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
        """Random evaluation of the free coefficients (int64 matrix of residues mod p)."""
        spec, p = self.spec, self.p
        dead = self.zeroed | set(extra_zeroed)
        blocks = {}
        for (j, i), (V, U) in sorted(self.factors.items()):
            d = spec.D[j][i]
            coeffs = rng.integers(0, p, size=d, dtype=np.int64)
            coeffs[[m for m in range(d) if (j, i, m) in dead]] = 0
            blocks[(j, i)] = matmul_mod_p(V, matmul_mod_p(np.diag(coeffs), U, p), p)
        pattern = BlockPattern(spec.N, spec.M, {key: key for key in blocks})
        return _place_blocks(pattern, blocks, np.int64)


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
