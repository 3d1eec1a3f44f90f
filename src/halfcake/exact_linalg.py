"""Rank, null-space, and randomized determinant kernels over two scalar domains.

Structural questions (does a block matrix with given per-block rank budgets
have full rank for generic entries?) are decided exactly over a large prime
field: each trial instantiates the rank-bounded blocks with random factor
products mod p and takes the exact elimination rank.  The maximum over
trials never exceeds the generic rank, and reaches it with per-trial
failure probability at most (total degree)/p, so a handful of trials is a
certificate for desk-scale matrices.  The trials are a maximum, not a
fixed count: the max flow through block rows, block rank budgets and
block columns bounds the rank of every instantiation, and a trial that
reaches it has found the generic rank exactly and ends the loop.

Exact ranks and products mod p use no object arrays.  A rank is one
elimination on rows of Python ints, for any p, that follows the sparsity
of its input: cooperation matrices of replicated networks are mostly zero
blocks, since each receiver replica hears one replica of each interferer.
Columns are swept in order of their nonzero count, fewest first, and a
pivot updates only the rows with a nonzero in its column, only at its own
nonzero columns.  Entries grow as nonnegative Python ints and are reduced
mod p only where they are tested or used as multipliers.

A product at p = 2**61-1 from 100 multiply-adds up runs on uint64 limbs:
each operand splits into a 30-bit and a 31-bit limb, so limb products fit
62 bits; 2**61 = 1 and 2**62 = 2 mod p fold the high parts back, and
``(x & p) + (x >> 61)`` plus one conditional subtraction reduces.  Smaller
products, and products at other primes, run on Python ints.

Numerical work on concrete complex realizations (null spaces for
beamformer construction, decodability ranks) uses SVD with a relative
singular-value tolerance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul
from typing import Optional

import numpy as np

from .errors import InvalidArgument, NotSquare

MERSENNE61 = (1 << 61) - 1


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
    """``np.random.default_rng(seed_key(*parts))``, without numpy's coercion of each part.

    Its SeedSequence gets the uint32 words numpy would derive: each 64-bit
    part becomes its low word, then its high word if that is nonzero.
    """
    words = []
    for x in seed_key(*parts):
        words.append(x & 0xFFFFFFFF)
        if x >> 32:
            words.append(x >> 32)
    entropy = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(entropy))

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

#: A product at 2**61-1 runs on uint64 limbs from this many multiply-adds
#: up; below it (about 5 x 4 x 5), the limb kernel's twenty or so numpy
#: calls cost more than Python ints.
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


def rank_mod_p(mat, p: int = MERSENNE61) -> int:
    """Exact rank of an integer matrix over the field of integers mod p.

    Sparse-first elimination on rows of Python ints, for every p.  Columns
    are swept fewest nonzeros first, and a pivot updates only the rows with
    a nonzero in its column, only at its own nonzero columns.  Entries stay
    nonnegative and exact without reduction; an entry is reduced mod p only
    when it is zero-tested in the pivot column or multiplies an update as a
    pivot-row entry.
    """
    A = np.asarray(mat)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if 0 in A.shape:
        return 0
    if p < 1 << 63:
        R = _residues(A, mat, p)
        rows = R[:, np.argsort((R != 0).sum(axis=0), kind="stable")].tolist()
    else:
        rows = _residue_rows(A, mat, p)  # no machine-word counts: input order
    n = len(rows[0])
    r = 0
    for c in range(n):
        hits = [row for row in rows if row[c] % p]
        if not hits:
            continue
        piv = hits[0]
        tail = [(k, v) for k in range(c + 1, n) if (v := piv[k] % p)]
        r += 1
        rows = [row for row in rows if row is not piv]
        neg_inv = p - pow(piv[c] % p, -1, p)
        for row in hits[1:]:
            f = row[c] * neg_inv % p
            for k, y in tail:
                row[k] += f * y
    return r


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

    def flow_cap(self, spec) -> int:
        """Exact upper bound on the rank of every instantiation: the max flow
        source -> block row (its size) -> block (its rank budget) -> block
        column (its size) -> sink.

        Each block is one arc from its row to its column.  A cut picks whole
        block rows, whole block columns and the budgets of the blocks outside
        both; together they cover every nonzero, so their total bounds the
        rank.  ``structural_cap`` is such a cut, so this never exceeds it.
        """
        R, C = len(self.row_sizes), len(self.col_sizes)
        S, T = R + C, R + C + 1
        cap = [{} for _ in range(R + C + 2)]
        cap[S] = dict(enumerate(self.row_sizes))
        for (r, c), (j, i) in self.entries.items():
            cap[r][R + c] = _block_rank_bound(spec, j, i)
        for c, size in enumerate(self.col_sizes):
            cap[R + c][T] = size
        return _max_flow(cap, S, T)[0]


def _max_flow(cap: list, source: int, sink: int):
    """Edmonds-Karp max flow on nodes 0..len(cap)-1; ``cap[u]`` maps each
    successor of u to the arc's capacity.

    Returns (value, net flow on each arc as ``{(u, v): f}``, the nodes
    reachable from ``source`` in the final residual graph: the source side
    of a minimum cut).
    """
    adjacency = [set(out) for out in cap]
    residual = [dict(out) for out in cap]
    for u, out in enumerate(cap):
        for v in out:
            adjacency[v].add(u)
            residual[v].setdefault(u, 0)
    value = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in parent and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            flow = {(u, v): c - residual[u][v] for u, out in enumerate(cap) for v, c in out.items()}
            return value, flow, set(parent)
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        value += push


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
    """Generic rank of a block pattern: max exact rank over at most ``trials``
    seeded trials.

    No trial's rank exceeds ``pattern.flow_cap(spec)``, so a trial that
    reaches it has the generic rank, exactly, and ends the loop.  The flow
    is worked out only once a trial falls short of the cheaper
    ``structural_cap`` with trials left, so one-trial calls never pay for
    it.  Either way the result is the max over all ``trials`` trials.
    """
    if trials < 1:
        raise InvalidArgument(f"trials must be >= 1, got {trials}")
    cap, tight = pattern.structural_cap(spec), False
    best = 0
    for t in range(trials):
        rng = rng_from(seed, 0x6C, t)
        best = max(best, rank_mod_p(instantiate_pattern(spec, pattern, rng, p), p))
        if best < cap and not tight and t + 1 < trials:
            cap, tight = pattern.flow_cap(spec), True
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
