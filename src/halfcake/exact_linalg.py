"""Rank, null-space and generic-rank kernels over two scalar domains.

Structural questions (does a block matrix with given per-block rank budgets
have full rank for generic entries?) are decided exactly.  The max flow from
block columns through block rank budgets to block rows (``flow_cap``) bounds
the rank of every instantiation, and when no reference repeats it is the
generic rank: write the pattern as L R, each block's left factor in its
block row and right factor in its block column; every entry of L and R is
its own indeterminate, so by Cauchy-Binet and the Lindstrom-Gessel-Viennot
lemma the rank counts vertex-disjoint paths.  A pattern with a repeated
reference is sampled over p = 2**61 - 1: each trial takes the exact rank of
random factor products mod p, which misses the generic rank with
probability at most (total degree)/p, and a trial that reaches the flow ends
the loop.  On the stripped pattern of a square network the flow is Lemma 1's
transportation test, so one builder gives the rank and the certificate.

An exact rank mod p is one elimination on rows of Python ints, for any
prime p below 2**63, that follows the sparsity of its input: cooperation
matrices of replicated networks are mostly zero blocks, since each
receiver replica hears one replica of each interferer.  Columns are swept
in order of their nonzero count, fewest first, and a pivot updates only
the rows with a nonzero in its column, only at its own nonzero columns.
Entries grow as nonnegative Python ints and are reduced mod p only where
they are tested or used as multipliers.  An exact product mod p is one object-array
product of the residues, whose entries are Python ints.

Numerical work on concrete complex realizations (null spaces for
beamformer construction, decodability ranks) uses SVD with one relative
singular-value tolerance, ``RANK_TOL``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import InvalidArgument

MERSENNE61 = (1 << 61) - 1

#: singular values at most this times the largest one count as zero
RANK_TOL = 1e-9


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
    """Scalar domain tag: complex floats (ranks at ``RANK_TOL``), or a prime field."""

    kind: str  # "complex" or "prime"
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "prime":
            # residues are drawn and stored as int64
            if self.p is None or not (1 << 32) < self.p < (1 << 63) or not is_prime(self.p):
                raise InvalidArgument(f"prime domain needs a prime 2**32 < p < 2**63, got {self.p}")
        elif self.kind != "complex":
            raise InvalidArgument(f"unknown scalar domain kind {self.kind!r}")

    @classmethod
    def complex_default(cls) -> "ScalarDomain":
        return cls("complex")

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

def _check_modulus(p: int) -> None:
    """InvalidArgument unless 2 <= p < 2**63, the moduli whose residues fit an
    int64.  Primality is the caller's contract, as ``ScalarDomain`` checks it."""
    if not 2 <= p < 1 << 63:
        raise InvalidArgument(f"modulus must be a prime in [2, 2**63), got {p}")


def _residues(A: np.ndarray, mat, p: int) -> np.ndarray:
    """New int64 or uint64 array of the residues in [0, p) of ``mat``, given as
    ``A = np.asarray(mat)``; 2 <= p < 2**63.  Entries that are not signed
    machine integers (Python ints of any size, unsigned ints) are read one by
    one from ``mat``, which ``A`` may have rounded to floats."""
    if A.dtype.kind in "ib":
        return A.astype(np.int64, copy=False) % p
    return np.array([[int(x) % p for x in row] for row in mat], dtype=np.uint64).reshape(A.shape)


def rank_mod_p(mat, p: int = MERSENNE61) -> int:
    """Exact rank of an integer matrix over the field of integers mod p.

    ``p`` must be a prime with 2 <= p < 2**63; a modulus outside that range
    raises InvalidArgument, and primality is the caller's contract.

    Sparse-first elimination on rows of Python ints.  Columns are swept
    fewest nonzeros first, and a pivot updates only the rows with a nonzero
    in its column, only at its own nonzero columns.  Entries stay
    nonnegative and exact without reduction; an entry is reduced mod p only
    when it is zero-tested in the pivot column or multiplies an update as a
    pivot-row entry.
    """
    _check_modulus(p)
    A = np.asarray(mat)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if 0 in A.shape:
        return 0
    R = _residues(A, mat, p)
    rows = R[:, np.argsort((R != 0).sum(axis=0), kind="stable")].tolist()
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
    """Exact product of integer matrices mod p, returned as int64.

    ``p`` must be a prime with 2 <= p < 2**63; a modulus outside that range
    raises InvalidArgument, and primality is the caller's contract.
    """
    _check_modulus(p)
    A_arr, B_arr = np.asarray(A), np.asarray(B)
    (_, k), (k2, _) = A_arr.shape, B_arr.shape
    if k != k2:
        raise ValueError(f"cannot multiply {A_arr.shape} by {B_arr.shape}")
    prod = _residues(A_arr, A, p).astype(object) @ _residues(B_arr, B, p).astype(object)
    return (prod % p).astype(np.int64)


# ---------------------------------------------------------------------------
# numerical rank and null spaces (complex domain)
# ---------------------------------------------------------------------------


def numerical_rank(mat) -> int:
    """Count of singular values above ``RANK_TOL`` times the largest one."""
    A = np.asarray(mat)
    if A.ndim != 2 or 0 in A.shape:
        return 0
    s = np.linalg.svd(A, compute_uv=False)  # descending; all-zero s counts 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def rank(mat, domain: ScalarDomain) -> int:
    """Rank in the given domain: exact elimination or SVD thresholding."""
    if domain.is_complex:
        return numerical_rank(mat)
    return rank_mod_p(mat, domain.p)


def null_space_basis(mat) -> np.ndarray:
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
    r = int(np.count_nonzero(s > RANK_TOL * s[0]))
    return vh[r:].conj().T


def left_null_space_basis(mat) -> np.ndarray:
    """Orthonormal rows u with u @ mat = 0."""
    return null_space_basis(np.asarray(mat, dtype=complex).conj().T).conj().T


# ---------------------------------------------------------------------------
# structural patterns and generic (maximal) rank certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPattern:
    """Block matrix whose entries reference original channel blocks.

    ``entries[(r, c)] = (j, i)`` places (a copy of) the cross/desired block
    from transmitter i to receiver j; absent entries are zero blocks.  The
    same (j, i) reference may appear several times, and every placement is
    instantiated with the same sampled matrix, of rank ``budgets[(j, i)]``.
    """

    row_sizes: tuple
    col_sizes: tuple
    entries: dict
    budgets: dict

    @property
    def shape(self) -> tuple:
        return (sum(self.row_sizes), sum(self.col_sizes))

    def structural_cap(self) -> int:
        """Cheap upper bound on the generic rank from per-block rank budgets."""
        row_budget = [0] * len(self.row_sizes)
        col_budget = [0] * len(self.col_sizes)
        for (r, c), ref in self.entries.items():
            b = self.budgets[ref]
            row_budget[r] += b
            col_budget[c] += b
        rows = sum(min(sz, b) for sz, b in zip(self.row_sizes, row_budget))
        cols = sum(min(sz, b) for sz, b in zip(self.col_sizes, col_budget))
        return min(rows, cols, *self.shape)

    @cached_property
    def flow_cap(self) -> int:
        """Exact upper bound on the rank of every instantiation: the value of
        ``max_flow``, worked out once per pattern.

        A cut picks whole block rows, whole block columns and the budgets of
        the blocks outside both; together they cover every nonzero, so their
        total bounds the rank.  ``structural_cap`` is such a cut, so this
        never exceeds it.
        """
        return self.max_flow()[0]

    def max_flow(self):
        """Max flow from the block columns (each supplies its size) through
        the blocks (each carries up to its rank budget) to the block rows
        (each takes its size).  On ``spec_pattern`` the columns are
        transmitters supplying M_i, the rows receivers taking N_j, and a
        saturating flow is Lemma 1's reduced-rank certificate.

        Each search for a shortest augmenting path starts from every column
        with supply left, in column order, walks each node's blocks in
        ``entries`` order (forward where a block has budget left, backward
        where it carries flow) and stops at the first row with demand left.
        So the certificate follows ``entries`` order; the value and the
        nodes the last search visits (the minimal minimum cut) are the same
        for every maximum flow.

        Returns (value, flow on each block entry as ``{(r, c): f}``, block
        rows and block columns the last search visited).
        """
        budget = {block: self.budgets[ref] for block, ref in self.entries.items()}
        flow = dict.fromkeys(self.entries, 0)
        col_rows, row_cols = [[] for _ in self.col_sizes], [[] for _ in self.row_sizes]
        for r, c in self.entries:
            col_rows[c].append(r)
            row_cols[r].append(c)
        supply, demand = list(self.col_sizes), list(self.row_sizes)
        while True:
            # a queue of (is_row, index); the *_from dicts map each visited node to its predecessor
            queue = deque((False, c) for c, left in enumerate(supply) if left)
            col_from, row_from, end = {c: None for _, c in queue}, {}, None
            while queue and end is None:
                is_row, u = queue.popleft()
                if is_row:
                    for c in row_cols[u]:
                        if c not in col_from and flow[u, c]:
                            col_from[c] = u
                            queue.append((False, c))
                    continue
                for r in col_rows[u]:
                    if r not in row_from and flow[r, u] < budget[r, u]:
                        row_from[r] = u
                        if demand[r]:
                            end = r
                            break
                        queue.append((True, r))
            if end is None:
                return sum(self.col_sizes) - sum(supply), flow, sorted(row_from), sorted(col_from)
            path, r = [], end  # (block, +1 forward or -1 backward), back to a start column
            while r is not None:
                c = row_from[r]
                path += [((r, c), 1), ((col_from[c], c), -1)]
                r = col_from[c]
            path.pop()  # no row leads to the start column
            push = min(supply[c], demand[end],
                       *(budget[b] - flow[b] if step > 0 else flow[b] for b, step in path))
            for b, step in path:
                flow[b] += step * push
            supply[c] -= push
            demand[end] -= push


def _offsets(sizes) -> tuple:
    """Start offsets of consecutive blocks, plus the total: (0, s0, s0 + s1, ...)."""
    return tuple(accumulate(sizes, initial=0))


def _place_blocks(pattern: BlockPattern, blocks: dict, dtype) -> np.ndarray:
    """Dense matrix of ``pattern`` with each entry's reference looked up in ``blocks``."""
    out = np.zeros(pattern.shape, dtype=dtype)
    r_off, c_off = _offsets(pattern.row_sizes), _offsets(pattern.col_sizes)
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


def instantiate_pattern(pattern: BlockPattern, rng, p: int = MERSENNE61) -> np.ndarray:
    """One random prime-field instantiation (int64 matrix), references drawn in sorted order."""
    shapes = {ref: (pattern.row_sizes[r], pattern.col_sizes[c])
              for (r, c), ref in pattern.entries.items()}
    sampled = {ref: _sample_block(rng, *shapes[ref], pattern.budgets[ref], p)
               for ref in sorted(shapes)}
    return _place_blocks(pattern, sampled, np.int64)


def generic_rank_pattern(pattern: BlockPattern, trials: int = 8, seed: int = 0) -> int:
    """Generic rank of a block pattern.

    With no repeated reference it is ``pattern.flow_cap``, exactly, and
    nothing is drawn.  Otherwise it is the max exact rank mod 2**61 - 1 over
    at most ``trials`` seeded trials; no trial's rank exceeds the flow cap,
    so a trial that reaches it has the generic rank and ends the loop.
    """
    if trials < 1:
        raise InvalidArgument(f"trials must be >= 1, got {trials}")
    if len(set(pattern.entries.values())) == len(pattern.entries):
        return pattern.flow_cap
    best = 0
    for t in range(trials):
        best = max(best, rank_mod_p(instantiate_pattern(pattern, rng_from(seed, 0x6C, t))))
        if best >= pattern.flow_cap:
            break
    return best


def spec_pattern(spec) -> BlockPattern:
    """K x K block pattern of a network's stripped matrix: every nonzero cross block."""
    refs = [(j, i) for j in range(spec.K) for i in range(spec.K) if i != j and spec.D[j][i] > 0]
    return BlockPattern(tuple(spec.N), tuple(spec.M), {ref: ref for ref in refs},
                        {ref: _block_rank_bound(spec, *ref) for ref in refs})


def generic_rank(spec) -> int:
    """Generic rank of the stripped overall channel matrix (desired blocks
    zeroed): its block max flow, as ``spec_pattern`` repeats no reference."""
    return generic_rank_pattern(spec_pattern(spec))
