"""Kernels: exact prime-field rank, null spaces, generic-rank certification."""

from itertools import combinations

import numpy as np
import pytest

from halfcake import (
    MERSENNE61,
    NetworkSpec,
    ReplicationPlan,
    ScalarDomain,
    StructuredMatrix,
    build_replicated,
    contiguous_partition,
    cooperate,
    det_nonzero_with_var_zeroed,
    feasibility_evidence,
    generic_rank,
    left_null_space_basis,
    null_space_basis,
    rank,
    rank_mod_p,
    random_square_spec,
    sample_generic,
    strip_desired,
)
from halfcake.errors import NotSquare
from halfcake.exact_linalg import (
    generic_rank_pattern,
    instantiate_pattern,
    matmul_mod_p,
    rng_from,
    seed_key,
    spec_pattern,
)


# ---------------------------------------------------------------------------
# reference oracle: rank as the largest nonvanishing minor
# ---------------------------------------------------------------------------


def _det_int(A) -> int:
    n = A.shape[0]
    if n == 0:
        return 1
    if n == 1:
        return int(A[0, 0])
    det = 0
    for c in range(n):
        if A[0, c]:
            minor = np.delete(np.delete(A, 0, axis=0), c, axis=1)
            det += (-1) ** c * int(A[0, c]) * _det_int(minor)
    return det


def reference_rank_by_minors(A, p: int) -> int:
    A = np.array(A, dtype=object) % p
    rows, cols = A.shape
    for k in range(min(rows, cols), 0, -1):
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                if _det_int(A[np.ix_(rsel, csel)]) % p != 0:
                    return k
    return 0


@pytest.mark.parametrize("p", [5, 7, 101, (1 << 31) - 1, MERSENNE61])
def test_rank_matches_minor_oracle(p):
    rng = np.random.default_rng(12)
    for _ in range(40):
        rows, cols = rng.integers(1, 5, size=2)
        A = rng.integers(0, min(p, 9), size=(rows, cols))
        assert rank_mod_p(A, p) == reference_rank_by_minors(A, p)


def test_rank_identity_and_zero():
    for m in (1, 3, 6):
        assert rank_mod_p(np.eye(m, dtype=np.int64), MERSENNE61) == m
    assert rank_mod_p(np.zeros((4, 4), dtype=np.int64), MERSENNE61) == 0
    assert rank(np.zeros((3, 5)), ScalarDomain.complex_default()) == 0


def test_rank_of_factor_product_is_inner_dimension():
    rng = np.random.default_rng(3)
    p = MERSENNE61
    A = rng.integers(0, p, size=(8, 5), dtype=np.int64)
    B = rng.integers(0, p, size=(5, 10), dtype=np.int64)
    assert rank_mod_p(matmul_mod_p(A, B, p), p) == 5


def test_first_column_band_of_stripped_counterexample(counterexample_spec):
    # first 18 columns: row-block budgets 6 + 5 + 6 cap the rank at 17
    real = sample_generic(counterexample_spec, seed=5, domain=ScalarDomain.prime_default())
    stripped = strip_desired(real)
    sub = stripped.data[:, :18]
    r = rank_mod_p(sub, MERSENNE61)
    assert r <= 17
    assert r == 17  # generic samples reach the cap


def test_complex_rank_tolerance_is_relative():
    base = np.diag([1e6, 1e-1, 0.0])
    assert rank(base, ScalarDomain.complex_default(tol=1e-9)) == 2
    assert rank(1e-12 * base, ScalarDomain.complex_default(tol=1e-9)) == 2


# ---------------------------------------------------------------------------
# null spaces
# ---------------------------------------------------------------------------


def test_null_space_of_zero_and_full_rank():
    assert null_space_basis(np.zeros((4, 4))).shape == (4, 4)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    assert null_space_basis(A).shape == (3, 0)


def test_null_space_counterexample_stack_width_one(counterexample_ext):
    B = counterexample_ext.slots[0].blocks
    M = counterexample_ext.spec.M
    A = np.block([
        [B[(1, 0)], np.zeros((M[1], M[1]))],
        [np.zeros((M[0], M[0])), B[(0, 1)]],
        [B[(2, 0)], -B[(2, 1)]],
    ])
    assert A.shape == (24, 18)
    basis = null_space_basis(A)
    assert basis.shape == (18, 1)
    assert np.linalg.norm(A @ basis) <= 1e-9 * np.linalg.norm(A)


def test_null_space_of_rank_deficient_stack():
    spec = NetworkSpec.square((5, 3, 2), {(1, 0): 2, (2, 0): 2})
    real = sample_generic(spec, seed=1)
    stacked = np.vstack([real.block(1, 0), real.block(2, 0)])
    width = 5 - 2 - 2
    assert null_space_basis(stacked).shape == (5, width)


def test_null_space_reconstruction_residual():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rows, cols, inner = rng.integers(2, 9, size=3)
        A = (rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
             + 1j * rng.standard_normal((rows, cols)) * 0)
        B = null_space_basis(A)
        assert np.linalg.norm(A @ B) <= 10 * 1e-9 * max(np.linalg.norm(A), 1e-300)
        # orthonormal columns
        if B.shape[1]:
            assert np.allclose(B.conj().T @ B, np.eye(B.shape[1]), atol=1e-10)


def test_left_null_space_rows_annihilate():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    A[3] = A[0] + A[1]  # force row dependence
    L = left_null_space_basis(A)
    assert L.shape[0] >= 1
    assert np.linalg.norm(L @ A) <= 1e-8 * np.linalg.norm(A)


# ---------------------------------------------------------------------------
# generic rank certification
# ---------------------------------------------------------------------------


def test_generic_rank_counterexample_and_reduced(counterexample_spec, reduced_spec):
    assert generic_rank(counterexample_spec, "stripped", trials=8, seed=0) == 23
    assert generic_rank(reduced_spec, "stripped", trials=8, seed=0) == 24


def test_generic_rank_zero_cross():
    spec = NetworkSpec.square((2, 3), default="zero")
    assert generic_rank(spec, "stripped", trials=4, seed=0) == 0
    assert generic_rank(spec, "full", trials=4, seed=0) == 5


def test_generic_rank_monotone_in_trials(reduced_spec):
    r1 = generic_rank(reduced_spec, "stripped", trials=1, seed=4)
    r8 = generic_rank(reduced_spec, "stripped", trials=8, seed=4)
    assert r1 <= r8


def test_generic_rank_monotone_under_rank_increase():
    rng = np.random.default_rng(31)
    for t in range(25):
        spec = random_square_spec((31, t), K_max=3, M_max=4)
        raised = {}
        for j in range(spec.K):
            for i in range(spec.K):
                if i == j:
                    continue
                cap = min(spec.M[i], spec.M[j])
                raised[(j, i)] = int(min(cap, spec.D[j][i] + rng.integers(0, 2)))
        bigger = NetworkSpec.square(spec.M, raised)
        assert generic_rank(spec, "stripped", 4, t) <= generic_rank(bigger, "stripped", 4, t)


def test_generic_rank_structural_cap():
    for t in range(20):
        spec = random_square_spec((77, t), K_max=4, M_max=5)
        cap = spec_pattern(spec, "stripped").structural_cap(spec)
        by_cols = sum(min(spec.M[i], sum(spec.D[j][i] for j in range(spec.K) if j != i))
                      for i in range(spec.K))
        by_rows = sum(min(spec.N[j], sum(spec.D[j][i] for i in range(spec.K) if i != j))
                      for j in range(spec.K))
        assert cap <= min(by_cols, by_rows)
        assert generic_rank(spec, "stripped", trials=4, seed=t) <= cap


# ---------------------------------------------------------------------------
# determinant tests with pinned coefficients
# ---------------------------------------------------------------------------


def test_det_two_user_single_coefficient_is_essential():
    spec = NetworkSpec.square((1, 1))
    struct = StructuredMatrix.from_spec(spec, seed=0)
    assert det_nonzero_with_var_zeroed(struct, (0, 1, 0), trials=4, seed=0) is False


def test_det_reduced_example_spare_coefficient(reduced_spec):
    struct = StructuredMatrix.from_spec(reduced_spec, seed=0)
    # block (1,3) carries 3 coefficients but only 2 are needed
    assert det_nonzero_with_var_zeroed(struct, (0, 2, 0), trials=8, seed=0) is True


def test_det_counterexample_identically_zero(counterexample_spec):
    struct = StructuredMatrix.from_spec(counterexample_spec, seed=0)
    for var in [(0, 1, 0), (1, 0, 4), (2, 0, 3)]:
        assert det_nonzero_with_var_zeroed(struct, var, trials=4, seed=1) is False


def test_det_requires_square():
    spec = NetworkSpec.make((2, 2), (3, 2))
    struct = StructuredMatrix.from_spec(spec, seed=0)
    with pytest.raises(NotSquare):
        det_nonzero_with_var_zeroed(struct, (0, 1, 0))


def test_scalar_domain_validation():
    with pytest.raises(ValueError):
        ScalarDomain("prime", p=101)  # too small
    with pytest.raises(ValueError):
        ScalarDomain("prime", p=(1 << 61) - 3)  # not prime
    with pytest.raises(ValueError):
        ScalarDomain("complex", tol=0.0)
    assert ScalarDomain.from_tag("prime:2305843009213693951").p == MERSENNE61
    assert ScalarDomain.from_tag("complex").is_complex


def test_bad_trials_and_domain_tags_raise_invalid_argument():
    from halfcake.errors import HalfCakeError, InvalidArgument

    assert issubclass(InvalidArgument, HalfCakeError) and issubclass(InvalidArgument, ValueError)
    with pytest.raises(InvalidArgument):
        generic_rank(NetworkSpec.square((2, 2)), trials=0)
    for tag in ("prime:7", "prime:", "prime:x", "primes", "bogus"):
        with pytest.raises(InvalidArgument):
            ScalarDomain.from_tag(tag)
    assert ScalarDomain.from_tag("prime").p == MERSENNE61


# ---------------------------------------------------------------------------
# prime-field kernels: Python-int ranks; uint64 limb products at 2**61-1
# ---------------------------------------------------------------------------

#: a 41-bit prime, served by the Python-int path at every size
P41 = 1_099_511_627_791

#: residues that sit on the limb and fold boundaries of the uint64 product kernel
EDGE_RESIDUES = (0, 1, MERSENNE61 - 1, (1 << 32) - 1, 1 << 32, 1 << 60)

#: square and rectangular shapes, from single cells to dense inputs larger than
#: any cooperation matrix the benchmark ranks
KERNEL_SHAPES = [(1, 1), (1, 9), (9, 1), (3, 5), (8, 8), (12, 30), (30, 12), (16, 16),
                 (17, 17), (18, 18), (24, 24), (40, 25), (60, 60), (110, 97)]


def reference_rank(rows, p: int) -> int:
    """Gaussian elimination on Python ints, one entry at a time."""
    rows = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                for cc in range(c, len(rows[i])):
                    rows[i][cc] = (rows[i][cc] - f * rows[rank][cc]) % p
        rank += 1
    return rank


def reference_product(A: np.ndarray, B: np.ndarray, p: int) -> list:
    (m, k), (_, n) = A.shape, B.shape
    return [[sum(int(A[i, t]) * int(B[t, j]) for t in range(k)) % p for j in range(n)]
            for i in range(m)]


def _planted(rng, shape, r, p):
    """A random matrix of rank r mod p (almost surely), with zero rows and columns mixed in."""
    m, n = shape
    X = rng.integers(0, p, size=(m, r), dtype=np.int64)
    Y = rng.integers(0, p, size=(r, n), dtype=np.int64)
    A = matmul_mod_p(X, Y, p)
    A[rng.random(m) < 0.2] = 0  # may lower the rank; the reference decides
    return A


@pytest.mark.parametrize("p", [MERSENNE61, P41])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_rank_of_planted_products_matches_reference(shape, p):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for r in sorted({0, 1, min(shape) // 2, min(shape)}):
        X = rng.integers(0, p, size=(shape[0], r), dtype=np.int64)
        Y = rng.integers(0, p, size=(r, shape[1]), dtype=np.int64)
        full = matmul_mod_p(X, Y, p)
        assert rank_mod_p(full, p) == r == reference_rank(full.tolist(), p)
    sparse = _planted(rng, shape, min(shape) - 1, p)
    assert rank_mod_p(sparse, p) == reference_rank(sparse.tolist(), p)


@pytest.mark.parametrize("shape", [(6, 6), (20, 20), (30, 18)])
def test_rank_on_edge_residues(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        A = rng.choice(np.array(EDGE_RESIDUES, dtype=np.int64), size=shape)
        assert rank_mod_p(A, MERSENNE61) == reference_rank(A.tolist(), MERSENNE61)
        assert rank_mod_p(A, P41) == reference_rank(A.tolist(), P41)


@pytest.mark.parametrize("p", [MERSENNE61, P41, (1 << 31) - 1])
@pytest.mark.parametrize("shape", [(5, 7), (24, 20)])
def test_rank_accepts_lists_negative_int64_and_big_python_ints(shape, p):
    rng = np.random.default_rng(7)
    base = _planted(rng, shape, min(shape) - 2, MERSENNE61).tolist()
    expected = reference_rank(base, p)
    negative = -np.array(base, dtype=np.int64)
    huge = np.array([[x + (3 ** 90) * p * (-1) ** x for x in row] for row in base], dtype=object)
    assert rank_mod_p(base, p) == expected
    assert rank_mod_p(negative, p) == expected
    assert rank_mod_p(huge, p) == expected
    assert rank_mod_p(huge.tolist(), p) == expected


def test_rank_beyond_int64_primes_uses_python_ints():
    p = (1 << 89) - 1  # Mersenne prime far above 2**63
    rng = np.random.default_rng(5)
    for shape in [(4, 4), (25, 25)]:
        A = [[int(x) * (1 << 40) + 3 for x in row] for row in rng.integers(0, 1 << 40, size=shape)]
        assert rank_mod_p(A, p) == reference_rank(A, p)


def test_matmul_matches_python_ints_on_20000_pairs():
    rng = np.random.default_rng(20_000)
    p = MERSENNE61
    a = rng.integers(0, p, size=(100, 1), dtype=np.int64)
    b = rng.integers(0, p, size=(1, 200), dtype=np.int64)
    a[: len(EDGE_RESIDUES), 0] = EDGE_RESIDUES
    b[0, : len(EDGE_RESIDUES)] = EDGE_RESIDUES
    got = matmul_mod_p(a, b, p)
    assert got.dtype == np.int64
    assert got.tolist() == reference_product(a, b, p)


@pytest.mark.parametrize("p", [MERSENNE61, P41])
@pytest.mark.parametrize("mkn", [(1, 1, 1), (2, 3, 2), (4, 4, 5), (5, 4, 5), (10, 6, 8),
                                 (7, 23, 9), (3, 0, 4)])
def test_matmul_matches_python_ints(mkn, p):
    m, k, n = mkn
    rng = np.random.default_rng(m * 100 + k * 10 + n)
    A = rng.choice(np.array(EDGE_RESIDUES + (p - 1, p - 2), dtype=np.int64), size=(m, k))
    B = rng.integers(-p, p, size=(k, n), dtype=np.int64)
    expected = reference_product(A, B, p)
    assert matmul_mod_p(A, B, p).tolist() == expected
    if k:  # nested lists cannot carry an empty inner dimension
        big = np.array([[x + 7 ** 40 * p for x in row] for row in B.tolist()], dtype=object)
        assert matmul_mod_p(A.tolist(), big, p).tolist() == expected


# ---------------------------------------------------------------------------
# sparse elimination: block-sparse, arrow and dense inputs
# ---------------------------------------------------------------------------


def _circulant_pattern(spec, rng, mu_min: int, mu_max: int):
    """Cooperation pattern of a random circulant plan with uniform mu in [mu_min, mu_max]."""
    mu = [int(rng.integers(mu_min, mu_max + 1))] * spec.K
    shifts = rng.integers(0, mu[0], size=(spec.K, spec.K)).tolist()
    partition = contiguous_partition(mu, rng.integers(0, mu[0] + 1, size=spec.K).tolist())
    plan = ReplicationPlan.from_shifts(mu, shifts, partition)
    return cooperate(build_replicated(spec, plan), plan.partition).pattern


def _circulant_cooperation(seed: int, p: int) -> np.ndarray:
    """One instantiation of the cooperation pattern of a random circulant plan."""
    rng = np.random.default_rng(seed)
    spec = random_square_spec((seed, 0x5C), K_min=3, K_max=4, M_max=6)
    return instantiate_pattern(spec, _circulant_pattern(spec, rng, 2, 5), rng, p)


def _repeated_blocks(seed: int, p: int) -> np.ndarray:
    """Block matrix of zero blocks and low-rank blocks, the same block reused in several places."""
    rng = np.random.default_rng(seed)
    row_sizes = rng.integers(2, 7, size=int(rng.integers(3, 7))).tolist()
    col_sizes = rng.integers(2, 7, size=int(rng.integers(3, 7))).tolist()
    r_off, c_off = np.cumsum([0] + row_sizes), np.cumsum([0] + col_sizes)
    out = np.zeros((r_off[-1], c_off[-1]), dtype=np.int64)
    blocks = {}
    for r, rs in enumerate(row_sizes):
        for c, cs in enumerate(col_sizes):
            if rng.random() < 0.5:
                continue
            key = (rs, cs, int(rng.integers(0, 2)))  # two blocks to choose from per shape
            if key not in blocks:
                k = int(rng.integers(1, min(rs, cs) + 1))
                blocks[key] = matmul_mod_p(rng.integers(0, p, size=(rs, k), dtype=np.int64),
                                           rng.integers(0, p, size=(k, cs), dtype=np.int64), p)
            out[r_off[r] : r_off[r + 1], c_off[c] : c_off[c + 1]] = blocks[key]
    return out


def _arrow(seed: int, k: int, s: int, b: int, p: int) -> np.ndarray:
    """[[D, B], [E, 0]], D and E diagonal k x k, B k x s of rank b; rows and columns shuffled.

    The k sparse columns are swept first, and their pivots fill the bottom
    rows in with a multiple of B, so the remainder is k x s and dense."""
    rng = np.random.default_rng(seed)
    A = np.zeros((2 * k, k + s), dtype=np.int64)
    A[:k, :k] = np.diag(rng.integers(1, p, size=k))
    A[k:, :k] = np.diag(rng.integers(1, p, size=k))
    A[:k, k:] = matmul_mod_p(rng.integers(0, p, size=(k, b), dtype=np.int64),
                             rng.integers(0, p, size=(b, s), dtype=np.int64), p)
    return A[rng.permutation(2 * k)][:, rng.permutation(k + s)]


@pytest.mark.parametrize("p", [MERSENNE61, P41])
def test_rank_of_block_sparse_inputs_matches_reference(p):
    cases = [_circulant_cooperation(seed, p) for seed in range(16)]
    cases += [_repeated_blocks(seed, p) for seed in range(16)]
    deficient = 0
    for A in cases:
        expected = reference_rank(A.tolist(), p)
        assert rank_mod_p(A, p) == expected
        deficient += expected < min(A.shape)
    assert deficient >= len(cases) // 2  # cancellation, not just full rank, is exercised


@pytest.mark.parametrize("p", [MERSENNE61, P41])
def test_rank_of_arrow_and_dense_inputs_matches_reference(p):
    rng = np.random.default_rng(40)
    # sparse pivots that fill in a dense remainder: full rank, then rank-deficient
    arrows = [_arrow(seed, 30, 24, b, p) for seed, b in enumerate((24, 24, 11))]
    # dense, without and with zero rows
    dense = [matmul_mod_p(rng.integers(0, p, size=(m, r), dtype=np.int64),
                          rng.integers(0, p, size=(r, n), dtype=np.int64), p)
             for m, n, r in ((40, 40, 40), (40, 40, 31), (64, 48, 48), (48, 64, 37))]
    dense += [_planted(rng, shape, 35, p) for shape in ((40, 40), (52, 44))]
    for A in arrows + dense:
        assert rank_mod_p(A, p) == reference_rank(A.tolist(), p)


# ---------------------------------------------------------------------------
# block max-flow cap: a bound on every trial that ends generic-rank trials
# ---------------------------------------------------------------------------


def _flow_cap_cases():
    """(spec, pattern): cooperation patterns of random circulant plans, then stripped patterns."""
    cases = []
    for t in range(160):
        spec = random_square_spec((t, 0xF1), K_min=2, K_max=5, M_max=6)
        cases.append((spec, _circulant_pattern(spec, np.random.default_rng(t), 1, 4)))
    for t in range(40):
        spec = random_square_spec((t, 0xF2), K_min=2, K_max=5, M_max=6)
        cases.append((spec, spec_pattern(spec, "stripped")))
    return cases


def test_flow_cap_bounds_every_trial_and_ends_trials_exactly():
    stopped_early = 0
    for n, (spec, pattern) in enumerate(_flow_cap_cases()):
        flow, structural = pattern.flow_cap(spec), pattern.structural_cap(spec)
        assert flow <= structural
        ranks = [rank_mod_p(instantiate_pattern(spec, pattern, rng_from(n, 0x6C, t)))
                 for t in range(8)]
        assert max(ranks) <= flow
        # the early stop returns what a run of all 8 trials returns
        assert generic_rank_pattern(spec, pattern, trials=8, seed=n) == max(ranks)
        stopped_early += max(ranks) == flow < structural
    assert stopped_early >= 8  # the flow, not the structural cap, ends these trials


def test_flow_cap_of_stripped_pattern_is_lemma1_max_flow():
    for t in range(60):
        spec = random_square_spec((t, 0xF3), K_min=2, K_max=6, M_max=6)
        assert (spec_pattern(spec, "stripped").flow_cap(spec)
                == feasibility_evidence(spec)["max_flow"])


def test_rng_from_matches_default_rng_of_seed_key():
    parts_list = [(), (0,), (2 ** 32,), (2 ** 64 - 1,), (-1,), (-(2 ** 70), 5),
                  (0, 0x6C, 7), ((3, [2 ** 32 + 1, -7]), 0, (2 ** 64 - 1, (2 ** 33,)))]
    for parts in parts_list:
        expected, got = np.random.default_rng(seed_key(*parts)), rng_from(*parts)
        assert (got.integers(0, 2 ** 62, size=6).tolist()
                == expected.integers(0, 2 ** 62, size=6).tolist())
        assert got.random() == expected.random()
