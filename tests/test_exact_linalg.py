"""Kernels: exact prime-field rank, null spaces, generic-rank certification."""

from itertools import combinations

import numpy as np
import pytest

from halfcake import (
    MERSENNE61,
    NetworkSpec,
    ScalarDomain,
    StructuredMatrix,
    det_nonzero_with_var_zeroed,
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
from halfcake.exact_linalg import matmul_mod_p, spec_pattern


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
