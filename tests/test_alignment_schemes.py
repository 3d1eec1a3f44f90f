"""Scheme constructors and the decodability verifier."""

import json
from fractions import Fraction

import numpy as np
import pytest

from halfcake import (
    LinearScheme,
    NetworkSpec,
    best_exceeding_scheme,
    counterexample_scheme,
    ergodic_half_cake,
    example2_scheme,
    extend_ergodic_pair,
    null_space_basis,
    sample_generic,
    scheme_cd1,
    scheme_cd7,
    single_slot,
    verify_scheme,
)
from halfcake.errors import ConditionFails, DimensionMismatch
from halfcake.exact_linalg import numerical_rank
from paper_constructs import (
    build_created_network,
    created_extension,
    lift_scheme,
    scheme_for_cd_violation,
)


def _dof(scheme):
    """Per-user DoF m_k / n of a scheme."""
    return tuple(Fraction(mk, scheme.n) for mk in scheme.m)


# ---------------------------------------------------------------------------
# verifier semantics
# ---------------------------------------------------------------------------


def test_verifier_accepts_and_rejects_rank_one_perturbation():
    spec = NetworkSpec.square((3, 2, 2))
    ext = extend_ergodic_pair(spec, seed=0)
    scheme = ergodic_half_cake(ext)
    assert verify_scheme(ext, scheme, tol=1e-8).passed

    U = [u.copy() for u in scheme.U]
    bump = np.zeros_like(U[0])
    bump[0, 0] = 1e-3  # breaks the [W, -W] structure, so interference leaks
    U[0] = U[0] + bump
    broken = LinearScheme(scheme.n, scheme.m, scheme.V, tuple(U))
    report = verify_scheme(ext, broken, tol=1e-8)
    assert not report.passed
    assert report.max_residual > 1e-8


def test_verifier_vacuous_on_empty_streams():
    spec = NetworkSpec.square((2, 2))
    ext = extend_ergodic_pair(spec, seed=1)
    empty = LinearScheme(
        2, (0, 0),
        tuple(np.zeros((4, 0), dtype=complex) for _ in range(2)),
        tuple(np.zeros((0, 4), dtype=complex) for _ in range(2)),
    )
    report = verify_scheme(ext, empty)
    assert report.passed and report.sum_dof == 0


def test_verifier_checks_shapes():
    spec = NetworkSpec.square((2, 2))
    ext = extend_ergodic_pair(spec, seed=1)
    scheme = ergodic_half_cake(ext)
    with pytest.raises(DimensionMismatch):
        verify_scheme(ext, LinearScheme(1, scheme.m, scheme.V, scheme.U))
    bad_v = (scheme.V[0][:, :1], scheme.V[1])
    with pytest.raises(DimensionMismatch):
        verify_scheme(ext, LinearScheme(2, scheme.m, bad_v, scheme.U))


# ---------------------------------------------------------------------------
# repetition scheme
# ---------------------------------------------------------------------------


def test_ergodic_half_cake_10_8_6(counterexample_ext):
    scheme = ergodic_half_cake(counterexample_ext)
    report = verify_scheme(counterexample_ext, scheme)
    assert report.passed
    assert _dof(scheme) == (Fraction(5), Fraction(4), Fraction(3))
    assert report.sum_dof == Fraction(12)
    assert report.max_residual == 0.0  # equal cross blocks cancel exactly


def test_ergodic_single_user():
    spec = NetworkSpec((3,), (3,), ((None,),))
    ext = extend_ergodic_pair(spec, seed=2)
    report = verify_scheme(ext, ergodic_half_cake(ext))
    assert report.passed and report.sum_dof == Fraction(3, 2)


def test_ergodic_two_user():
    spec = NetworkSpec.square((2, 2))
    ext = extend_ergodic_pair(spec, seed=3)
    report = verify_scheme(ext, ergodic_half_cake(ext))
    assert report.passed and report.sum_dof == Fraction(2)


# ---------------------------------------------------------------------------
# aligned pair (exceeds half the cake)
# ---------------------------------------------------------------------------


def test_counterexample_scheme_dof(counterexample_ext):
    scheme = counterexample_scheme(counterexample_ext, seed=0)
    assert scheme.m == (11, 9, 5) and scheme.n == 2
    report = verify_scheme(counterexample_ext, scheme, tol=1e-8)
    assert report.passed
    assert report.sum_dof == Fraction(25, 2)
    assert _dof(scheme) == (Fraction(11, 2), Fraction(9, 2), Fraction(5, 2))


def test_counterexample_scheme_ten_seeds(counterexample_spec):
    for seed in range(10):
        ext = extend_ergodic_pair(counterexample_spec, seed=seed)
        report = verify_scheme(ext, counterexample_scheme(ext, seed=seed), tol=1e-8)
        assert report.passed and report.max_residual <= 1e-8


def test_counterexample_scheme_rejects_other_specs(reduced_spec):
    ext = extend_ergodic_pair(reduced_spec, seed=0)
    with pytest.raises(ConditionFails):
        counterexample_scheme(ext)


def test_perturbed_rank_closes_the_null_space(counterexample_spec):
    perturbed = NetworkSpec.square((10, 8, 6), {(0, 1): 6, (1, 0): 6})
    ext = extend_ergodic_pair(perturbed, seed=0)
    with pytest.raises(ConditionFails):
        scheme_cd7(ext)
    B = ext.slots[0].blocks
    A = np.block([
        [B[(1, 0)], np.zeros((8, 8))],
        [np.zeros((10, 10)), B[(0, 1)]],
        [B[(2, 0)], -B[(2, 1)]],
    ])
    assert numerical_rank(A) == 18
    assert null_space_basis(A).shape == (18, 0)


def test_scheme_cd7_4_4_4():
    spec = NetworkSpec.square((4, 4, 4), {(0, 1): 1, (1, 0): 1})
    ext = extend_ergodic_pair(spec, seed=1)
    scheme = scheme_cd7(ext, seed=1)
    report = verify_scheme(ext, scheme, tol=1e-8)
    assert report.passed
    assert report.sum_dof == Fraction(13, 2) > spec.half_cake


def test_scheme_cd7_boundary_not_strict():
    spec = NetworkSpec.square((4, 4, 4), {(0, 1): 2, (1, 0): 2})
    ext = extend_ergodic_pair(spec, seed=0)
    with pytest.raises(ConditionFails):
        scheme_cd7(ext)


# ---------------------------------------------------------------------------
# double zero-forcing (exceeds half the cake)
# ---------------------------------------------------------------------------


def test_scheme_cd1_4_2_2():
    spec = NetworkSpec.square((4, 2, 2), {(0, 1): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1})
    ext = extend_ergodic_pair(spec, seed=2)
    scheme = scheme_cd1(ext, seed=2)
    assert scheme.m == (5, 2, 2)
    report = verify_scheme(ext, scheme, tol=1e-8)
    assert report.passed
    assert report.sum_dof == Fraction(9, 2) > spec.half_cake


def test_scheme_cd1_needs_strict_deficit():
    spec = NetworkSpec.square((4, 2, 2))
    ext = extend_ergodic_pair(spec, seed=0)
    with pytest.raises(ConditionFails):
        scheme_cd1(ext)


def test_stacked_null_width_matches_deficit():
    spec = NetworkSpec.square((5, 3, 2), {(1, 0): 2, (2, 0): 2})
    real = sample_generic(spec, seed=4)
    stacked = np.vstack([real.block(1, 0), real.block(2, 0)])
    assert null_space_basis(stacked).shape[1] == 5 - 2 - 2


def test_scheme_for_violation_relabels():
    # violation on the (2, 3) pair: cd8 after relabeling user 1 out of the pair
    spec = NetworkSpec.square((4, 4, 4), {(1, 2): 1, (2, 1): 1})
    from halfcake import classify_symmetric_3user

    out = classify_symmetric_3user(spec)
    assert out.violated == "cd8"
    ext = extend_ergodic_pair(spec, seed=3)
    scheme = scheme_for_cd_violation(ext, out.violated, seed=3)
    report = verify_scheme(ext, scheme, tol=1e-8)
    assert report.passed and report.sum_dof == Fraction(13, 2)


def test_best_exceeding_scheme_counterexample(counterexample_ext):
    found = best_exceeding_scheme(counterexample_ext, seed=0)
    assert found is not None
    scheme, family, report = found
    assert family == "aligned-pair"
    assert verify_scheme(counterexample_ext, scheme).sum_dof == Fraction(25, 2)
    assert report.to_json() == verify_scheme(counterexample_ext, scheme).to_json()


def test_best_exceeding_scheme_none_when_optimal(reduced_spec):
    ext = extend_ergodic_pair(reduced_spec, seed=0)
    assert best_exceeding_scheme(ext, seed=0) is None


# ---------------------------------------------------------------------------
# single-slot mixed-dimension scheme
# ---------------------------------------------------------------------------


def test_example2_scheme_dof(asym_spec):
    real = sample_generic(asym_spec, seed=0)
    ext = single_slot(real)
    scheme = example2_scheme(ext, seed=0)
    assert scheme.m == (7, 3, 2) and scheme.n == 1
    report = verify_scheme(ext, scheme, tol=1e-8)
    assert report.passed and report.sum_dof == Fraction(12)


def test_example2_scheme_ten_seeds(asym_spec):
    for seed in range(10):
        ext = single_slot(sample_generic(asym_spec, seed=seed))
        report = verify_scheme(ext, example2_scheme(ext, seed=seed), tol=1e-8)
        assert report.passed and report.max_residual <= 1e-8


def test_example2_interference_at_receiver_3_is_one_dimensional(asym_spec):
    real = sample_generic(asym_spec, seed=1)
    ext = single_slot(real)
    scheme = example2_scheme(ext, seed=1)
    incoming = real.block(2, 1) @ scheme.V[1]
    assert numerical_rank(incoming) == 1  # N_3 - d_3


def test_example2_intersection_width(asym_spec):
    real = sample_generic(asym_spec, seed=2)
    overlap = null_space_basis(np.hstack([real.block(0, 1), -real.block(0, 2)]))
    assert overlap.shape[1] == 8 + 6 - 10


def test_example2_rejects_other_specs(counterexample_spec):
    real = sample_generic(counterexample_spec, seed=0)
    with pytest.raises(ConditionFails):
        example2_scheme(single_slot(real))


# ---------------------------------------------------------------------------
# lifting to created networks (tests/paper_constructs.py)
# ---------------------------------------------------------------------------


def test_lifting_ergodic_scheme_two_copies():
    spec = NetworkSpec.square((3, 2, 2))
    ext = extend_ergodic_pair(spec, seed=7)
    scheme = ergodic_half_cake(ext)
    created = build_created_network(spec, (2, 2, 2), seed=7)
    lifted = lift_scheme(scheme, created.mu)
    report = verify_scheme(created_extension(created, ext), lifted, tol=1e-8)
    assert report.passed
    assert report.sum_dof == 2 * scheme.sum_dof


def test_lifting_preserves_per_user_dof():
    spec = NetworkSpec.square((2, 2))
    ext = extend_ergodic_pair(spec, seed=8)
    scheme = ergodic_half_cake(ext)
    lifted = lift_scheme(scheme, (3, 1))
    assert lifted.m == (2, 2, 2, 2)
    assert _dof(lifted) == (Fraction(1),) * 4


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_scheme_json_roundtrip(counterexample_ext):
    scheme = counterexample_scheme(counterexample_ext, seed=0)
    blob = json.loads(json.dumps(scheme.to_json()))
    again = LinearScheme.from_json(blob, counterexample_ext.spec)
    assert again.m == scheme.m and again.n == scheme.n
    report = verify_scheme(counterexample_ext, again, tol=1e-8)
    assert report.passed and report.sum_dof == Fraction(25, 2)


def test_verify_scheme_fails_on_non_finite_entries():
    spec = NetworkSpec.square((2, 2))
    ext = extend_ergodic_pair(spec, seed=5)
    scheme = ergodic_half_cake(ext)
    for bad in (np.nan, np.inf):
        V = (np.full_like(scheme.V[0], bad),) + scheme.V[1:]
        report = verify_scheme(ext, LinearScheme(scheme.n, scheme.m, V, scheme.U))
        assert not report.passed and report.desired_ranks[0] == 0


@pytest.mark.parametrize("field", ["n", "users", "m"])
def test_scheme_json_missing_field_raises_bad_shape(counterexample_ext, field):
    from halfcake.errors import BadShape

    blob = counterexample_scheme(counterexample_ext, seed=0).to_json()
    del (blob["users"][0] if field == "m" else blob)[field]
    with pytest.raises(BadShape):
        LinearScheme.from_json(blob, counterexample_ext.spec)
