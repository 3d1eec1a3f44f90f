"""Network specs, generic sampling, stripped matrices, canonical realizations, extensions."""

import json

import numpy as np
import pytest

from halfcake import (
    ChannelRealization,
    ExtendedRealization,
    NetworkSpec,
    ReducedRankCertificate,
    ScalarDomain,
    extend_ergodic_pair,
    rank_mod_p,
    reduced_rank_feasible,
    sample_generic,
    validate_spec,
)
from halfcake.errors import (
    BadShape,
    CertificateInfeasible,
    NotSquareCase,
    RankExceedsDimension,
)
from halfcake.exact_linalg import MERSENNE61, numerical_rank
from paper_constructs import canonical_realization, strip_desired


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_accepts_counterexample(counterexample_spec):
    assert validate_spec(counterexample_spec) is counterexample_spec
    assert counterexample_spec.D[0][1] == 6 and counterexample_spec.D[1][0] == 5


def test_validate_accepts_minimal_pair():
    spec = NetworkSpec.square((1, 1))
    assert spec.D[0][1] == 1 and spec.D[1][0] == 1


def test_validate_rejects_oversized_rank():
    with pytest.raises(RankExceedsDimension):
        NetworkSpec.square((2, 2), {(0, 1): 3})


def test_validate_rejects_bad_shapes():
    with pytest.raises(BadShape):
        validate_spec(NetworkSpec((2, 2), (2,), ((None, 1), (1, None))))
    with pytest.raises(BadShape):
        validate_spec(NetworkSpec((2, 0), (2, 2), ((None, 1), (1, None))))
    with pytest.raises(BadShape):
        NetworkSpec.from_json({"K": 3, "M": [2, 2], "N": [2, 2],
                               "D": [[None, 1], [1, None]]})


def test_spec_construction_validates():
    with pytest.raises(BadShape):
        NetworkSpec((2, 2), (2,), ((None, 1), (1, None)))
    with pytest.raises(BadShape):
        NetworkSpec((2, 2), (2, 2), ((None, -1), (1, None)))
    with pytest.raises(RankExceedsDimension):
        NetworkSpec((2, 2), (2, 1), ((None, 2), (2, None)))


def test_spec_json_roundtrip(asym_spec):
    again = NetworkSpec.from_json(json.loads(json.dumps(asym_spec.to_json())))
    assert again == asym_spec


def test_permute_is_relabeling(reduced_spec):
    perm = (2, 0, 1)
    p = reduced_spec.permute(perm)
    assert p.M == (6, 10, 8)
    for a in range(3):
        for b in range(3):
            if a != b:
                assert p.D[a][b] == reduced_spec.D[perm[a]][perm[b]]


# ---------------------------------------------------------------------------
# generic sampling
# ---------------------------------------------------------------------------


def test_sample_cross_rank_matches_budget_complex(counterexample_spec):
    real = sample_generic(counterexample_spec, seed=1)
    assert numerical_rank(real.block(1, 0)) == 5
    assert numerical_rank(real.block(0, 1)) == 6


def test_sample_zero_budget_gives_zero_block():
    spec = NetworkSpec.square((3, 2), {(0, 1): 0})
    real = sample_generic(spec, seed=0)
    assert np.all(real.block(0, 1) == 0)


def test_sample_deterministic(counterexample_spec):
    a = sample_generic(counterexample_spec, seed=9)
    b = sample_generic(counterexample_spec, seed=9)
    for key in a.blocks:
        assert np.array_equal(a.blocks[key], b.blocks[key])
    c = sample_generic(counterexample_spec, seed=10)
    assert not np.array_equal(a.block(0, 1), c.block(0, 1))


def test_prime_sampling_hits_rank_budget_100_seeds(counterexample_spec):
    domain = ScalarDomain.prime_default()
    spec = counterexample_spec
    for seed in range(100):
        real = sample_generic(spec, seed=seed, domain=domain)
        for j in range(3):
            for i in range(3):
                if i != j:
                    assert rank_mod_p(real.block(j, i), domain.p) == spec.D[j][i]


# ---------------------------------------------------------------------------
# stripped matrices (tests/paper_constructs.py)
# ---------------------------------------------------------------------------


def test_strip_desired_equals_assemble_then_zero(reduced_spec):
    real = sample_generic(reduced_spec, seed=3)
    stripped = strip_desired(real)
    full = np.block([[real.block(j, i) for i in range(3)] for j in range(3)])
    off = np.concatenate([[0], np.cumsum(reduced_spec.M)]).astype(int)
    for k in range(3):
        full[off[k]:off[k + 1], off[k]:off[k + 1]] = 0
    assert np.array_equal(stripped, full)


def test_strip_desired_requires_square(asym_spec):
    real = sample_generic(asym_spec, seed=0)
    with pytest.raises(NotSquareCase):
        strip_desired(real)


def test_strip_zero_cross_ranks_is_zero():
    spec = NetworkSpec.square((2, 2), default="zero")
    real = sample_generic(spec, seed=0)
    assert np.all(strip_desired(real) == 0)
    assert numerical_rank(strip_desired(real)) == 0


def test_strip_full_small_network_has_full_rank():
    # cyclic reduced ranks of 1 saturate the sums, so the stripped matrix is full
    spec = NetworkSpec.square((2, 2, 2))
    real = sample_generic(spec, seed=2, domain=ScalarDomain.prime_default())
    assert rank_mod_p(strip_desired(real), MERSENNE61) == 6


# ---------------------------------------------------------------------------
# canonical realizations (tests/paper_constructs.py)
# ---------------------------------------------------------------------------


def _permutation_checks(real):
    stripped = strip_desired(real)
    assert set(np.unique(stripped)) <= {0, 1}
    assert np.all(stripped.sum(axis=0) == 1)
    assert np.all(stripped.sum(axis=1) == 1)


def test_canonical_reduced_example(reduced_spec):
    cert = ReducedRankCertificate.from_rows(
        [[0, 8, 2], [4, 0, 4], [6, 0, 0]])
    real = canonical_realization(reduced_spec, cert)
    _permutation_checks(real)
    assert rank_mod_p(strip_desired(real), MERSENNE61) == 24
    for j in range(3):
        for i in range(3):
            if i != j:
                assert rank_mod_p(real.block(j, i), MERSENNE61) == int(cert.reduced_ranks[j][i])


def test_canonical_two_user_antidiagonal():
    spec = NetworkSpec.square((3, 3))
    cert = ReducedRankCertificate.from_rows([[0, 3], [3, 0]])
    real = canonical_realization(spec, cert)
    _permutation_checks(real)
    assert np.array_equal(real.block(0, 1), np.eye(3, dtype=np.int64))
    assert np.array_equal(real.block(1, 0), np.eye(3, dtype=np.int64))


def test_canonical_from_chip_allocation():
    spec = NetworkSpec.square((5, 3, 2))
    cert = reduced_rank_feasible(spec)
    real = canonical_realization(spec, cert)
    _permutation_checks(real)
    assert rank_mod_p(strip_desired(real), MERSENNE61) == 10


def test_canonical_rejects_bad_certificate(reduced_spec):
    with pytest.raises(CertificateInfeasible):
        canonical_realization(reduced_spec,
                              ReducedRankCertificate.from_rows([[0, 8, 3], [4, 0, 4], [6, 0, 0]]))


# ---------------------------------------------------------------------------
# two-slot extensions
# ---------------------------------------------------------------------------


def test_extend_pair_cross_constant_desired_fresh(counterexample_spec):
    ext = extend_ergodic_pair(counterexample_spec, seed=0)
    assert ext.n == 2
    assert ext.has_constant_cross()
    assert np.array_equal(ext.slots[0].block(2, 0), ext.slots[1].block(2, 0))
    for k in range(3):
        M = counterexample_spec.M[k]
        assert numerical_rank(ext.desired_difference(k)) == M
    assert numerical_rank(ext.desired_difference(0)) == 10


def test_extend_pair_single_user_difference_full_rank():
    spec = NetworkSpec((3,), (3,), ((None,),))
    ext = extend_ergodic_pair(spec, seed=0)
    assert numerical_rank(ext.desired_difference(0)) == 3


def test_extended_block_is_block_diagonal(counterexample_spec):
    ext = extend_ergodic_pair(counterexample_spec, seed=1)
    blk = ext.extended_block(1, 0)
    assert blk.shape == (16, 20)
    assert np.array_equal(blk[:8, :10], ext.slots[0].block(1, 0))
    assert np.array_equal(blk[8:, 10:], ext.slots[1].block(1, 0))
    assert np.all(blk[:8, 10:] == 0) and np.all(blk[8:, :10] == 0)


def test_realization_json_roundtrip(counterexample_spec):
    real = sample_generic(counterexample_spec, seed=4)
    again = ChannelRealization.from_json(
        json.loads(json.dumps(real.to_json())), counterexample_spec)
    for key in real.blocks:
        assert np.allclose(real.blocks[key], again.blocks[key])


def test_extension_json_roundtrip(counterexample_spec):
    ext = extend_ergodic_pair(counterexample_spec, seed=4)
    again = ExtendedRealization.from_json(
        json.loads(json.dumps(ext.to_json())), counterexample_spec)
    assert again.n == 2
    assert np.allclose(again.slots[1].block(0, 0), ext.slots[1].block(0, 0))


@pytest.mark.parametrize("field,value", [
    ("M", [2.5, 2]), ("N", [2, True]), ("D", [[None, 1.0], [1, None]]), ("K", 2.0),
    ("M", ["2", 2]), ("D", "ab"),
])
def test_spec_json_rejects_non_integers(field, value):
    obj = NetworkSpec.square((2, 2), {(0, 1): 1, (1, 0): 1}).to_json()
    obj[field] = value
    with pytest.raises(BadShape):
        NetworkSpec.from_json(obj)


_COMPLEX = ScalarDomain.complex_default()
_PRIME = ScalarDomain.prime_default()


@pytest.mark.parametrize("domain,obj", [
    (_COMPLEX, [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]]),       # ragged
    (_COMPLEX, [[[1.0, 0.0], [1.0, 0.0]]]),                     # short
    (_COMPLEX, [[[1.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]),  # not a pair
    (_COMPLEX, [[1.0, 2.0], [3.0, 4.0]]),                       # bare numbers
    (_COMPLEX, [[[float("nan"), 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]),
    (_COMPLEX, [[[1.0, float("-inf")], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]),
    (_COMPLEX, [[[10 ** 400, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]),
    (_COMPLEX, [[["1", 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]),
    (_PRIME, [[0, 1], [2, MERSENNE61]]),                        # residue out of range
    (_PRIME, [[0, 1], [2, -1]]),
    (_PRIME, [[0, 1], [2, 3.0]]),
    (_PRIME, [[0, 1], [2, True]]),
])
def test_decode_matrix_rejects_malformed(domain, obj):
    from halfcake.channel_model import decode_matrix

    with pytest.raises(BadShape):
        decode_matrix(obj, domain, (2, 2))


@pytest.mark.parametrize("domain", [_COMPLEX, _PRIME])
def test_matrix_codec_round_trip(domain):
    from halfcake.channel_model import decode_matrix, encode_matrix

    spec = NetworkSpec.square((3, 2), {(0, 1): 1, (1, 0): 1})
    for blk in sample_generic(spec, seed=4, domain=domain).blocks.values():
        again = decode_matrix(json.loads(json.dumps(encode_matrix(blk, domain))), domain, blk.shape)
        assert again.dtype == blk.dtype and np.array_equal(again, blk)
    empty = decode_matrix([[], []], domain, (2, 0))
    assert empty.shape == (2, 0) and decode_matrix([], domain, (0, 3)).shape == (0, 3)


def _entrywise_encoding(mat, domain):
    """``encode_matrix`` written one entry at a time, as the reference."""
    if domain.is_complex:
        return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, complex)]
    return [[int(v) for v in row] for row in np.asarray(mat)]


def test_encode_matrix_matches_entrywise_encoding():
    from halfcake.channel_model import encode_matrix

    rng = np.random.default_rng(31)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1.5e308, 0.1])
    pairs = np.empty((len(special), len(special)), complex)  # every (real, imag) pair
    pairs.real, pairs.imag = special[:, None], special[None, :]
    complex_blocks = [np.zeros((0, 3), complex), np.zeros((3, 0), complex), pairs,
                      np.array([[1, 2], [3, 4]]),                # integer and float inputs
                      np.array([[0.5, -0.0]])]
    for _ in range(20):
        rows, cols = (int(v) for v in rng.integers(0, 13, size=2))
        complex_blocks.append(rng.standard_normal((rows, cols))
                              + 1j * rng.standard_normal((rows, cols)))
    prime_blocks = [np.zeros((0, 2), np.int64), np.zeros((2, 0), np.int64),
                    np.array([[0, MERSENNE61 - 1], [(1 << 63) - 1, 1]], dtype=np.int64),
                    rng.integers(0, MERSENNE61, size=(7, 5), dtype=np.int64)]
    for domain, blocks in ((_COMPLEX, complex_blocks), (_PRIME, prime_blocks)):
        for blk in blocks:
            got = json.dumps(encode_matrix(blk, domain))
            assert got == json.dumps(_entrywise_encoding(blk, domain))
