"""Soundness across layers: no verified scheme beats a searched outer bound."""

import json

from halfcake import (
    ExtendedRealization,
    LinearScheme,
    NetworkSpec,
    ReplicationPlan,
    best_exceeding_scheme,
    ergodic_half_cake,
    extend_ergodic_pair,
    half_cake_verdict,
    random_square_spec,
    search_bounds,
    validate_certificate,
    verify_scheme,
)
from halfcake.rank_feasibility import OPTIMAL_CERTIFIED


def _roundtrip(blob):
    return json.loads(json.dumps(blob))


def test_verified_schemes_never_beat_searched_bounds():
    exceeding = 0
    for t in range(40):
        spec = random_square_spec((3, t), K_min=3, K_max=3, M_max=6)
        bound = search_bounds(spec, mu_max=3, seed=t)
        ext = extend_ergodic_pair(spec, seed=t)
        schemes = [ergodic_half_cake(ext)]
        found = best_exceeding_scheme(ext, seed=t)
        if found is not None:
            schemes.append(found[0])
            exceeding += 1
        for scheme in schemes:
            report = verify_scheme(ext, scheme)
            assert report.passed, t
            assert report.sum_dof <= bound.value, (t, spec.to_json(), bound.to_json())
            again = LinearScheme.from_json(_roundtrip(scheme.to_json()), spec)
            assert again.to_json() == scheme.to_json()
        verdict = half_cake_verdict(spec, seed=t)
        if verdict.status == OPTIMAL_CERTIFIED and verdict.certificate is not None:
            validate_certificate(spec, verdict.certificate)
        assert NetworkSpec.from_json(_roundtrip(spec.to_json())) == spec
        assert ReplicationPlan.from_json(_roundtrip(bound.plan.to_json())) == bound.plan
        again = ExtendedRealization.from_json(_roundtrip(ext.to_json()), spec)
        assert again.to_json() == ext.to_json()
    assert exceeding > 0
