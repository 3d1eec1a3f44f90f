"""Pinned command outputs: every reproduce target and analyze on every preset.

Each report is reduced to a SHA-256 digest of its sorted-key JSON after
dropping the fields that depend on the machine (``timing_seconds``) or on
floating-point rounding (``max_residual``, ``residuals``).  A refactor
meant to keep every output must keep these digests: any change to an
answer, a winning plan, a certificate, a witness string or a seeded
sample fails here.  A change that alters an output on purpose records
the new digest and says why.
"""

import hashlib
import json

import pytest

from halfcake import presets
from halfcake.cli import main

_DROPPED = {"timing_seconds", "max_residual", "residuals"}

REPRODUCE_DIGESTS = {
    "counterexample": "ba4714cb5b1d03fce45974e64834901117ce3920355960d0a0044e2ad4cc06ca",
    "example-2x3": "5c42ce5096cd15972cb3c550ca74c5cc3b20126d42706cbad5ac60405261b76f",
    "example-asym": "2bf1054e2af34476faa6d50cee68d7f9823031b57df576d749723733c938da28",
    "lemma1-equiv": "1943be83c738c71b2ea6224a9a3c4fad2529367928940beeb51e843bcce20619",
    "theorem5": "9ae4c2b1f9b7b2c6be1eba23377492012ce4771947167723b6fdb450cf74c8d8",
    "theorem6": "fdf741494f22867a26463bf15bf060be8fd34968c0a5e63c8b56a03d6fa4b8bb",
}

ANALYZE_DIGESTS = {
    "counterexample": "66e57ca8c5cbecee3c61ac4c53d2417a950f5829a506659425fb795a0a1b2714",
    "example-2x3": "4a1237652d86f5e09ed6844194ca2cbd8652a58520d4f0a13c9c49c179e9c608",
    "example-asym": "02da45a109d755a54b394f9fbcf0f96b471e6171cc8e28e8e0be952cb3d7d73a",
    "reduced-example": "bda15f0edc0411b271755d193d4d02ca089515ebced831eedf7608a3b7dbecc0",
    "theorem5": "eda06c395880a1ac281de1cbc802b82ee927b7c336ee8aa3675551b181390c01",
    "theorem6": "32caff0d5e42ad32bcc80573710e13c3bdf696f6582cb6cbf37136143d32bfd6",
}


def _without_float_fields(obj):
    if isinstance(obj, dict):
        return {k: _without_float_fields(v) for k, v in obj.items() if k not in _DROPPED}
    if isinstance(obj, list):
        return [_without_float_fields(v) for v in obj]
    return obj


def _digest(path) -> str:
    report = _without_float_fields(json.loads(path.read_text()))
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("target", sorted(REPRODUCE_DIGESTS))
def test_reproduce_output_pinned(tmp_path, target):
    out = tmp_path / "report.json"
    assert main(["reproduce", target, "--seed", "0", "--out", str(out)]) == 0
    assert _digest(out) == REPRODUCE_DIGESTS[target]


@pytest.mark.parametrize("name", sorted(ANALYZE_DIGESTS))
def test_analyze_output_pinned(tmp_path, name):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(presets.NETWORKS[name]().to_json()))
    out = tmp_path / "report.json"
    assert main(["analyze", "--spec", str(spec_path), "--seed", "0", "--out", str(out)]) == 0
    assert _digest(out) == ANALYZE_DIGESTS[name]


def test_pinned_outputs_cover_every_target_and_preset():
    from halfcake.cli import _REPRODUCE

    assert set(REPRODUCE_DIGESTS) == set(_REPRODUCE)
    assert set(ANALYZE_DIGESTS) == set(presets.NETWORKS)
