"""The three benchmark workloads: their inputs, their ops and the answers checked.

Every workload is a *pass*: a seeded, ordered list of ops.  An op is one
call into halfcake made the way a user would make it (the CLI entry point
in-process, or a public library function).  ``Op.call`` is what gets
timed; ``Op.answer`` turns its raw result into the small dict compared
with the recorded golden, outside the timed region.

Inputs depend only on the benchmark seed; halfcake receives the generated
inputs (spec files, specs, plans) and never the benchmark seed itself,
except where the seed is a documented argument of the call (the trial
seed of ``outer_bound`` and the sampling seed of the spec ops).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

WORKLOADS = ("analyze-presets", "certify-large", "reproduce-sweep")

#: modules whose public functions are the traced layers
LAYER_MODULES = ("cli", "replication_bounds", "exact_linalg", "rank_feasibility",
                 "alignment_schemes", "channel_model")

REPRODUCE_TARGETS = ("counterexample", "example-2x3", "example-asym",
                     "theorem5", "theorem6", "lemma1-equiv")

#: spec ops draw from a fixed pool so that every pool entry has a golden;
#: the benchmark seed chooses which entries a pass uses and in what order
SPEC_POOL = 1000
SPECS_PER_PASS = 200
SPEC_SHAPE = dict(K_min=3, K_max=4, M_max=6)

#: (spec key, mu, shift table, cuts): explicit circulant plans whose
#: generic cooperation rank sits below the structural cap, so every one of
#: the 8 prime-field trials runs.  Matrices grow from 24x24 to 104x104.
CERTIFY_SPECS = {
    "cx": ((10, 8, 6), {(0, 1): 6, (1, 0): 5}),
    "k4": ((8, 7, 6, 5), {(0, 1): 4, (1, 0): 3, (2, 3): 2, (3, 2): 3, (0, 2): 5, (1, 3): 4}),
}
CERTIFY_LADDER = (
    ("cx", 2, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], [1, 1, 1]),
    ("cx", 3, [[0, 1, 1], [2, 0, 2], [2, 1, 0]], [2, 1, 2]),
    ("cx", 4, [[0, 3, 1], [1, 0, 2], [2, 1, 0]], [2, 3, 1]),
    ("cx", 5, [[0, 2, 3], [3, 0, 2], [3, 0, 0]], [3, 3, 1]),
    ("cx", 6, [[0, 4, 4], [4, 0, 3], [1, 3, 0]], [2, 3, 4]),
    ("cx", 7, [[0, 4, 3], [4, 0, 0], [4, 5, 0]], [4, 4, 2]),
    ("cx", 8, [[0, 5, 4], [4, 0, 3], [6, 1, 0]], [4, 5, 4]),
    ("k4", 2, [[0, 1, 0, 1], [0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0]], [1, 1, 1, 1]),
    ("k4", 3, [[0, 0, 2, 1], [0, 0, 1, 2], [1, 2, 0, 1], [2, 1, 0, 0]], [1, 2, 2, 1]),
    ("k4", 4, [[0, 1, 2, 2], [1, 0, 3, 0], [3, 0, 0, 1], [3, 1, 3, 0]], [3, 1, 2, 1]),
    ("k4", 5, [[0, 1, 4, 2], [3, 0, 3, 3], [4, 4, 0, 2], [1, 3, 0, 0]], [3, 2, 3, 2]),
    ("k4", 6, [[0, 4, 5, 3], [3, 0, 3, 2], [2, 4, 0, 5], [5, 3, 4, 0]], [3, 3, 2, 2]),
    ("k4", 7, [[0, 4, 0, 4], [2, 0, 4, 5], [4, 1, 0, 6], [3, 2, 4, 0]], [3, 4, 4, 3]),
    ("k4", 8, [[0, 3, 4, 6], [5, 0, 6, 5], [2, 4, 0, 3], [3, 0, 1, 0]], [4, 4, 4, 4]),
)
CERTIFY_TRIALS = 8


@dataclass
class Op:
    """One timed call; ``key`` names its golden."""

    key: str
    call: Callable[[], object]
    answer: Callable[[object], dict]


class Halfcake:
    """The halfcake modules as imported for this run.

    Ops look functions up on these module objects at call time, so the
    tracer's wrappers, installed on the same modules, are the ones called.
    """

    def __init__(self):
        for name in LAYER_MODULES + ("presets",):
            setattr(self, name, importlib.import_module(f"halfcake.{name}"))


def _frac(value) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _json_frac(obj: Optional[dict]) -> Optional[str]:
    return None if obj is None else f"{obj['num']}/{obj['den']}"


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _digest(spec_json: dict) -> str:
    text = json.dumps(spec_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# analyze-presets
# ---------------------------------------------------------------------------


def _analyze_answer(out_path: Path):
    def answer(code) -> dict:
        report = _read_json(out_path)
        ach = report["achievability"] or {}
        erg, exc = ach.get("ergodic"), ach.get("exceeding")
        return {
            "exit": code,
            "status": report["verdict"]["status"] if report["verdict"] else None,
            "bound": _json_frac(report["best_bound"]["bound"]),
            "ergodic": erg and [erg["passed"], _json_frac(erg["sum_dof"])],
            "exceeding": exc and [exc["scheme"], exc["passed"], _json_frac(exc["sum_dof"])],
        }
    return answer


def _analyze_ops(hc: Halfcake, rng: random.Random, workdir: Path) -> List[Op]:
    names = sorted(hc.presets.NETWORKS)
    rng.shuffle(names)
    ops = []
    for name in names:
        spec_path = workdir / f"{name}.spec.json"
        out_path = workdir / f"{name}.analyze.json"
        _write_json(spec_path, hc.presets.NETWORKS[name]().to_json())
        argv = ["analyze", "--spec", str(spec_path), "--out", str(out_path)]
        ops.append(Op(f"analyze/{name}", lambda argv=argv: hc.cli.main(argv),
                      _analyze_answer(out_path)))
    return ops


# ---------------------------------------------------------------------------
# certify-large
# ---------------------------------------------------------------------------


def _certify_answer(bound) -> dict:
    return {"bound": _frac(bound.value), "rank": bound.rank}


def _certify_ops(hc: Halfcake, rng: random.Random, seed: int) -> List[Op]:
    rb = hc.replication_bounds
    specs = {key: hc.channel_model.NetworkSpec.square(M, cross)
             for key, (M, cross) in CERTIFY_SPECS.items()}
    ops = []
    for key, mu, shifts, cuts in CERTIFY_LADDER:
        spec = specs[key]
        K = spec.K
        plan = rb.ReplicationPlan.from_shifts([mu] * K, shifts,
                                              rb.contiguous_partition([mu] * K, cuts))
        ops.append(Op(f"certify/{key}-mu{mu}",
                      lambda spec=spec, plan=plan: hc.replication_bounds.outer_bound(
                          spec, plan, trials=CERTIFY_TRIALS, seed=seed),
                      _certify_answer))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# reproduce-sweep
# ---------------------------------------------------------------------------


def _reproduce_answer(out_path: Path):
    def answer(code) -> dict:
        return {"exit": code, "ok": _read_json(out_path)["ok"]}
    return answer


def _spec_op(hc: Halfcake, t: int) -> Op:
    """Verdict, evidence, ergodic pair, JSON round trips, verification, exceeding scheme."""
    cm, rf, al = hc.channel_model, hc.rank_feasibility, hc.alignment_schemes
    spec = cm.random_square_spec((0, t), **SPEC_SHAPE)
    digest = _digest(spec.to_json())

    def call():
        verdict = rf.half_cake_verdict(spec, seed=t)
        evidence = rf.feasibility_evidence(spec)
        ext = cm.extend_ergodic_pair(spec, seed=t)
        scheme = al.ergodic_half_cake(ext)
        ext2 = cm.ExtendedRealization.from_json(json.loads(json.dumps(ext.to_json())), spec)
        scheme2 = al.LinearScheme.from_json(json.loads(json.dumps(scheme.to_json())), spec)
        report = al.verify_scheme(ext2, scheme2)
        exceeding = al.best_exceeding_scheme(ext2, seed=t)
        return verdict, evidence, report, exceeding

    def answer(raw) -> dict:
        verdict, evidence, report, exceeding = raw
        return {
            "spec": digest,
            "status": verdict.status,
            "max_flow": evidence["max_flow"],
            "ergodic": [bool(report.passed), _frac(report.sum_dof)],
            "exceeding": exceeding and [exceeding[1], _frac(exceeding[0].sum_dof)],
        }

    return Op(f"spec/{t}", call, answer)


def _reproduce_ops(hc: Halfcake, rng: random.Random, workdir: Path, pool) -> List[Op]:
    """The reproduce targets plus one spec op per pool index, in seeded order."""
    ops = []
    for target in REPRODUCE_TARGETS:
        out_path = workdir / f"{target}.reproduce.json"
        argv = ["reproduce", target, "--out", str(out_path)]
        ops.append(Op(f"reproduce/{target}", lambda argv=argv: hc.cli.main(argv),
                      _reproduce_answer(out_path)))
    ops += [_spec_op(hc, t) for t in pool]
    rng.shuffle(ops)
    return ops


def make_pass(workload: str, seed: int, workdir: Path) -> List[Op]:
    """Import halfcake and build the seeded op list of one pass."""
    hc = Halfcake()
    rng = random.Random(f"{workload}:{seed}")
    if workload == "analyze-presets":
        return _analyze_ops(hc, rng, workdir)
    if workload == "certify-large":
        return _certify_ops(hc, rng, seed)
    if workload == "reproduce-sweep":
        return _reproduce_ops(hc, rng, workdir, rng.sample(range(SPEC_POOL), SPECS_PER_PASS))
    raise ValueError(f"unknown workload {workload!r}")


def all_golden_ops(workdir: Path) -> List[Op]:
    """Every op that has a golden: all presets, the whole ladder, targets and pool."""
    hc = Halfcake()
    rng = random.Random(0)
    return (_analyze_ops(hc, rng, workdir) + _certify_ops(hc, rng, 0)
            + _reproduce_ops(hc, rng, workdir, range(SPEC_POOL)))
