"""Command-line front end.

Exit codes: 0 all checks pass, 1 a reproduction or verification mismatch,
2 invalid input.  All reports are JSON with rationals as {num, den} in
lowest terms.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import presets
from .alignment_schemes import (
    LinearScheme,
    best_exceeding_scheme,
    counterexample_scheme,
    ergodic_half_cake,
    example2_scheme,
    verify_scheme,
)
from .channel_model import (
    ExtendedRealization,
    NetworkSpec,
    _json_frac,
    extend_ergodic_pair,
    sample_generic,
    single_slot,
)
from .errors import BadShape, HalfCakeError, InvalidArgument, UnknownTarget
from .exact_linalg import ScalarDomain, generic_rank
from .rank_feasibility import (
    feasibility_report,
    half_cake_verdict,
    lemma1_equivalence_run,
)
from .replication_bounds import ReplicationPlan, outer_bound, search_bounds


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_json(path: str) -> dict:
    """The parsed file.  Text that is not UTF-8 JSON raises BadShape, and so
    does an integer past Python's 4 300-digit conversion limit."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError among them
            raise BadShape(f"{path}: {exc}") from exc


def _load_spec(path: str) -> NetworkSpec:
    return NetworkSpec.from_json(_load_json(path))


def cmd_analyze(args) -> int:
    spec = _load_spec(args.spec)
    t0 = time.perf_counter()
    report: dict = {"spec": spec.to_json(), "seeds": {"seed": args.seed}}

    # first, so a search too large to run is refused before any other work
    bound = search_bounds(spec, mu_max=args.mu_max, budget=args.budget,
                          seed=args.seed, certify_trials=args.trials)
    report["best_bound"] = bound.to_json()

    if spec.is_square:
        verdict = half_cake_verdict(spec)
        report["verdict"] = verdict.to_json()
    else:
        report["verdict"] = None
        report["notes"] = ["square-case optimality conditions do not apply (M != N)"]

    achiev: dict = {}
    if spec.is_square:
        ext = extend_ergodic_pair(spec, seed=args.seed)
        scheme = ergodic_half_cake(ext)
        rep = verify_scheme(ext, scheme, tol=args.tol)
        achiev["ergodic"] = {"sum_dof": _json_frac(rep.sum_dof), "passed": rep.passed,
                             "max_residual": rep.max_residual}
        # every exceeding scheme beats half the cake, and none beats an outer bound
        exceeding = (best_exceeding_scheme(ext, seed=args.seed, tol=args.tol)
                     if bound.value > spec.half_cake else None)
        if exceeding is not None:
            _, family, rep2 = exceeding
            achiev["exceeding"] = {"scheme": family, "sum_dof": _json_frac(rep2.sum_dof),
                                   "passed": rep2.passed, "max_residual": rep2.max_residual}
    report["achievability"] = achiev or None
    report["timing_seconds"] = round(time.perf_counter() - t0, 3)
    _emit(report, args.out)
    return 0


def cmd_feasibility(args) -> int:
    spec = _load_spec(args.spec)
    _emit(feasibility_report(spec), args.out)
    return 0


def cmd_bound(args) -> int:
    # checked with a plan file too, which makes no search
    for name, value in (("mu_max", args.mu_max), ("budget", args.budget)):
        if value < 1:
            raise InvalidArgument(f"{name} must be >= 1, got {value}")
    spec = _load_spec(args.spec)
    if args.plan:
        plan = ReplicationPlan.from_json(_load_json(args.plan))
        bound = outer_bound(spec, plan, trials=args.trials, seed=args.seed)
    else:
        bound = search_bounds(spec, mu_max=args.mu_max, budget=args.budget,
                              seed=args.seed, certify_trials=args.trials)
    _emit(bound.to_json(), args.out)
    return 0


def cmd_verify(args) -> int:
    spec = _load_spec(args.spec)
    ext = ExtendedRealization.from_json(_load_json(args.channel), spec)
    scheme = LinearScheme.from_json(_load_json(args.scheme), spec)
    report = verify_scheme(ext, scheme, tol=args.tol)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def cmd_sample(args) -> int:
    spec = _load_spec(args.spec)
    domain = ScalarDomain.from_tag(args.domain)
    if args.extend:
        payload = extend_ergodic_pair(spec, seed=args.seed, domain=domain).to_json()
    else:
        payload = sample_generic(spec, seed=args.seed, domain=domain).to_json()
    _emit(payload, args.out)
    return 0


def _expect(report: dict, name: str, got, want) -> bool:
    ok = got == want

    def as_json(v):
        return _json_frac(v) if isinstance(v, Fraction) else v

    report["checks"].append({"name": name, "got": as_json(got), "want": as_json(want), "ok": ok})
    return ok


def _reproduce_counterexample(seed, trials, tol) -> dict:
    spec = presets.counterexample_network()
    report = {"target": "counterexample", "checks": []}
    verdict = half_cake_verdict(spec)
    ok = _expect(report, "no optimality certificate", verdict.status, "UNDECIDED")
    ok &= _expect(report, "stripped generic rank", generic_rank(spec), 23)
    ext = extend_ergodic_pair(spec, seed=seed)
    rep = verify_scheme(ext, counterexample_scheme(ext, seed=seed), tol=tol)
    ok &= _expect(report, "scheme verifies", rep.passed, True)
    ok &= _expect(report, "sum DoF", rep.sum_dof, Fraction(25, 2))
    report["ok"] = ok
    return report


def _reproduce_2x3(seed, trials, tol) -> dict:
    spec = presets.rect_2x3_network()
    plan = presets.rect_2x3_plan()
    report = {"target": "example-2x3", "checks": []}
    bound = outer_bound(spec, plan, trials=trials, seed=seed)
    ok = _expect(report, "bound", bound.value, Fraction(18, 5))
    witness = outer_bound(spec, plan, realization=presets.rect_2x3_witness(spec))
    ok &= _expect(report, "witness coop rank", witness.rank, 18)
    report["ok"] = ok
    return report


def _reproduce_asym(seed, trials, tol) -> dict:
    spec = presets.mixed_dims_network()
    plan = presets.mixed_dims_plan()
    report = {"target": "example-asym", "checks": []}
    bound = outer_bound(spec, plan, trials=trials, seed=seed)
    ok = _expect(report, "bound", bound.value, Fraction(12))
    witness = outer_bound(spec, plan, realization=presets.mixed_dims_witness(spec))
    ok &= _expect(report, "witness coop rank", witness.rank, 23)
    real = sample_generic(spec, seed=seed)
    rep = verify_scheme(single_slot(real), example2_scheme(single_slot(real), seed=seed), tol=tol)
    ok &= _expect(report, "scheme verifies", rep.passed, True)
    ok &= _expect(report, "DoF tuple", list(rep.m), [7, 3, 2])
    report["ok"] = ok
    return report


def _reproduce_theorem5(seed, trials, tol) -> dict:
    spec = presets.boundary_sum_network()
    report = {"target": "theorem5", "checks": []}
    verdict = half_cake_verdict(spec)
    ok = _expect(report, "status", verdict.status, "OPTIMAL_CERTIFIED")
    ok &= _expect(report, "boundary witness", any(
        w.startswith("Theorem5") for w in verdict.witnesses), True)
    ok &= _expect(report, "bound", verdict.bound, spec.half_cake)
    coop = outer_bound(spec, presets.boundary_sum_plan(), trials=trials, seed=seed)
    ok &= _expect(report, "cooperation bound", coop.value, spec.half_cake)
    report["ok"] = ok
    return report


def _reproduce_theorem6(seed, trials, tol) -> dict:
    spec = presets.boundary_equal_network()
    report = {"target": "theorem6", "checks": []}
    verdict = half_cake_verdict(spec)
    ok = _expect(report, "status", verdict.status, "OPTIMAL_CERTIFIED")
    ok &= _expect(report, "boundary witness", any(
        w.startswith("Theorem6") for w in verdict.witnesses), True)
    bound = outer_bound(spec, presets.boundary_equal_plan(), trials=trials, seed=seed)
    ok &= _expect(report, "replication bound", bound.value, spec.half_cake)
    witness = outer_bound(spec, presets.boundary_equal_plan(),
                          realization=presets.boundary_equal_witness(spec))
    ok &= _expect(report, "witness coop rank", witness.rank, witness.Mbar1)
    report["ok"] = ok
    return report


def _reproduce_lemma1(seed, trials, tol) -> dict:
    run = lemma1_equivalence_run(seed=seed, trials=trials)
    report = {"target": "lemma1-equiv", "checks": [], "summary": run}
    report["ok"] = _expect(report, "agreement rate", run["agreement_rate"], 1.0)
    return report


_REPRODUCE = {
    "counterexample": _reproduce_counterexample,
    "example-2x3": _reproduce_2x3,
    "example-asym": _reproduce_asym,
    "theorem5": _reproduce_theorem5,
    "theorem6": _reproduce_theorem6,
    "lemma1-equiv": _reproduce_lemma1,
}


def cmd_reproduce(args) -> int:
    if args.name not in _REPRODUCE:
        raise UnknownTarget(f"unknown target {args.name!r}; choose from {sorted(_REPRODUCE)}")
    report = _REPRODUCE[args.name](args.seed, args.trials, args.tol)
    _emit(report, args.out)
    return 0 if report["ok"] else 1


class _Parser(argparse.ArgumentParser):
    """Raises InvalidArgument instead of printing usage and exiting; subparsers inherit it."""

    def error(self, message):
        raise InvalidArgument(message)


@functools.cache  # built on first use, then shared by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="halfcake",
        description="DoF optimality analysis for rank-constrained MIMO interference networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("--spec", required=True, help="network spec JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=8)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("analyze", help="verdict, best bound, and achievability for a spec")
    common(p)
    p.add_argument("--mu-max", type=int, default=3)
    p.add_argument("--budget", type=int, default=10000)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("feasibility", help="reduced-rank feasibility with flow evidence")
    common(p)
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("bound", help="outer bound from a plan file or a bounded search")
    common(p)
    p.add_argument("--plan", default=None, help="replication plan JSON file")
    p.add_argument("--mu-max", type=int, default=3)
    p.add_argument("--budget", type=int, default=10000)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="check a scheme file against a channel file")
    common(p)
    p.add_argument("--channel", required=True)
    p.add_argument("--scheme", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="sample a generic realization (or a two-slot pair)")
    common(p)
    p.add_argument("--domain", default="complex", help="complex or prime[:p]")
    p.add_argument("--extend", action="store_true", help="emit the two-slot pair")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reproduce", help="run a named golden pipeline")
    p.add_argument("name", help=", ".join(sorted(_REPRODUCE)))
    common(p, spec=False)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.trials < 1:
            raise InvalidArgument(f"--trials must be >= 1, got {args.trials}")
        if not 0 < args.tol < 1:
            raise InvalidArgument(f"tol must lie in (0, 1), got {args.tol}")
        return args.func(args)
    except (OSError, HalfCakeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
