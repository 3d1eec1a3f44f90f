"""Command-line behavior: exit codes, JSON reports, determinism."""

import copy
import json
import random
import re
from collections import Counter

import pytest

from halfcake.cli import main


def _write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec.to_json()))
    return str(path)


def _read(path):
    return json.loads(path.read_text())


def test_analyze_counterexample(tmp_path, counterexample_spec, capsys):
    spec_path = _write_spec(tmp_path, counterexample_spec)
    out = tmp_path / "report.json"
    code = main(["analyze", "--spec", spec_path, "--mu-max", "2",
                 "--budget", "800", "--tol", "1e-8", "--out", str(out)])
    assert code == 0
    report = _read(out)
    assert report["verdict"]["status"] == "UNDECIDED"
    assert report["best_bound"]["bound"] == {"num": 25, "den": 2}
    assert report["achievability"]["ergodic"]["sum_dof"] == {"num": 12, "den": 1}
    assert report["achievability"]["exceeding"]["sum_dof"] == {"num": 25, "den": 2}
    assert report["achievability"]["exceeding"]["passed"] is True


@pytest.mark.parametrize("tol", [None, "1e-18"])
def test_analyze_reports_exceeding_scheme_only_if_it_passes(tmp_path, counterexample_spec, tol):
    """The exceeding scheme is chosen at the tolerance it is reported at."""
    spec_path = _write_spec(tmp_path, counterexample_spec)
    out = tmp_path / "report.json"
    argv = ["analyze", "--spec", spec_path, "--mu-max", "1", "--budget", "1", "--out", str(out)]
    assert main(argv + (["--tol", tol] if tol else [])) == 0
    report = _read(out)["achievability"]
    if tol is None:
        assert "exceeding" in report
    if "exceeding" in report:
        assert report["exceeding"]["passed"] is True


def test_analyze_reduced_example(tmp_path, reduced_spec):
    spec_path = _write_spec(tmp_path, reduced_spec)
    out = tmp_path / "report.json"
    assert main(["analyze", "--spec", spec_path, "--mu-max", "2",
                 "--budget", "400", "--tol", "1e-8", "--out", str(out)]) == 0
    report = _read(out)
    assert report["verdict"]["status"] == "OPTIMAL_CERTIFIED"
    assert report["verdict"]["half_cake"] == {"num": 12, "den": 1}
    assert report["verdict"]["certificate"] is not None


def test_analyze_seeks_an_exceeding_scheme_only_above_half_the_cake(tmp_path, monkeypatch):
    """Only the counterexample's bound, 25/2, leaves room above half the cake;
    the other square presets reach a bound of half the cake."""
    from halfcake import cli, presets

    calls = Counter()
    seek = cli.best_exceeding_scheme

    def counted(*args, **kwargs):
        calls[name] += 1  # the preset being analyzed
        return seek(*args, **kwargs)

    monkeypatch.setattr(cli, "best_exceeding_scheme", counted)
    for name, network in presets.NETWORKS.items():
        out = tmp_path / f"{name}.json"
        assert main(["analyze", "--spec", _write_spec(tmp_path, network()),
                     "--out", str(out)]) == 0
        achievability = _read(out)["achievability"] or {}
        assert ("exceeding" in achievability) == (name == "counterexample"), name
    assert calls == {"counterexample": 1}


def _one_error_line(capsys):
    """Assert that the last command printed nothing but one ``error:`` line."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_analyze_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--spec", str(bad)]) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("text", [
    b'{"K": 1, "M": [' + b"1" * 5000 + b'], "N": [1], "D": [[null]]}',  # past int's digit limit
    b"\xff{}",  # not UTF-8
], ids=["int-of-5000-digits", "not-utf-8"])
def test_unparsable_spec_file_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert main(["analyze", "--spec", str(bad)]) == 2
    _one_error_line(capsys)


def test_missing_file_and_unknown_command_exit_2(tmp_path, capsys):
    assert main(["analyze", "--spec", str(tmp_path / "missing.json")]) == 2
    _one_error_line(capsys)
    assert main(["bogus"]) == 2
    _one_error_line(capsys)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--mu-max" in capsys.readouterr().out


def test_analyze_invalid_spec_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"K": 2, "M": [2, 2], "N": [2, 2],
                               "D": [[None, 5], [1, None]]}))
    assert main(["analyze", "--spec", str(bad)]) == 2


@pytest.mark.parametrize("command", ["analyze", "bound"])
@pytest.mark.parametrize("flag", ["--mu-max", "--budget"])
def test_search_flag_zero_exits_2(tmp_path, rect23_spec, capsys, command, flag):
    spec_path = _write_spec(tmp_path, rect23_spec)
    assert main([command, "--spec", spec_path, flag, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_feasibility_counterexample(tmp_path, counterexample_spec, capsys):
    spec_path = _write_spec(tmp_path, counterexample_spec)
    assert main(["feasibility", "--spec", spec_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasibility"]["feasible"] is False
    assert report["feasibility"]["max_flow"] == 23
    assert report["feasibility"]["cut"]["tx_source_side"] == [1, 2]


def _feasibility_specs():
    """The README network, the reduced example and 30 seeded random specs."""
    from halfcake import NetworkSpec, presets, random_square_spec

    yield NetworkSpec.from_json({"K": 3, "M": [10, 8, 6], "N": [10, 8, 6],
                                 "D": [[None, 6, 6], [5, None, 6], [6, 6, None]]})
    yield presets.reduced_example_network()
    for t in range(30):
        yield random_square_spec((31, t))


def test_feasibility_runs_one_max_flow(tmp_path, monkeypatch, capsys):
    """The command's report is the evidence and the verdict, from one flow."""
    from halfcake import BlockPattern, feasibility_evidence, half_cake_verdict

    flows = []
    max_flow = BlockPattern.max_flow
    for spec in _feasibility_specs():
        want = json.dumps({"feasibility": feasibility_evidence(spec),
                           "verdict": half_cake_verdict(spec).to_json()},
                          indent=2, sort_keys=True) + "\n"
        monkeypatch.setattr(BlockPattern, "max_flow",
                            lambda pattern: flows.append(1) or max_flow(pattern))
        assert main(["feasibility", "--spec", _write_spec(tmp_path, spec)]) == 0
        monkeypatch.undo()
        assert len(flows) == 1 and capsys.readouterr().out == want
        flows.clear()


def test_feasibility_non_square_exits_2_with_the_flow_message(tmp_path, asym_spec, capsys):
    assert main(["feasibility", "--spec", _write_spec(tmp_path, asym_spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reduced-rank sums are defined for the square case\n"


def test_bound_with_plan_file(tmp_path, rect23_spec):
    from halfcake import presets

    spec_path = _write_spec(tmp_path, rect23_spec)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(presets.rect_2x3_plan().to_json()))
    out = tmp_path / "bound.json"
    assert main(["bound", "--spec", spec_path, "--plan", str(plan_path),
                 "--out", str(out)]) == 0
    assert _read(out)["bound"] == {"num": 18, "den": 5}


def test_sample_deterministic_bytes(tmp_path, counterexample_spec):
    spec_path = _write_spec(tmp_path, counterexample_spec)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sample", "--spec", spec_path, "--seed", "7", "--out", str(a)]) == 0
    assert main(["sample", "--spec", spec_path, "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_roundtrip_pass_and_fail(tmp_path):
    from halfcake import NetworkSpec, ergodic_half_cake, extend_ergodic_pair

    spec = NetworkSpec.square((2, 2))
    spec_path = _write_spec(tmp_path, spec)
    ext = extend_ergodic_pair(spec, seed=5)
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps(ext.to_json()))
    scheme = ergodic_half_cake(ext)
    good = tmp_path / "scheme.json"
    good.write_text(json.dumps(scheme.to_json()))
    assert main(["verify", "--spec", spec_path, "--channel", str(chan),
                 "--scheme", str(good), "--tol", "1e-8"]) == 0

    # break one filter so interference leaks
    blob = scheme.to_json()
    blob["users"][0]["U"][0][0] = [1.0, 0.0]
    blob["users"][0]["U"][0][2] = [0.5, 0.0]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(blob))
    assert main(["verify", "--spec", spec_path, "--channel", str(chan),
                 "--scheme", str(bad), "--tol", "1e-8"]) == 1


@pytest.mark.parametrize("target,expected_checks", [
    ("counterexample", 4),
    ("example-2x3", 2),
    ("theorem5", 4),
    ("theorem6", 4),
])
def test_reproduce_targets(tmp_path, target, expected_checks):
    out = tmp_path / "rep.json"
    assert main(["reproduce", target, "--tol", "1e-8", "--out", str(out)]) == 0
    report = _read(out)
    assert report["ok"] is True
    assert len(report["checks"]) == expected_checks


def test_reproduce_unknown_target_exits_2(capsys):
    assert main(["reproduce", "no-such-thing"]) == 2


def _edit(which, *path, value=None, drop=False):
    """Edit one input file: set ``value`` at ``path`` (a callable maps the old value) or drop it."""
    def edit(blobs):
        *keys, last = path
        obj = blobs[which]
        for key in keys:
            obj = obj[key]
        if drop:
            del obj[last]
        else:
            obj[last] = value(obj[last]) if callable(value) else value
    return edit


def _huge_spec(blobs):
    """2^40 antennas on user 1: a realization would need 2^80 entries."""
    blobs["spec"].update(M=[2 ** 40, 2], N=[2 ** 40, 2])


def _many_users(blobs):
    """12 users with one antenna each: 4**12 floor entries at the default mu_max 3."""
    from halfcake import NetworkSpec

    blobs["spec"] = NetworkSpec.square((1,) * 12).to_json()


def _counterexample_plan(m: int) -> dict:
    """The counterexample network's plan with m copies per user, split at m / 2, every shift m / 2."""
    from halfcake.replication_bounds import ReplicationPlan, contiguous_partition

    return ReplicationPlan.from_shifts([m] * 3, [[m // 2] * 3] * 3,
                                       contiguous_partition([m] * 3, [m // 2] * 3)).to_json()


def _counterexample_with_plan(m: int):
    def edit(blobs):
        from halfcake import presets

        blobs.update(spec=presets.counterexample_network().to_json(), plan=_counterexample_plan(m))
    return edit


#: bad input -> (command and flags, edit of the spec/channel/scheme files)
BAD_INPUTS = {
    "trials-0": (["analyze", "--trials", "0"], None),
    "seed-nan": (["analyze", "--seed", "nan"], None),
    "unknown-flag": (["analyze", "--bogus", "1"], None),
    "domain-prime-7": (["sample", "--domain", "prime:7"], None),
    "domain-bogus": (["sample", "--domain", "bogus"], None),
    "antennas-float": (["analyze"], _edit("spec", "M", 0, value=2.5)),
    "rank-bool": (["analyze"], _edit("spec", "D", 0, 1, value=True)),
    "rank-on-diagonal": (["analyze"], _edit("spec", "D", 0, 0, value=3)),
    "scheme-nan": (["verify"], _edit("scheme", "users", 0, "V", 0, 0,
                                     value=[float("nan"), 0.0])),
    "scheme-short-v": (["verify"], _edit("scheme", "users", 0, "V", value=lambda v: v[:-1])),
    "scheme-missing-n": (["verify"], _edit("scheme", "n", drop=True)),
    "channel-inf": (["verify"], _edit("channel", "slots", 0, "H_1_1", 0, 0,
                                      value=[float("inf"), 0.0])),
    "domain-prime-2^63": (["sample", "--extend", "--domain", "prime:9223372036854775837"], None),
    "channel-list": (["verify"], lambda blobs: blobs.update(channel=[])),
    "channel-slot-list": (["verify"], _edit("channel", "slots", 0, value=[])),
    "channel-mixed-domains": (["verify"], _edit("channel", "slots", 1, value=lambda _: _prime_slot())),
    "plan-list": (["bound"], lambda blobs: blobs.update(plan=[])),
    "plan-mu-string": (["bound"], _edit("plan", "mu", 1, value="x")),
    "plan-mu-float": (["bound"], _edit("plan", "mu", 0, value=2.5)),
    "plan-shift-float": (["bound"], _edit("plan", "assign", "shifts", 0, 1, value=2.5)),
    "plan-shift-on-diagonal": (["bound"], _edit("plan", "assign", "shifts", 0, 0, value=5)),
    "plan-shift-null": (["bound"], _edit("plan", "assign", "shifts", 0, 1, value=None)),
    "plan-partition-float": (["bound"], _edit("plan", "partition", 0, 0, 0, value=1.0)),
    "plan-partition-not-pairs": (["bound"], _edit("plan", "partition", 0, 0, value=[1, 1, 1])),
    "plan-mu-zero": (["bound"], _edit("plan", "mu", 0, value=0)),
    "plan-shifts-short": (["bound"], _edit("plan", "assign", "shifts", value=[[0, 1]])),
    "plan-partition-one-group": (["bound"], _edit("plan", "partition", value=lambda g: g[:1])),
    "plan-partition-three-groups": (["bound"], _edit("plan", "partition",
                                                     value=lambda g: g + [[]])),
    # a partition of 4 replicas is rejected before 2 * 10**30 replicas are wired
    "plan-mu-huge": (["bound"], _edit("plan", "mu", value=[10 ** 30, 10 ** 30])),
    "plan-users-mismatch": (["bound"], lambda blobs: blobs.update(plan=_plan_3_user_mirror())),
    "mu-max-0": (["analyze", "--mu-max", "0"], None),
    # --mu-max makes ``bound`` search instead of reading the plan file, so --budget counts
    "budget-0": (["bound", "--mu-max", "3", "--budget", "0"], None),
    # a plan file makes no search, but the search flags are still checked
    "plan-budget-0": (["bound", "--budget", "0"], None),
    "plan-mu-max-0": (["bound", "--mu-max", "0", "--plan"], None),
    "plan-mu-huge-table": (["bound"], lambda blobs: blobs["plan"].update(
        mu=[10 ** 30, 10 ** 30],
        assign={"table": [[1, 1, 2, 1], [1, 2, 2, 2], [2, 1, 1, 1], [2, 2, 1, 2]]})),
    # receiver replica (1,1) wired to user 2 twice; a dict would keep only the last entry
    "plan-table-duplicate": (["bound"], _edit("plan", "assign", value={"table": [
        [1, 1, 2, 1], [1, 1, 2, 2], [1, 2, 2, 1], [2, 1, 1, 1], [2, 2, 1, 2]]})),
    "spec-huge-sample": (["sample"], _huge_spec),
    "spec-huge-analyze": (["analyze"], _huge_spec),
    "spec-huge-bound-plan": (["bound"], _huge_spec),
    # plan searches whose floor table would pass replication_bounds.MAX_FLOOR_ENTRIES
    "search-many-users": (["analyze"], _many_users),
    "search-mu-max-huge": (["bound", "--mu-max", "100000"], None),
    "tol-1": (["verify", "--tol", "1"], None),
    "tol-inf": (["verify", "--tol", "inf"], None),
    "tol-nan": (["verify", "--tol", "nan"], None),
    "tol-0": (["verify", "--tol", "0"], None),
    "tol-negative": (["analyze", "--tol", "-1"], None),
    "tol-negative-bound": (["bound", "--tol", "-1"], None),
    "tol-negative-feasibility": (["feasibility", "--tol", "-1"], None),
    "tol-negative-sample": (["sample", "--tol", "-1"], None),
    # files of the wrong shape, each rejected at the field it breaks
    "scheme-no-users": (["verify"], _edit("scheme", "users", drop=True)),
    "scheme-users-int": (["verify"], _edit("scheme", "users", value=5)),
    "scheme-users-ints": (["verify"], _edit("scheme", "users", value=[1, 2])),
    "scheme-user-no-v": (["verify"], _edit("scheme", "users", 0, "V", drop=True)),
    "scheme-list": (["verify"], lambda blobs: blobs.update(scheme=[])),
    "plan-partition-entry-short": (["bound"], _edit("plan", "partition", 0, 0, value=[1])),
    "plan-table-entry-short": (["bound"], _edit("plan", "assign", value={"table": [
        [1, 1, 2], [1, 2, 2, 2], [2, 1, 1, 1], [2, 2, 1, 2]]})),
    "plan-no-mu": (["bound"], _edit("plan", "mu", drop=True)),
    "plan-shifts-ints": (["bound"], _edit("plan", "assign", "shifts", value=[1, 2])),
    "spec-M-int": (["analyze"], _edit("spec", "M", value=2)),
    "spec-no-D": (["analyze"], _edit("spec", "D", drop=True)),
    "spec-list": (["analyze"], lambda blobs: blobs.update(spec=[])),
    "spec-D-ints": (["analyze"], _edit("spec", "D", value=[1, 2])),
    # complex(True, False) succeeds, so a JSON boolean in an [re, im] pair is caught by type
    "channel-bool": (["verify"], _edit("channel", "slots", 0, "H_1_1", 0, 0,
                                       value=[True, False])),
    "scheme-bool": (["verify"], _edit("scheme", "users", 0, "V", 0, 0, value=[False, True])),
    "plan-mu-nonuniform": (["bound"], lambda blobs: blobs["plan"].update(
        mu=[2, 1], partition=[[[1, 1], [2, 1]], [[1, 2]]])),
    # 3 072 x 3 072 cells pass replication_bounds.MAX_COOPERATION_CELLS
    "plan-cooperation-too-large": (["bound"], _counterexample_with_plan(256)),
}

#: bad input -> what its error line must name
NAMED_FIELDS = {
    "scheme-no-users": "'users'",
    "scheme-users-int": "users",
    "scheme-users-ints": "user 1",
    "scheme-user-no-v": "'V'",
    "scheme-list": "scheme",
    "plan-list": "plan",
    "plan-partition-entry-short": "partition entry",
    "plan-table-entry-short": "table entry",
    "plan-no-mu": "'mu'",
    "plan-shifts-ints": "shifts",
    "spec-M-int": "M",
    "spec-no-D": "'D'",
    "spec-list": "spec",
    "spec-D-ints": "D row",
    "channel-bool": "H_1_1",
    "scheme-bool": "user 1 V",
    "plan-mu-nonuniform": "uniform",
    "plan-cooperation-too-large": "3072 x 3072",
}

#: Python's own exception text, which an error line must not pass on
LEAKED = re.compile(r"Error\(|unpack|not subscriptable|not iterable|indices must be|has no len"
                    r"|argument must be")


def test_analyze_refuses_an_oversized_search_before_the_verdict(tmp_path, monkeypatch, capsys):
    from halfcake import NetworkSpec, cli

    def no_verdict(*args, **kwargs):
        raise AssertionError("half_cake_verdict ran before the search was refused")

    monkeypatch.setattr(cli, "half_cake_verdict", no_verdict)
    spec = _write_spec(tmp_path, NetworkSpec.square((1,) * 12))
    assert main(["analyze", "--spec", spec]) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("spare, code", [(0, 0), (-1, 2)])
def test_plan_at_the_cooperation_ceiling_runs(tmp_path, monkeypatch, capsys, spare, code):
    from halfcake import presets, replication_bounds

    # at 4 copies per user the counterexample plan's cooperation matrix is 48 x 48
    monkeypatch.setattr(replication_bounds, "MAX_COOPERATION_CELLS", 48 * 48 + spare)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(_counterexample_plan(4)))
    spec = _write_spec(tmp_path, presets.counterexample_network())
    assert main(["bound", "--spec", spec, "--plan", str(plan)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == ("error: the plan's cooperation matrix would be 48 x 48; "
                                "at most 2303 cells are allowed\n")
    else:
        assert json.loads(captured.out)["Nbar2"] == 48


def test_reproduce_bad_tol_exits_2(capsys):
    assert main(["reproduce", "theorem5", "--tol", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tol must lie in (0, 1), got -1.0\n"


def _plan_2x2() -> dict:
    """A valid plan for the 2-user test spec (``bound`` exits 0 on it unedited)."""
    from halfcake.replication_bounds import ReplicationPlan, contiguous_partition

    return ReplicationPlan.from_shifts([2, 2], [[None, 1], [1, None]],
                                       contiguous_partition([2, 2], [1, 1])).to_json()


def _plan_3_user_mirror() -> dict:
    """A valid plan for 3 users, which the 2-user test spec does not have."""
    from halfcake.replication_bounds import ReplicationPlan

    return ReplicationPlan.mirror(3).to_json()


def _prime_slot() -> dict:
    """Second slot of the test channel, sampled over the default prime field."""
    from halfcake import NetworkSpec, ScalarDomain, extend_ergodic_pair

    ext = extend_ergodic_pair(NetworkSpec.square((2, 2)), seed=5,
                              domain=ScalarDomain.prime_default())
    return ext.to_json()["slots"][1]


def _valid_blobs() -> dict:
    """Spec, channel, scheme and plan files on which every command exits 0."""
    from halfcake import NetworkSpec, ergodic_half_cake, extend_ergodic_pair

    spec = NetworkSpec.square((2, 2))
    ext = extend_ergodic_pair(spec, seed=5)
    return {"spec": spec.to_json(), "channel": ext.to_json(),
            "scheme": ergodic_half_cake(ext).to_json(), "plan": _plan_2x2()}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, capsys, case):
    blobs = _valid_blobs()
    args, edit = BAD_INPUTS[case]
    if edit is not None:
        edit(blobs)
    paths = {}
    for name, blob in blobs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(blob))
    argv = args + ["--spec", str(paths["spec"])]
    if args[0] == "verify":
        argv += ["--channel", str(paths["channel"]), "--scheme", str(paths["scheme"])]
    if "--plan" in argv:  # the case places the plan file itself
        argv.insert(argv.index("--plan") + 1, str(paths["plan"]))
    elif args[0] == "bound" and "--mu-max" not in args:
        argv += ["--plan", str(paths["plan"])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    assert not LEAKED.search(lines[0]), lines[0]
    assert NAMED_FIELDS.get(case, "") in lines[0], lines[0]


#: what a fuzzed node may become, besides being deleted or duplicated
FUZZ_VALUES = [None, True, -1, 0, 2 ** 40, 2.5, float("nan"), "", [], {}, [[1]], {"x": [0]}]

#: command -> the input files it reads
FUZZ_COMMANDS = {
    "analyze": ("spec",),
    "feasibility": ("spec",),
    "bound": ("spec", "plan"),
    "verify": ("spec", "channel", "scheme"),
    "sample": ("spec",),
}


def _fuzz(blob, rng) -> str:
    """Apply one random mutation to a non-root node of ``blob``; returns what it did."""
    paths, stack = [], [((), blob)]
    while stack:
        path, obj = stack.pop()
        children = (obj.items() if isinstance(obj, dict)
                    else enumerate(obj) if isinstance(obj, list) else ())
        for key, child in children:
            paths.append(path + (key,))
            stack.append((path + (key,), child))
    path = paths[rng.randrange(len(paths))]
    parent = blob
    for key in path[:-1]:
        parent = parent[key]
    how = rng.randrange(3)
    if how == 0 and isinstance(parent, dict):
        del parent[path[-1]]
        return f"drop {path}"
    if how == 1 and isinstance(parent, list):
        parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
        return f"duplicate {path}"
    value = copy.deepcopy(FUZZ_VALUES[rng.randrange(len(FUZZ_VALUES))])
    parent[path[-1]] = value
    return f"set {path} = {value!r}"


def _valid_reduced_blobs() -> dict:
    """Files of a 3-user reduced-rank spec, with the plan in the ``table`` encoding."""
    from halfcake import NetworkSpec, ReplicationPlan, ergodic_half_cake, extend_ergodic_pair

    spec = NetworkSpec.square((2, 2, 2), {(0, 1): 1, (2, 0): 1})
    ext = extend_ergodic_pair(spec, seed=6)
    plan = ReplicationPlan.mirror(3)
    table = [[j + 1, b + 1, i + 1, a + 1] for (j, b, i), a in sorted(plan.assign.items())]
    return {"spec": spec.to_json(), "channel": ext.to_json(),
            "scheme": ergodic_half_cake(ext).to_json(),
            "plan": dict(plan.to_json(), assign={"table": table})}


def _fuzz_commands(valid, seed, tmp_path, capsys) -> Counter:
    """Run every command on 300 mutated copies of ``valid``; counts the exit codes."""
    rng = random.Random(seed)
    exits = Counter()
    for case in range(300):
        command = sorted(FUZZ_COMMANDS)[case % len(FUZZ_COMMANDS)]
        files = FUZZ_COMMANDS[command]
        blobs = copy.deepcopy(valid)
        done = [_fuzz(blobs[files[rng.randrange(len(files))]], rng)
                for _ in range(1 + rng.randrange(2))]
        paths = {}
        for name in files:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(blobs[name]))
        argv = [command, "--spec", str(paths["spec"]), "--out", str(tmp_path / "out.json")]
        if command == "bound":
            argv += ["--plan", str(paths["plan"])]
        if command == "verify":
            argv += ["--channel", str(paths["channel"]), "--scheme", str(paths["scheme"])]
        try:
            code = main(argv)
        except Exception as exc:  # report the case that escaped, not only its traceback
            raise AssertionError(f"case {case}, {command}: {done} raised {exc!r}") from exc
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (case, command, done)
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (case, command, done, err)
            assert not LEAKED.search(lines[0]), (case, command, done, err)
        exits[code] += 1
    return exits


def test_mutated_input_files_never_raise(tmp_path, capsys):
    exits = _fuzz_commands(_valid_blobs(), 404, tmp_path, capsys)
    assert exits[0] and exits[2]  # the mutations leave some inputs valid


def test_mutated_reduced_rank_files_never_raise(tmp_path, capsys):
    exits = _fuzz_commands(_valid_reduced_blobs(), 405, tmp_path, capsys)
    assert exits[0] and exits[2]
