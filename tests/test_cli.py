"""Command-line behavior: exit codes, JSON reports, determinism."""

import copy
import json
import random
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


def test_analyze_reduced_example(tmp_path, reduced_spec):
    spec_path = _write_spec(tmp_path, reduced_spec)
    out = tmp_path / "report.json"
    assert main(["analyze", "--spec", spec_path, "--mu-max", "2",
                 "--budget", "400", "--tol", "1e-8", "--out", str(out)]) == 0
    report = _read(out)
    assert report["verdict"]["status"] == "OPTIMAL_CERTIFIED"
    assert report["verdict"]["half_cake"] == {"num": 12, "den": 1}
    assert report["verdict"]["certificate"] is not None


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
    "plan-partition-float": (["bound"], _edit("plan", "partition", 0, 0, 0, value=1.0)),
    "plan-partition-not-pairs": (["bound"], _edit("plan", "partition", 0, 0, value=[1, 1, 1])),
    "plan-mu-zero": (["bound"], _edit("plan", "mu", 0, value=0)),
    "plan-shifts-short": (["bound"], _edit("plan", "assign", "shifts", value=[[0, 1]])),
    "plan-partition-one-group": (["bound"], _edit("plan", "partition", value=lambda g: g[:1])),
    "plan-partition-three-groups": (["bound"], _edit("plan", "partition",
                                                     value=lambda g: g + [[]])),
    # a partition of 4 replicas is rejected before 2 * 10**30 replicas are wired
    "plan-mu-huge": (["bound"], _edit("plan", "mu", value=[10 ** 30, 10 ** 30])),
    "plan-mu-huge-table": (["bound"], lambda blobs: blobs["plan"].update(
        mu=[10 ** 30, 10 ** 30],
        assign={"table": [[1, 1, 2, 1], [1, 2, 2, 2], [2, 1, 1, 1], [2, 2, 1, 2]]})),
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
}


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
    if args[0] == "bound" and "--mu-max" not in args:
        argv += ["--plan", str(paths["plan"])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


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
    """Files of a 3-user reduced-rank spec, with the plan in the ``mirror`` encoding."""
    from halfcake import NetworkSpec, ReplicationPlan, ergodic_half_cake, extend_ergodic_pair

    spec = NetworkSpec.square((2, 2, 2), {(0, 1): 1, (2, 0): 1})
    ext = extend_ergodic_pair(spec, seed=6)
    return {"spec": spec.to_json(), "channel": ext.to_json(),
            "scheme": ergodic_half_cake(ext).to_json(),
            "plan": dict(ReplicationPlan.mirror(3).to_json(), assign="mirror")}


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
        exits[code] += 1
    return exits


def test_mutated_input_files_never_raise(tmp_path, capsys):
    exits = _fuzz_commands(_valid_blobs(), 404, tmp_path, capsys)
    assert exits[0] and exits[2]  # the mutations leave some inputs valid


def test_mutated_reduced_rank_files_never_raise(tmp_path, capsys):
    exits = _fuzz_commands(_valid_reduced_blobs(), 405, tmp_path, capsys)
    assert exits[0] and exits[2]
