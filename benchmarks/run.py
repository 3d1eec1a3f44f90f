"""Benchmark runner for halfcake.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; halfcake is imported from ``src/``
of that checkout.  One client drives the library and the CLI in-process,
in a closed loop, with BLAS pinned to one thread.

``--trace 0`` repeats whole passes of the workload until ``--seconds`` have
elapsed and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass of the same ops and reports the per-layer
metrics.  Every op's answer is compared with ``goldens.json``.  The last
line of standard output is the JSON result; a fuller record goes to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
GOLDENS = BENCH_DIR / "goldens.json"

#: set-up rounds before the first pass; an untraced run then times one
#: more round every SETUP_EVERY_S between ops, so that setup_s samples the
#: whole run rather than the host's speed at its first second
SETUP_ROUNDS = 3
SETUP_EVERY_S = 2.0
#: the tail latency has this many samples above it; a run with at most
#: twice as many samples has no such percentile above the median, and
#: reports its maximum instead
TAIL_BEYOND = 10
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; effective only before numpy is imported."""
    os.environ.update(BLAS_PINS)


def load_goldens() -> dict:
    with open(GOLDENS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def stamp() -> dict:
    import numpy as np  # only after pin_blas_threads()

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PINS},
    }


def _halfcake_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "halfcake" or name.startswith("halfcake.")}


def _purge_halfcake() -> None:
    for name in _halfcake_modules():
        del sys.modules[name]


def setup(workload: str, seed: int, workdir: Path) -> tuple:
    """Import halfcake afresh and build the pass: (ops, seconds taken)."""
    _purge_halfcake()
    t0 = time.perf_counter()
    ops = workloads.make_pass(workload, seed, workdir)
    return ops, time.perf_counter() - t0


def timed_resetup(workload: str, seed: int, workdir: Path) -> float:
    """Time one more set-up round, then reinstate the run's own halfcake modules.

    The ops being measured must keep resolving imports made at call time
    (such as ``from .errors import HalfCakeError``) to the modules they
    were built from.
    """
    current = _halfcake_modules()
    _, dt = setup(workload, seed, workdir)
    _purge_halfcake()
    sys.modules.update(current)
    return dt


def run_op(op, goldens: dict, failures: list) -> tuple:
    """Time one op, then check its answer; returns (seconds, ok)."""
    t0 = time.perf_counter()
    try:
        raw = op.call()
    except Exception:
        dt = time.perf_counter() - t0
        failures.append({"op": op.key, "error": traceback.format_exc(limit=3)})
        return dt, False
    dt = time.perf_counter() - t0
    try:
        got = op.answer(raw)
    except Exception:
        failures.append({"op": op.key, "error": traceback.format_exc(limit=3)})
        return dt, False
    want = goldens.get(op.key)
    if got != want:
        failures.append({"op": op.key, "got": got, "want": want})
        return dt, False
    return dt, True


def tail(times: list) -> tuple:
    """(value, percentile, samples beyond): highest order statistic with ten above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def run_untraced(ops, seconds: float, goldens: dict, resetup) -> dict:
    """Whole passes until ``seconds`` have elapsed (at least one pass).

    ``resetup()`` times one more set-up round, whose ops are discarded.
    """
    times, per_op, failures, setup_times = [], defaultdict(list), [], []
    failed = passes = 0
    t_start = time.perf_counter()
    next_setup = t_start + SETUP_EVERY_S
    while True:
        for op in ops:
            dt, ok = run_op(op, goldens, failures)
            times.append(dt)
            per_op[op.key].append(dt)
            failed += not ok
            if time.perf_counter() >= next_setup:
                setup_times.append(resetup())
                next_setup = time.perf_counter() + SETUP_EVERY_S
        passes += 1
        if time.perf_counter() - t_start >= seconds:
            break
    wall = time.perf_counter() - t_start
    tail_value, tail_pct, beyond = tail(times)
    return {
        "attempted": len(times),
        "failed": failed,
        "passes": passes,
        "wall_s": wall,
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "error_rate": failed / len(times),
        "failures": failures[:20],
        "per_op_s": per_op,
        "setup_times_s": setup_times,
    }


def run_traced(ops, goldens: dict) -> dict:
    """One warm-up op, one untraced pass, one traced pass; per-layer numbers."""
    failures = []
    checks = [run_op(ops[0], goldens, failures)[1]]
    t0 = time.perf_counter()
    checks += [run_op(op, goldens, failures)[1] for op in ops]
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for index, op in enumerate(ops):
            tracer.op = index
            checks.append(run_op(op, goldens, failures)[1])
        traced = time.perf_counter() - t0
    finally:
        tracer.restore()
    layers = tracer.summary()
    layers["trace_overhead_ratio"] = traced / untraced
    return {
        "attempted": len(checks),
        "failed": checks.count(False),
        "untraced_s": untraced,
        "traced_s": traced,
        "layers": layers,
        "failures": failures[:20],
        "tracer": tracer,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, goldens: dict,
            workdir: Path, limit=None) -> tuple:
    """Set up and run one workload: (record of the run, every metric it measured).

    ``limit`` keeps only the first ops of the pass (for the self-test).
    """
    setup_times = []
    for _ in range(SETUP_ROUNDS):
        ops, dt = setup(workload, seed, workdir)
        setup_times.append(dt)
    ops = ops[:limit]
    imported = Path(sys.modules["halfcake"].__file__).resolve()
    if not imported.is_relative_to(SRC):
        raise RuntimeError(f"halfcake imported from {imported}, not from {SRC}")
    if trace:
        res = run_traced(ops, goldens)
        return res, res.pop("layers")
    res = run_untraced(ops, seconds, goldens, lambda: timed_resetup(workload, seed, workdir))
    res["setup_times_s"] = setup_times + res["setup_times_s"]
    res["setup_s"] = statistics.median(res["setup_times_s"])
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return res, res


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if not (SRC / "halfcake" / "__init__.py").is_file():
        print(f"error: no halfcake sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    contract = load_contract()
    goldens = load_goldens()
    info = stamp()

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        res, values = measure(args.workload, args.seed, args.seconds, args.trace, goldens,
                              Path(tmp))
    if args.trace:
        res.pop("tracer").write_spans(RESULTS / f"{args.workload}-spans.jsonl.gz")
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": info, "metrics": metrics, "detail": res}
    if args.trace:
        record["layers"] = values
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({"stamp": info}))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        layers = sorted(((v, k[:-len(".self_s")]) for k, v in values.items()
                         if k.endswith(".self_s") and v > 0), reverse=True)
        for self_s, name in layers:
            calls = values.get(f"{name}.calls", "")
            print(f"  {name:52s} self {self_s:10.6f} s  calls {calls}")
    else:
        print(f"{args.workload} op_tail_ms is p{res['tail_percentile']:.2f} of "
              f"{res['attempted']} ops ({res['tail_beyond']} beyond); "
              f"{res['passes']} passes; error_rate = {res['error_rate']:.6g}")
    for failure in res["failures"]:
        print("FAILED", json.dumps(failure, default=str))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
