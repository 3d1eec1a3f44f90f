"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

On a tiny run of each workload (the first few ops of its pass) it checks:

* an untraced run measures every end-to-end metric of BENCHMARK.json and a
  traced run every per-layer metric;
* per-layer counts repeat exactly across two traced runs at one seed;
* a traced run leaves no tracer wrapper behind;
* a deliberately wrong golden is counted as a failure.

It also checks that the runner exits non-zero, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark's files.
Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

TINY = {"analyze-presets": 1, "certify-large": 2, "reproduce-sweep": 8}
SEED = 0


def leftover_wrappers() -> list:
    """Tracer wrappers still reachable from halfcake's modules or traced classes."""
    def is_wrapper(value) -> bool:
        func = getattr(value, "__func__", value)
        return getattr(func, "__qualname__", "").startswith("Tracer._wrap")

    found = [f"{name}.{attr}" for name, mod in list(sys.modules.items())
             if name == "halfcake" or name.startswith("halfcake.")
             for attr, value in vars(mod).items() if is_wrapper(value)]
    for short, cls_name, meth, _ in tracer.METHODS:
        cls = getattr(sys.modules[f"halfcake.{short}"], cls_name)
        if is_wrapper(cls.__dict__[meth]):
            found.append(f"{cls_name}.{meth}")
    return found


def check(results: list, name: str, ok: bool, detail: str = "") -> None:
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")


def bare_directory_refuses(results: list) -> None:
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "certify-large",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(results, "bare directory: non-zero exit and no result",
          proc.returncode != 0 and '"correct"' not in last,
          f"exit {proc.returncode}, last line {last!r}")


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    contract = run.load_contract()
    goldens = run.load_goldens()
    results: list = []
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        workdir = Path(tmp)
        for workload, limit in TINY.items():
            res, values = run.measure(workload, SEED, 0, False, goldens, workdir, limit)
            missing = [m["name"] for m in contract["end_to_end"] if m["name"] not in values]
            check(results, f"{workload}: every end-to-end metric", not missing, str(missing))
            check(results, f"{workload}: no failed op", res["failed"] == 0,
                  json.dumps(res["failures"], default=str)[:400])

            traced = [run.measure(workload, SEED, 0, True, goldens, workdir, limit)[1]
                      for _ in range(2)]
            left = leftover_wrappers()
            check(results, f"{workload}: wrappers restored", not left,
                  f"{len(left)} left, e.g. {left[:3]}")
            missing = [m["name"] for m in contract["per_layer"] if m["name"] not in traced[0]]
            check(results, f"{workload}: every per-layer metric", not missing, str(missing))
            counts = [{m["name"]: v[m["name"]] for m in contract["per_layer"]
                       if m["unit"] == "count"} for v in traced]
            check(results, f"{workload}: per-layer counts repeat", counts[0] == counts[1],
                  str({k: (v, counts[1][k]) for k, v in counts[0].items()
                       if v != counts[1][k]}))

            ops, _ = run.setup(workload, SEED, workdir)
            wrong = copy.deepcopy(goldens)
            wrong[ops[0].key] = {"wrong": True}
            res, _ = run.measure(workload, SEED, 0, False, wrong, workdir, 1)
            check(results, f"{workload}: wrong golden counted as failure",
                  res["failed"] == 1 and res["attempted"] == 1)
    bare_directory_refuses(results)
    print(f"{results.count(True)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
