"""Run every workload once, each in its own process, and print all their metrics.

    python3 benchmarks/all.py [--seed N] [--seconds S] [--trace 0|1]

Exits non-zero if a run fails or any op misses its golden.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        print("\n".join(lines[1:-1]))
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
