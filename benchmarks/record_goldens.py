"""Record the answer of every benchmark op into ``goldens.json``.

    python3 benchmarks/record_goldens.py

Runs every preset, every ladder plan, every reproduce target and every
pool spec once against the current ``src/`` and writes their answers.
Goldens are a regression oracle: re-record them only when a change is
meant to alter an answer, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import workloads

    goldens = {}
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        for op in workloads.all_golden_ops(Path(tmp)):
            goldens[op.key] = op.answer(op.call())
    lines = [f"{json.dumps(key)}: {json.dumps(goldens[key], sort_keys=True, separators=(',', ':'))}"
             for key in sorted(goldens)]
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(goldens)} goldens written to {run.GOLDENS.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
