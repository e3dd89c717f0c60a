"""End-to-end benchmark of the repro library: one command, one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_cold --seed 0 \
        --seconds 25 --trace 0

Prints every metric by name and unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run (spans are written to ``.perfbench-out/``).  Exits non-zero
when a correctness check fails, and without a result when the library
source is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One thread per BLAS/OpenMP pool, set before numpy is imported, so the
# numbers measure the program and not the scheduler of a small box.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
#: The seed a change is developed against, and one kept for checking a
#: claim on a seed not used while the change was written.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness, workloads

    if args.workload not in workloads.ALL_WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.ALL_WORKLOADS)}")
    out_dir = ROOT / ".perfbench-out"
    result, lines = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir
    )
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace"
              f"{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump({"stamp": harness.stamp(), "report": lines, **result},
                  handle, indent=1)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
