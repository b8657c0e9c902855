#!/usr/bin/env python3
"""rotorlift benchmark: one Python process, one caller, closed loop.

    python3 perfbench/run.py --workload lift-small --seed 1 --seconds 30 --trace 0

Run from a checkout that holds ``src/rotorlift``.  Inputs are generated from
the seed before timing; each operation mirrors a CLI command without process
start and its output is checked against the numpy oracle in ``oracle.py``.
The timed loop runs whole rounds of the workload until the time spent inside
operations reaches ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation twice, bare and wrapped in spans, replays the recovery stages as
sibling spans, times one dense product per dimension, writes the spans to
``perfbench/traces/`` and reports the per-layer metrics.  Human-readable lines
come first; the last line of stdout is the JSON result.  See README.md.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads; the set-up probes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def use_checkout() -> bool:
    """Put the checkout's src/ first on sys.path; False when there is none."""
    if not (SRC / "rotorlift" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not use_checkout():
        print(f"error: no rotorlift sources under {SRC}; run from a rotorlift checkout",
              file=sys.stderr)
        return 2
    import bench

    if args.workload not in bench.workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.workloads.WORKLOADS)}")
    result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in bench.report_lines(result):
        print(line)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
