"""vislam benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload {vio,loop,map} --seed N --seconds S \
        --trace {0,1}

A run replays whole operations of the workload (see workloads.py), each on
inputs made from the seed, back to back while the next one is expected to
end within S seconds; at least one always runs. It is a closed loop with one caller and no pacing.
Every operation's outputs are checked; an operation that fails a check
counts as failed. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured without any
tracing. With --trace 1 each operation runs twice, untraced and then traced
on the same inputs; the metrics are the per-layer ones from the traced
copies, plus the traced/untraced wall ratio. The line before it holds the
environment, sample counts and quality figures. BLAS and OpenMP are pinned
to one thread before numpy is imported, since the thread count changes both
speed and results.
"""

import argparse
import json
import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("vio", "loop", "map"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import vislam from this checkout; None if the checkout has no source."""
    if not os.path.isfile(os.path.join(SRC, "vislam", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import workloads  # noqa: F401  (numpy, scipy and every vislam module)
    return time.perf_counter() - start


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    import_s = _import_program()
    if import_s is None:
        print(f"no vislam source under {SRC}", file=sys.stderr)
        return 2
    import report
    from workloads import FULL
    summary, result = report.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), FULL, import_s,
                                 out_dir=os.path.join(BENCH_DIR, "out"))
    print(json.dumps({"bench": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
