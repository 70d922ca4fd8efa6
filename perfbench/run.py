"""The repository's benchmark: one workload per run, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <paper-report|serve-mix> \\
        --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
instrumentation.  ``--trace 1`` is a separate run that wraps every layer
from benchmark code (``tracing.py``) and reports the per-layer metrics,
per op of the workload, plus the tracing overhead and the share of time
no wrapper covers.  Both check the program's outputs and count failed
ops.  The last line of standard output is the JSON result; the lines
before it are detail (sample counts, tail percentiles, the host-speed
probe, the largest unattributed gap and, for paper-report, a per-CNN-
layer table).  ``--quick`` shrinks the op list for ``selfcheck.py``.

Working state lives in ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("paper-report", "serve-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny op list (self-check only)")
    args = parser.parse_args(argv)
    try:
        common.require_source()
        run_dir = common.prepare()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload == "paper-report":
        import paper_report as workload
    else:
        import serve_mix as workload
    try:
        outcome = workload.run(seconds=args.seconds, seed=args.seed,
                               trace=bool(args.trace), quick=args.quick,
                               run_dir=run_dir)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    common.emit(outcome, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
