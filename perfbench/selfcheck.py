"""Quick self-check of the benchmark.

Runs every workload of BENCHMARK.json on a tiny op list (``--quick``),
untraced and traced, and fails unless each result line names every
end-to-end (untraced) or per-layer (traced) metric with the unit
BENCHMARK.json gives it, and reports zero failed ops.

Usage (from the repository root): ``python3 perfbench/selfcheck.py``
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, expected: dict) -> list:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if result["attempted"] < 1:
        problems.append("no op attempted")
    metrics = result["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"missing metric {name}")
        elif metrics[name]["unit"] != unit:
            problems.append(f"{name} unit {metrics[name]['unit']} != {unit}")
    problems += [f"unexpected metric {name}" for name in metrics
                 if name not in expected]
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace, expected[trace])
            failures += bool(problems)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} --trace {trace}: {status}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
