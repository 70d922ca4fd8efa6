"""The benchmark scripts import, with the entry points CI runs.

``benchmarks/`` is not a package: CI runs each script by path, and
``capture_baseline.py`` imports the other two from its own directory.
Only CI's serve, chaos and perf-guard jobs run them, so a ``repro``
name one of them imports could disappear with every other tier-1 test
green.  Importing a script runs nothing: each one's work sits behind
its ``__main__`` check.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: Per script, the functions CI's jobs and ``capture_baseline.py`` call.
ENTRY_POINTS = {
    "capture_baseline": ("main", "capture", "check"),
    "bench_serve": (
        "main", "run_load_test", "run_fastpath_test", "check_fastpath",
    ),
    "bench_chaos": ("main", "run_drill", "check_report"),
}


@pytest.mark.parametrize("script", sorted(ENTRY_POINTS))
def test_benchmark_script_imports(monkeypatch, script):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    module = importlib.import_module(script)
    for name in ENTRY_POINTS[script]:
        assert callable(getattr(module, name, None)), f"{script}.{name}"
