"""Smoke tests: every example script runs end to end.

The examples are deliverables, not decoration — each must execute cleanly
as a subprocess from the repository root and print its expected
signature line.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = [
    ("quickstart.py", ["LeNet-5"], "Generated configuration program"),
    ("compare_architectures.py", ["HG"], "FlexFlow vs. each baseline"),
    ("cycle_accurate_verification.py", [], "match the golden model"),
    ("custom_network.py", [], "Configuration program"),
    ("scalability_study.py", ["AlexNet"], "Utilization drop"),
    ("dataflow_visualization.py", ["HG", "16"], "Local-store address trace"),
    ("lenet_full_inference.py", [], "matches the golden model"),
    ("throughput_study.py", ["FR"], "batched throughput"),
    ("reproduce_paper.py", ["area", "headline"], "Layout area"),
]


@pytest.mark.parametrize("script,args,marker", EXAMPLES)
def test_example_runs(script, args, marker):
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert marker in result.stdout


@pytest.mark.parametrize(
    "args,message",
    [
        (["area", "area"], "duplicate experiment ids"),
        (["area", "nope"], "unknown experiment id"),
    ],
)
def test_reproduce_paper_rejects_bad_ids(args, message):
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "reproduce_paper.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
    )
    assert result.returncode != 0
    assert message in result.stderr
    assert "Layout area" not in result.stdout


def test_cli_module_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "workloads"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0
    assert "LeNet-5" in result.stdout


def test_cli_runs_example_network_file():
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "map",
            "examples/networks/traffic_sign.net",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0
    assert "TrafficSign" in result.stdout
