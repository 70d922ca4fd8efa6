"""Plumbing shared by the workloads.

Paths inside the checkout, the environment of child processes, the
store layout (an empty result store with the compiled kernels already
built), summary statistics, the host-speed probe, the per-layer metric
table and the result line.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Working state of the benchmark (stores, traces); ignored by git.
WORK = ROOT / ".perfbench"
KERNEL_STORE = WORK / "kernel-store"

END_TO_END = (
    ("setup_s", "s"),
    ("cold_p50_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source, dead child)."""


def require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(store: Optional[Path], **extra: str) -> Dict[str, str]:
    """A clean environment: no inherited ``REPRO_*`` knob, repro importable,
    temporary files kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(WORK / "tmp")
    env["REPRO_CHAOS"] = "off"
    env["REPRO_CACHE_DIR"] = str(store if store is not None else KERNEL_STORE)
    env.update(extra)
    return env


def prepare() -> Path:
    """Build the kernels once per checkout; return this run's working dir."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    done = subprocess.run(
        [sys.executable, "-c",
         "import repro.kernels as k; print(k.kernel_backend())"],
        env=child_env(None), cwd=ROOT, capture_output=True, text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise BenchError(f"kernel build failed:\n{done.stderr[-2000:]}")
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return run_dir


def fresh_store(path: Path) -> Path:
    """An empty result store whose kernel build cache is already filled."""
    shutil.rmtree(path, ignore_errors=True)
    if (KERNEL_STORE / "kernels").is_dir():
        shutil.copytree(KERNEL_STORE / "kernels", path / "kernels")
    else:  # no C compiler: the program runs its NumPy kernels
        path.mkdir(parents=True)
    return path


# -- statistics ---------------------------------------------------------------


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def tail(samples: Sequence[float]) -> Optional[Tuple[str, float]]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    from repro.serve.loadtest import percentile

    best = None
    for label, fraction in (("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999)):
        if len(samples) * (1.0 - fraction) >= 10:
            best = (label, percentile(samples, fraction))
    return best


def describe(name: str, samples: Sequence[float], unit: str) -> str:
    """One detail line: sample count, median and the supported tail."""
    line = f"  {name}: n={len(samples)} p50={median(samples):.4f} {unit}"
    extra = tail(samples)
    if extra:
        line += f" {extra[0]}={extra[1]:.4f} {unit}"
    return line


def host_calib_ms() -> float:
    """A fixed pure-Python plus NumPy loop, for spotting slow host phases.

    Reported next to a run's numbers only; nothing is divided by it."""
    import numpy as np

    values = np.arange(100_000, dtype=np.int64)
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    for _ in range(10):
        total += int(((values * 3 + 1) % 17).sum())
    return (time.perf_counter() - started) * 1e3


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- per-layer metrics --------------------------------------------------------


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    from tracing import EXPERIMENT_IDS, KERNELS

    names = [(f"{s}.ms", "ms/op") for s in
             ("sim.systolic", "sim.tiling", "sim.mapping2d", "sim.flexflow")]
    names.append(("sim.macs_per_s", "1/s"))
    names += [("mapper.map_network.calls", "count/op"),
              ("mapper.map_network.ms", "ms/op"),
              ("mapper.map_layer.ms", "ms/op"),
              ("mapper.memo_hit_ratio", "ratio")]
    for kernel in KERNELS:
        names += [(f"kernels.{kernel}.calls", "count/op"),
                  (f"kernels.{kernel}.ms", "ms/op")]
    names += [("sim.batch.ms", "ms/op"), ("sim.batch.configs", "count/op"),
              ("dse.solve_per_layer.calls", "count/op"),
              ("dse.solve_per_layer.ms", "ms/op"),
              ("accelerators.simulate_network.calls", "count/op"),
              ("accelerators.simulate_network.ms", "ms/op"),
              ("accelerators.simulate_layer.ms", "ms/op")]
    names += [(f"experiments.{eid}.ms", "ms/op") for eid in EXPERIMENT_IDS]
    names += [("experiments.sweep.ms", "ms/op"),
              ("experiments.sweep.points", "count/op"),
              ("cache.get.calls", "count/op"), ("cache.get.ms", "ms/op"),
              ("cache.hit_ratio", "ratio"), ("cache.mem_hit_ratio", "ratio"),
              ("cache.put.calls", "count/op"), ("cache.put.ms", "ms/op"),
              ("cache.drain.ms", "ms/op"),
              ("serve.request.ms", "ms/op"), ("serve.coalesce.ms", "ms/op"),
              ("serve.batch.ms", "ms/op"), ("serve.pool.ms", "ms/op"),
              ("serve.dispatches_per_request", "ratio"),
              ("serve.batched_share", "ratio"),
              ("serve.coalesced_share", "ratio"),
              ("serve.hot_share", "ratio"),
              ("trace.overhead", "ratio"),
              ("trace.unattributed_share", "ratio"),
              ("host.calib_ms", "ms")]
    return names


def merge_layers(summaries: Sequence[Dict[str, Any]]) -> Dict[str, list]:
    """Sum the ``layers`` tables of several :func:`tracing.summarize` runs."""
    total: Dict[str, list] = {}
    for summary in summaries:
        for name, (calls, self_ms, count) in summary["layers"].items():
            entry = total.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_ms
            entry[2] += count
    return total


def layer_metrics(layers: Dict[str, list], ops: int,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-op values of every per-layer metric (0 where a layer never ran)."""
    ops = max(ops, 1)

    def calls(name: str) -> float:
        return layers.get(name, [0, 0.0, 0.0])[0] / ops

    def ms(name: str) -> float:
        return layers.get(name, [0, 0.0, 0.0])[1] / ops

    def count(name: str) -> float:
        return layers.get(name, [0, 0.0, 0.0])[2] / ops

    values: Dict[str, float] = {}
    sim_ms = sim_macs = 0.0
    for name, unit in per_layer_names():
        base, _, kind = name.rpartition(".")
        if kind == "ms" and name != "host.calib_ms":
            values[name] = ms(base)
        elif kind == "calls":
            values[name] = calls(base)
    for sim in ("sim.systolic", "sim.tiling", "sim.mapping2d", "sim.flexflow"):
        sim_ms += layers.get(sim, [0, 0.0, 0.0])[1]
        sim_macs += layers.get(sim, [0, 0.0, 0.0])[2]
    values["sim.macs_per_s"] = sim_macs / (sim_ms / 1e3) if sim_ms else 0.0
    values["sim.batch.configs"] = count("sim.batch")
    values["experiments.sweep.points"] = count("experiments.sweep")
    gets = layers.get("cache.get", [0, 0.0, 0.0])
    values["cache.hit_ratio"] = gets[2] / gets[0] if gets[0] else 0.0
    for name in ("mapper.memo_hit_ratio", "cache.mem_hit_ratio",
                 "serve.dispatches_per_request", "serve.batched_share",
                 "serve.coalesced_share", "serve.hot_share", "trace.overhead",
                 "trace.unattributed_share", "host.calib_ms"):
        values[name] = float(extra.get(name, 0.0))
    return values


def mem_hit_ratio(snapshot: Dict[str, Any]) -> float:
    """Share of result-store lookups the memory tier served, from a
    metrics registry snapshot."""
    from repro.serve.loadtest import metric_total

    lookups = metric_total(snapshot, "cache.lookups")
    return metric_total(snapshot, "cache.memo_hits") / lookups if lookups else 0.0


def memo_ratio(info: Dict[str, Any]) -> float:
    """Hit ratio of the mapping memo from ``mapping_cache_info()``."""
    hits = info["map_layer"][0] + info["map_network"][0]
    misses = info["map_layer"][1] + info["map_network"][1]
    return hits / (hits + misses) if hits + misses else 0.0


def cnn_table(cnn: Dict[str, float], ops: int, networks=("AlexNet", "VGG-11"),
              rows: int = 8) -> List[str]:
    """Mapper plus simulator self time per CNN layer, per op, as text."""
    lines = ["per-CNN-layer self time of map_layer, simulate_layer and the"
             " functional simulators, plus whole-network map_network (ms/op):"]
    for network in networks:
        mine = sorted(
            ((ms, key.split("|", 1)[1]) for key, ms in cnn.items()
             if key.split("|", 1)[0] == network),
            reverse=True,
        )
        total = sum(ms for ms, _ in mine)
        lines.append(f"  {network}: total {total / max(ops, 1):.3f}")
        for ms, layer in mine[:rows]:
            lines.append(f"    {layer:<16} {ms / max(ops, 1):9.3f}"
                         f"  ({100.0 * ms / total if total else 0:.1f}%)")
    others = sum(ms for key, ms in cnn.items()
                 if key.split("|", 1)[0] not in networks)
    lines.append(f"  other networks and unnamed layers: {others / max(ops, 1):.3f}")
    return lines


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    correct: bool
    attempted: int
    failed: int
    values: Dict[str, float]
    detail: List[str]


def emit(outcome: Outcome, trace: bool) -> None:
    """Detail lines, then the result line as the last line of stdout."""
    for line in outcome.detail:
        print(line)
    names = per_layer_names() if trace else END_TO_END
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(outcome.values[name]), "unit": unit}
                    for name, unit in names},
    }), flush=True)
