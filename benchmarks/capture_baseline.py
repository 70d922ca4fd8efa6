"""Capture the bench_headline wall-clock baseline into BENCH_headline.json.

Run from the repository root::

    PYTHONPATH=src python benchmarks/capture_baseline.py

The default output is ``BENCH_headline.json`` next to this script
(``benchmarks/``), whatever the working directory.  The committed file
gives future changes a perf trajectory to compare against.  Two configurations are timed:

* ``no_cache`` — the mapping cache is cleared before every run, so each
  run re-pays the Section 5 mapping DP (the pre-fast-path behaviour);
* ``steady_state`` — caches warm, the configuration every repeated
  experiment actually sees.

A third section, ``sim_engine``, times the FlexFlow functional
simulator on a representative layer against the literal per-PE machine
it is proven equal to (``FlexFlowPerPELoop`` in ``tests/sim_oracle.py``),
since ``repro run`` / full-inference examples are bound by it rather
than by the mapper.  ``sweep`` times the full ``generate_report``
pipeline with the persistent result cache off / cold (empty store) /
warm (populated store).
``dse_batched`` records absolute timings of the cold ``dse_array_scale``
sweep under the default kernel backend, and which backend that resolved
to.
``kernels`` times the same cold sweep under ``REPRO_KERNELS=numpy`` vs
the generated-C extension and is guarded by an absolute >= 3x floor
whenever the extension builds.
``dse_per_layer`` pins the per-layer reconfigurable-dataflow plans
(``repro dse --per-layer``, see ``docs/DATAFLOWS.md``) — deterministic
model outputs enforced exactly, with absolute invariants on AlexNet
(the plan mixes engine families and beats every fixed dataflow).
``serve`` boots a fresh ``repro serve`` instance against an empty store and runs
the load-test protocol (:func:`bench_serve.run_load_test`): coalescing of
identical concurrent requests, then cold vs warm request throughput.
``serve_fastpath`` runs the serving-fast-path protocol (cross-request
dynamic batching + the in-memory hot cache tier): compatible concurrent
cold requests must fuse into one backend dispatch with byte-identical
per-point payloads, the memory tier must at least halve the warm p50
against the disk tier, and the batched cold burst must beat the
unbatched one by >= 3x throughput — absolute invariants, enforced by
:func:`bench_serve.check_fastpath`.
``chaos`` runs the resilience drill (:mod:`bench_chaos`): a serve
instance with a 20% ``worker_crash`` injection rate must answer every
request, heal, and stay within the latency budget; its invariants are
absolute (zero unrecovered 5xx, bounded shed, p99 under budget) rather
than machine-relative ratios.

``--check`` mode re-measures and compares the *speedup ratios* against
the committed baseline instead of writing it: ratios are wall-clock
independent (both sides of each ratio move together on a slower
machine), so this works as a CI perf guard.  A measured speedup below
``baseline * (1 - tolerance)`` fails the check (exit 1); faster is
never an error.  The warm legs of ``sweep`` and ``serve`` are gated on
counts instead: a warm report must read every experiment from the
store and run none, and every warm served reply must come from the
cache with no backend computation.  A missing baseline file exits 3 —
distinct from a regression — so CI can tell "never captured" from "got
slower".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.arch import ArchConfig
from repro.dataflow import clear_mapping_cache
from repro.experiments import headline_claims
from repro.nn import ConvLayer, make_inputs, make_kernels
from repro.sim import FlexFlowFunctionalSim

#: Layer used for the engine micro-benchmark: LeNet-5 C3 scale.
ENGINE_LAYER = ConvLayer("bench", in_maps=6, out_maps=16, out_size=10, kernel=5)


def _time(fn, rounds: int) -> list:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def _summary(samples: list) -> dict:
    return {
        "rounds": len(samples),
        "min_s": round(min(samples), 6),
        "median_s": round(statistics.median(samples), 6),
        "mean_s": round(statistics.fmean(samples), 6),
    }


def _per_pe_machine():
    """The FlexFlow simulator on the per-PE machine of ``tests/sim_oracle.py``."""
    repo = str(Path(__file__).resolve().parent.parent)
    if repo not in sys.path:
        sys.path.insert(0, repo)
    from tests.sim_oracle import FlexFlowPerPELoop

    return FlexFlowPerPELoop


def _engine_times(layer: ConvLayer, rounds: int) -> dict:
    """``{"tile", "reference"} -> summary`` for one FlexFlow layer run:
    the simulator's tile engine, and the per-PE machine it is proven
    equal to."""
    inputs = make_inputs(layer)
    kernels = make_kernels(layer)
    config = ArchConfig(array_dim=16)
    sims = {
        "tile": FlexFlowFunctionalSim(config),
        "reference": _per_pe_machine()(config),
    }
    times = {}
    for name, sim in sims.items():

        def run_layer():
            sim.run_layer(layer, inputs, kernels)

        # Warm up once (allocator/numpy amortized setup), then take the
        # min over several rounds — the stable statistic for short
        # micro-benchmarks.
        run_layer()
        times[name] = _summary(_time(run_layer, rounds))
    return times


@contextlib.contextmanager
def _env(**overrides):
    """Temporarily set (or, with ``None``, unset) environment variables."""
    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@contextlib.contextmanager
def _counting_experiment_runs():
    """Count ``run()`` calls of every registered experiment module."""
    from repro.experiments import experiment_registry

    calls = []
    saved = [(module, module.run) for module in experiment_registry().values()]

    def counted(run):
        def wrapper(*args, **kwargs):
            calls.append(run)
            return run(*args, **kwargs)

        return wrapper

    for module, run in saved:
        module.run = counted(run)
    try:
        yield calls
    finally:
        for module, run in saved:
            module.run = run


def _experiment_store_hits() -> int:
    from repro.obs.metrics import REGISTRY

    return REGISTRY.counter(
        "cache.lookups", section="experiment", outcome="hit"
    ).value


def _sweep(rounds: int) -> dict:
    """Time ``generate_report`` with the result cache off / cold / warm.

    Cold rounds each get a fresh (empty) store directory so every sample
    pays the compute *and* the writes; warm rounds share one populated
    store.  The cold ratio is what the CI guard pins — absolute
    wall-clock shifts with the machine, the ratio does not.  One more
    warm report, untimed, counts its store hits and experiment
    ``run()`` calls (``warm_counts``): a warm report reads every
    experiment from the store and runs none, which the guard checks
    directly rather than through a ratio to the uncached report.

    A report round is half a second of heavy allocation, so each leg
    starts from one ``gc.collect()`` — a stray gen-2 collection landing
    in only one leg would otherwise dominate the few-percent
    cold-overhead signal (pausing GC outright, as the millisecond-scale
    ``_dse_batched`` section does, backfires here: half-second rounds
    bloat the unmanaged heap and skew the later legs).  One untimed cold
    round first warms the process-level key memos the same way the off
    leg's first round warms the mapper/kernel state.
    """
    import gc

    from repro.cache import active_cache, reset_cache_handles
    from repro.experiments.report import generate_report
    from repro.experiments import experiment_registry

    def run_report():
        clear_mapping_cache()
        generate_report()

    def drain_store():
        # The report writes each entry inside ``cache.put``, in the timed
        # leg; this sync point (untimed) only settles write-behind
        # publishes, of which a report makes none, before the store
        # directory is torn down or the next sample starts.
        cache = active_cache()
        if cache is not None:
            cache.drain()

    with _env(REPRO_CACHE="off", REPRO_CACHE_DIR=None):
        reset_cache_handles()
        run_report()  # untimed warm-up (imports, mapper state)
        gc.collect()
        off = _time(run_report, rounds)

    cold = []
    for warmup in (True, *[False] * rounds):
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
            with _env(REPRO_CACHE="on", REPRO_CACHE_DIR=tmp):
                reset_cache_handles()
                if warmup:
                    run_report()  # untimed: warms the key memos
                    gc.collect()
                else:
                    cold.extend(_time(run_report, 1))
                drain_store()

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        with _env(REPRO_CACHE="on", REPRO_CACHE_DIR=tmp):
            reset_cache_handles()
            run_report()  # populate the store
            drain_store()
            gc.collect()
            warm = _time(run_report, rounds)
            hits_before = _experiment_store_hits()
            with _counting_experiment_runs() as runs:
                run_report()
            warm_counts = {
                "experiments": len(experiment_registry()),
                "store_hits": _experiment_store_hits() - hits_before,
                "runs": len(runs),
            }
            drain_store()
    reset_cache_handles()

    return {
        "off": _summary(off),
        "cold": _summary(cold),
        "warm": _summary(warm),
        "cold_speedup_median": round(
            statistics.median(off) / statistics.median(cold), 2
        ),
        "warm_counts": warm_counts,
    }


def _dse_batched(rounds: int) -> dict:
    """Time the cold ``dse_array_scale`` sweep under the default backend.

    Every round clears the in-process mapping caches first, so it pays
    the full candidate-enumeration + coupling-DP cost.  The persistent
    store stays off so only mapper speed is measured.  The section
    records absolute timings plus the backend ``REPRO_KERNELS`` resolved
    to; ``--check`` does not gate it (wall-clock is machine-dependent).

    A round is tens of milliseconds — the same order as one gen-2
    collection of the heap the earlier sections leave behind — so GC is
    collected once and paused across the timed region, after one
    untimed warm-up run.
    """
    import gc

    from repro.experiments import dse_array_scale
    from repro.kernels import kernel_backend

    def run_sweep():
        clear_mapping_cache()
        dse_array_scale.run()

    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with _env(REPRO_CACHE="off"):
            backend = kernel_backend()
            run_sweep()
            samples = _time(run_sweep, rounds)
    finally:
        if gc_was_enabled:
            gc.enable()
    clear_mapping_cache()
    return {
        "experiment": "dse_array_scale",
        "backend": backend,
        "batched": _summary(samples),
    }


#: Absolute floor on the compiled-kernel speedup over the batched NumPy
#: paths (``kernels.speedup_median``).  The compiled backend exists to
#: beat NumPy by an integer factor on the DSE hot path; anything under
#: this is a build or dispatch regression, not machine noise.
KERNELS_MIN_SPEEDUP = 3.0

#: Absolute floor on ``sweep.cold_speedup_median``: a cold (empty-store)
#: sweep must stay within 5% of the cache-off sweep.  A cold report
#: publishes only its 26 entries, each written inside ``cache.put`` in
#: the timed leg, so the store's first run may not cost double-digit
#: percent.
SWEEP_COLD_MIN = 0.95


def _kernels(rounds: int) -> dict:
    """Time the cold ``dse_array_scale`` sweep: NumPy vs compiled kernels.

    Only ``REPRO_KERNELS`` differs between the legs, so the ratio
    isolates the compiled backend's win over the NumPy expressions it
    replaces.  The compiled leg resolves ``auto`` (the C extension when
    a compiler works) and records which backend it got; on a machine
    without one, both legs are NumPy and ``--check`` skips the floor.
    GC discipline matches ``_dse_batched`` — rounds are tens of
    milliseconds, so GC is collected once and paused across the timed
    region, with an untimed warm-up per leg (which also pays the
    one-time compile cost outside the samples).
    """
    import gc

    from repro.experiments import dse_array_scale
    from repro.kernels import kernel_backend, reset_kernels

    def run_sweep():
        clear_mapping_cache()
        dse_array_scale.run()

    samples = {}
    backends = {}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with _env(REPRO_CACHE="off"):
            for leg, choice in (("numpy", "numpy"), ("compiled", "auto")):
                with _env(REPRO_KERNELS=choice):
                    reset_kernels()
                    backends[leg] = kernel_backend()
                    run_sweep()
                    samples[leg] = _time(run_sweep, rounds)
    finally:
        reset_kernels()
        if gc_was_enabled:
            gc.enable()
    clear_mapping_cache()
    return {
        "experiment": "dse_array_scale",
        "backend": backends["compiled"],
        "numpy": _summary(samples["numpy"]),
        "compiled": _summary(samples["compiled"]),
        "speedup_median": round(
            statistics.median(samples["numpy"])
            / statistics.median(samples["compiled"]),
            2,
        ),
    }


#: Workloads pinned by the per-layer dataflow section; AlexNet addition-
#: ally carries the absolute invariants (mixed families, strict win).
DSE_PER_LAYER_WORKLOADS = ("AlexNet", "VGG-11")


def _dse_per_layer() -> dict:
    """Pin the per-layer reconfigurable-dataflow headline plans.

    Unlike the other sections these are *model outputs*, not wall-clock
    measurements: the DP is deterministic and machine-independent, so
    ``--check`` enforces the cycle counts exactly and the AlexNet
    invariants absolutely (the plan mixes >= 2 engine families and beats
    every fixed dataflow) rather than within a tolerance band.
    """
    from repro.dse import solve_per_layer
    from repro.nn import get_workload

    plans = {}
    for name in DSE_PER_LAYER_WORKLOADS:
        plan = solve_per_layer(get_workload(name), 16)
        plans[name] = {
            "dim": 16,
            "plan_cycles": plan.total_cycles,
            "best_fixed_cycles": plan.best_fixed_cycles,
            "best_fixed_family": plan.best_fixed_family,
            "families": list(plan.families),
            "switches": plan.switches,
            "reconfig_cycles": plan.total_reconfig_cycles,
            "speedup": round(plan.speedup_vs_best_fixed, 4),
        }
    return plans


def _check_dse_per_layer(baseline: dict, measured: dict) -> list:
    """Failure strings for the per-layer plan section (empty = ok)."""
    failures = []
    alexnet = measured.get("AlexNet", {})
    if len(alexnet.get("families", [])) < 2:
        failures.append(
            "AlexNet plan uses a single engine family"
            f" ({alexnet.get('families')}); expected a mixed plan"
        )
    if not alexnet.get("plan_cycles", 0) < alexnet.get(
        "best_fixed_cycles", 0
    ):
        failures.append(
            f"AlexNet plan ({alexnet.get('plan_cycles')} cycles) does not"
            f" beat the best fixed dataflow"
            f" ({alexnet.get('best_fixed_cycles')} cycles)"
        )
    for name, entry in measured.items():
        expected = baseline.get(name)
        if expected is None:
            continue
        for field in ("plan_cycles", "best_fixed_cycles", "switches"):
            if entry[field] != expected[field]:
                failures.append(
                    f"{name}.{field} drifted: {entry[field]}"
                    f" vs pinned {expected[field]}"
                )
    return failures


def _bench_chaos():
    """Import :mod:`bench_chaos` however this script was launched."""
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import bench_chaos

    return bench_chaos


def _bench_serve():
    """Import :mod:`bench_serve` however this script was launched."""
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import bench_serve

    return bench_serve


def _serve() -> dict:
    """Load-test a freshly booted serve instance against an empty store.

    :func:`bench_serve.run_load_test` boots the server on its own
    temporary store, so the cold numbers are honest and this process's
    store is untouched.  ``--check`` gates the warm phase's counts
    (every reply from the cache, no backend computation); the warm/cold
    throughput ratio is recorded.
    """
    report = _bench_serve().run_load_test()
    report["warm_over_cold_throughput"] = round(
        report["warm_over_cold_throughput"], 2
    )
    return report


#: Fanout of the fused phase in the ``serve_fastpath`` section (and the
#: value its dispatch-floor invariant is checked against).
SERVE_FASTPATH_FANOUT = 16


def _serve_fastpath() -> dict:
    """Run the serving-fast-path protocol (batching + memory tier).

    Three phases, each booting its own servers (see
    :func:`bench_serve.run_fastpath_test`): the fused dispatch
    floor with byte-parity against singleton answers, warm p50 through
    the memory tier vs the disk tier, and a batched vs unbatched
    compatible cold burst.  ``--check`` re-runs the protocol and applies
    :func:`bench_serve.check_fastpath`'s absolute floors — the fused
    count and parity are exact invariants, and both ratios compare two
    same-machine measurements.
    """
    report = _bench_serve().run_fastpath_test(
        fanout=SERVE_FASTPATH_FANOUT
    )
    report["warm_memory"]["mem_over_disk_p50"] = round(
        report["warm_memory"]["mem_over_disk_p50"], 4
    )
    report["batched_cold"]["batched_over_unbatched_throughput"] = round(
        report["batched_cold"]["batched_over_unbatched_throughput"], 2
    )
    return report


def capture(rounds: int = 5) -> dict:
    def headline_no_cache():
        clear_mapping_cache()
        headline_claims.run()

    # The mapper/experiment sections measure in-process cache behaviour;
    # keep the persistent store out of them so the pre-existing numbers
    # retain their meaning (the store gets its own ``sweep`` section).
    with _env(REPRO_CACHE="off"):
        clear_mapping_cache()
        no_cache = _time(headline_no_cache, rounds)
        headline_claims.run()  # warm the cache before steady-state timing
        steady = _time(headline_claims.run, rounds)

        engines = _engine_times(ENGINE_LAYER, 5)

    sweep = _sweep(max(2, rounds - 2))
    dse_batched = _dse_batched(rounds)
    kernels = _kernels(rounds)
    dse_per_layer = _dse_per_layer()
    serve = _serve()
    serve_fastpath = _serve_fastpath()
    chaos = _bench_chaos().run_drill()

    return {
        "benchmark": "bench_headline",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "headline": {
            "no_cache": _summary(no_cache),
            "steady_state": _summary(steady),
            "speedup_median": round(
                statistics.median(no_cache) / statistics.median(steady), 2
            ),
        },
        "sim_engine": {
            "layer": ENGINE_LAYER.name,
            "layer_macs": ENGINE_LAYER.macs,
            "tile": engines["tile"],
            "reference": engines["reference"],
            "speedup_min": round(
                engines["reference"]["min_s"] / engines["tile"]["min_s"], 2
            ),
        },
        "sweep": sweep,
        "dse_batched": dse_batched,
        "kernels": kernels,
        "dse_per_layer": dse_per_layer,
        "serve": serve,
        "serve_fastpath": serve_fastpath,
        "chaos": chaos,
    }


def _check_warm_legs(payload: dict) -> list:
    """Gate the warm legs of ``sweep`` and ``serve`` on counts; returns
    the failed metric names (empty = ok).

    Both legs must read the store instead of recomputing.  The counts
    are absolute: a ratio of a warm leg to the uncached or cold one fell
    every time the uncached path got faster, with no cache regression,
    while a warm leg that recomputes moves these counts.
    """
    failures = []
    warm = payload["sweep"]["warm_counts"]
    warm_ok = warm["runs"] == 0 and warm["store_hits"] == warm["experiments"]
    print(
        f"sweep.warm_counts: {warm['store_hits']} store hits for"
        f" {warm['experiments']} experiments, {warm['runs']} experiment"
        f" run() calls -> {'ok' if warm_ok else 'REGRESSION'}"
    )
    if not warm_ok:
        failures.append("sweep.warm_counts")
    served = payload["serve"]["warm"]
    from_cache = served["sources"].get("cache", 0)
    served_ok = (
        from_cache == served["requests"]
        and served["backend_computations"] == 0
    )
    print(
        f"serve.warm: {from_cache} of {served['requests']} replies from the"
        f" cache, {served['backend_computations']:.0f} backend computations"
        f" -> {'ok' if served_ok else 'REGRESSION'}"
    )
    if not served_ok:
        failures.append("serve.warm")
    return failures


#: Exit code for "no baseline has been captured yet" (vs 1 = regression
#: or unreadable/corrupt baseline).
EXIT_NO_BASELINE = 3


def check(baseline_path: Path, tolerance: float) -> int:
    """Compare freshly measured speedups against the committed baseline."""
    if not baseline_path.exists():
        print(
            f"baseline {baseline_path} does not exist; run"
            f" `PYTHONPATH=src python benchmarks/capture_baseline.py`"
            f" to capture one",
            file=sys.stderr,
        )
        return EXIT_NO_BASELINE
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
        return 1
    payload = capture()
    failures = []
    # Per-metric tolerance overrides (None -> the --tolerance default).
    # sweep.cold_speedup_median is guarded by an absolute floor
    # (SWEEP_COLD_MIN) further down rather than a baseline-relative
    # band: with 26 small synchronous writes the cold ratio sits near
    # 1.0, and the failure mode that matters is it sliding back toward the
    # pre-fix 0.8x, not small run-to-run drift.
    # The engine ratio gets 0.5: its denominator is short, so honest
    # runs swing ~30%; losing the tile engine's fast path drops the
    # ratio below half of any recorded baseline.
    # The warm legs of sweep and serve are gated on counts further down.
    checked_metrics = (
        ("headline", "speedup_median", None),
        ("sim_engine", "speedup_min", 0.5),
    )
    for section, field, tolerance_override in checked_metrics:
        metric = f"{section}.{field}"
        expected = baseline.get(section, {}).get(field)
        measured = payload[section][field]
        if expected is None:
            print(f"{metric}: no baseline value recorded, skipping")
            continue
        metric_tolerance = (
            tolerance if tolerance_override is None else tolerance_override
        )
        floor = expected * (1.0 - metric_tolerance)
        delta_pct = (measured - expected) / expected * 100.0
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"{metric}: {measured:.2f}x vs baseline {expected:.2f}x"
            f" ({delta_pct:+.1f}%, floor {floor:.2f}x) -> {verdict}"
        )
        if measured < floor:
            failures.append((metric, delta_pct))
    # Compiled kernels: absolute >= KERNELS_MIN_SPEEDUP floor (plus a
    # 50% relative band against any compiled baseline value).  Skipped
    # entirely when the machine has no C compiler — the NumPy fallback
    # is first-class and its timings are recorded in dse_batched.
    kernels = payload.get("kernels", {})
    if kernels.get("backend", "numpy") == "numpy":
        print("kernels: no compiled backend available, skipping")
    else:
        measured = kernels["speedup_median"]
        floor = KERNELS_MIN_SPEEDUP
        base_kernels = baseline.get("kernels", {})
        if base_kernels.get("backend", "numpy") != "numpy":
            floor = max(floor, base_kernels["speedup_median"] * 0.5)
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"kernels.speedup_median: {measured:.2f}x"
            f" ({kernels['backend']}, floor {floor:.2f}x) -> {verdict}"
        )
        if measured < floor:
            failures.append(("kernels.speedup_median", 0.0))
    # Cold-store sweeps must stay within 5% of cache-off (absolute):
    # a report publishes only its 26 experiment entries.
    cold = payload["sweep"]["cold_speedup_median"]
    verdict = "ok" if cold >= SWEEP_COLD_MIN else "REGRESSION"
    print(
        f"sweep.cold_speedup_median: {cold:.2f}x"
        f" (absolute floor {SWEEP_COLD_MIN:.2f}x) -> {verdict}"
    )
    if cold < SWEEP_COLD_MIN:
        failures.append(("sweep.cold_speedup_median", 0.0))
    failures.extend((metric, 0.0) for metric in _check_warm_legs(payload))
    # The fast-path section carries absolute invariants (fused dispatch
    # count, byte parity, ratio floors), not baseline-relative bands:
    # re-apply bench_serve's floors to the fresh measurement.
    if "serve_fastpath" in baseline:
        fastpath_failures = _bench_serve().check_fastpath(
            payload["serve_fastpath"], SERVE_FASTPATH_FANOUT
        )
        for failure in fastpath_failures:
            print(f"serve_fastpath invariant: {failure}")
            failures.append(("serve_fastpath", 0.0))
        if not fastpath_failures:
            fast = payload["serve_fastpath"]
            print(
                "serve_fastpath: fused"
                f" {SERVE_FASTPATH_FANOUT}->1, warm mem/disk p50"
                f" {fast['warm_memory']['mem_over_disk_p50']:.2f}, batched"
                " cold"
                f" {fast['batched_cold']['batched_over_unbatched_throughput']:.2f}x"
                " -> ok"
            )
    else:
        print("serve_fastpath: no baseline section recorded, skipping")
    # The chaos section carries absolute resilience invariants, not
    # machine-relative ratios: re-check them on the fresh measurement.
    if "chaos" in baseline:
        for failure in _bench_chaos().check_report(payload["chaos"]):
            print(f"chaos invariant: {failure}")
            failures.append(("chaos", 0.0))
    else:
        print("chaos: no baseline section recorded, skipping")
    # The per-layer dataflow plans are deterministic model outputs:
    # enforced exactly against the pinned baseline, plus the absolute
    # AlexNet invariants (mixed families, strictly beats best fixed).
    if "dse_per_layer" in baseline:
        for failure in _check_dse_per_layer(
            baseline["dse_per_layer"], payload["dse_per_layer"]
        ):
            print(f"dse_per_layer invariant: {failure}")
            failures.append(("dse_per_layer", 0.0))
        if not any(metric == "dse_per_layer" for metric, _ in failures):
            print("dse_per_layer: plans match the pinned baseline -> ok")
    else:
        print("dse_per_layer: no baseline section recorded, skipping")
    if failures:
        names = ", ".join(
            f"{metric} ({delta_pct:+.1f}%)" for metric, delta_pct in failures
        )
        print(
            f"perf check FAILED: {names} below tolerance",
            file=sys.stderr,
        )
        return 1
    print("perf check passed")
    return 0


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "output", nargs="?",
        default=str(Path(__file__).resolve().parent / "BENCH_headline.json"),
        help="where to write the captured baseline (default:"
        " BENCH_headline.json next to this script)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare measured speedups against the baseline instead of"
        " overwriting it",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline JSON for --check (default: the output path)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional slowdown vs baseline (default 0.30)",
    )
    args = parser.parse_args(argv[1:])

    if args.check:
        return check(Path(args.baseline or args.output), args.tolerance)

    out = Path(args.output)
    payload = capture()
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    headline = payload["headline"]
    sweep = payload["sweep"]
    print(
        f"wrote {out}: headline {headline['no_cache']['median_s']*1000:.1f} ms"
        f" -> {headline['steady_state']['median_s']*1000:.1f} ms"
        f" ({headline['speedup_median']}x),"
        f" sim engine {payload['sim_engine']['speedup_min']}x,"
        f" sweep {sweep['off']['median_s']*1000:.1f} ms"
        f" -> {sweep['warm']['median_s']*1000:.1f} ms warm"
        f" ({sweep['warm_counts']['store_hits']} store hits,"
        f" {sweep['warm_counts']['runs']} runs),"
        f" dse batched"
        f" {payload['dse_batched']['batched']['median_s']*1000:.1f} ms"
        f" ({payload['dse_batched']['backend']}),"
        f" kernels {payload['kernels']['speedup_median']}x"
        f" ({payload['kernels']['backend']}),"
        f" serve warm/cold {payload['serve']['warm_over_cold_throughput']}x"
        f" (dedup {payload['serve']['dedup']['dedup_hit_rate']:.2f}),"
        f" fastpath mem/disk p50"
        f" {payload['serve_fastpath']['warm_memory']['mem_over_disk_p50']}"
        f" batched cold"
        f" {payload['serve_fastpath']['batched_cold']['batched_over_unbatched_throughput']}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
