"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``workloads`` — list the Table 1 workloads with their compute stats;
* ``describe <workload>`` — print a workload's layer chain;
* ``map <workload>`` — run the Section 5 mapper and print the factors;
* ``run <workload>`` — simulate on one (or all) architectures;
* ``compile <workload>`` — emit the FlexFlow configuration assembly;
* ``experiment <id> | all`` — regenerate paper tables/figures;
* ``dse <workload> | all`` — sweep the FlexFlow array scale (batched);
* ``trace <workload>`` — per-layer/per-phase cycle breakdown + trace.json;
* ``profile <experiment>`` — run one experiment under the tracer;
* ``faults sweep | mask`` — fault-degradation study and mask inspection;
* ``serve`` — the DSE-as-a-service asyncio HTTP front-end.

All command output funnels through :func:`main`'s single pipe-safe exit
path: when a downstream consumer closes the pipe early (``repro
workloads | head -1``), the CLI exits 0 instead of dying with a
``BrokenPipeError`` traceback.

Each command imports what it runs inside its own function, so a process
loads only its command's code: ``repro cache stats`` or ``repro serve``
never imports the accelerator models, the experiment suite or NumPy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from repro.errors import ConfigurationError, ReproError, SpecificationError
from repro.experiments import EXPERIMENT_MODULES
from repro.experiments.records import ARCH_LABELS, ARCH_ORDER
from repro.nn import WORKLOAD_NAMES, get_workload, parse_network
from repro.nn.network import Network


def _resolve_workload(spec: str) -> Network:
    """A Table 1 workload name, or a path to a network-description file."""
    if spec in WORKLOAD_NAMES:
        return get_workload(spec)

    if os.path.exists(spec):
        # A directory or an unreadable file must surface as the standard
        # one-line error, not an OSError traceback.
        try:
            with open(spec, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise SpecificationError(
                f"cannot read workload file {spec!r}: {exc}"
            ) from exc
        return parse_network(text)

    raise SpecificationError(
        f"{spec!r} is neither a known workload"
        f" ({', '.join(WORKLOAD_NAMES)}) nor an existing description file"
    )


def _array_dim(text: str) -> int:
    """The ``--dim`` type: a positive PE array dimension.

    It raises :class:`ConfigurationError`, which argparse does not catch,
    so a bad value ends in the one-line ``error:`` naming the flag.
    """
    try:
        dim = int(text)
        if dim > 0:
            return dim
    except ValueError:
        pass
    raise ConfigurationError(f"--dim must be a positive integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlexFlow (HPCA 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the Table 1 workloads")

    workload_help = (
        "a Table 1 workload name or a path to a .net network description"
    )

    describe = sub.add_parser("describe", help="print a workload's layers")
    describe.add_argument("workload", help=workload_help)

    map_cmd = sub.add_parser("map", help="run the parallelism-determination mapper")
    map_cmd.add_argument("workload", help=workload_help)
    map_cmd.add_argument(
        "--dim", type=_array_dim, default=16, help="PE array dimension D"
    )

    run_cmd = sub.add_parser("run", help="simulate a workload on an architecture")
    run_cmd.add_argument("workload", help=workload_help)
    run_cmd.add_argument(
        "--arch",
        choices=list(ARCH_ORDER) + ["pipeline", "all"],
        default="flexflow",
    )
    run_cmd.add_argument("--dim", type=_array_dim, default=16)

    compile_cmd = sub.add_parser("compile", help="emit configuration assembly")
    compile_cmd.add_argument("workload", help=workload_help)
    compile_cmd.add_argument("--dim", type=_array_dim, default=16)
    compile_cmd.add_argument(
        "--execute", action="store_true", help="also interpret the program"
    )

    experiment = sub.add_parser("experiment", help="regenerate paper artifacts")
    experiment.add_argument(
        "experiment_id", choices=list(EXPERIMENT_MODULES) + ["all"]
    )
    _add_resilience_args(experiment)

    dse_cmd = sub.add_parser(
        "dse", help="design-space sweep of the FlexFlow array scale"
    )
    dse_cmd.add_argument(
        "workload", help=workload_help + ", or 'all' for every Table 1 workload"
    )
    dse_cmd.add_argument(
        "--dims", default=None,
        help="comma-separated PE array dimensions to sweep, e.g."
        " --dims 8,16,32 (default 8,16,32,64; with --per-layer, 16)",
    )
    dse_cmd.add_argument(
        "--per-layer", action="store_true",
        help="solve the per-layer runtime-reconfigurable dataflow schedule"
        " (engine family + parameters per CONV layer) instead of the"
        " fixed-dataflow array-scale sweep",
    )
    dse_cmd.add_argument(
        "--reconfig-cost", type=float, default=1.0, metavar="SCALE",
        help="scale on the reconfiguration-cost model charged at layer"
        " boundaries (0 = free switching; default 1.0; --per-layer only)",
    )

    report = sub.add_parser(
        "report", help="write a Markdown report of all experiments"
    )
    report.add_argument(
        "-o", "--output", default="-", help="output file ('-' for stdout)"
    )
    _add_resilience_args(report)

    trace_cmd = sub.add_parser(
        "trace", help="trace a workload: per-layer, per-phase breakdown"
    )
    trace_cmd.add_argument("workload", help=workload_help)
    trace_cmd.add_argument("--dim", type=_array_dim, default=16)
    trace_cmd.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write a Chrome/Perfetto trace.json (default: no file)",
    )
    trace_cmd.add_argument(
        "--per-layer", action="store_true",
        help="append the per-layer reconfigurable-dataflow plan (engine"
        " family + configuration per CONV layer) and its decision spans",
    )

    profile_cmd = sub.add_parser(
        "profile", help="run one experiment under the tracer"
    )
    profile_cmd.add_argument("experiment_id", choices=list(EXPERIMENT_MODULES))
    profile_cmd.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write a Chrome/Perfetto trace.json (default: no file)",
    )

    cache_cmd = sub.add_parser(
        "cache", help="inspect or maintain the persistent result cache"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    stats_cmd = cache_sub.add_parser(
        "stats", help="entry/byte counts per section and configuration"
    )
    stats_cmd.add_argument(
        "--json", action="store_true",
        help="machine-readable output (includes memory-tier counters)",
    )
    cache_sub.add_parser("clear", help="delete every cached entry")
    verify_cmd = cache_sub.add_parser(
        "verify", help="validate all entries, reporting corrupt/stale ones"
    )
    verify_cmd.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt entries (same path the hot read uses:"
        " moved under .quarantine/, never deleted)",
    )

    serve_cmd = sub.add_parser(
        "serve", help="run the DSE-as-a-service HTTP front-end"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8787,
        help="TCP port to bind (0 picks a free port; the bound address"
        " is printed on startup)",
    )
    serve_cmd.add_argument(
        "-j", "--jobs", type=int, default=2,
        help="worker processes for cold computations"
        " (0 runs them inline; default 2)",
    )
    serve_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock limit for one computation",
    )
    serve_cmd.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts for failed/timed-out computations (default 1)",
    )
    serve_cmd.add_argument(
        "--backoff", type=float, default=0.25, metavar="SECONDS",
        help="base retry delay; retry k waits backoff * 2**(k-1) (default 0.25)",
    )
    serve_cmd.add_argument(
        "--max-backoff", type=float, default=30.0, metavar="SECONDS",
        help="cap on one retry delay (default 30)",
    )
    serve_cmd.add_argument(
        "--batch-window-ms", type=float, default=0.0, metavar="MS",
        help="how long a cold batchable request waits for compatible"
        " requests to fuse with (default 0: batching off, every cold"
        " request dispatches at once)",
    )
    serve_cmd.add_argument(
        "--batch-max", type=int, default=16,
        help="most requests one fused batch dispatch may carry"
        " (default 16; 1 also turns batching off)",
    )

    faults = sub.add_parser(
        "faults", help="fault-injection studies and mask inspection"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)

    sweep = faults_sub.add_parser(
        "sweep", help="throughput degradation vs stuck-at-dead PE rate"
    )
    sweep.add_argument(
        "--rates", default=None,
        help="comma-separated dead-PE rates (default 0,0.02,0.05,0.1,0.2)",
    )
    sweep.add_argument(
        "--workloads", default=None,
        help="comma-separated workload names (default: all Table 1 workloads)",
    )
    sweep.add_argument("--seed", type=int, default=2017)
    sweep.add_argument("--dim", type=_array_dim, default=16)

    mask_cmd = faults_sub.add_parser(
        "mask", help="print the PE availability mask a fault model yields"
    )
    mask_cmd.add_argument("--dim", type=_array_dim, default=16)
    mask_cmd.add_argument("--seed", type=int, default=2017)
    mask_cmd.add_argument(
        "--rate", type=float, default=0.0, help="stuck-at-dead PE rate"
    )
    mask_cmd.add_argument(
        "--rows", default="", help="comma-separated dead row indices"
    )
    mask_cmd.add_argument(
        "--cols", default="", help="comma-separated dead column indices"
    )
    mask_cmd.add_argument(
        "--pes", default="",
        help="comma-separated dead PEs as row:col pairs (e.g. 1:2,3:0)",
    )
    return parser


def _add_resilience_args(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment wall-clock limit",
    )
    command.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts for failed/timed-out experiments",
    )


def _cmd_workloads() -> int:
    from repro.nn import all_workloads

    print(f"{'workload':<10} {'CONV layers':>11} {'total MACs':>14} {'conv share':>11}")
    for network in all_workloads():
        print(
            f"{network.name:<10} {len(network.conv_layers):>11}"
            f" {network.total_macs:>14,} {network.conv_fraction():>10.1%}"
        )
    return 0


def _cmd_describe(workload: str) -> int:
    print(_resolve_workload(workload).describe())
    return 0


def _cmd_map(workload: str, dim: int) -> int:
    from repro.dataflow import map_network

    network = _resolve_workload(workload)
    mapping = map_network(network, dim)
    print(f"{network.name} on a {dim}x{dim} convolutional unit:")
    for lm in mapping.layers:
        print(
            f"  {lm.layer.name:<5} {lm.factors.describe():<44}"
            f" Ut={lm.utilization.ut:.3f}"
            f" cycles={lm.compute_cycles}"
            f"{'' if lm.coupled else ' (+re-layout)'}"
        )
    print(f"overall utilization: {mapping.overall_utilization:.1%}")
    return 0


def _cmd_run(workload: str, arch: str, dim: int) -> int:
    from repro.accelerators import make_accelerator
    from repro.arch.config import ArchConfig

    config = ArchConfig().scaled_to(dim)
    kinds = list(ARCH_ORDER) if arch == "all" else [arch]
    network = _resolve_workload(workload)
    header = (
        f"{'architecture':<12} {'util':>6} {'GOPS':>8} {'mW':>7}"
        f" {'GOPS/W':>7} {'uJ':>9}"
    )
    print(header)
    for kind in kinds:
        acc = make_accelerator(kind, config, workload_name=network.name)
        result = acc.simulate_network(network)
        print(
            f"{ARCH_LABELS[kind]:<12} {result.overall_utilization:6.2f}"
            f" {result.gops:8.1f} {result.power_mw:7.0f}"
            f" {result.gops_per_watt:7.0f} {result.energy_uj:9.2f}"
        )
    return 0


def _cmd_compile(workload: str, dim: int, execute: bool) -> int:
    from repro.arch.config import ArchConfig
    from repro.compiler import ProgramExecutor, compile_network, to_asm

    network = _resolve_workload(workload)
    program = compile_network(network, dim)
    print(to_asm(program), end="")
    if execute:
        report = ProgramExecutor(ArchConfig().scaled_to(dim)).execute(program)
        print(
            f"# executed: {report.total_cycles} cycles"
            f" (compute {report.compute_cycles}, dma {report.dma_cycles},"
            f" control {report.control_cycles})"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import run_batch
    from repro.experiments.records import RunPolicy

    ids = (
        list(EXPERIMENT_MODULES)
        if args.experiment_id == "all"
        else [args.experiment_id]
    )
    policy = RunPolicy(timeout_s=args.timeout, retries=args.retries)
    return _print_outcomes(run_batch(ids, policy))


def _print_outcomes(outcomes) -> int:
    """Tables for ok outcomes, a stderr summary for failures; exit code."""
    failed = [o for o in outcomes if not o.ok]
    for outcome in outcomes:
        if outcome.ok:
            print(outcome.result.format_table())
            print()
        else:
            print(
                f"## {outcome.experiment_id} FAILED ({outcome.status},"
                f" {outcome.attempts} attempt(s))",
                file=sys.stderr,
            )
    if failed:
        print(
            f"error: {len(failed)} of {len(outcomes)} experiment(s)"
            f" failed: {', '.join(o.experiment_id for o in failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _dse_rows(spec: str, dims: List[int]) -> List[dict]:
    """The ``dse`` table rows for one workload across the dim sweep."""
    from repro.arch.config import ArchConfig
    from repro.experiments.common import evaluate_sweep
    from repro.experiments.dse_array_scale import scale_points

    network = _resolve_workload(spec)
    base = ArchConfig()
    results = evaluate_sweep(
        f"dse_cli:{network.name}",
        [(dim, "flexflow", network, base.scaled_to(dim)) for dim in dims],
    )
    points, best_dim = scale_points(results, dims)
    return [
        {
            "workload": network.name,
            "dim": f"{dim}x{dim}",
            "utilization": result.overall_utilization,
            "gops": result.gops,
            "area_mm2": area,
            "gops_per_mm2": density,
            "best": "*" if dim == best_dim else "",
        }
        for dim, (result, area, density) in zip(dims, points)
    ]


def _cmd_dse(args: argparse.Namespace) -> int:
    """Sweep the array scale (or solve per-layer plans) in this process.

    The kernel backend is the ``REPRO_KERNELS`` setting; every backend
    prints the same table.
    """
    from repro.experiments.records import ExperimentResult

    dims_text = args.dims
    if dims_text is None:
        dims_text = "16" if args.per_layer else "8,16,32,64"
    dims = _parse_csv(dims_text, int, "dimension", example="--dims 8,16,32")
    if not dims:
        raise ConfigurationError("--dims must name at least one dimension")
    if any(dim <= 0 for dim in dims):
        raise ConfigurationError(
            f"array dimensions must be positive, got {dims}"
        )
    if not (math.isfinite(args.reconfig_cost) and args.reconfig_cost >= 0):
        raise ConfigurationError(
            "--reconfig-cost must be >= 0 and finite,"
            f" got {args.reconfig_cost!r}"
        )
    specs = (
        list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    )
    if args.per_layer:
        from repro.dse import format_plan, solve_per_layer

        blocks = []
        for spec in specs:
            network = _resolve_workload(spec)
            for dim in dims:
                plan = solve_per_layer(
                    network, dim, reconfig_scale=args.reconfig_cost
                )
                blocks.append(format_plan(plan))
        print("\n\n".join(blocks))
        return 0
    result = ExperimentResult(
        experiment_id="dse",
        title="FlexFlow array-scale sweep (batched candidate scoring)",
        rows=[row for spec in specs for row in _dse_rows(spec, dims)],
        notes="* marks the GOPS/mm^2-optimal scale per workload.",
    )
    print(result.format_table())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    output = args.output
    text = generate_report(timeout_s=args.timeout, retries=args.retries)
    if output == "-":
        print(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot write report to {output!r}: {exc}"
            ) from exc
        print(f"wrote {output}")
    return 0


def _write_trace_file(tracer, path: str) -> None:
    from repro.obs.export import write_chrome_trace

    try:
        write_chrome_trace(tracer, path)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write trace to {path!r}: {exc}"
        ) from exc
    print(f"wrote {path}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.profile import format_breakdown, trace_workload

    network = _resolve_workload(args.workload)
    trace = trace_workload(network, array_dim=args.dim)
    print(format_breakdown(trace))
    if args.per_layer:
        from repro.dse import format_plan, solve_per_layer
        from repro.obs.tracer import tracing

        # Solve under the trace's tracer so the per-layer decision spans
        # land in the same exported timeline as the layer breakdown.
        with tracing(trace.tracer):
            plan = solve_per_layer(network, args.dim)
        print()
        print(format_plan(plan))
    if args.output is not None:
        _write_trace_file(trace.tracer, args.output)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import format_profile, profile_experiment

    result, tracer = profile_experiment(args.experiment_id)
    print(result.format_table())
    print()
    print(format_profile(args.experiment_id, tracer))
    if args.output is not None:
        _write_trace_file(tracer, args.output)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import ResultCache, cache_enabled, cache_root

    # Maintenance works on the configured root even when REPRO_CACHE=off,
    # so a disabled cache can still be inspected and cleaned up.
    store = ResultCache(cache_root())
    if args.cache_command == "stats":
        stats = store.stats()
        state = "on" if cache_enabled() else "off"
        if args.json:
            import json

            from repro.obs.metrics import REGISTRY

            snapshot = REGISTRY.snapshot()
            stats["enabled"] = state == "on"
            stats["memory"]["counters"] = {
                name: value
                for name, value in sorted(snapshot.items())
                if name.startswith("cache.mem_")
            }
            print(json.dumps(stats, indent=2))
            return 0
        print(f"root:    {stats['root']}")
        print(f"enabled: {state}")
        print(f"schema:  {stats['schema']}")
        print(f"entries: {stats['entries']} ({stats['bytes']} bytes)")
        for section, bucket in sorted(stats["sections"].items()):
            print(
                f"  {section:<18} {bucket['entries']:>6} entries"
                f" {bucket['bytes']:>10} bytes"
            )
        memory = stats["memory"]
        budget_mb = memory["budget_bytes"] / (1024 * 1024)
        print(
            f"memory tier:       {memory['entries']:>6} entries"
            f" {memory['bytes']:>10} bytes"
            f" (budget {budget_mb:.0f} MiB)"
        )
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} cached entries from {store.root}")
        return 0
    report = store.verify(repair=args.repair)
    line = (
        f"checked {report['checked']} entries:"
        f" {report['ok']} ok, {report['corrupt']} corrupt"
    )
    if args.repair:
        line += f", {report['quarantined']} quarantined"
    elif report["corrupt"]:
        line += " (re-run with --repair to quarantine them)"
    print(line)
    return 0


def _parse_csv(text: str, convert, what: str, example: str = "") -> list:
    """The values of a comma list, each once: a repeat is an error."""
    try:
        values = [convert(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        hint = f" (expected comma-separated values, e.g. {example})" if example else ""
        raise ConfigurationError(
            f"bad {what} list {text!r}: {exc}{hint}"
        ) from exc
    for index, value in enumerate(values):
        if value in values[:index]:
            raise ConfigurationError(
                f"bad {what} list {text!r}: {value!r} appears more than once"
            )
    return values


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.experiments.records import RunPolicy
    from repro.serve.app import ServeApp, run_app
    from repro.serve.batcher import BatchPolicy

    # Every setting is checked by the policy or pool that holds it, all
    # before the server binds.
    policy = RunPolicy(
        timeout_s=args.timeout, retries=args.retries,
        backoff_s=args.backoff, max_backoff_s=args.max_backoff,
    )
    batching = BatchPolicy(
        window_ms=args.batch_window_ms, max_batch=args.batch_max
    )
    app = ServeApp(policy, jobs=args.jobs, batching=batching)
    try:
        asyncio.run(run_app(app, args.host, args.port))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        app.shutdown()
    return 0


def _cmd_faults_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import fig_fault_degradation

    rates = (
        fig_fault_degradation.DEFAULT_RATES
        if args.rates is None
        else _parse_csv(args.rates, float, "rate")
    )
    workloads = (
        None if args.workloads is None
        else _parse_csv(args.workloads, str.strip, "workload")
    )
    result = fig_fault_degradation.run(
        rates=rates, workload_names=workloads, seed=args.seed,
        array_dim=args.dim,
    )
    print(result.format_table())
    return 0


def _cmd_faults_mask(args: argparse.Namespace) -> int:
    from repro.faults import FaultModel, live_grid

    def pair(text: str):
        row, _, col = text.partition(":")
        return (int(row), int(col))

    model = FaultModel(
        seed=args.seed,
        dead_pe_rate=args.rate,
        dead_rows=tuple(_parse_csv(args.rows, int, "row")),
        dead_cols=tuple(_parse_csv(args.cols, int, "column")),
        dead_pes=tuple(_parse_csv(args.pes, pair, "PE")),
    )
    mask = model.mask_for(args.dim)
    print(mask.describe())
    grid = live_grid(mask)
    print(
        f"dead PEs: {mask.num_dead}/{args.dim * args.dim};"
        f" usable subgrid after remapping:"
        f" {grid.usable_rows}x{grid.usable_cols}"
    )
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "workloads":
        return _cmd_workloads()
    if args.command == "describe":
        return _cmd_describe(args.workload)
    if args.command == "map":
        return _cmd_map(args.workload, args.dim)
    if args.command == "run":
        return _cmd_run(args.workload, args.arch, args.dim)
    if args.command == "compile":
        return _cmd_compile(args.workload, args.dim, args.execute)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "dse":
        return _cmd_dse(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "faults":
        if args.faults_command == "sweep":
            return _cmd_faults_sweep(args)
        return _cmd_faults_mask(args)
    return 2  # pragma: no cover - unreachable with required subcommands


def _exit_on_broken_pipe() -> int:
    """A downstream consumer closed the pipe; exit 0 like other Unix tools.

    ``repro workloads | head -1`` is a normal way to stop reading early —
    it must not end in a ``BrokenPipeError`` traceback.  The interpreter
    flushes ``sys.stdout`` once more at exit, which would raise (and
    print ``Exception ignored ...``) all over again, so point the stdout
    file descriptor at ``/dev/null`` before returning.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        # Parsed inside the guard: ``--dim``'s type raises a ReproError.
        args = parser.parse_args(argv)
        code = _dispatch(args)
        # Flush inside the guard: with a small output the EPIPE often
        # only surfaces at flush time, after the command has returned.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return _exit_on_broken_pipe()
    except ReproError as exc:
        try:
            print(f"error: {exc}", file=sys.stderr)
        except BrokenPipeError:
            return _exit_on_broken_pipe()
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
