"""One module per paper table/figure, each exposing ``run() -> ExperimentResult``."""

from repro.experiments import (
    ablation_coupling,
    ablation_localstore,
    ablation_styles,
    area_table,
    aspect_ratio_study,
    bandwidth_study,
    dse_array_scale,
    dse_per_layer,
    fc_study,
    fig_fault_degradation,
    headline_claims,
    fig01_nominal_vs_achievable,
    fig15_utilization,
    fig16_performance,
    fig17_data_volume,
    fig18_power_energy,
    fig19_scalability,
    interconnect_power,
    layer_breakdown,
    motivation,
    table03_utilization_mismatch,
    table04_unrolling_factors,
    table06_power_breakdown,
    sensitivity,
    table07_accelerator_comparison,
    verification,
)
from repro.experiments.common import (
    ARCH_LABELS,
    ARCH_ORDER,
    ExperimentResult,
    run_all_architectures,
    run_matrix,
)

#: experiment id -> module, in the paper's presentation order.
ALL_EXPERIMENTS = {
    "fig01": fig01_nominal_vs_achievable,
    "table03": table03_utilization_mismatch,
    "table04": table04_unrolling_factors,
    "area": area_table,
    "fig15": fig15_utilization,
    "fig16": fig16_performance,
    "fig17": fig17_data_volume,
    "fig18": fig18_power_energy,
    "table06": table06_power_breakdown,
    "fig19": fig19_scalability,
    "table07": table07_accelerator_comparison,
    "intercon": interconnect_power,
    # Ablations of DESIGN.md's called-out design choices (not in the paper).
    "ablation_styles": ablation_styles,
    "ablation_coupling": ablation_coupling,
    "ablation_localstore": ablation_localstore,
    "bandwidth": bandwidth_study,
    "dse": dse_array_scale,
    "dse_per_layer": dse_per_layer,
    "fc": fc_study,
    "aspect": aspect_ratio_study,
    "layers": layer_breakdown,
    "verify": verification,
    "sensitivity": sensitivity,
    "headline": headline_claims,
    "motivation": motivation,
    "fault_degradation": fig_fault_degradation,
}


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment by its id (e.g. ``"fig16"``)."""
    from repro.errors import ConfigurationError
    from repro.experiments.runner import experiment_registry, run_module_cached

    module = experiment_registry().get(experiment_id)
    if module is None:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known:"
            f" {', '.join(ALL_EXPERIMENTS)}"
        )
    return run_module_cached(experiment_id, module)


def run_experiments(
    experiment_ids,
    *,
    jobs: int = 1,
    timeout_s=None,
    retries: int = 0,
    run_dir=None,
):
    """Run several experiments; results come back in input order.

    :func:`repro.experiments.runner.run_batch` picks the executor:
    ``jobs == 1`` with no resilience option runs in-process; anything
    else runs on the supervised worker pool
    (:func:`repro.experiments.runner.run_resilient`), with a wall-clock
    timeout per attempt, retries with capped exponential backoff, and
    checkpoints to ``run_dir`` (resumable).  Unknown ids raise before
    any experiment runs; a terminal failure raises
    :class:`~repro.errors.ExperimentError` after the rest of the batch
    finishes — use :func:`repro.experiments.runner.run_resilient`
    directly for partial results.

    Args:
        experiment_ids: ids from :data:`ALL_EXPERIMENTS`.
        jobs: worker process count; ``1`` runs in-process.
        timeout_s: per-experiment wall-clock limit in seconds.
        retries: extra attempts for failed/timed-out experiments.
        run_dir: checkpoint directory for resumable batches.

    Returns:
        ``List[ExperimentResult]`` in the order of ``experiment_ids``.
    """
    from repro.experiments.runner import RunPolicy, require_all_ok, run_batch

    policy = RunPolicy(
        jobs=jobs, timeout_s=timeout_s, retries=retries, run_dir=run_dir
    )
    return require_all_ok(run_batch(experiment_ids, policy))


__all__ = [
    "ALL_EXPERIMENTS",
    "run_experiment",
    "run_experiments",
    "ExperimentResult",
    "ARCH_ORDER",
    "ARCH_LABELS",
    "run_all_architectures",
    "run_matrix",
]
