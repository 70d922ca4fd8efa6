"""Functional cycle-level simulators validating each dataflow's numerics."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".analytic": (
            "analytic_flexflow_trace",
            "analytic_mapping2d_trace",
            "analytic_systolic_trace",
            "analytic_tiling_trace",
        ),
        ".batch": (
            "batch_flexflow_traces",
            "batch_mapping2d_traces",
            "batch_systolic_traces",
            "batch_tiling_traces",
            "FactorBatch",
            "LayerBatch",
            "TraceBatch",
        ),
        ".flexflow_sim": ("FlexFlowFunctionalSim",),
        ".network_sim": ("FlexFlowNetworkSim", "NetworkSimResult"),
        ".mapping2d_sim": ("Mapping2DFunctionalSim",),
        ".pooling_sim": ("PoolingUnitSim",),
        ".systolic_sim": ("SystolicFunctionalSim",),
        ".tile_engine": ("TileEngine",),
        ".tiling_sim": ("TilingFunctionalSim",),
        ".trace": ("SimTrace",),
    },
)
