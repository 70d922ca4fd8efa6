"""CNN workload substrate: layer specs, networks, Table 1 workloads, golden model."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".layers": (
            "OPS_PER_MAC",
            "ConvLayer",
            "FCLayer",
            "InputSpec",
            "JoinLayer",
            "PoolLayer",
        ),
        ".network": ("ConvContext", "Network"),
        ".execution": ("make_network_inputs", "run_join_layer", "run_network"),
        ".reference": (
            "conv2d",
            "pad_input",
            "pool2d",
            "run_conv_layer",
            "run_fc_layer",
            "run_pool_layer",
            "make_inputs",
            "make_kernels",
            "make_fc_weights",
        ),
        ".stats": (
            "ParallelismProfile",
            "parallelism_profile",
            "dominant_parallelism_by_layer",
        ),
        ".netdesc": ("parse_network", "to_description"),
        ".synth": ("SynthSpec", "random_network"),
        ".workloads": (
            "WORKLOAD_NAMES",
            "SMALL_WORKLOAD_NAMES",
            "get_workload",
            "all_workloads",
            "small_workloads",
            "build_pv",
            "build_fr",
            "build_lenet5",
            "build_hg",
            "build_alexnet",
            "build_vgg11",
        ),
    },
)
