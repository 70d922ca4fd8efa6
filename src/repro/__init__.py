"""FlexFlow (HPCA 2017) reproduction: a flexible-dataflow CNN accelerator
architecture library.

The package implements the paper's complete system in Python:

* :mod:`repro.nn` — CNN workload substrate (layer specs, the six Table 1
  workloads, NumPy golden model);
* :mod:`repro.arch` — hardware substrate (65 nm technology model, buffers,
  local stores with the Figure 11 addressing FSM, interconnect, area and
  power models);
* :mod:`repro.dataflow` — the paper's core contribution: unrolling
  factors, the eight processing styles, Eq. 2/3 utilization, the Section 5
  parallelism-determination mapper, logical PE grouping, IADP/IPDR;
* :mod:`repro.accelerators` — analytical models of Systolic, 2D-Mapping,
  Tiling, and FlexFlow;
* :mod:`repro.sim` — functional cycle-level simulators validated against
  the golden model;
* :mod:`repro.compiler` — the configuration compiler and assembler;
* :mod:`repro.metrics` / :mod:`repro.experiments` — every evaluation
  table and figure, regenerated.

Quick start::

    from repro import FlexFlowAccelerator, get_workload

    result = FlexFlowAccelerator().simulate_network(get_workload("LeNet-5"))
    print(result.gops, result.overall_utilization)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Each name loads its subpackage on first use: ``import repro`` alone
# imports no subpackage, so ``import repro.<x>`` costs only ``<x>``.
_names, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".accelerators": (
            "Accelerator",
            "FlexFlowAccelerator",
            "SystolicAccelerator",
            "Mapping2DAccelerator",
            "TilingAccelerator",
            "make_accelerator",
            "LayerResult",
            "NetworkResult",
        ),
        ".arch": ("ArchConfig", "DEFAULT_CONFIG", "TechnologyModel", "TSMC65"),
        ".compiler": ("Program", "compile_network", "to_asm", "parse_asm"),
        ".dataflow": (
            "UnrollingFactors",
            "ProcessingStyle",
            "LayerMapping",
            "NetworkMapping",
            "map_layer",
            "map_network",
        ),
        ".errors": (
            "ReproError",
            "SpecificationError",
            "MappingError",
            "SimulationError",
            "CapacityError",
            "CompilationError",
            "ConfigurationError",
        ),
        ".experiments": ("ALL_EXPERIMENTS", "run_experiment"),
        ".nn": (
            "ConvLayer",
            "PoolLayer",
            "FCLayer",
            "InputSpec",
            "Network",
            "get_workload",
            "all_workloads",
        ),
        ".sim": (
            "FlexFlowFunctionalSim",
            "SystolicFunctionalSim",
            "Mapping2DFunctionalSim",
            "TilingFunctionalSim",
        ),
    },
)
__all__ = ["__version__", *_names]
