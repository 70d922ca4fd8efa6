"""Per-layer runtime-reconfigurable dataflow design-space exploration.

The mapper (:mod:`repro.dataflow.mapper`) commits one engine family and
one dataflow parameterization to a whole network.  This package answers
the FlexNN/Flex-TPU question instead: if the fabric can *reconfigure
between layers* — switching engine family (FlexFlow / Systolic /
Pipelined-Systolic / 2D-Mapping / Tiling) and dataflow parameters at a
modeled cycle/energy cost — what is the optimal per-layer schedule, and
how much does it beat the best fixed dataflow by?

It sits above both :mod:`repro.dataflow` and :mod:`repro.accelerators`
(which may not import each other's models), reusing the mapper's
Pareto-pruned coupling-DP machinery for the FlexFlow states and the
accelerator modules' closed-form cycle helpers for the rigid families.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".perlayer": (
            "EXTERN_FAMILIES",
            "FAMILY_ORDER",
            "ExternState",
            "LayerChoice",
            "PerLayerPlan",
            "extern_layer_cycles",
            "family_param_states",
            "format_plan",
            "plan_payload",
            "solve_per_layer",
        ),
        ".reconfig": ("ReconfigCostModel",),
    },
)
