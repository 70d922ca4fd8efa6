"""Hardware substrate: technology constants, configs, storage, wiring, area, power."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".area": (
            "ARCH_KINDS",
            "LAYOUT_OVERHEAD",
            "AreaReport",
            "area_report",
            "all_area_reports",
            "pe_area_mm2",
        ),
        ".buffers": ("BankedBuffer", "BufferAccessStats", "BufferSet"),
        ".config": ("ArchConfig", "DEFAULT_CONFIG", "KB"),
        ".interconnect": (
            "CommonDataBus",
            "FifoLink",
            "WiringModel",
            "WIRING_MODELS",
            "wiring_model",
        ),
        ".local_store": (
            "AddressGenerator",
            "AddressingMode",
            "AddressTrace",
            "ControlFSM",
            "FSMState",
            "LocalStore",
        ),
        ".power": ("ActivityCounts", "PowerReport", "compute_power"),
        ".technology": ("TechnologyModel", "TSMC65"),
    },
)
