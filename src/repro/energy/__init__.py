"""Energy model substrate (paper §III.C).

Per-processor power states and exact event-driven energy integration
(Eq. 5), node aggregation (Eq. 6), the system metric ``ECS``, and derived
efficiency figures of merit.
"""

from .._lazy import lazy_exports

__all__ = [
    "PowerProfile",
    "constant_power_profile",
    "proportional_power_profile",
    "PEAK_POWER_RANGE_W",
    "DEFAULT_PMAX_W",
    "DEFAULT_PMIN_W",
    "DEFAULT_SLEEP_FRACTION",
    "ProcState",
    "ProcessorEnergyMeter",
    "EnergyBreakdown",
    "NodeEnergy",
    "SystemEnergy",
    "node_energy",
    "system_energy",
    "EfficiencyReport",
    "efficiency_report",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".accounting": ("NodeEnergy", "SystemEnergy", "node_energy", "system_energy"),
        ".efficiency": ("EfficiencyReport", "efficiency_report"),
        ".meter": ("EnergyBreakdown", "ProcState", "ProcessorEnergyMeter"),
        ".power_model": (
            "DEFAULT_PMAX_W",
            "DEFAULT_PMIN_W",
            "DEFAULT_SLEEP_FRACTION",
            "PEAK_POWER_RANGE_W",
            "PowerProfile",
            "constant_power_profile",
            "proportional_power_profile",
        ),
    },
)
