"""Analytical models: throughput, scalability, latency, cost, energy."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".case_study": [
        "TableIIIRow", "build_table_iii", "format_table_iii",
        "slingshot_config",
    ],
    ".cost": ["CostSummary", "dragonfly_cost", "fattree_cost",
              "switchless_cost"],
    ".energy": [
        "FIG15_ENERGY", "TABLE_II_ENERGY", "EnergyBreakdown",
        "average_energy", "path_energy",
    ],
    ".latency_model": [
        "TABLE_II", "DiameterModel", "HopCost", "switchless_diameter",
    ],
    ".scalability": [
        "search_configurations", "total_chiplets", "verify_equation_1",
    ],
    ".tables": [
        "TABLE_I", "ChipSpec", "format_table_i", "format_table_ii",
        "format_table_iv",
    ],
    ".throughput": [
        "balanced_parameters", "cgroup_bisection_bandwidth",
        "global_throughput_bound", "intra_cgroup_throughput_bound",
        "is_balanced", "local_throughput_bound",
    ],
})
