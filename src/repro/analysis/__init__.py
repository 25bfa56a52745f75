"""Analytical models: throughput, scalability, latency, cost, energy."""

from .case_study import (
    TableIIIRow,
    build_table_iii,
    format_table_iii,
    slingshot_config,
)
from .cost import (
    CostSummary,
    dragonfly_cost,
    fattree_cost,
    switchless_cost,
)
from .energy import (
    FIG15_ENERGY,
    TABLE_II_ENERGY,
    EnergyBreakdown,
    average_energy,
    path_energy,
)
from .latency_model import (
    TABLE_II,
    DiameterModel,
    HopCost,
    switchless_diameter,
)
from .scalability import (
    search_configurations,
    total_chiplets,
    verify_equation_1,
)
from .tables import (
    TABLE_I,
    ChipSpec,
    format_table_i,
    format_table_ii,
    format_table_iv,
)
from .throughput import (
    balanced_parameters,
    cgroup_bisection_bandwidth,
    global_throughput_bound,
    intra_cgroup_throughput_bound,
    is_balanced,
    local_throughput_bound,
)

__all__ = [
    "TableIIIRow", "build_table_iii", "format_table_iii", "slingshot_config",
    "CostSummary", "dragonfly_cost", "fattree_cost", "switchless_cost",
    "FIG15_ENERGY", "TABLE_II_ENERGY", "EnergyBreakdown", "average_energy",
    "path_energy",
    "TABLE_II", "DiameterModel", "HopCost", "switchless_diameter",
    "search_configurations", "total_chiplets", "verify_equation_1",
    "TABLE_I", "ChipSpec", "format_table_i", "format_table_ii",
    "format_table_iv",
    "balanced_parameters", "cgroup_bisection_bandwidth",
    "global_throughput_bound", "intra_cgroup_throughput_bound",
    "is_balanced", "local_throughput_bound",
]
