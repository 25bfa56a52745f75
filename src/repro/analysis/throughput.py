"""Closed-form throughput bounds of Sec. III-B2 (Equations 2-6).

All rates are in the paper's unit, flits/cycle/chip, with every physical
link normalised to 1 flit/cycle.  These bounds are the quantities the
simulation section then probes: the benches compare measured saturation
points against them.
"""

from __future__ import annotations

from ..core.config import SwitchlessConfig

__all__ = [
    "global_throughput_bound",
    "local_throughput_bound",
    "intra_cgroup_throughput_bound",
    "cgroup_bisection_bandwidth",
    "balanced_parameters",
    "is_balanced",
]


def global_throughput_bound(cfg: SwitchlessConfig) -> float:
    """Equation (2): T_global < (m*n - a*b + 1) / m**2 flits/cycle/chip.

    Derived from the bisection of the fully-connected W-group graph:
    (g/2)^2 global channels times 2 (duplex) times 2 (each packet crosses
    the bisection once on average under uniform traffic), divided by N.
    """
    m = cfg.paper_m
    n = cfg.paper_n
    ab = cfg.cgroups_per_wgroup
    return (m * n - ab + 1) / (m * m)


def local_throughput_bound(cfg: SwitchlessConfig) -> float:
    """Equation (4): T_local < a*b / m**2 flits/cycle/chip.

    Saturation injection rate for traffic confined to one W-group,
    limited by the bisection of the fully-connected C-group graph.
    """
    m = cfg.paper_m
    return cfg.cgroups_per_wgroup / (m * m)


def intra_cgroup_throughput_bound(cfg: SwitchlessConfig) -> float:
    """Equation (5): T_cg < n / m flits/cycle/chip.

    Saturation rate for traffic confined to one C-group, limited by the
    2D-mesh bisection (n*m/4 channels, duplex, half the traffic crossing).
    The ``mesh_capacity`` multiplier (2B/4B) scales it directly.
    """
    return cfg.paper_n / cfg.paper_m * cfg.mesh_capacity


def cgroup_bisection_bandwidth(cfg: SwitchlessConfig) -> float:
    """Equation (6): B_cg = n*m/2 = k/2 flits/cycle (full duplex).

    Half of what a k-port non-blocking switch provides — the structural
    reason the paper's Figs. 11-12 need the 2B/4B configurations for
    extreme global traffic.
    """
    return cfg.num_ports / 2 * cfg.mesh_capacity


def balanced_parameters(m: int) -> dict:
    """Equation (3): the balanced configuration n = 3m, a*b = 2m**2.

    Returns the paper-notation parameter set for chiplet-mesh scale
    ``m``; with it the Eq. (2) bound reaches 1 flit/cycle/chip and the
    global:local channel ratio is about 1:2 as in a balanced Dragonfly.
    """
    n = 3 * m
    ab = 2 * m * m
    k = n * m
    h = k - ab + 1
    return {
        "m": m,
        "n": n,
        "ab": ab,
        "k": k,
        "h": h,
        "g": ab * h + 1,
        "N": ab * m * m * (ab * h + 1),
    }


def is_balanced(cfg: SwitchlessConfig, tolerance: float = 0.35) -> bool:
    """Whether the configuration approximates the Eq. (3) balance point."""
    m = cfg.paper_m
    if m == 0:
        return False
    n_ratio = cfg.paper_n / (3 * m)
    ab_ratio = cfg.cgroups_per_wgroup / (2 * m * m)
    return (
        abs(n_ratio - 1.0) <= tolerance and abs(ab_ratio - 1.0) <= tolerance
    )
