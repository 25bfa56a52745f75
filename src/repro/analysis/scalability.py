"""Scalability model of Sec. III-A/III-B1 (Equation 1) and config search."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.config import SwitchlessConfig

__all__ = ["total_chiplets", "verify_equation_1", "search_configurations"]


def total_chiplets(a: int, b: int, m: int, n: int) -> int:
    """Equation (1): N = a*b*m^2 * [a*b*(m*n - a*b + 1) + 1].

    ``a`` C-groups per wafer, ``b`` wafers per W-group, ``m`` chiplets per
    C-group side, ``n`` interfaces per chiplet.
    """
    ab = a * b
    k = m * n
    h = k - ab + 1
    if h < 1:
        raise ValueError(
            f"too few ports: k={k} cannot connect ab={ab} C-groups"
        )
    return ab * m * m * (ab * h + 1)


def verify_equation_1(cfg: SwitchlessConfig) -> Tuple[int, int]:
    """(formula N, built N) for a config at its maximum W-group count.

    The built value counts *chiplet-granularity* chips only when
    ``chiplet_dim`` matches the paper's m/n notation; both numbers are
    returned so tests can assert equality.
    """
    a = cfg.cgroups_per_wafer
    b = cfg.wafers_per_wgroup
    m = cfg.paper_m
    # n may be fractional in node-granular configs; Eq.(1) needs k = n*m
    k = cfg.num_ports
    ab = a * b
    h = k - ab + 1
    formula = ab * m * m * (ab * h + 1)
    built = cfg.num_chips if cfg.num_wgroups is None else (
        cfg.chips_per_cgroup * ab * (ab * h + 1)
    )
    return formula, built


def search_configurations(
    *,
    min_chips: int,
    max_chips: Optional[int] = None,
    m_range: Tuple[int, int] = (1, 8),
    balanced_only: bool = True,
) -> List[dict]:
    """Enumerate balanced configurations reaching at least ``min_chips``.

    Implements the design-space exploration implicit in Sec. III-B1
    ("using a very small configuration (2,4,2,6) the total chiplet number
    can reach 1K").  Returns paper-notation dicts sorted by N.
    """
    out: List[dict] = []
    for m in range(m_range[0], m_range[1] + 1):
        n = 3 * m
        ab = 2 * m * m
        if balanced_only:
            combos = [(n, ab)]
        else:
            combos = [
                (nn, aabb)
                for nn in range(max(2, n - m), n + m + 1)
                for aabb in range(2, n * m)
            ]
        for nn, aabb in combos:
            k = nn * m
            h = k - aabb + 1
            if h < 1:
                continue
            big_n = aabb * m * m * (aabb * h + 1)
            if big_n < min_chips:
                continue
            if max_chips is not None and big_n > max_chips:
                continue
            out.append(
                {"m": m, "n": nn, "ab": aabb, "h": h,
                 "g": aabb * h + 1, "N": big_n}
            )
    out.sort(key=lambda d: d["N"])
    return out
