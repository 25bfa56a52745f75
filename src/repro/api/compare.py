"""Ad-hoc architecture comparisons: the facade behind ``repro-dragonfly
compare``.

:func:`compare_scenario` builds a one-panel :class:`~repro.api.Scenario`
with one curve per requested architecture token:

``switchless``
    the paper's switch-less Dragonfly;
``switchless-<n>b``
    same with an ``n``-times intra-C-group bandwidth (``2b``/``4b`` are
    the paper's 2B/4B variants);
``dragonfly``
    the switch-based baseline (ideal router via ``vc_spread=2``).

The ``preset`` names a :class:`~repro.core.SwitchlessConfig` preset and
is validated against the registered preset list; for the Dragonfly
baseline it is transparently mapped to the equivalent
:class:`~repro.topology.dragonfly.DragonflyConfig` preset
(``radix16_equiv`` -> ``radix16`` etc.) so one flag configures both
sides of a comparison.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Sequence

from ..engine import list_presets
from ..engine.spec import suggest
from ..network.params import SimParams
from .library import dragonfly_arch, panel, switchless_arch
from .scenario import Scenario

__all__ = ["compare_scenario"]

#: switch-less preset -> structurally equivalent Dragonfly preset.
_DRAGONFLY_EQUIV = {
    "radix16_equiv": "radix16",
    "radix32_equiv": "radix32",
    "radix8_equiv": "radix8",
    "small_equiv": "small_equiv",
}

_SWITCHLESS_RE = re.compile(r"switchless(?:-(\d+)b)?")


def validate_preset(preset: str) -> str:
    """Check ``preset`` against the switch-less config's preset names."""
    known = list_presets("switchless")
    if preset not in known:
        raise ValueError(
            f"unknown preset {preset!r}{suggest(preset, known)}; "
            f"available: {known}"
        )
    return preset


def _arch_fragment(token: str, preset: str, routing: str) -> Dict:
    token = token.strip().lower()
    if token == "dragonfly":
        dfly = preset if preset in list_presets("dragonfly") else (
            _DRAGONFLY_EQUIV.get(preset)
        )
        if dfly is None:
            raise ValueError(
                f"preset {preset!r} has no Dragonfly equivalent; "
                f"available: {list_presets('dragonfly')}"
            )
        return dragonfly_arch(routing, preset=dfly)
    match = _SWITCHLESS_RE.fullmatch(token)
    if match:
        opts = {"preset": validate_preset(preset)}
        capacity = int(match.group(1)) if match.group(1) else 1
        if capacity > 1:
            opts["mesh_capacity"] = capacity
        return switchless_arch(routing, **opts)
    raise ValueError(
        f"unknown architecture {token!r}; known: switchless, "
        "switchless-<n>b (e.g. switchless-2b), dragonfly"
    )


def _traffic_scope(scope: str) -> Optional[Dict]:
    """Traffic options measuring all terminals (``"global"``) or those
    of W-group / Dragonfly group 0 (``"local"``)."""
    if scope not in ("local", "global"):
        raise ValueError(f"scope must be 'local' or 'global', not {scope!r}")
    return {"scope": ("group", 0)} if scope == "local" else None


def compare_scenario(
    arches: Sequence[str],
    *,
    pattern: str = "uniform",
    scope: str = "global",
    preset: str = "small_equiv",
    routing: str = "minimal",
    rates: Sequence[float],
    params: Optional[SimParams] = None,
    name: str = "compare",
) -> Scenario:
    """One scenario comparing ``arches`` under a shared workload.

    ``scope`` is ``"global"`` (all terminals) or ``"local"`` (terminals
    of W-group / Dragonfly group 0).  ``pattern`` is any registered
    traffic kind; hyphens are accepted (``bit-reverse``).  A token
    given twice (in any case) is a ``ValueError``.
    """
    if not arches:
        raise ValueError("need at least one architecture to compare")
    validate_preset(preset)
    traffic_opts = _traffic_scope(scope)
    labels = [token.strip().lower() for token in arches]
    return panel(
        name,
        [(label, _arch_fragment(label, preset, routing)) for label in labels],
        traffic=pattern.replace("-", "_"),
        traffic_opts=traffic_opts,
        rates=rates,
        params=params or SimParams(),
        title=f"{'/'.join(labels)}: {pattern} ({scope}, {preset})",
        baseline=labels[0] if len(labels) > 1 else "",
    )
