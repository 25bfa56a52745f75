"""Shared benchmark harness.

Every bench regenerates one table or figure of the paper and prints the
measured series next to the paper's reference values.  The figure
benches are thin wrappers over the bundled ``repro.api`` scenario
library (:func:`run_library_study`); only the ablation bench still
builds live objects, and sweeps them with ``repro.network.sweep_rates``.

Because a cycle-accurate simulation of a paper-size system takes hours,
the default scale trades simulated cycles / system size for wall-clock
(documented per bench); set ``REPRO_SCALE=full``
for paper-exact configurations and Table IV cycle counts, or
``REPRO_SCALE=quick`` for a smoke-level pass.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.api import StudyResult, build_study
from repro.api import pick_rates as _pick_rates
from repro.api import sim_params as _sim_params
from repro.engine import ResultCache
from repro.network import SimParams

SCALE = os.environ.get("REPRO_SCALE", "default")

#: worker processes for engine-backed benches (None = engine default:
#: REPRO_WORKERS env, then CPU count).
WORKERS = None

#: point-result cache shared by all engine-backed benches when
#: ``REPRO_CACHE_DIR`` is set (re-running a figure then only simulates
#: missing points).
CACHE_DIR = os.environ.get("REPRO_CACHE_DIR")


def sim_params(seed: int = 11) -> SimParams:
    return _sim_params(SCALE, seed=seed)


def pick_rates(rates: Sequence[float], quick_count: int = 3):
    return _pick_rates(rates, SCALE, quick_count=quick_count)


def run_library_study(name: str) -> StudyResult:
    """Run one bundled study at the session scale and print its report."""
    study = build_study(name, scale=SCALE)
    cache = ResultCache(CACHE_DIR) if CACHE_DIR else None
    result = study.run(workers=WORKERS, cache=cache)
    print()
    print(f"(scale={SCALE})")
    print(result.render())
    return result


def once(benchmark, fn):
    """Run a whole-figure regeneration exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
