"""Cycle-accurate virtual-channel network simulator (CNSim substitute)."""

from .native import (
    THREADS_ENV,
    NativeBatch,
    NativeCore,
    native_available,
    resolve_threads,
)
from .packet import Hop, Packet
from .params import SimParams
from .refcore import ReferenceCore
from .schedule import InjectionSchedule, build_injection_schedule
from .simcore import ArrayCore
from .simulator import (
    CORE_ENV,
    Simulator,
    resolve_core,
    run_batch,
    run_simulation,
)
from .stats import SIMRESULT_SCHEMA, SimResult
from .sweep import (
    LOADSWEEP_SCHEMA,
    LoadSweep,
    assemble_sweep,
    cutoff_walk,
    find_saturation,
    sweep_rates,
)

__all__ = [
    "Hop",
    "Packet",
    "SimParams",
    "Simulator",
    "run_batch",
    "run_simulation",
    "CORE_ENV",
    "THREADS_ENV",
    "ArrayCore",
    "NativeBatch",
    "NativeCore",
    "native_available",
    "resolve_core",
    "resolve_threads",
    "ReferenceCore",
    "InjectionSchedule",
    "build_injection_schedule",
    "SIMRESULT_SCHEMA",
    "SimResult",
    "LOADSWEEP_SCHEMA",
    "LoadSweep",
    "assemble_sweep",
    "cutoff_walk",
    "find_saturation",
    "sweep_rates",
]
