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
    find_saturation,
    resolve_core,
    run_batch,
    sweep_rates,
)
from .stats import (
    SIMRESULT_SCHEMA,
    CurveResult,
    PointResult,
    SimResult,
    cutoff_walk,
)

__all__ = [
    "Hop",
    "Packet",
    "SimParams",
    "Simulator",
    "run_batch",
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
    "PointResult",
    "CurveResult",
    "cutoff_walk",
    "find_saturation",
    "sweep_rates",
]
