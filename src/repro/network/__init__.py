"""Cycle-accurate virtual-channel network simulator (CNSim substitute)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".packet": ["Hop", "Packet"],
    ".params": ["SimParams"],
    ".simulator": [
        "Simulator", "run_batch", "CORE_ENV", "find_saturation",
        "resolve_core", "sweep_rates",
    ],
    ".native": ["NativeBatch", "NativeCore", "native_available"],
    ".refcore": ["ReferenceCore"],
    ".schedule": ["InjectionSchedule", "build_injection_schedule"],
    ".stats": [
        "SIMRESULT_SCHEMA", "SimResult", "PointResult", "CurveResult",
        "cutoff_walk",
    ],
})
