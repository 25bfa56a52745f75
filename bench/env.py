"""Paths, the pinned environment and the machine fingerprint.

Stdlib only: the driver imports this without loading numpy or repro, so
the driver process stays small and every workload child starts cold.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything the benchmark writes lands here (native cache, result
#: caches, service state, outputs); listed in the root .gitignore.
WORK = ROOT / ".bench_build"
CONTRACT = ROOT / "BENCHMARK.json"
GOLDEN = Path(__file__).with_name("golden.json")
#: the seed golden.json was written at; any other seed checks every
#: unit against the first one instead.
DEFAULT_SEED = 11

#: one worker, one kernel thread: the box has two shared cores and
#: thread/worker scaling measured inside the noise, so scaling is a
#: per-layer number (network.threads2_ratio), never an end-to-end one.
PINNED = {"REPRO_WORKERS": "1", "REPRO_SIM_THREADS": "1"}
#: knobs that would silently swap the program under test.
MUST_BE_UNSET = ("REPRO_SIM_CORE", "REPRO_SIM_BATCH", "REPRO_CHAOS")


def load_contract() -> Dict:
    return json.loads(CONTRACT.read_text())


def find_cc() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def refusal() -> Optional[str]:
    """One-line reason the benchmark cannot run here, or ``None``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"program under test not found: {SRC / 'repro'} is missing"
    for name in MUST_BE_UNSET:
        if os.environ.get(name):
            return (
                f"{name} is set; the benchmark times the default native "
                "path only — unset it"
            )
    if find_cc() is None:
        return (
            "no C compiler (cc/gcc/clang): the native kernel cannot be "
            "built and the benchmark refuses to time the array core"
        )
    return None


def child_env(workdir: Path) -> Dict[str, str]:
    """Environment of a workload child: pinned knobs, a fresh native
    cache and every scratch location inside ``workdir``."""
    env = {k: v for k, v in os.environ.items() if k not in MUST_BE_UNSET}
    env.update(PINNED)
    # ahead of, not instead of, an inherited PYTHONPATH: numpy may
    # come from there
    inherited = os.environ.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([inherited] if inherited else [])
    )
    env["REPRO_NATIVE_CACHE"] = str(workdir / "native")
    env["TMPDIR"] = str(workdir / "tmp")
    env["XDG_CACHE_HOME"] = str(workdir / "xdg")
    env.pop("REPRO_SERVICE_URL", None)
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def _first_line(cmd) -> str:
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=10, cwd=ROOT
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    text = out.stdout.strip()
    return text.splitlines()[0] if out.returncode == 0 and text else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _numpy_version() -> str:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "unknown"


def fingerprint(seed: int, units: Optional[Dict[str, int]] = None) -> Dict:
    """Where the numbers came from; stamped into every output."""
    cc = find_cc()
    return {
        "git_rev": _first_line(["git", "rev-parse", "HEAD"]),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "cc": _first_line([cc, "--version"]) if cc else "none",
        "platform": platform.platform(),
        "executable": sys.executable,
        "env": {**PINNED, **{name: None for name in MUST_BE_UNSET}},
        "seed": seed,
        "units": units or {},
    }
