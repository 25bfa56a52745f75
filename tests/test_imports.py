"""What importing ``repro`` costs and exposes.

* no module-level import goes unused (an ``ast`` scan of ``src/``);
* every package's ``__all__`` resolves through its lazy namespace, is
  listed by ``dir()`` and bound by ``from <package> import *``;
* a cold ``repro-dragonfly run`` loads only the code it executes.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.api import Study, build_study
from repro.network.simulator import CORE_ENV, resolve_core

SRC = Path(repro.__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# unused imports
# ----------------------------------------------------------------------
def _module_imports(body):
    """``(line, bound name)`` of each import at module level, inside
    ``if``/``try`` blocks (``TYPE_CHECKING``, fallbacks) too."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    yield node.lineno, alias.asname or alias.name
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          *(h.body for h in getattr(node, "handlers", ()))):
                yield from _module_imports(block)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                yield arg and arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Names the module reads, in code, in quoted annotations and in
    ``__all__`` (a re-export is a use)."""
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    used = {
        node.id
        for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_module_imports():
    unused = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        unused += [
            f"{path.relative_to(SRC)}:{line} {name}"
            for line, name in _module_imports(tree.body)
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


# ----------------------------------------------------------------------
# the public surface of every package
# ----------------------------------------------------------------------
PACKAGES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_public_surface(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(set(exported)) == len(exported)
    for attr in exported:
        # a submodule never shadows an exported name
        assert not isinstance(getattr(package, attr), types.ModuleType), attr
    assert set(exported) <= set(dir(package))
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_network_exports_two_cores():
    """The compiled kernel and the reference loop are the only cores;
    the pure-Python array core and its module are gone."""
    network = importlib.import_module("repro.network")
    cores = {name for name in network.__all__ if name.endswith("Core")}
    assert cores == {"NativeCore", "ReferenceCore"}
    assert importlib.util.find_spec("repro.network.simcore") is None


def test_no_kernel_thread_knob():
    """The process pool is the one parallelism layer: the kernel's lane
    threads, their knob and its readers are gone."""
    network = importlib.import_module("repro.network")
    native = importlib.import_module("repro.network.native")
    for gone in ("THREADS_ENV", "resolve_threads", "env_int"):
        assert gone not in network.__all__ and gone not in native.__all__
        assert not hasattr(native, gone), gone
    assert "env_int" in vars(importlib.import_module("repro.engine.executor"))


# ----------------------------------------------------------------------
# a cold run
# ----------------------------------------------------------------------
#: modules a healthy, probe-less, serial run has no use for.
UNUSED_BY_A_RUN = {
    "repro.analysis",
    "repro.layout",
    "repro.faults",
    "repro.api.library",
    "repro.api.compare",
    "repro.api.resilience",
    "repro.network.refcore",
    "repro.metrics.probes",
    "repro.metrics.record",
    "repro.obs.export",
    "repro.routing.deadlock",
    "repro.topology.properties",
    "numpy.ma",
    "multiprocessing",
}


def test_cold_run_loads_only_what_it_runs(tmp_path, monkeypatch):
    panel = build_study("fig11_global", "quick")["uniform"]
    specs = tuple(
        spec.with_rates(spec.rates[:1])
        for spec in panel.specs
        if spec.label in ("SW-based", "SW-less")
    )
    study = Study.wrap(replace(panel, specs=specs))
    path = study.save(tmp_path / "study.json")
    out, loaded = tmp_path / "result.json", tmp_path / "modules.json"
    script = (
        "import json, sys\n"
        "from repro.cli import main\n"
        f"rc = main(['run', {str(path)!r}, '--workers', '1', "
        f"'--cache-dir', {str(tmp_path / 'cache')!r}, '--out', "
        f"{str(out)!r}])\n"
        f"with open({str(loaded)!r}, 'w') as f:\n"
        "    json.dump(sorted(sys.modules), f)\n"
        "sys.exit(rc)\n"
    )
    monkeypatch.delenv(CORE_ENV, raising=False)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.is_file()
    modules = set(json.loads(loaded.read_text()))
    # a host without a C compiler runs the reference core instead
    unused = UNUSED_BY_A_RUN - (
        {"repro.network.refcore"} if resolve_core() == "reference" else set()
    )
    assert not modules & unused
    ours = sorted(m for m in modules if m.split(".")[0] == "repro")
    assert len(ours) <= 45, ours


# ----------------------------------------------------------------------
# reading a results file, validating a fault axis
# ----------------------------------------------------------------------
@pytest.mark.parametrize("module, most, unused", [
    # ``report`` and ``metrics <file>`` read a results JSON
    ("repro.api.results", 9, {
        "repro.engine", "repro.core", "repro.topology", "repro.routing",
        "repro.traffic",
    }),
    # ``ExperimentSpec.create(faults=...)`` validates the axis
    ("repro.faults.spec", 4, {
        "repro.faults.inject", "repro.faults.degraded", "repro.layout",
        "repro.topology", "numpy",
    }),
])
def test_leaf_import_loads_only_its_closure(module, most, unused):
    script = (
        f"import json, sys, {module}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    loaded = [
        m for m in modules
        if any(m == u or m.startswith(u + ".") for u in unused)
    ]
    assert not loaded
    ours = [m for m in modules if m.split(".")[0] == "repro"]
    assert len(ours) <= most, ours
