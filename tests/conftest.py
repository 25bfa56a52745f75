"""Shared fixtures: small systems built once per session."""

from __future__ import annotations

import contextlib

import pytest

from repro.core import SwitchlessConfig, build_switchless
from repro.network import SimParams
from repro.obs import trace
from repro.topology.dragonfly import DragonflyConfig, build_dragonfly

@contextlib.contextmanager
def telemetry_restored():
    """On exit, put the process-wide span sinks back as they were on
    entry."""
    sinks = list(trace._sinks)
    try:
        yield
    finally:
        trace._sinks[:] = sinks


@pytest.fixture(autouse=True)
def _isolate_telemetry():
    """Restore the span sinks after each test: a test that simulates a
    crash by never shutting its service down must not leave its span
    writer (into a deleted tmp dir) behind for the next test file."""
    with telemetry_restored():
        yield


@pytest.fixture(scope="session")
def tiny_switchless():
    """3x3-mesh, 9-W-group system (324 nodes) — fast structural checks."""
    return build_switchless(SwitchlessConfig.radix8_equiv())


@pytest.fixture(scope="session")
def small_switchless():
    """4x4-mesh, 9-W-group system (576 nodes) — the CI-scale twin of the
    radix-16 experiment."""
    return build_switchless(SwitchlessConfig.small_equiv())


@pytest.fixture(scope="session")
def small_switchless_io():
    """IO-router-style counterpart of small_switchless."""
    return build_switchless(
        SwitchlessConfig.small_equiv(cgroup_style="io-router")
    )


@pytest.fixture(scope="session")
def radix8_dragonfly():
    """Switch-based Dragonfly, 9 groups / 72 chips."""
    return build_dragonfly(DragonflyConfig.radix8())


@pytest.fixture()
def fast_params():
    """Short simulation schedule for tests."""
    return SimParams(
        warmup_cycles=200, measure_cycles=800, drain_cycles=300, seed=7
    )
