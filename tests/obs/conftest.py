"""Shared telemetry fixtures: a clean sink list per test."""

import pytest

from repro.obs import trace


@pytest.fixture()
def capture_spans():
    """Collect every emitted span dict in a plain list, leaving the
    global sink list as the test found it."""
    spans = []
    trace.add_sink(spans.append)
    yield spans
    trace.remove_sink(spans.append)
