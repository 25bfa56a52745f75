"""In-process service fixtures: real HTTP over an ephemeral port."""

import threading

import pytest

from repro.api import Scenario, Study
from repro.engine import ExperimentSpec
from repro.network import SimParams
from repro.service import ServiceClient, create_server


@pytest.fixture()
def service(tmp_path):
    """A live server on an ephemeral loopback port + matching client.

    Yields ``(client, server)``; the store lives in ``tmp_path`` so
    every test starts cold.
    """
    server = create_server(
        host="127.0.0.1", port=0, cache_dir=tmp_path, default_workers=1
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client, server
    finally:
        server.initiate_shutdown()
        server.server_close()
        thread.join(timeout=10)


def tiny_study(measure_cycles=300, rates=(0.4, 0.8), label="m", seed=3):
    """A one-scenario mesh study; crank ``measure_cycles`` to slow it
    down when a test needs a cancellation window."""
    spec = ExperimentSpec.create(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform",
        params=SimParams(
            warmup_cycles=100,
            measure_cycles=measure_cycles,
            drain_cycles=150,
            seed=seed,
        ),
        rates=list(rates), label=label,
    )
    return Study.wrap(
        Scenario(name="tiny", specs=(spec,), title="tiny service study")
    )


def slow_study(num_rates=16):
    """A cancellable study: ~0.3 s per point and — because the
    scheduler lands points one packed chunk (8 points) at a time —
    enough rates for two chunks, so there is a real window between the
    first points streaming out and the run finishing."""
    rates = [0.1 + 0.03 * i for i in range(num_rates)]
    spec = ExperimentSpec.create(
        topology="mesh", topology_opts={"dim": 16, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform",
        params=SimParams(
            warmup_cycles=200,
            measure_cycles=5000,
            drain_cycles=200,
            seed=3,
        ),
        rates=rates, label="slow",
    )
    return Study.wrap(
        Scenario(name="slow", specs=(spec,), title="slow service study")
    )
