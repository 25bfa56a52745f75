"""Environment knobs fail with one sentence naming the variable."""

import pytest

from repro import cli
from repro.engine import ExperimentSpec, run_experiments
from repro.engine import executor as ex
from repro.network import SimParams, Simulator, resolve_core

SPEC = ExperimentSpec.create(
    topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
    routing="xy_mesh", traffic="uniform",
    params=SimParams(warmup_cycles=50, measure_cycles=100, drain_cycles=50),
    rates=[0.1], label="m",
)

#: each integer knob with a function that reads it
READERS = {
    "REPRO_WORKERS": lambda: ex._resolve_workers(None, 100),
}


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("value", ["abc", "1.5", "-2"])
def test_malformed_integer_knob_names_the_variable(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=f"^{name} must be a .*integer"):
        READERS[name]()


def test_zero_workers_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ValueError, match="^REPRO_WORKERS must be a positive"):
        READERS["REPRO_WORKERS"]()


@pytest.mark.parametrize("value", ["abc", "1.5", "-2", "0"])
def test_engine_reads_workers_up_front(monkeypatch, value):
    """A malformed ``REPRO_WORKERS`` fails the run before any chunk is
    simulated."""
    chunks = []
    monkeypatch.setattr(ex, "_run_chunk", lambda *a, **kw: chunks.append(a))
    monkeypatch.setenv("REPRO_WORKERS", value)
    with pytest.raises(ValueError, match="^REPRO_WORKERS must be"):
        run_experiments([SPEC])
    assert chunks == []


@pytest.mark.parametrize("value", ["two", "0"])
def test_sim_threads_is_read_by_nothing(monkeypatch, value):
    """The kernel has no threads: a ``REPRO_SIM_THREADS`` left in the
    environment, even a malformed one, changes no run."""
    monkeypatch.delenv("REPRO_SIM_THREADS", raising=False)
    [want] = run_experiments([SPEC], workers=1)
    monkeypatch.setenv("REPRO_SIM_THREADS", value)
    [got] = run_experiments([SPEC], workers=1)
    assert got.results == want.results


def test_env_int_unset_or_empty_is_the_default(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert ex.env_int("REPRO_WORKERS", 7) == 7
    monkeypatch.setenv("REPRO_WORKERS", "")
    assert ex.env_int("REPRO_WORKERS", 7) == 7
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert ex.env_int("REPRO_WORKERS", 7) == 3


def test_unknown_core_lists_the_valid_ones(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CORE", "bogus")
    with pytest.raises(
        ValueError,
        match=r"REPRO_SIM_CORE 'bogus'.*\['native', 'reference'\]$",
    ):
        resolve_core()
    with pytest.raises(ValueError, match="REPRO_SIM_CORE 'bogus'"):
        run_experiments([SPEC], workers=1)
    # an explicit name is judged on its own
    assert resolve_core("ref") == "reference"
    with pytest.raises(ValueError, match="simulation core 'fast'"):
        Simulator(None, None, None, SPEC.params, core="fast")


def test_array_is_another_name_for_the_reference_core(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
    assert resolve_core("array") == "reference"
    monkeypatch.setenv("REPRO_SIM_CORE", "array")
    assert resolve_core() == "reference"
    monkeypatch.delenv("REPRO_SIM_CORE")

    from repro.engine import build_experiment

    graph, routing, traffic = build_experiment(SPEC)
    results = {}
    for core in ("array", "reference"):
        sim = Simulator(graph, routing, traffic, SPEC.params, core=core)
        assert sim.core_name == "reference"
        results[core] = sim.run(SPEC.rates[0]).to_dict()
    assert results["array"] == results["reference"]
    assert results["array"]["packets_delivered"] > 0


def test_native_core_without_a_compiler_is_one_sentence(
    monkeypatch, capsys
):
    from repro.network import simulator

    monkeypatch.setattr(simulator, "native_available", lambda: False)
    monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
    assert resolve_core() == "reference"  # unset: falls back quietly
    with pytest.raises(
        ValueError,
        match="^simulation core 'native' needs a C compiler.*'reference'",
    ):
        resolve_core("native")
    monkeypatch.setenv("REPRO_SIM_CORE", "native")
    with pytest.raises(
        ValueError, match="^REPRO_SIM_CORE 'native' needs.*'reference'"
    ) as raised:
        resolve_core()
    assert "array" not in str(raised.value)
    test_cli_prints_one_line_and_exits_2(
        monkeypatch, capsys, "REPRO_SIM_CORE", "native"
    )


def test_native_core_hint_names_the_fallback_rule(monkeypatch):
    """Built directly on a host with no compiler, ``NativeCore`` says
    what ``resolve_core`` would have done, not a core name to type."""
    from repro.engine import build_experiment
    from repro.network import NativeCore, native

    monkeypatch.setattr(native, "load_native", lambda: None)
    graph, routing, traffic = build_experiment(SPEC)
    with pytest.raises(
        RuntimeError,
        match="REPRO_SIM_CORE unset and resolve_core.. falls back to the "
        "reference core$",
    ):
        NativeCore(graph, routing, traffic, SPEC.params)


@pytest.mark.parametrize(
    "name, value",
    [
        ("REPRO_WORKERS", "abc"),
        ("REPRO_WORKERS", "0"),
        ("REPRO_SIM_CORE", "bogus"),
    ],
)
def test_cli_prints_one_line_and_exits_2(monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    assert cli.main(["run", "smoke", "--scale", "quick"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert len(err.strip().splitlines()) == 1
