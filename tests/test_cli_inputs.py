"""Hostile or out-of-range CLI inputs: one ``error:`` line and exit
code 2, never a traceback and never a silently substituted value."""

import json

import pytest

from repro.cli import main
from repro.network.stats import SimResult
from repro.service import ResultStore


@pytest.mark.parametrize(
    "verb, prefix",
    [("report", "cannot read"), ("metrics", "cannot read"),
     ("run", "cannot load")],
)
def test_non_object_file(capsys, tmp_path, verb, prefix):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}")
    assert "must be a JSON object, got [1, 2]" in err


@pytest.mark.parametrize(
    "scenarios, hint",
    [(5, "'scenarios' must be a JSON array, got 5"),
     ([1], "scenario result must be a JSON object, got 1")],
)
def test_malformed_results_file(capsys, tmp_path, scenarios, hint):
    path = tmp_path / "res.json"
    path.write_text(json.dumps({
        "schema": "repro.study-result/v1", "name": "x",
        "scenarios": scenarios,
    }))
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}") and hint in err


@pytest.mark.parametrize("points", ["0", "-2"])
def test_compare_needs_points(capsys, points):
    assert main(["compare", "--arch", "switchless", "--points", points]) == 2
    assert capsys.readouterr().err == (
        f"error: --points must be a positive integer, got {points}\n"
    )


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_run_needs_workers(capsys, workers):
    assert main(["run", "smoke", "--scale", "quick",
                 "--workers", workers]) == 2
    assert capsys.readouterr().err == (
        f"error: workers must be a positive integer, got {workers}\n"
    )


def test_workload_volume_is_not_clamped(capsys):
    rc = main([
        "run", "smoke", "--scale", "quick", "--workers", "1",
        "--workload", "ring_allreduce", "--workload-opts", "volume=-4",
    ])
    assert rc == 2
    assert "error: workload volume must be >= 1 flit, got -4" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv",
    [["verify", "--max-pairs", "0"], ["verify", "--max-pairs", "-3"],
     ["resilience", "--smoke", "--max-pairs", "0"]],
)
def test_deadlock_check_needs_pairs(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: max_pairs must be a positive integer, got {argv[-1]}\n"
    )


@pytest.mark.parametrize(
    "bound", [["--max-entries", "-5"], ["--max-entries", "0"],
              ["--max-bytes", "0"]],
)
def test_cache_prune_bound_is_not_a_wipe(capsys, tmp_path, bound):
    store = ResultStore(tmp_path)
    result = SimResult(
        offered_rate=0.5, effective_offered=0.5, accepted_rate=0.4,
        avg_latency=9.0, p50_latency=8.0, p99_latency=20.0,
        packets_measured=100, packets_delivered=90, flits_ejected=400,
        active_chips=16, measure_cycles=300, avg_hops=2.5,
    )
    for i in range(4):
        store.put(f"k{i}", result)
    argv = ["cache", "prune", "--cache-dir", str(tmp_path), *bound]
    assert main(argv) == 2
    name = bound[0][2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {name} must be >= 1\n"
    assert len(store) == 4


@pytest.mark.parametrize("rate", [-0.5, float("nan"), float("inf")])
def test_run_rejects_bad_rate(capsys, tmp_path, rate):
    from repro.api.library import build_study

    study = build_study("smoke", scale="quick").to_data()
    study["scenarios"][0]["specs"][0]["rates"] = [rate]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(study))
    store = tmp_path / "store"
    argv = ["run", str(path), "--workers", "1", "--cache-dir", str(store)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"rate must be a finite number >= 0, got {rate}" in err
    assert not store.exists() or not any(store.iterdir())


@pytest.mark.parametrize(
    "verb, hint",
    [("compare", "duplicate curve labels ['switchless']"),
     ("resilience", "architecture 'switchless' is given twice")],
)
def test_repeated_arch_token(capsys, verb, hint):
    argv = [verb, "--arch", "switchless,Switchless", "--points", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and hint in err
