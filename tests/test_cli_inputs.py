"""Hostile or out-of-range CLI inputs: one ``error:`` line and exit
code 2, never a traceback and never a silently substituted value."""

import json

import pytest

from repro.cli import main


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
