"""CLI entry points."""

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SMOKE_FILE = str(REPO_ROOT / "scenarios" / "smoke.json")


def test_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table II" in out and "Table IV" in out


def test_table3(capsys):
    assert main(["table3"]) == 0
    assert "Switch-less Dragonfly" in capsys.readouterr().out


def test_layout(capsys):
    assert main(["layout"]) == 0
    out = capsys.readouterr().out
    assert "bisection_tbps" in out
    assert "True" in out


def test_verify(capsys):
    assert main(["verify", "--policy", "baseline", "--max-pairs", "300"]) == 0
    out = capsys.readouterr().out
    assert "deadlock-free" in out


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig10_local" in out and "smoke" in out
    assert "switchless" in out and "bit_reverse" in out
    assert "small_equiv" in out
    # studies are described and tagged for discovery
    assert "#figure" in out and "#resilience" in out
    assert "Throughput/latency degradation" in out


def test_list_tag_filter(capsys):
    assert main(["list", "--tag", "resilience"]) == 0
    out = capsys.readouterr().out
    assert "resilience_smoke" in out
    assert "fig10_local" not in out


def test_list_unknown_tag(capsys):
    assert main(["list", "--tag", "martian"]) == 1
    assert "no bundled study" in capsys.readouterr().out


def test_run_scenario_file(capsys, tmp_path):
    out_file = tmp_path / "res.json"
    rc = main([
        "run", SMOKE_FILE, "--workers", "1",
        "--cache-dir", str(tmp_path / "cache"), "--out", str(out_file),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "offered" in out and "2D-Mesh" in out
    data = json.loads(out_file.read_text())
    assert data["schema"] == "repro.study-result/v1"


def test_run_bundled_name(capsys, tmp_path):
    rc = main([
        "run", "smoke", "--scale", "quick", "--workers", "1",
        "--csv", str(tmp_path / "res.csv"),
    ])
    assert rc == 0
    assert "max accepted" in capsys.readouterr().out
    header = (tmp_path / "res.csv").read_text().splitlines()[0]
    assert header.startswith("scenario,curve,rate,")


def test_run_unknown_name(capsys):
    assert main(["run", "figuresque"]) == 2
    assert "bundled" in capsys.readouterr().err


def test_run_misspelled_name_suggests(capsys):
    assert main(["run", "fig10_locale"]) == 2
    err = capsys.readouterr().err
    assert "did you mean" in err
    assert "fig10_local" in err


def test_run_missing_file(capsys):
    assert main(["run", "no/such/scenario.json"]) == 2
    assert "cannot load" in capsys.readouterr().err


def test_run_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "martian/v7"}')
    assert main(["run", str(bad)]) == 2
    assert "martian/v7" in capsys.readouterr().err


def test_cli_run_matches_python_study(capsys, tmp_path):
    """Acceptance: CLI file run == Python Study.run, modulo meta."""
    from repro.api import load_study

    out_file = tmp_path / "cli.json"
    assert main(["run", SMOKE_FILE, "--workers", "1",
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    cli_data = json.loads(out_file.read_text())
    py_data = load_study(SMOKE_FILE).run(workers=1).to_dict()
    cli_data.pop("meta"), py_data.pop("meta")
    assert cli_data == py_data


def test_report_round_trip(capsys, tmp_path):
    out_file = tmp_path / "res.json"
    assert main(["run", SMOKE_FILE, "--workers", "1",
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    csv_file = tmp_path / "res.csv"
    assert main(["report", str(out_file), "--csv", str(csv_file)]) == 0
    out = capsys.readouterr().out
    assert "2D-Mesh" in out
    assert csv_file.read_text().count("\n") >= 3


def test_report_missing_file(capsys, tmp_path):
    assert main(["report", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("preset", [None, "radix8_equiv"])
def test_compare_smoke(capsys, preset):
    rc = main([
        "compare", "--arch", "switchless", "--scope", "local",
        "--points", "2", "--max-rate", "0.4",
        "--warmup", "100", "--measure", "250",
    ] + (["--preset", preset] if preset else []))
    assert rc == 0
    out = capsys.readouterr().out
    assert "offered" in out
    assert (preset or "small_equiv") in out


@pytest.mark.parametrize(
    "preset, hints",
    [
        ("small_equif", ("did you mean", "small_equiv")),
        ("bogus", ("available",)),
    ],
)
def test_compare_bad_preset(capsys, preset, hints):
    assert main([
        "compare", "--arch", "switchless", "--preset", preset,
        "--points", "1",
    ]) == 2
    err = capsys.readouterr().err
    for hint in hints:
        assert hint in err


def test_compare_rejects_unknown_arch(capsys):
    assert main(["compare", "--arch", "torus9d", "--points", "1"]) == 2
    assert "unknown architecture" in capsys.readouterr().err


def test_resilience_smoke(capsys, tmp_path):
    out_file = tmp_path / "res.json"
    rc = main([
        "resilience", "--smoke", "--workers", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--out", str(out_file), "--max-pairs", "100",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "deadlock-free" in out          # per-instance verification ran
    assert "resilience report" in out      # retention report rendered
    assert "retention" in out
    data = json.loads(out_file.read_text())
    assert data["schema"] == "repro.study-result/v1"
    assert [s["name"] for s in data["scenarios"]] == ["fail-0", "fail-0.08"]


def test_resilience_custom_axis(capsys, tmp_path):
    rc = main([
        "resilience", "--arch", "switchless",
        "--failure-rates", "0,0.05", "--points", "2", "--max-rate", "0.3",
        "--preset", "radix8_equiv", "--warmup", "80", "--measure", "200",
        "--workers", "1", "--no-verify",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fail-0.05" in out
    assert "deadlock-free" not in out  # verification skipped


def test_resilience_rejects_unknown_arch(capsys):
    assert main(["resilience", "--arch", "torus9d"]) == 2
    assert "unknown architecture" in capsys.readouterr().err


def test_resilience_rejects_yield_model_for_dragonfly(capsys):
    assert main([
        "resilience", "--model", "yield",
        "--arch", "switchless,dragonfly",
    ]) == 2
    assert "wafer" in capsys.readouterr().err


def test_resilience_forwards_routing_mode(capsys, tmp_path):
    out_file = tmp_path / "res.json"
    rc = main([
        "resilience", "--arch", "switchless", "--routing", "valiant",
        "--failure-rates", "0,0.05", "--points", "1", "--max-rate", "0.2",
        "--preset", "radix8_equiv", "--warmup", "80", "--measure", "200",
        "--workers", "1", "--max-pairs", "60", "--out", str(out_file),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "deadlock-free" in out
    data = json.loads(out_file.read_text())
    assert data["scenarios"][0]["curves"][0]["label"] == "SW-less"


def test_resilience_rejects_bad_rate_list(capsys):
    assert main(["resilience", "--failure-rates", "0,zap"]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
