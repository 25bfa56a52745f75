"""Bundled scenario library: registry, scales, file sync."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    Study,
    build_study,
    list_library,
    load_study,
    panel,
    sim_params,
    switchless_arch,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SCENARIO_DIR = REPO_ROOT / "scenarios"

FIGURES = [
    "fig10_intra_cgroup",
    "fig10_local",
    "fig11_global",
    "fig12_scalability",
    "fig13_misrouting",
    "fig14_allreduce",
]

EXTRAS = [
    "smoke", "resilience", "resilience_smoke", "workload", "workload_smoke",
]


def test_library_contains_the_paper_figures():
    names = list_library()
    assert set(FIGURES) <= set(names)
    assert set(EXTRAS) <= set(names)


@pytest.mark.parametrize("name", list_library())
def test_every_study_builds_and_round_trips(name):
    for scale in ("quick", "default", "full"):
        study = build_study(name, scale)
        assert study.num_specs() > 0
        clone = Study.from_data(json.loads(json.dumps(study.to_data())))
        assert clone == study


def test_unknown_study_lists_alternatives():
    with pytest.raises(ValueError, match="fig10_local"):
        build_study("fig99")


def test_unknown_scale_rejected():
    with pytest.raises(ValueError, match="scale"):
        build_study("smoke", scale="enormous")


def test_figures_are_tagged_for_discovery():
    for name in FIGURES:
        assert build_study(name, "quick").has_tag("figure")
    assert build_study("resilience", "quick").has_tag("resilience")
    assert build_study("smoke", "quick").has_tag("smoke")


@pytest.mark.parametrize("name", list_library())
def test_bundled_files_match_library(name):
    """scenarios/*.json are the default-scale library, committed.

    Regenerate with: python -m repro.api scenarios
    """
    path = SCENARIO_DIR / f"{name}.json"
    assert path.exists(), f"missing {path}; regenerate the scenario files"
    assert load_study(path) == build_study(name, scale="default")


def test_module_entry_point_regenerates_the_files(tmp_path):
    """``python -m repro.api DIR`` rewrites scenarios/ byte for byte,
    and runs without a RuntimeWarning."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.api",
         str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in SCENARIO_DIR.glob("*.json")
    )
    for path in tmp_path.iterdir():
        assert path.read_bytes() == (SCENARIO_DIR / path.name).read_bytes()


def test_quick_scale_thins_the_campaign():
    quick = build_study("fig10_local", "quick")
    default = build_study("fig10_local", "default")
    assert len(quick.scenarios) < len(default.scenarios)
    assert sum(
        len(s.rates) for scn in quick.scenarios for s in scn.specs
    ) < sum(len(s.rates) for scn in default.scenarios for s in scn.specs)


def test_smoke_study_runs_fast():
    result = build_study("smoke", "quick").run(workers=1)
    scn = result["mesh-vs-switch"]
    assert set(scn.labels()) == {"Switch", "2D-Mesh"}
    for c in scn:
        assert c.max_accepted > 0


ARCH = switchless_arch(preset="small_equiv")


def test_panel_builds_one_curve_per_entry_under_shared_workload():
    valiant = switchless_arch("valiant", preset="small_equiv")
    scn = panel(
        "p", {"Min": ARCH, "Mis": valiant}, traffic="hotspot",
        traffic_opts={"num_hot": 4}, rates=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        params=sim_params("quick"), scale="quick", baseline="Min", note="n",
    )
    assert scn.labels() == ["Min", "Mis"] and scn.baseline == "Min"
    assert scn.note == "n"
    for spec in scn.specs:
        assert spec.traffic == "hotspot"
        assert dict(spec.traffic_opts) == {"num_hot": 4}
        assert spec.rates == (0.1, 0.3, 0.5)  # thinned at the quick scale


def test_panel_fragment_keys_override_shared_ones():
    faults = {"model": "random", "link_rate": 0.05, "seed": 7}
    scn = panel(
        "p",
        {
            "Shared": ARCH,
            "Own": {**ARCH, "traffic_opts": {"scope": ("group", 1)},
                    "faults": faults, "metrics": ["misroute"]},
        },
        traffic="uniform", traffic_opts={"scope": ("group", 0)},
        rates=[0.1], params=sim_params("quick"),
    )
    shared, own = scn.specs
    assert dict(shared.traffic_opts) == {"scope": ("group", 0)}
    assert not shared.faults and not shared.metrics
    assert dict(own.traffic_opts) == {"scope": ("group", 1)}
    assert dict(own.faults) == faults
    assert [name for name, _ in own.metrics] == ["misroute"]


def test_panel_rejects_repeated_labels():
    with pytest.raises(ValueError, match=r"duplicate curve labels \['A'\]"):
        panel(
            "p", [("A", ARCH), ("B", ARCH), ("A", ARCH)], traffic="uniform",
            rates=[0.1], params=sim_params("quick"),
        )
