"""Scenario/Study: validation, JSON round-trip, execution."""

import json

import pytest

from repro.api import Scenario, Study, load_study
from repro.engine import ExperimentSpec
from repro.network import SimParams

PARAMS = SimParams(warmup_cycles=100, measure_cycles=200, drain_cycles=100)


def mesh_spec(label="mesh", **kw):
    base = dict(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform",
        params=PARAMS, rates=[0.2, 0.4], label=label,
    )
    base.update(kw)
    return ExperimentSpec.create(**base)


def tiny_scenario(name="tiny", **kw):
    meta = dict(
        title="Tiny", note="for tests", baseline="mesh",
    )
    meta.update(kw)
    return Scenario(
        name=name, specs=(mesh_spec(), mesh_spec(label="mesh-b")), **meta
    )


class TestValidation:
    def test_needs_specs(self):
        with pytest.raises(ValueError, match="no specs"):
            Scenario(name="empty", specs=())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate curve labels"):
            Scenario(name="dup", specs=(mesh_spec(), mesh_spec()))

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            tiny_scenario(baseline="not-a-curve")

    def test_study_duplicate_scenarios_rejected(self):
        with pytest.raises(ValueError, match="duplicate scenario names"):
            Study(name="s", scenarios=(tiny_scenario(), tiny_scenario()))

    def test_stop_after_saturation_positive(self):
        with pytest.raises(ValueError, match="stop_after_saturation"):
            tiny_scenario(stop_after_saturation=0)


class TestRoundTrip:
    def test_scenario_json_round_trip(self, tmp_path):
        scn = tiny_scenario()
        path = scn.save(tmp_path / "scn.json")
        assert Scenario.load(path) == scn

    def test_study_json_round_trip(self, tmp_path):
        study = Study(
            name="study", scenarios=(tiny_scenario(),),
            title="T", description="D",
        )
        path = study.save(tmp_path / "study.json")
        assert Study.load(path) == study

    def test_round_trip_preserves_tuple_options(self, tmp_path):
        # JSON turns the ("group", 0) scope tuple into a list; reloading
        # must freeze it back to the identical spec
        scn = Scenario(
            name="scoped",
            specs=(mesh_spec(traffic_opts={"scope": ("nodes", [0, 1])}),),
        )
        assert Scenario.load(scn.save(tmp_path / "s.json")) == scn

    def test_load_study_accepts_bare_scenario_file(self, tmp_path):
        scn = tiny_scenario()
        path = scn.save(tmp_path / "scn.json")
        study = load_study(path)
        assert isinstance(study, Study)
        assert study.scenarios == (scn,)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9", "name": "x"}))
        with pytest.raises(ValueError, match="other/v9"):
            load_study(path)

    def test_run_then_save_reload_equality(self, tmp_path):
        # load -> run -> save -> reload: the definition is untouched by
        # execution and the reloaded study still runs to the same result
        scn = tiny_scenario()
        path = scn.save(tmp_path / "scn.json")
        study = load_study(path)
        result = study.run(workers=1)
        path2 = study.save(tmp_path / "again.json")
        assert load_study(path2) == study
        again = load_study(path2).run(workers=1)
        assert again.scenarios == result.scenarios


class TestExecution:
    def test_scenario_run_returns_scenario_result(self):
        res = tiny_scenario().run(workers=1)
        assert res.name == "tiny"
        assert res.labels() == ["mesh", "mesh-b"]
        assert res["mesh"].max_accepted > 0

    def test_study_run_groups_and_orders_scenarios(self):
        study = Study(
            name="s2",
            scenarios=(
                tiny_scenario("a"),
                tiny_scenario("b", stop_after_saturation=2),
            ),
        )
        result = study.run(workers=1)
        assert result.names() == ["a", "b"]
        assert result["b"]["mesh"].points  # ran despite different cutoff

    def test_cache_round_trip(self, tmp_path):
        study = Study.wrap(tiny_scenario())
        first = study.run(workers=1, cache=tmp_path / "cache")
        replay = study.run(workers=1, cache=tmp_path / "cache")
        assert replay.scenarios == first.scenarios
        # 2 rates: "mesh-b" holds the same spec, so its points share
        # the keys "mesh" read and are not read again
        assert replay.meta["cache"]["hits"] == 2
