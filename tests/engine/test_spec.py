"""ExperimentSpec: hashing, pickling, registries, realisation."""

import pickle
from dataclasses import replace

import pytest

from repro.engine import (
    ExperimentSpec,
    build_experiment,
    list_presets,
    list_routings,
    list_topologies,
    list_traffics,
    point_key,
    point_seed,
)
from repro.network import SimParams
from repro.routing import SwitchlessRouting, XYMeshRouting
from repro.traffic import RingAllReduceTraffic, UniformTraffic

PARAMS = SimParams(warmup_cycles=100, measure_cycles=200, drain_cycles=100)


def mesh_spec(**kw):
    base = dict(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform",
        params=PARAMS, rates=[0.2, 0.4], label="mesh",
    )
    base.update(kw)
    return ExperimentSpec.create(**base)


class TestRegistries:
    def test_builtin_kinds_registered(self):
        assert {"switchless", "dragonfly", "mesh", "switch"} <= set(
            list_topologies()
        )
        assert {"switchless", "dragonfly", "xy_mesh", "switch_star"} <= set(
            list_routings()
        )
        assert {
            "uniform", "bit_reverse", "bit_shuffle", "bit_transpose",
            "hotspot", "worst_case", "ring_allreduce",
        } <= set(list_traffics())

    def test_unknown_kind_rejected_at_create(self):
        with pytest.raises(ValueError, match="unknown topology"):
            mesh_spec(topology="torus9d")
        with pytest.raises(ValueError, match="unknown routing"):
            mesh_spec(routing="ouija")
        with pytest.raises(ValueError, match="unknown traffic"):
            mesh_spec(traffic="rush-hour")

    def test_unknown_kind_at_realisation_lists_registered(self):
        # a spec built around create() (e.g. unpickled from another
        # session) must still fail with the registered names, not a
        # bare KeyError
        rogue = ExperimentSpec(
            topology="torus9d", routing="xy_mesh", traffic="uniform"
        )
        with pytest.raises(ValueError, match="registered.*mesh"):
            build_experiment(rogue)

    def test_list_presets(self):
        assert "small_equiv" in list_presets("switchless")
        assert "radix16_equiv" in list_presets("switchless")
        assert "radix16" in list_presets("dragonfly")
        assert list_presets("mesh") == []


class TestSpecValue:
    def test_hashable_and_picklable(self):
        spec = mesh_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert {spec: "v"}[clone] == "v"
        assert clone.config_key() == spec.config_key()

    def test_option_order_does_not_matter(self):
        a = mesh_spec(topology_opts={"dim": 4, "chiplet_dim": 2})
        b = mesh_spec(topology_opts={"chiplet_dim": 2, "dim": 4})
        assert a == b

    def test_config_key_ignores_label_and_rates(self):
        spec = mesh_spec()
        assert (
            spec.with_label("other").with_rates([0.9]).config_key()
            == spec.config_key()
        )

    def test_config_key_tracks_simulation_inputs(self):
        spec = mesh_spec()
        assert (
            mesh_spec(topology_opts={"dim": 4}).config_key()
            != spec.config_key()
        )
        assert (
            mesh_spec(params=PARAMS.scaled(seed=7)).config_key()
            != spec.config_key()
        )

    def test_unserialisable_option_rejected(self):
        with pytest.raises(TypeError):
            mesh_spec(topology_opts={"dim": object()})

    def test_nested_dict_option_rejected(self):
        # a nested dict would not survive the freeze/thaw round-trip,
        # so create() refuses it outright
        with pytest.raises(TypeError, match="nested dict"):
            mesh_spec(topology_opts={"dim": 4, "extra": {"a": 1}})


class TestConfigKeyMemo:
    """The digest is hashed once per instance and kept off its fields."""

    def test_equals_a_fresh_equal_spec_before_and_after_the_first_call(self):
        spec = mesh_spec()
        assert spec.config_key() == mesh_spec().config_key()
        assert spec.config_key() == mesh_spec().config_key()

    def test_memo_leaves_equality_repr_and_pickle_alone(self):
        spec, fresh = mesh_spec(), mesh_spec()
        before = pickle.dumps(spec)
        spec.config_key()
        assert spec == fresh and hash(spec) == hash(fresh)
        assert repr(spec) == repr(fresh)
        assert pickle.dumps(spec) == before

    def test_survives_a_pickle_round_trip(self):
        spec = mesh_spec()
        key = spec.config_key()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.config_key() == key

    def test_replace_rehashes_what_changed(self):
        spec = mesh_spec()
        key = spec.config_key()
        assert replace(spec, rates=(0.9,)).config_key() == key
        moved = replace(spec, params=PARAMS.scaled(seed=7))
        assert moved.config_key() != key
        assert (
            moved.config_key()
            == mesh_spec(params=PARAMS.scaled(seed=7)).config_key()
        )


class TestDeclarativeForm:
    def test_to_data_round_trip(self):
        spec = mesh_spec(
            traffic="ring_allreduce",
            traffic_opts={"scope": "snake", "bidirectional": True},
        )
        clone = ExperimentSpec.from_data(spec.to_data())
        assert clone == spec
        assert clone.config_key() == spec.config_key()

    def test_from_data_survives_json_lists(self):
        import json

        spec = mesh_spec(traffic_opts={"scope": ("nodes", [0, 3])})
        data = json.loads(json.dumps(spec.to_data()))
        assert ExperimentSpec.from_data(data) == spec

    def test_from_data_ignores_unknown_params(self):
        data = mesh_spec().to_data()
        data["params"]["quantum_flux"] = 9
        assert ExperimentSpec.from_data(data) == mesh_spec()


class TestPointDerivation:
    def test_point_seed_deterministic_and_distinct(self):
        spec = mesh_spec()
        assert point_seed(spec, 0.2) == point_seed(spec, 0.2)
        assert point_seed(spec, 0.2) != point_seed(spec, 0.4)
        assert point_key(spec, 0.2) != point_key(spec, 0.4)

    def test_point_key_tracks_params(self):
        spec = mesh_spec()
        other = mesh_spec(params=PARAMS.scaled(seed=5))
        assert point_key(spec, 0.2) != point_key(other, 0.2)


class TestRealisation:
    def test_mesh_spec_builds_triple(self):
        graph, routing, traffic = build_experiment(mesh_spec())
        assert isinstance(routing, XYMeshRouting)
        assert isinstance(traffic, UniformTraffic)
        assert graph.num_nodes == 16

    def test_group_scope_resolution(self):
        spec = ExperimentSpec.create(
            topology="switchless", topology_opts={"preset": "radix8_equiv"},
            routing="switchless", routing_opts={"mode": "minimal"},
            traffic="uniform", traffic_opts={"scope": ("group", 0)},
            params=PARAMS, rates=[0.2],
        )
        graph, routing, traffic = build_experiment(spec)
        assert isinstance(routing, SwitchlessRouting)
        # one W-group of the radix8_equiv system: 4 C-groups x 9 nodes
        assert traffic.index.num_nodes == 36

    def test_snake_scope_resolution(self):
        spec = mesh_spec(
            traffic="ring_allreduce",
            traffic_opts={"scope": "snake", "bidirectional": True},
        )
        _, _, traffic = build_experiment(spec)
        assert isinstance(traffic, RingAllReduceTraffic)
        assert traffic.bidirectional

    def test_unknown_scope_rejected(self):
        spec = mesh_spec(traffic_opts={"scope": ("galaxy", 3)})
        with pytest.raises(ValueError, match="scope"):
            build_experiment(spec)

    def test_unknown_preset_rejected(self):
        spec = ExperimentSpec.create(
            topology="switchless", topology_opts={"preset": "radix_999"},
            routing="switchless", traffic="uniform",
            params=PARAMS, rates=[0.2],
        )
        with pytest.raises(ValueError, match="preset"):
            build_experiment(spec)
