"""The workload axis on ExperimentSpec: validation, hashing, round trip."""

import pytest

from repro.engine import ExperimentSpec
from repro.network import SimParams
from repro.workload import build_workload, workload_dumps


def base_spec(**kw):
    return ExperimentSpec.create(
        topology="mesh", topology_opts={"dim": 4, "chiplet_dim": 2},
        routing="xy_mesh", traffic="uniform",
        params=SimParams(seed=11), rates=[0.5], **kw,
    )


class TestValidation:
    def test_unknown_workload_suggests(self):
        with pytest.raises(ValueError) as err:
            base_spec(workload="ring_alreduce")
        assert "did you mean 'ring_allreduce'" in str(err.value)

    def test_opts_without_name_rejected(self):
        with pytest.raises(ValueError, match="no effect"):
            base_spec(workload_opts={"volume": 64})

    def test_trace_needs_document(self):
        with pytest.raises(ValueError, match="trace"):
            base_spec(workload="trace")

    def test_trace_document_parsed_eagerly(self):
        with pytest.raises(ValueError, match="JSON"):
            base_spec(workload="trace", workload_opts={"trace": "{bad"})

    def test_valid_trace_accepted(self):
        text = workload_dumps(
            build_workload("ring_allreduce", None, num_chips=4)
        )
        spec = base_spec(workload="trace", workload_opts={"trace": text})
        assert spec.workload == "trace"

    def test_with_workload_validates_and_clears(self):
        spec = base_spec().with_workload(
            "ring_allreduce", {"volume": 64}
        )
        assert spec.workload == "ring_allreduce"
        cleared = spec.with_workload("")
        assert cleared.workload == "" and cleared.workload_opts == ()
        with pytest.raises(ValueError):
            spec.with_workload("nope")


class TestHashing:
    def test_workload_changes_config_key(self):
        open_loop = base_spec()
        ring = base_spec(workload="ring_allreduce")
        tree = base_spec(workload="tree_allreduce")
        sized = base_spec(
            workload="ring_allreduce", workload_opts={"volume": 128}
        )
        keys = {s.config_key() for s in (open_loop, ring, tree, sized)}
        assert len(keys) == 4

    def test_open_loop_key_has_no_workload_field(self):
        # the empty axis is omitted from the hashed payload, so v4's
        # open-loop payload *content* matches v3 (only the version
        # bump invalidates old cache entries, by design)
        spec = base_spec()
        data = spec.to_data()
        assert "workload" not in data and "workload_opts" not in data

    def test_plan_revision_moves_closed_loop_keys_only(self, monkeypatch):
        # how a plan's routes are drawn is hashed beside the workload:
        # open-loop keys (and the point seeds derived from them) do not
        # depend on it.  A spec keeps its digest once computed, so the
        # keys after the bump come from specs built after it.
        from repro.engine import spec as spec_mod

        def keys():
            return (
                base_spec().config_key(),
                base_spec(workload="ring_allreduce").config_key(),
            )

        before = keys()
        monkeypatch.setattr(
            spec_mod, "PLAN_REVISION", spec_mod.PLAN_REVISION + 1
        )
        after = keys()
        assert after[0] == before[0]
        assert after[1] != before[1]

    def test_describe_tags_closed_loop(self):
        assert "+wl[ring_allreduce]" in base_spec(
            workload="ring_allreduce"
        ).describe()
        assert "+wl[" not in base_spec().describe()


class TestRoundTrip:
    def test_to_from_data(self):
        spec = base_spec(
            workload="pipeline",
            workload_opts={"volume": 16, "microbatches": 2},
            metrics=("cct",),
        )
        again = ExperimentSpec.from_data(spec.to_data())
        assert again == spec
        assert again.config_key() == spec.config_key()

    def test_open_loop_round_trip_unchanged(self):
        spec = base_spec()
        again = ExperimentSpec.from_data(spec.to_data())
        assert again == spec
