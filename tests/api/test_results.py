"""StudyResult hierarchy: summaries, JSON round-trip, CSV golden."""

import pytest

from repro.api import (
    STUDY_RESULT_SCHEMA,
    CurveResult,
    PointResult,
    ScenarioResult,
    StudyResult,
)
from repro.network import SimResult


def point(rate, accepted, latency, delivered=100, measured=100):
    return PointResult(
        rate=rate,
        result=SimResult(
            offered_rate=rate,
            effective_offered=rate,
            accepted_rate=accepted,
            avg_latency=latency,
            p50_latency=latency,
            p99_latency=2 * latency,
            packets_measured=measured,
            packets_delivered=delivered,
            flits_ejected=400,
            active_chips=4,
            measure_cycles=100,
            avg_hops=2.5,
        ),
    )


def curve(label, saturate_last=False):
    points = [point(0.2, 0.2, 10.0), point(0.4, 0.4, 12.0)]
    if saturate_last:
        points.append(point(0.8, 0.4, 90.0, delivered=10, measured=200))
    return CurveResult(label=label, points=tuple(points), spec_key="k-" + label)


def study_result():
    scn = ScenarioResult(
        name="panel",
        title="Panel title",
        note="paper note",
        baseline="base",
        curves=(curve("base"), curve("fast", saturate_last=True)),
    )
    return StudyResult(
        name="study", title="Study title", scenarios=(scn,),
        meta={"elapsed_s": 1.0},
    )


class TestSummaries:
    def test_curve_saturation_summary(self):
        c = curve("c", saturate_last=True)
        assert c.saturation_rate == 0.8
        assert c.max_accepted == 0.4
        assert c.zero_load_latency() == 10.0

    def test_unsaturated_curve_is_inf(self):
        assert curve("c").saturation_rate == float("inf")

    def test_zero_load_latency_skips_saturated_first_point(self):
        import math

        sat = point(0.2, 0.05, 500.0, delivered=10, measured=200)
        ok = point(0.4, 0.4, 12.0)
        c = CurveResult(label="c", points=(sat, ok))
        assert c.zero_load_latency() == 12.0
        all_sat = CurveResult(label="c", points=(sat,))
        assert math.isnan(all_sat.zero_load_latency())
        # the summary carries the NaN (serialised as null/empty cell)
        assert math.isnan(all_sat.summary()["zero_load_latency"])

    def test_scenario_summary_vs_baseline(self):
        rows = study_result()["panel"].summary()
        by_label = {r["label"]: r for r in rows}
        assert by_label["fast"]["vs_baseline"] == pytest.approx(1.0)

    def test_curve_lookup_error_names_alternatives(self):
        with pytest.raises(KeyError, match="base"):
            study_result()["panel"].curve("nope")
        with pytest.raises(KeyError, match="panel"):
            study_result().scenario("nope")


class TestSerialisation:
    def test_json_round_trip(self):
        res = study_result()
        clone = StudyResult.from_json(res.to_json())
        assert clone == res
        assert clone.meta == res.meta

    def test_schema_tagged_and_checked(self):
        data = study_result().to_dict()
        assert data["schema"] == STUDY_RESULT_SCHEMA
        data["schema"] = "bogus/v0"
        with pytest.raises(ValueError, match="bogus/v0"):
            StudyResult.from_dict(data)

    def test_save_load(self, tmp_path):
        res = study_result()
        path = res.save(tmp_path / "res.json")
        assert StudyResult.load(path) == res

    def test_meta_excluded_from_equality(self):
        a, b = study_result(), study_result()
        object.__setattr__(b, "meta", {"elapsed_s": 999.0})
        assert a == b

    def test_render_mentions_titles_and_curves(self):
        text = study_result().render()
        assert "Study title" in text
        assert "Panel title" in text
        assert "# base" in text and "# fast" in text
        assert "paper note" in text


GOLDEN_CSV = """\
scenario,curve,rate,offered,effective_offered,accepted,avg_latency,p50_latency,p99_latency,avg_hops,saturated
panel,base,0.2,0.2,0.2,0.2,10,10,20,2.5,0
panel,base,0.4,0.4,0.4,0.4,12,12,24,2.5,0
panel,fast,0.2,0.2,0.2,0.2,10,10,20,2.5,0
panel,fast,0.4,0.4,0.4,0.4,12,12,24,2.5,0
panel,fast,0.8,0.8,0.8,0.4,90,90,180,2.5,1
"""


def test_to_csv_golden():
    assert study_result().to_csv() == GOLDEN_CSV


def test_csv_nan_cells_empty():
    p = point(0.2, 0.0, float("nan"), delivered=0)
    res = StudyResult(
        name="s",
        scenarios=(
            ScenarioResult(
                name="n", curves=(CurveResult(label="c", points=(p,)),)
            ),
        ),
    )
    row = res.to_csv().splitlines()[1].split(",")
    assert row[6] == ""  # avg_latency cell


class TestOneCurveType:
    def test_api_reexports_the_engine_curve_type(self):
        import repro.network

        assert CurveResult is repro.network.CurveResult
        assert PointResult is repro.network.PointResult

    @pytest.mark.parametrize(
        "metrics, digest",
        [
            (
                (),
                "db25f1a359c42aca48628e6cc0450fb2"
                "f816f6e71a5e4ae160bbbdd0a954c5ce",
            ),
            (
                ("link_util", "misroute"),
                "8195d3dae324090be092d5f27ba0d3b8"
                "4bd28160402e12ee92500d3d68405667",
            ),
        ],
    )
    def test_study_payload_bytes_are_pinned(self, metrics, digest):
        """``Study.run(...).to_dict()`` minus ``meta`` for the smoke
        study, probe-off and probed, serialises to the bytes it did
        when the engine returned sweeps that ``Study.run`` converted
        (digests taken at that commit): saved
        ``repro.study-result/v1`` files and cache entries keep
        reading."""
        import hashlib
        import json

        from repro.api import build_study

        study = build_study("smoke", scale="quick")
        if metrics:
            study = study.with_metrics(list(metrics))
        payload = study.run(workers=1).to_dict()
        del payload["meta"]
        text = json.dumps(payload)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert StudyResult.from_dict(
            {**payload, "meta": {}}
        ).to_dict()["scenarios"] == payload["scenarios"]
