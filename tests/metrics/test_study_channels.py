"""Channels through the full stack: spec axis -> engine -> cache ->
StudyResult -> JSON/CSV -> CLI report."""

import json

import pytest

from repro.api import StudyResult, build_study, load_study
from repro.engine import ExperimentSpec, ResultCache
from repro.engine.spec import ENGINE_VERSION

METRICS = ["link_util", "latency_hist", "misroute"]


def probed_study():
    return build_study("smoke", "quick").with_metrics(METRICS)


@pytest.fixture(scope="module")
def study_result(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("cache"))
    result = probed_study().run(workers=1, cache=cache)
    return result, cache


class TestSpecAxis:
    def test_metrics_change_the_config_key(self):
        spec = probed_study().scenarios[0].specs[0]
        assert spec.metrics
        assert spec.config_key() != spec.with_metrics(None).config_key()

    def test_probe_options_change_the_config_key(self):
        spec = probed_study().scenarios[0].specs[0]
        a = spec.with_metrics([("latency_hist", {"bins": 8})])
        b = spec.with_metrics([("latency_hist", {"bins": 16})])
        assert a.config_key() != b.config_key()

    def test_engine_version_bumped_for_metrics_axis(self):
        assert ENGINE_VERSION >= 3

    def test_axis_round_trips_through_data(self):
        spec = probed_study().scenarios[0].specs[0].with_metrics(
            ["link_util", ("latency_hist", {"bins": 8})]
        )
        clone = ExperimentSpec.from_data(
            json.loads(json.dumps(spec.to_data()))
        )
        assert clone == spec
        assert clone.metrics == spec.metrics

    def test_probe_off_spec_serialises_without_metrics_key(self):
        spec = probed_study().scenarios[0].specs[0].with_metrics(None)
        assert "metrics" not in spec.to_data()

    def test_unknown_probe_kind_fails_at_spec_creation(self):
        with pytest.raises(ValueError, match="unknown probe kind"):
            probed_study().with_metrics(["link_utils"])


class TestThroughTheStack:
    def test_channels_on_every_point(self, study_result):
        result, _ = study_result
        assert result.channel_names() == METRICS
        for scn in result.scenarios:
            for curve in scn.curves:
                assert curve.channel_names() == METRICS
                for p in curve.points:
                    assert sorted(p.channels) == sorted(METRICS)

    def test_cache_replay_preserves_channels(self, study_result):
        result, cache = study_result
        replay_cache = ResultCache(cache.root)
        replay = probed_study().run(workers=1, cache=replay_cache)
        assert replay_cache.misses == 0
        assert replay_cache.hits > 0
        a, b = result.to_dict(), replay.to_dict()
        a.pop("meta"), b.pop("meta")
        assert a == b

    def test_probe_off_points_do_not_alias_probe_on_cache(self, study_result):
        result, cache = study_result
        off_cache = ResultCache(cache.root)
        off = build_study("smoke", "quick").run(workers=1, cache=off_cache)
        assert off_cache.hits == 0  # different config keys entirely
        assert off.channel_names() == []

    def test_json_round_trip_preserves_channels(self, study_result):
        result, _ = study_result
        clone = StudyResult.from_json(result.to_json())
        a, b = result.to_dict(), clone.to_dict()
        a.pop("meta"), b.pop("meta")
        assert a == b
        point = clone.scenarios[0].curves[0].points[0]
        assert point.channel("link_util").summary["total_flit_hops"] > 0

    def test_channel_csv_long_form(self, study_result):
        result, _ = study_result
        csv = result.channel_csv("link_util")
        lines = csv.splitlines()
        assert lines[0].startswith("scenario,curve,rate,link,")
        assert len(lines) > 2
        assert lines[1].startswith("mesh-vs-switch,")
        with pytest.raises(KeyError, match="no channel"):
            result.channel_csv("phlogiston")

    def test_render_channel(self, study_result):
        result, _ = study_result
        text = result.render_channel("misroute")
        assert "misroute" in text
        assert "rate 0.3" in text


class TestCli:
    def test_run_metrics_report_channel(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "res.json"
        rc = main([
            "run", "smoke", "--scale", "quick", "--workers", "1",
            "--metrics", "link_util,timeseries", "--out", str(out),
        ])
        assert rc == 0
        capsys.readouterr()

        assert main(["metrics", str(out)]) == 0
        listing = capsys.readouterr().out
        assert "link_util" in listing and "timeseries" in listing

        csv_file = tmp_path / "links.csv"
        rc = main([
            "report", str(out), "--channel", "link_util",
            "--csv", str(csv_file),
        ])
        assert rc == 0
        rendered = capsys.readouterr().out
        assert "channel link_util" in rendered
        header = csv_file.read_text().splitlines()[0]
        assert header.startswith("scenario,curve,rate,link,")

    def test_metrics_listing(self, capsys):
        from repro.cli import main

        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        for name in METRICS:
            assert name in out

    def test_report_unknown_channel(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "res.json"
        assert main([
            "run", "smoke", "--scale", "quick", "--workers", "1",
            "--metrics", "link_util", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(out), "--channel", "zap"]) == 2
        assert "no channel" in capsys.readouterr().err

    def test_run_negative_top_is_one_error_line(self, tmp_path, capsys):
        """Probe options reach the CLI through a study file's metrics
        axis; a negative ``top`` is one ``error:`` line and exit 2."""
        from repro.cli import main

        study = probed_study().with_metrics([("link_util", {"top": 5})])
        path = study.save(tmp_path / "study.json")
        text = path.read_text()
        assert '"top": 5' in text
        path.write_text(text.replace('"top": 5', '"top": -1'))
        assert main(["run", str(path), "--workers", "1"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "top must be an integer >= 0" in err[0]

    def test_run_unknown_metric_suggests(self, capsys):
        from repro.cli import main

        rc = main([
            "run", "smoke", "--scale", "quick", "--workers", "1",
            "--metrics", "link_utils",
        ])
        assert rc == 2
        assert "unknown probe kind" in capsys.readouterr().err
