"""Channel-consuming summary helpers (repro.metrics.summary)."""

import math

import pytest

from repro.metrics import (
    channel_columns,
    congestion_evolution,
    hot_links,
    link_load_summary,
    misroute_rows,
    misroute_table,
)
from repro.api import build_study

METRICS = ["link_util", "misroute", "timeseries"]


@pytest.fixture(scope="module")
def result():
    return build_study("smoke", "quick").with_metrics(METRICS).run(workers=1)


def first_point(result):
    return result.scenarios[0].curves[0].points[0]


def test_channel_columns_is_column_major(result):
    ch = first_point(result).channel("link_util")
    frame = channel_columns(ch)
    assert set(frame) == set(ch.columns)
    assert len(frame["link"]) == ch.num_rows


def test_hot_links_sorted_by_flits(result):
    ch = first_point(result).channel("link_util")
    top = hot_links(ch, 3)
    flits = [row[3] for row in top]
    assert flits == sorted(flits, reverse=True)
    assert len(top) <= 3


def test_link_load_summary_imbalance(result):
    s = link_load_summary(first_point(result))
    assert s["imbalance"] >= 1.0 or math.isnan(s["imbalance"])
    assert s["max_flits_per_cycle"] >= s["mean_flits_per_cycle"]


def test_misroute_rows_per_point(result):
    curve = result.scenarios[0].curves[0]
    rows = misroute_rows(curve)
    assert [r[0] for r in rows] == [p.rate for p in curve.points]
    for _, ratio, excess in rows:
        assert 0.0 <= ratio <= 1.0
        assert excess >= 0.0


def test_misroute_table_renders_all_curves(result):
    text = misroute_table(result)
    for scn in result.scenarios:
        for curve in scn.curves:
            assert curve.label in text
    # works on a bare ScenarioResult too
    assert result.scenarios[0].name in misroute_table(result.scenarios[0])


def test_congestion_evolution_columns(result):
    frame = congestion_evolution(first_point(result))
    assert set(frame) == {
        "t_start", "t_end", "injected", "completed", "backlog",
        "avg_latency",
    }
    assert all(b >= 0 for b in frame["backlog"])


def test_missing_channel_raises_with_names(result):
    with pytest.raises(KeyError, match="no channel"):
        first_point(result).channel("latency_hist2")
