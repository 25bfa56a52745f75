"""The bundled ``workload`` study's completion-time gates.

What ``benchmarks/bench_workload.py`` used to check from a CI step, over
the default-scale study: every point drains and delivers all unmasked
packets, pacing faster never slows a schedule down, the hierarchical
schedule beats the flat ring at equal volume, and the degraded wafer
masks packets and changes the ring's completion time.
"""

import pytest

from repro.api import build_study


@pytest.fixture(scope="module")
def study():
    # a point that does not drain raises out of run()
    return build_study("workload", scale="default").run(workers=1)


def curves(scenario):
    return {c.label: c.points for c in scenario.curves}


def cct(point):
    return point.result.channels["cct"].summary


def test_every_point_delivers_all_unmasked_packets(study):
    points = [
        p for scn in study.scenarios for c in scn.curves for p in c.points
    ]
    assert len(points) == 15
    for p in points:
        res, packets = p.result, cct(p)["total_flits"] / 4
        assert res.packets_delivered == res.packets_measured == packets > 0
        assert {"cct", "bubble", "overlap"} <= set(res.channels)


def test_makespan_never_rises_with_pacing_rate(study):
    for scn in study.scenarios:
        for label, points in curves(scn).items():
            assert [p.rate for p in points] == sorted(p.rate for p in points)
            spans = [cct(p)["makespan"] for p in points]
            assert spans == sorted(spans, reverse=True), label


def test_hierarchical_beats_ring_at_equal_volume(study):
    by_label = curves(study["schedules"])
    for ring, hier in zip(by_label["Ring"], by_label["Hierarchical"]):
        assert cct(hier)["makespan"] < cct(ring)["makespan"], ring.rate


def test_degraded_fabric_masks_and_moves_the_makespan(study):
    by_label = curves(study["degraded-fabric"])
    for healthy, degraded in zip(by_label["Healthy"], by_label["Degraded"]):
        assert cct(healthy)["masked_packets"] == 0
        assert cct(degraded)["masked_packets"] > 0
        assert cct(degraded)["makespan"] != cct(healthy)["makespan"]
