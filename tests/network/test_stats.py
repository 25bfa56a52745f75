"""SimResult aggregation and saturation heuristics."""

import math

import numpy as np
import pytest

from repro.network.stats import PointResult, SimResult, cutoff_walk, p50_p99


def make(offered=0.5, latencies=None, measured=100, delivered_flits=400,
         chips=10, cycles=100):
    latencies = latencies if latencies is not None else [10] * measured
    return SimResult.from_samples(
        offered_rate=offered,
        latencies=latencies,
        hops=[3] * len(latencies),
        packets_measured=measured,
        flits_ejected=delivered_flits,
        active_chips=chips,
        measure_cycles=cycles,
    )


def test_accepted_rate_normalisation():
    res = make(delivered_flits=400, chips=10, cycles=100)
    assert res.accepted_rate == 0.4


def test_latency_percentiles():
    res = make(latencies=list(range(1, 101)))
    assert res.avg_latency == 50.5
    assert res.p50_latency == 50.5
    assert res.p99_latency > 98


def _lengths():
    """Every length up to 64 (n = 1, 2, odd and even), each several
    times, then random lengths up to 5,000: 4,500 arrays in all."""
    rng = np.random.default_rng(2024)
    yield from (n for n in range(1, 65) for _ in range(24))
    yield from rng.integers(1, 5000, 4500 - 64 * 24).tolist()


def test_p50_p99_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(7)
    for n in _lengths():
        # small ranges repeat values, large ones rarely do
        high = int(rng.choice([2, 7, 100, 10_000, 1 << 40]))
        values = rng.integers(0, high, n)
        want = np.percentile(values.astype(np.float64), (50, 99))
        got = np.array(p50_p99(values))
        assert got.tobytes() == want.tobytes(), (n, values)


def test_p50_p99_of_small_populations():
    assert p50_p99([7]) == (7.0, 7.0)
    assert p50_p99([1, 2]) == (1.5, 1.99)
    assert p50_p99([9, 5, 5, 5])[0] == 5.0


def test_empty_latencies_give_nan():
    res = make(latencies=[], measured=0, delivered_flits=0)
    assert math.isnan(res.avg_latency)
    assert res.delivered_fraction == 1.0


def test_saturation_needs_samples():
    # tiny populations never flag saturation from throughput noise
    res = make(offered=1.0, measured=30, latencies=[5] * 10,
               delivered_flits=10, chips=2, cycles=100)
    assert not res.saturated


def test_saturation_on_undelivered():
    res = make(offered=0.5, measured=400, latencies=[9] * 100,
               delivered_flits=4000, chips=10, cycles=100)
    assert res.delivered_fraction == 0.25
    assert res.saturated


def test_saturation_on_low_accept():
    res = make(offered=1.0, measured=500, latencies=[9] * 500,
               delivered_flits=100, chips=10, cycles=100)
    assert res.accepted_rate == 0.1
    assert res.saturated


def test_zero_offered_never_saturated():
    assert not make(offered=0.0).saturated


def test_str_roundtrip():
    s = str(make())
    assert "rate=0.500" in s and "lat=" in s


def test_to_dict_schema_tagged():
    data = make().to_dict()
    assert data["schema"] == "repro.sim-result/v1"
    assert SimResult.from_dict(data) is not None


def test_from_dict_accepts_untagged_legacy_payload():
    data = make().to_dict()
    del data["schema"]  # pre-tagging cache entries
    assert SimResult.from_dict(data).offered_rate == 0.5


def test_from_dict_rejects_foreign_schema():
    data = make().to_dict()
    data["schema"] = "someone-else/v3"
    try:
        SimResult.from_dict(data)
    except ValueError as exc:
        assert "someone-else/v3" in str(exc)
    else:
        raise AssertionError("foreign schema accepted")


# -- the one saturation-cutoff rule ------------------------------------
def _sat(flag):
    # offered = accepted = 0.4; 10% of 1000 packets delivered when saturated
    res = make(
        offered=0.4, measured=1000, latencies=[10] * (100 if flag else 1000)
    )
    assert res.saturated == bool(flag)
    return res


@pytest.mark.parametrize(
    "flags, stop, expected",
    [
        ([0, 0, 0], 1, (True, 3)),          # never saturates: whole sweep
        ([0, 1, 0, 0], 1, (True, 2)),       # cut right after the first
        ([0, 1, 0, 1, 0], 2, (True, 4)),    # ... or after the second
        ([0, None, 1], 1, (False, 1)),      # a gap is the next thing to run
        ([1, None, None], 1, (True, 1)),    # nothing past the cutoff is needed
        ([], 1, (True, 0)),
    ],
)
def test_cutoff_walk(flags, stop, expected):
    results = {
        ri: _sat(flag) for ri, flag in enumerate(flags) if flag is not None
    }
    assert cutoff_walk(len(flags), results, stop) == expected


def test_point_names_its_channels_when_one_is_missing():
    point = PointResult(0.5, make())
    assert (point.offered, point.accepted) == (0.5, point.result.accepted_rate)
    with pytest.raises(KeyError, match=r"rate=0.5 has no channel 'link_util'"):
        point.channel("link_util")
