"""Load sweeps and saturation search."""

from repro.network import SimParams, find_saturation, sweep_rates
from repro.topology.graph import NetworkGraph
from repro.traffic import UniformTraffic


def tiny_net():
    g = NetworkGraph("pair")
    g.add_node("core", chip=0)
    g.add_node("core", chip=1)
    g.add_channel(0, 1, latency=1, klass="sr")

    class R:
        num_vcs = 1

        def route(self, src, dst, rng):
            return [(g.link_between(src, dst), 0)]

    return g, R(), UniformTraffic(g)


PARAMS = SimParams(
    warmup_cycles=200, measure_cycles=2500, drain_cycles=400, seed=1
)


def test_sweep_collects_results():
    g, r, t = tiny_net()
    sweep = sweep_rates(g, r, t, [0.1, 0.3, 0.5], PARAMS, label="pair")
    assert sweep.rates == [0.1, 0.3, 0.5]
    assert len(sweep.results) == 3
    assert sweep.label == "pair"


def test_sweep_stops_after_saturation():
    g, r, t = tiny_net()
    # a 2-node pair saturates near 1.0 flits/cycle/chip
    sweep = sweep_rates(
        g, r, t, [0.5, 2.0, 2.5, 3.0], PARAMS, stop_after_saturation=1
    )
    assert len(sweep.results) < 4
    assert sweep.saturation_rate <= 2.0


def test_zero_load_latency_and_table():
    g, r, t = tiny_net()
    sweep = sweep_rates(g, r, t, [0.1], PARAMS)
    assert sweep.zero_load_latency() > 0
    assert sweep.spec_key == ""  # object-level: no spec behind it
    table = sweep.format_table()
    assert "offered" in table
    assert len(table.splitlines()) == 3  # label, header, one point


def test_find_saturation_brackets_link_capacity():
    sat = find_saturation(
        tiny_net, params=PARAMS, lo=0.1, hi=3.0, tol=0.2, max_iter=8
    )
    # each chip's single duplex link supports ~1 flit/cycle/chip minus
    # protocol losses
    assert 0.5 < sat < 1.6


def test_curve_dict_round_trip():
    from repro.network import CurveResult

    g, r, t = tiny_net()
    sweep = sweep_rates(g, r, t, [0.1, 0.3], PARAMS, label="pair")
    clone = CurveResult.from_dict(sweep.to_dict())
    assert clone.label == sweep.label
    assert clone.rates == sweep.rates
    assert [res.to_dict() for res in clone.results] == [
        res.to_dict() for res in sweep.results
    ]


def test_sweep_is_a_fresh_simulator_per_rate_with_params_as_given():
    from repro.network import Simulator

    g, r, t = tiny_net()
    rates = [0.1, 0.3]
    sweep = sweep_rates(g, r, t, rates, PARAMS)
    assert [p.rate for p in sweep.points] == rates
    for p in sweep.points:
        alone = Simulator(g, r, t, PARAMS).run(p.rate)
        assert p.result.to_dict() == alone.to_dict()
