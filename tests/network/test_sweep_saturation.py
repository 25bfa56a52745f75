"""find_saturation bisection and CurveResult properties on a tiny mesh."""

import math

import pytest

from repro.network import (
    CurveResult,
    PointResult,
    SimParams,
    SimResult,
    find_saturation,
    sweep_rates,
)
from repro.routing import XYMeshRouting
from repro.topology.mesh import MeshSpec, build_mesh
from repro.traffic import UniformTraffic

PARAMS = SimParams(
    warmup_cycles=300, measure_cycles=2500, drain_cycles=400, seed=9
)


def tiny_mesh():
    """2x2 mesh of single-node chips: saturates near 1.1 flits/cyc/chip."""
    block = build_mesh(MeshSpec(dim=2))
    return block.graph, XYMeshRouting(block), UniformTraffic(block.graph)


def fake_result(rate: float, saturated: bool) -> SimResult:
    """Handcrafted SimResult with a forced saturation verdict.

    Non-saturated points accept their full offered load with every
    packet delivered; saturated points accept 45% of it with most
    packets stuck — keeping both sides of the heuristic consistent.
    """
    return SimResult(
        offered_rate=rate,
        effective_offered=rate,
        accepted_rate=0.45 * rate if saturated else rate,
        avg_latency=20.0,
        p50_latency=20.0,
        p99_latency=40.0,
        packets_measured=1000,
        packets_delivered=100 if saturated else 1000,
        flits_ejected=4000,
        active_chips=4,
        measure_cycles=1000,
    )


class TestCurveProperties:
    def sweep(self, flags):
        rates = [0.2 * (i + 1) for i in range(len(flags))]
        return CurveResult(
            label="synthetic",
            points=tuple(
                PointResult(r, fake_result(r, s))
                for r, s in zip(rates, flags)
            ),
        )

    def test_saturation_rate_is_first_saturated(self):
        sweep = self.sweep([False, False, True, True])
        assert sweep.saturation_rate == pytest.approx(0.6)

    def test_saturation_rate_inf_when_never_saturated(self):
        sweep = self.sweep([False, False, False])
        assert math.isinf(sweep.saturation_rate)

    def test_max_accepted_scans_all_points(self):
        # rates 0.2/0.4/0.6; the saturated tail accepts 0.45x its rate,
        # so the overall max (0.27) comes from the last point
        sweep = self.sweep([False, True, True])
        assert sweep.max_accepted == pytest.approx(0.27)

    def test_empty_sweep(self):
        sweep = CurveResult(label="empty", points=())
        assert sweep.max_accepted == 0.0
        assert math.isinf(sweep.saturation_rate)
        assert math.isnan(sweep.zero_load_latency())

    def test_zero_load_latency_skips_saturated_lowest_point(self):
        """A sweep whose first offered load already saturated must not
        report that point's latency as 'zero load'."""
        sweep = self.sweep([True, False, False])
        assert sweep.zero_load_latency() == pytest.approx(
            sweep.results[1].avg_latency
        )

    def test_zero_load_latency_nan_when_all_points_saturated(self):
        sweep = self.sweep([True, True])
        assert math.isnan(sweep.zero_load_latency())


class TestStopAfterSaturation:
    RATES = [0.3, 0.8, 1.5, 2.5, 3.5]

    def test_cutoff_after_first_saturated_point(self):
        g, r, t = tiny_mesh()
        sweep = sweep_rates(
            g, r, t, self.RATES, PARAMS, stop_after_saturation=1
        )
        assert sweep.rates == self.RATES[: len(sweep.rates)]
        assert len(sweep.rates) < len(self.RATES)
        assert sweep.results[-1].saturated
        assert not any(res.saturated for res in sweep.results[:-1])

    def test_higher_cutoff_extends_the_sweep(self):
        g, r, t = tiny_mesh()
        one = sweep_rates(
            g, r, t, self.RATES, PARAMS, stop_after_saturation=1
        )
        g, r, t = tiny_mesh()
        two = sweep_rates(
            g, r, t, self.RATES, PARAMS, stop_after_saturation=2
        )
        assert len(two.rates) == len(one.rates) + 1
        assert sum(res.saturated for res in two.results) == 2
        # the shared prefix is identical (same params, same seeds)
        assert two.results[: len(one.results)] == one.results


class TestFindSaturation:
    def test_bisection_brackets_mesh_capacity(self):
        sat = find_saturation(
            tiny_mesh, params=PARAMS, lo=0.2, hi=3.5, tol=0.3, max_iter=8
        )
        # the 2x2 mesh under uniform traffic saturates near 1.1
        assert 0.6 < sat < 1.6

    def test_saturated_floor_returns_zero(self):
        assert (
            find_saturation(tiny_mesh, params=PARAMS, lo=2.5, hi=3.5)
            == 0.0
        )

    def test_unsaturated_ceiling_returns_hi(self):
        assert (
            find_saturation(tiny_mesh, params=PARAMS, lo=0.2, hi=0.8)
            == 0.8
        )

    def test_tolerance_is_respected(self):
        coarse = find_saturation(
            tiny_mesh, params=PARAMS, lo=0.2, hi=3.5, tol=1.5, max_iter=12
        )
        fine = find_saturation(
            tiny_mesh, params=PARAMS, lo=0.2, hi=3.5, tol=0.2, max_iter=12
        )
        # both are "highest non-saturated probe"; the fine search can
        # only move the answer up within the coarse bracket
        assert fine >= coarse - 1e-9
