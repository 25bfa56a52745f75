"""Equation (7) diameter decomposition and Table II hop costs."""

import pytest

from repro.analysis import TABLE_II, DiameterModel, switchless_diameter
from repro.core import SwitchlessConfig


class TestEquationSeven:
    def test_case_study_30_sr_hops(self):
        """The Table III row: Hg + 2Hl + 30Hsr for m=4."""
        d = switchless_diameter(SwitchlessConfig.case_study())
        assert d.global_hops == 1
        assert d.local_hops == 2
        assert d.sr_hops == 8 * 4 - 2 == 30

    def test_radix16_equiv(self):
        d = switchless_diameter(SwitchlessConfig.radix16_equiv())
        assert d.sr_hops == 8 * 2 - 2

    def test_single_wgroup_variant(self):
        """Sec. III-D1: diameter Hl + (4m-2)Hsr."""
        cfg = SwitchlessConfig(
            mesh_dim=4, chiplet_dim=1, num_local=3, num_global=0
        )
        d = switchless_diameter(cfg)
        assert d.global_hops == 0
        assert d.local_hops == 1
        assert d.sr_hops == 4 * 4 - 2


class TestHopCosts:
    def test_latency_dominated_by_long_reach(self):
        d = DiameterModel(global_hops=1, local_hops=2, terminal_hops=0,
                          sr_hops=30)
        lat = d.latency_ns()
        assert lat == 1 * 150 + 2 * 150 + 30 * 5

    def test_energy_sums(self):
        d = DiameterModel(global_hops=1, local_hops=2, terminal_hops=2,
                          sr_hops=0)
        assert d.energy_pj_per_bit() == 20 + 4 * 20

    def test_describe(self):
        d = DiameterModel(1, 2, 0, 30)
        assert d.describe() == "1Hg + 2Hl + 30Hsr"

    def test_table_ii_ordering(self):
        """On-wafer hops are orders of magnitude cheaper (the paper's
        whole premise)."""
        assert TABLE_II["Hsr"].energy_pj_per_bit * 10 == pytest.approx(
            TABLE_II["Hg"].energy_pj_per_bit
        )
        assert TABLE_II["Hg"].latency_ns / TABLE_II["Hsr"].latency_ns == 30
