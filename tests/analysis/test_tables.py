"""Tables I, II, IV reference data."""

import re

import pytest

from repro.analysis import (
    FIG15_ENERGY,
    TABLE_I,
    TABLE_II,
    TABLE_II_ENERGY,
    format_table_i,
    format_table_ii,
    format_table_iv,
)
from repro.analysis.energy import INTRA_CLASSES
from repro.core import SwitchlessConfig
from repro.topology import DragonflyConfig
from repro.topology.graph import HOP_COSTS, LINK_CLASSES


def test_table_i_throughput_arithmetic():
    by_name = {s.name: s for s in TABLE_I}
    assert by_name["NVSwitch"].throughput_tbps == pytest.approx(12.8)
    assert by_name["Tofino2"].throughput_tbps == pytest.approx(12.8)
    assert by_name["H100"].throughput_tbps == pytest.approx(3.6)
    assert by_name["DOJO D1"].throughput_tbps == pytest.approx(64.5, abs=0.1)


def test_computing_chips_rival_switches():
    """Table I's point: computing chips match switching chips in IO."""
    by_cat = {}
    for s in TABLE_I:
        by_cat.setdefault(s.category, []).append(s.throughput_tbps)
    assert max(by_cat["Computing Chip"]) > max(by_cat["Switching Chip"])


def test_formatters_contain_rows():
    t1 = format_table_i()
    assert "DOJO D1" in t1 and "NVSwitch" in t1
    t2 = format_table_ii()
    assert "Hsr" in t2 and "Optical Cable" in t2
    t4 = format_table_iv()
    assert "4 flits" in t4
    assert "10000 cycles after 5000" in t4


@pytest.mark.parametrize("klass", LINK_CLASSES)
def test_one_cost_row_per_link_class(klass):
    """Every link class has exactly one cost row, and Table II, the
    Fig. 15 energies, Table IV and the configs' delays all read it."""
    assert list(HOP_COSTS).count(klass) == 1
    cost = HOP_COSTS[klass]
    assert TABLE_II[cost.name].latency_ns == cost.latency_ns
    assert TABLE_II[cost.name].energy_pj_per_bit == cost.energy_pj_per_bit
    assert TABLE_II_ENERGY[klass] == cost.energy_pj_per_bit
    intra = klass in ("onchip", "sr")
    assert cost.intra_cgroup == intra == (klass in INTRA_CLASSES)
    assert FIG15_ENERGY[klass] == (1.0 if intra else TABLE_II_ENERGY[klass])

    sw, df = SwitchlessConfig.small_equiv(), DragonflyConfig.small_equiv()
    defaults = {
        "onchip": sw.onchip_latency,
        "sr": sw.sr_latency,
        "local": df.local_latency,
        "global": df.global_latency,
        "terminal": df.terminal_latency,
    }
    assert cost.cycles == defaults[klass]
    t4 = format_table_iv()
    assert re.search(rf"Short-Reach Link Delay +{sw.sr_latency} cycle\n", t4)
    assert re.search(rf"Long-Reach Link Delay +{sw.lr_latency} cycles\n", t4)
    assert sw.lr_latency == df.local_latency == df.global_latency
