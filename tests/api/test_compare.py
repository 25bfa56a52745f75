"""compare_scenario: arch tokens, preset validation, scope mapping."""

import pytest

from repro.api import compare_scenario
from repro.network import SimParams

PARAMS = SimParams(warmup_cycles=100, measure_cycles=200, drain_cycles=100)


def compare(arches, **kw):
    base = dict(
        pattern="uniform", scope="local", preset="small_equiv",
        rates=[0.2], params=PARAMS,
    )
    base.update(kw)
    return compare_scenario(arches, **base)


def test_one_curve_per_arch_with_baseline():
    scn = compare(["switchless", "dragonfly", "switchless-2b"])
    assert scn.labels() == ["switchless", "dragonfly", "switchless-2b"]
    assert scn.baseline == "switchless"


def test_bandwidth_suffix_sets_mesh_capacity():
    scn = compare(["switchless-4b"])
    spec = scn.specs[0]
    assert dict(spec.topology_opts)["mesh_capacity"] == 4


def test_dragonfly_preset_mapping():
    scn = compare(["dragonfly"], preset="radix8_equiv")
    assert dict(scn.specs[0].topology_opts)["preset"] == "radix8"


def test_unknown_arch_rejected():
    with pytest.raises(ValueError, match="unknown architecture"):
        compare(["torus"])


def test_unknown_preset_lists_alternatives():
    with pytest.raises(ValueError, match="small_equiv"):
        compare(["switchless"], preset="never_heard_of_it")


def test_global_scope_has_no_group_restriction():
    scn = compare(["switchless"], scope="global")
    assert dict(scn.specs[0].traffic_opts) == {}


def test_bad_scope_rejected():
    with pytest.raises(ValueError, match="scope"):
        compare(["switchless"], scope="galactic")


def test_hyphenated_pattern_accepted():
    scn = compare(["switchless"], pattern="bit-reverse")
    assert scn.specs[0].traffic == "bit_reverse"


def test_repeated_arch_token_rejected():
    # tokens are case-folded into labels, so these two are one curve
    with pytest.raises(ValueError, match="duplicate curve labels"):
        compare(["switchless", "Switchless"])
