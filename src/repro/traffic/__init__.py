"""Traffic patterns: unicast, adversarial and collective workloads."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ["ChipIndex", "TrafficPattern"],
    ".patterns": [
        "UniformTraffic", "PermutationTraffic", "BitReverseTraffic",
        "BitShuffleTraffic", "BitTransposeTraffic",
    ],
    ".adversarial": ["HotspotTraffic", "WorstCaseTraffic"],
    ".collectives": [
        "RingAllReduceTraffic", "RingStepModel", "ring_allreduce_steps",
    ],
})
