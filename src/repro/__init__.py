"""repro — reproduction of *Switch-Less Dragonfly on Wafers* (SC'24).

Public API overview
-------------------
``repro.core``
    The paper's contribution: the wafer-based switch-less Dragonfly
    (chiplet → C-group → wafer → W-group → system) and its labeling.
``repro.topology``
    Simulated baselines (switch-based Dragonfly, 2D mesh, single switch)
    lowered to a common router-graph substrate.
``repro.network``
    Cycle-accurate flit-level virtual-channel simulator.
``repro.metrics``
    Composable observability: metric probes, typed channels and the
    post-run record surface they decode.
``repro.routing``
    Minimal / non-minimal deadlock-free routing and the channel-dependency
    deadlock verifier.
``repro.traffic``
    Unicast, adversarial and collective traffic patterns.
``repro.analysis``
    Closed-form throughput/scalability/diameter/cost/energy models and the
    Table III case-study generator.
``repro.layout``
    Physical C-group floorplanning on a 300 mm wafer (Fig. 9).
"""

__version__ = "0.11.0"
