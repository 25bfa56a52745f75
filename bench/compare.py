"""``bench/run.py --compare A B``: two output directories, one verdict
per (end-to-end metric, workload).

Each row gives both medians with their quartiles, the ratio B/A (A is
always the base), the bound from BENCHMARK.json and a verdict:

``same``        B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  either side's spread (IQR / median) is wider than the
                bound, so the runs cannot tell.

Values are each set's per-run metrics (``--runs N``; below three runs
the quartiles are degenerate and nothing can come out ``unresolved``).
Simulated statistics and the *exact* per-layer counts must be identical
between the sets.  Exit status 1 unless every row is ``same``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List

#: per-layer counts that repeat exactly for a fixed seed.
EXACT = (
    "topology.nodes",
    "topology.links",
    "routing.route_hops_total",
    "metrics.channel_rows",
    "workload.phases",
    "sat_ratio_err",
)


def _load(path: Path) -> Dict:
    return json.loads((path / "summary.json").read_text())


def _values(summary: Dict, workload: str, metric: str) -> List[float]:
    return [
        r["workloads"][workload]["metrics"][metric] for r in summary["runs"]
    ]


def _stats(values: List[float]):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare_main(a_dir: Path, b_dir: Path, contract: Dict) -> int:
    a, b = _load(a_dir), _load(b_dir)
    print(f"A = {a_dir}  ({a['fingerprint']['git_rev'][:12]}, "
          f"{len(a['runs'])} run(s))")
    print(f"B = {b_dir}  ({b['fingerprint']['git_rev'][:12]}, "
          f"{len(b['runs'])} run(s))")
    if min(len(a["runs"]), len(b["runs"])) < 3:
        print("warning: fewer than 3 runs in a set, spreads are unknown")
    header = (
        f"{'metric':12s} {'workload':22s} {'A median [q1, q3]':>32s} "
        f"{'B median [q1, q3]':>32s} {'B/A':>7s} {'bound':>6s}  verdict"
    )
    print(header)
    bad = 0
    for m in contract["end_to_end"]:
        for w in contract["workloads"]:
            am, aq1, aq3 = _stats(_values(a, w["name"], m["name"]))
            bm, bq1, bq3 = _stats(_values(b, w["name"], m["name"]))
            spread = max((aq3 - aq1) / am, (bq3 - bq1) / bm)
            delta = (bm - am) / am
            if m["better"] == "higher":
                delta = -delta
            if spread > m["bound"]:
                verdict = "unresolved"
            elif delta > m["bound"]:
                verdict = "worse"
            else:
                verdict = "same"
            bad += verdict != "same"
            print(
                f"{m['name']:12s} {w['name']:22s} "
                f"{am:12.4f} [{aq1:8.4f},{aq3:8.4f}] "
                f"{bm:12.4f} [{bq1:8.4f},{bq3:8.4f}] "
                f"{bm / am:7.3f} {m['bound']:6.2f}  {verdict}"
            )
    # simulated time: must repeat exactly, no bound
    for name in ("failed_fraction", "sim_mismatch_fraction"):
        same = a[name] == b[name]
        bad += not same
        print(f"{name:35s} A {a[name]!r}  B {b[name]!r}  "
              f"{'same' if same else 'differs'}")
    la, lb = a.get("layers"), b.get("layers")
    if la and lb:
        for name in EXACT:
            va, vb = la["metrics"].get(name), lb["metrics"].get(name)
            same = va == vb
            bad += not same
            print(f"{name:35s} A {va!r}  B {vb!r}  "
                  f"{'same' if same else 'differs'}")
    print("all rows same" if not bad else f"{bad} row(s) not same")
    return 1 if bad else 0
