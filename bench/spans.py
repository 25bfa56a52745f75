"""The benchmark's own span recorder.

Spans wrap calls into each layer's public functions *from the
benchmark's files*; nothing under ``src/`` is instrumented.  Spans stay
in memory and are written out once, when the traced run ends.  The
recorder is used from the benchmark's single load-generating thread.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Recorder:
    """Nested spans: name, start, end, parent, workload id.

    With ``enabled`` false :meth:`span` yields without recording, which
    is how the timed (end-to-end) runs execute the very same code path
    with tracing off.
    """

    def __init__(self, workload: str = "", enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[Dict]]:
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()


def fast_decile(values: List[float]) -> float:
    """10th percentile (the minimum below ten samples): the location of
    a bimodal timing whose slow mode's share drifts, such as a warm
    service job (``workloads.ServiceWarmResubmit``)."""
    return sorted(values)[len(values) // 10]


def _self_time(spans: List[Dict]) -> Dict[int, float]:
    """Span id -> its duration minus its children's."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Per-name self time, summed over the spans of that name."""
    own = _self_time(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
    return out


def nesting_errors(spans: List[Dict]) -> List[str]:
    """Violations of the recorder's invariants: every span closed, no
    child outside its parent, no negative self time."""
    errors = [
        f"span {s['name']}#{s['id']} never closed"
        for s in spans if s["end"] is None
    ]
    if errors:
        return errors
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is None:
            continue
        parent = by_id[s["parent"]]
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            errors.append(
                f"span {s['name']}#{s['id']} lies outside its parent "
                f"{parent['name']}#{parent['id']}"
            )
    # children run one after another, so their sum fits the parent
    errors.extend(
        f"span {by_id[i]['name']}#{i} has negative self time"
        for i, own in _self_time(spans).items() if own < -1e-9
    )
    return errors


def write_ndjson(path: Path, spans: List[Dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
