"""Process-wide metrics registry: labelled counters, gauges, histograms.

A deliberately small, stdlib-only, thread-safe take on the Prometheus
client model:

* :class:`Counter` — monotonically increasing; ``inc()`` with label
  keyword arguments;
* :class:`Gauge` — ``set()``/``inc()``/``dec()``, or
  :meth:`~Gauge.set_function` to sample a callable at collect time
  (queue depth, jobs by state — values someone else already owns);
* :class:`Histogram` — fixed buckets, cumulative counts, ``sum`` and
  ``count``, Prometheus-compatible ``le`` labels.

Metrics are created through a :class:`MetricsRegistry` and identified
by name; re-requesting a name returns the existing metric (so module
A and module B can both say ``REGISTRY.counter("x_total", ...)``
without coordination), while re-requesting with a different type or
label set raises.  :data:`REGISTRY` is the process default that every
runtime component instruments into; tests can build private
registries.

Exporters live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
]

#: default histogram buckets (seconds-flavoured, like Prometheus').
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_RESERVED = ("le",)


def _label_key(
    labelnames: Tuple[str, ...], labels: Dict[str, object], name: str
) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"metric {name!r} takes labels {sorted(labelnames)}, "
            f"got {sorted(labels)}"
        )
    return tuple(str(labels[k]) for k in labelnames)


class _Metric:
    """Shared bookkeeping: name, help text, label names, one lock."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if label in _RESERVED:
                raise ValueError(f"label name {label!r} is reserved")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        return _label_key(self.labelnames, labels, self.name)


class Counter(_Metric):
    """Monotonic counter; one series per label combination."""

    kind = "counter"

    def __init__(self, name, help, labelnames=()):
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def collect(self) -> List[Dict]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            {"labels": dict(zip(self.labelnames, key)), "value": value}
            for key, value in items
        ]


class Gauge(_Metric):
    """A value that goes up and down; optionally sampled via callback."""

    kind = "gauge"

    def __init__(self, name, help, labelnames=()):
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}
        self._functions: Dict[Tuple[str, ...], Callable[[], float]] = {}

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Sample ``fn()`` at collect time for this label set (replaces
        any previous function or stored value)."""
        key = self._key(labels)
        with self._lock:
            self._functions[key] = fn
            self._values.pop(key, None)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            fn = self._functions.get(key)
            if fn is None:
                return self._values.get(key, 0.0)
        try:
            return float(fn())
        except Exception:  # noqa: BLE001 — a dead callback reads 0
            return 0.0

    def collect(self) -> List[Dict]:
        with self._lock:
            keys = sorted(set(self._values) | set(self._functions))
        return [
            {
                "labels": dict(zip(self.labelnames, key)),
                "value": self.value(**dict(zip(self.labelnames, key))),
            }
            for key in keys
        ]


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name,
        help,
        labelnames=(),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]
        self.buckets = tuple(bounds)
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}
        self._totals: Dict[Tuple[str, ...], int] = {}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.buckets) + 1)
                self._sums[key] = 0.0
                self._totals[key] = 0
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1  # +Inf bucket
            self._sums[key] += value
            self._totals[key] += 1

    def count(self, **labels) -> int:
        with self._lock:
            return self._totals.get(self._key(labels), 0)

    def sum(self, **labels) -> float:
        with self._lock:
            return self._sums.get(self._key(labels), 0.0)

    def collect(self) -> List[Dict]:
        with self._lock:
            items = sorted(self._counts.items())
            sums = dict(self._sums)
            totals = dict(self._totals)
        out = []
        for key, counts in items:
            cumulative = []
            running = 0
            for count in counts:
                running += count
                cumulative.append(running)
            out.append(
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "buckets": [
                        {"le": bound, "count": cum}
                        for bound, cum in zip(self.buckets, cumulative)
                    ]
                    + [{"le": "+Inf", "count": cumulative[-1]}],
                    "sum": sums[key],
                    "count": totals[key],
                }
            )
        return out


class MetricsRegistry:
    """Named metric store with idempotent get-or-create semantics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Metric]" = {}

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or (
                    existing.labelnames != tuple(labelnames)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{list(existing.labelnames)}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def collect(self) -> List[Dict]:
        """Snapshot every metric (sorted by name) for the exporters."""
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        return [
            {
                "name": m.name,
                "type": m.kind,
                "help": m.help,
                "samples": m.collect(),
            }
            for m in metrics
        ]


#: the process-default registry every runtime component instruments.
REGISTRY = MetricsRegistry()
