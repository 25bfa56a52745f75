"""Shared content-addressed result store.

The store is the fleet-wide memory of the simulation service: point
results keyed by the engine's ``point_key`` digests (``config_key`` +
``ENGINE_VERSION`` + rate), so any two submissions of the same physics
— same process or not, same day or not — share one cache entry.

:class:`ResultStore` extends the engine's :class:`~repro.engine.cache.
ResultCache` with LRU eviction bounds (``max_entries`` / ``max_bytes``),
a directory stats scan (entry count, bytes, ENGINE_VERSION mix,
stale-version detection) and a ``cache_stats``
:class:`~repro.metrics.MetricChannel` export.

Everything here is stdlib-only.  Processes sharing one directory may
each compute a point the other is computing; both write the same bytes
through the cache's atomic temp-file + ``os.replace``, so a reader never
sees a torn entry.  In-process thread-safety is what the GIL gives
dict/counter updates (the service serialises engine execution anyway).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..engine.cache import ResultCache
from ..engine.spec import ENGINE_VERSION
from ..metrics import MetricChannel
from ..network.stats import SimResult
from ..obs import REGISTRY

__all__ = ["ResultStore"]

# runtime telemetry (repro.obs): fleet-wide store behaviour.
_M_HITS = REGISTRY.counter(
    "store_hits_total", "Result-store lookups served from disk"
)
_M_MISSES = REGISTRY.counter(
    "store_misses_total", "Result-store lookups that missed"
)
_M_EVICTIONS = REGISTRY.counter(
    "store_evictions_total", "Entries evicted by the LRU bounds"
)


def _check_bounds(
    max_entries: Optional[int], max_bytes: Optional[int]
) -> None:
    for name, bound in (("max_entries", max_entries),
                        ("max_bytes", max_bytes)):
        if bound is not None and bound < 1:
            raise ValueError(f"{name} must be >= 1")


class ResultStore(ResultCache):
    """Bounded, inspectable content-addressed store over a cache dir.

    A :class:`~repro.engine.cache.ResultCache` (same files, same
    ``get`` / ``put`` / ``clear`` / ``root`` / ``hits`` / ``misses``)
    plus:

    * **LRU eviction** — ``max_entries`` / ``max_bytes`` bounds enforced
      after every write; recency is file mtime, refreshed on every hit;
    * **stats** — directory scan reporting entry count, bytes and the
      ENGINE_VERSION mix, flagging entries a version bump stranded
      (their keys hash the old version, so they can never hit again);
    * **``cache_stats`` channel** — the counters as a schema-tagged
      :class:`~repro.metrics.MetricChannel` for telemetry streams.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        _check_bounds(max_entries, max_bytes)
        super().__init__(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.evicted = 0

    # -- ResultCache surface -------------------------------------------
    def get(self, key: str) -> Optional[SimResult]:
        res = super().get(key)
        if res is not None:
            _M_HITS.inc()
            try:  # LRU recency: a hit counts as a use
                os.utime(self._path(key))
            except OSError:
                pass
        else:
            _M_MISSES.inc()
        return res

    def put(
        self, key: str, result: SimResult, meta: Optional[Dict] = None
    ) -> None:
        meta = dict(meta or {})
        meta.setdefault("engine", ENGINE_VERSION)
        super().put(key, result, meta=meta)
        self.prune()

    def clear(self) -> int:
        # older versions kept a ``<key>.lock`` beside each in-flight key;
        # nothing reads them now, so a wipe takes them too
        for lock in self.root.glob("*.lock"):
            try:
                lock.unlink()
            except OSError:
                pass
        return super().clear()

    # -- bounds --------------------------------------------------------
    def entries(self) -> List[Tuple[str, Path, int, float]]:
        """``(key, path, size_bytes, mtime)`` per entry, oldest first."""
        out = []
        for path in self.root.glob("*.json"):
            try:
                st = path.stat()
            except OSError:
                continue  # raced with eviction/clear
            out.append((path.stem, path, st.st_size, st.st_mtime))
        out.sort(key=lambda e: e[3])
        return out

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict least-recently-used entries beyond the bounds.

        Explicit arguments override the store's configured bounds (the
        ``cache prune`` CLI path); with neither configured nor given
        this is a no-op.  A bound below 1 is an error, not a wipe: ``clear`` empties the store.
        """
        _check_bounds(max_entries, max_bytes)
        max_entries = self.max_entries if max_entries is None else max_entries
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        if max_entries is None and max_bytes is None:
            return 0
        entries = self.entries()
        total = sum(size for _, _, size, _ in entries)
        count = len(entries)
        removed = 0
        for _, path, size, _ in entries:
            over_entries = max_entries is not None and count > max_entries
            over_bytes = max_bytes is not None and total > max_bytes
            if not over_entries and not over_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            count -= 1
            total -= size
        self.evicted += removed
        if removed:
            _M_EVICTIONS.inc(removed)
        return removed

    # -- inspection ----------------------------------------------------
    def stats(self, scan_meta: bool = True) -> Dict:
        """Counters plus (optionally) a per-entry metadata scan.

        ``scan_meta=True`` opens every entry to read its stamped engine
        version — fine for CLI inspection, skip it on hot paths.  The
        ``stale_entries`` count covers entries stamped with a different
        ENGINE_VERSION (or none, i.e. written before stamping existed):
        their keys hash the old version, so they occupy disk but can
        never be hit again.
        """
        entries = self.entries()
        stats: Dict = {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, _, size, _ in entries),
            "engine_version": ENGINE_VERSION,
            "hits": self.hits,
            "misses": self.misses,
            "evicted": self.evicted,
        }
        if scan_meta:
            mix: Dict[str, int] = {}
            stale = 0
            for _, path, _, _ in entries:
                try:
                    with path.open() as fh:
                        meta = json.load(fh).get("meta", {})
                    version = meta.get("engine")
                except (OSError, ValueError):
                    version = None
                tag = "unknown" if version is None else f"v{version}"
                mix[tag] = mix.get(tag, 0) + 1
                if version != ENGINE_VERSION:
                    stale += 1
            stats["version_mix"] = dict(sorted(mix.items()))
            stats["stale_entries"] = stale
        return stats

    def stats_channel(self, scan_meta: bool = False) -> MetricChannel:
        """The counters as a ``cache_stats`` metric channel."""
        stats = self.stats(scan_meta=scan_meta)
        rows = tuple(
            (name, float(value))
            for name, value in stats.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        )
        return MetricChannel(
            name="cache_stats",
            kind="counters",
            columns=("counter", "value"),
            rows=rows,
            summary={name: value for name, value in rows},
            meta={"root": str(self.root)},
        )
