"""On-disk JSON store for simulated points (offline runs and service).

One file per ``(spec, rate)`` point, named by its :func:`~
repro.engine.spec.point_key` digest, so concurrent writers (pool
workers, processes sharing a directory) never contend on a shared file.
Writes are atomic (temp file + ``os.replace``); a corrupt or truncated
entry is treated as a miss and overwritten on the next run.  A hit is
one ``os.open``, one ``os.read`` (more only for an entry past 64 KiB),
one UTF-8 decode and ``json.loads``, one mtime touch through the
descriptor, one ``close`` and the ``SimResult`` rebuild.  Optional LRU
bounds (recency = file mtime, refreshed on every hit), entry and byte
totals kept up to date by this instance's writes (one directory scan
the first time they are needed), and a ``cache_stats`` metric channel
make it the service's store too.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..metrics import MetricChannel
from ..network.stats import SimResult
from ..obs import REGISTRY
from .spec import ENGINE_VERSION

__all__ = ["ResultCache"]

# runtime telemetry (repro.obs)
_M_HITS = REGISTRY.counter(
    "store_hits_total", "Result-store lookups served from disk"
)
_M_MISSES = REGISTRY.counter(
    "store_misses_total", "Result-store lookups that missed"
)
_M_EVICTIONS = REGISTRY.counter(
    "store_evictions_total", "Entries evicted by the LRU bounds"
)
_M_WRITES = REGISTRY.counter(
    "cache_writes_total", "Point results written to the on-disk cache"
)
_M_WRITE_BYTES = REGISTRY.counter(
    "cache_write_bytes_total", "Bytes of point results written"
)


#: bytes asked of one ``os.read``: an unprobed entry is ~0.5 KB, so one
#: read returns it whole, and a larger one (a probed point's channel
#: rows) is read on until a read comes back short
_READ_CHUNK = 1 << 16


def _read_all(fd: int) -> bytes:
    parts = [os.read(fd, _READ_CHUNK)]
    while len(parts[-1]) == _READ_CHUNK:
        parts.append(os.read(fd, _READ_CHUNK))
    return b"".join(parts)


def _check_bounds(
    max_entries: Optional[int], max_bytes: Optional[int]
) -> None:
    for name, bound in (("max_entries", max_entries),
                        ("max_bytes", max_bytes)):
        if bound is not None and bound < 1:
            raise ValueError(f"{name} must be >= 1")


class ResultCache:
    """Directory-backed result store keyed by point digests; after
    every write, entries beyond ``max_entries`` / ``max_bytes`` (if set)
    are evicted least-recently-used first.

    The entry and byte totals come from one directory scan the first
    time they are needed; after that ``put``, ``prune`` and ``clear``
    keep them current, so reading them costs nothing per job and a
    bounded ``put`` scans only when a bound is exceeded.  Writes by
    other processes sharing the directory show up at the next full
    scan (``prune`` or ``stats(scan_meta=True)``).
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        _check_bounds(max_entries, max_bytes)
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ValueError(
                f"cache path {self.root} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self._dir = os.fspath(self.root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evicted = 0
        #: ``[entries, bytes]``, ``None`` until first needed
        self._totals: Optional[List[int]] = None

    def _path(self, key: str) -> str:
        return f"{self._dir}/{key}.json"

    def get(self, key: str) -> Optional[SimResult]:
        """Stored result for ``key``, or ``None`` (counted as a miss);
        a hit refreshes the entry's mtime (its LRU recency).

        A missing, unreadable, non-UTF-8, truncated or wrongly shaped
        entry is a miss.  The touch goes through the open descriptor,
        so the path is resolved once, and an entry another process
        evicts after the open still counts as a hit."""
        try:
            fd = os.open(self._path(key), os.O_RDONLY)
        except OSError:
            return self._miss()
        try:
            try:
                data = _read_all(fd)
                result = SimResult.from_dict(
                    json.loads(data.decode())["result"]
                )
            except (OSError, ValueError, KeyError, TypeError):
                return self._miss()
            try:
                os.utime(fd)
            except OSError:
                pass
        finally:
            os.close(fd)
        self.hits += 1
        _M_HITS.inc()
        return result

    def _miss(self) -> None:
        self.misses += 1
        _M_MISSES.inc()

    def put(self, key: str, result: SimResult, meta: Optional[Dict] = None) -> None:
        """Store ``result`` under ``key`` atomically, then apply the
        bounds.  ``meta["engine"]`` is stamped so :meth:`stats` can
        report the version mix of a long-lived directory."""
        payload = {
            "key": key,
            "result": result.to_dict(),
            "meta": {"engine": ENGINE_VERSION, **(meta or {})},
        }
        # .part suffix (not .json) so a write abandoned by a killed run
        # is never globbed as a cache entry by __len__/clear
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".part"
        )
        path = self._path(key)
        replaced: Optional[int] = None  # size of the entry overwritten
        try:
            with os.fdopen(fd, "w") as fh:
                text = json.dumps(payload)  # ASCII: one byte per char
                fh.write(text)
            if self._totals is not None:
                try:
                    replaced = os.stat(path).st_size
                except FileNotFoundError:
                    pass
            os.replace(tmp, path)
            _M_WRITES.inc()
            _M_WRITE_BYTES.inc(len(text))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self._totals is not None:
            # an overwrite replaces an entry: it counts once
            self._totals[0] += replaced is None
            self._totals[1] += len(text) - (replaced or 0)
        if self.max_entries is not None or self.max_bytes is not None:
            count, total = self._ensure_totals()
            if (
                self.max_entries is not None and count > self.max_entries
            ) or (self.max_bytes is not None and total > self.max_bytes):
                self.prune()

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry (and the ``<key>.lock`` files older
        versions left); returns how many entries were removed."""
        n = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            n += 1
        self._totals = [0, 0]
        for leftover in (*self.root.glob(".tmp-*.part"),
                         *self.root.glob("*.lock")):
            try:
                leftover.unlink()
            except OSError:
                pass
        return n

    # -- bounds --------------------------------------------------------
    def _rescan(self) -> List[Tuple[str, Path, int, float]]:
        """:meth:`entries`, resetting the totals from them."""
        entries = self.entries()
        self._totals = [len(entries), sum(e[2] for e in entries)]
        return entries

    def _ensure_totals(self) -> List[int]:
        if self._totals is None:
            self._rescan()
        return self._totals

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

        Explicit arguments override the cache's configured bounds (the
        ``cache prune`` CLI path); with neither configured nor given
        this is a no-op.  A bound below 1 is an error, not a wipe:
        ``clear`` empties the cache.
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
        self._totals = [count, total]
        self.evicted += removed
        if removed:
            _M_EVICTIONS.inc(removed)
        return removed

    # -- inspection ----------------------------------------------------
    def stats(self, scan_meta: bool = True) -> Dict:
        """Counters plus (optionally) a per-entry metadata scan.

        ``scan_meta=True`` rescans the directory and opens every entry
        to read its stamped engine version — fine for CLI inspection;
        without it the kept totals answer at no cost.  The
        ``stale_entries`` count covers entries stamped with a different
        ENGINE_VERSION (or none, i.e. written before stamping existed):
        their keys hash the old version, so they occupy disk but can
        never be hit again.
        """
        entries = self._rescan() if scan_meta else ()
        count, total = self._ensure_totals()
        stats: Dict = {
            "root": str(self.root),
            "entries": count,
            "bytes": total,
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
