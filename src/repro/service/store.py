"""Shared content-addressed result store with single-flight compute.

The store is the fleet-wide memory of the simulation service: point
results keyed by the engine's ``point_key`` digests (``config_key`` +
``ENGINE_VERSION`` + rate), so any two submissions of the same physics
— same process or not, same day or not — share one cache entry.

Three layers, each usable on its own:

* :class:`ResultStore` extends the engine's :class:`~repro.engine.cache.
  ResultCache` with LRU eviction bounds (``max_entries`` /
  ``max_bytes``), a directory stats scan (entry count, bytes,
  ENGINE_VERSION mix, stale-version detection) and a ``cache_stats``
  :class:`~repro.metrics.MetricChannel` export;
* :class:`SingleFlight` is a lock-file protocol: at most one process
  computes a given key at a time, everyone else waits for the entry to
  land (stale locks of dead holders are stolen, so a crashed worker
  never wedges the fleet);
* :class:`SingleFlightCache` is a drop-in ``ResultCache``-compatible
  adapter gluing the two under ``run_experiments(cache=...)`` — a miss
  first tries to become the key's computer, otherwise blocks until the
  in-flight computation publishes, so N concurrent runs of one study
  simulate each point exactly once.

Everything here is stdlib-only and safe across processes sharing one
directory; in-process thread-safety is what the GIL gives dict/counter
updates (the service serialises engine execution anyway).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..engine.cache import ResultCache
from ..engine.spec import ENGINE_VERSION
from ..metrics import MetricChannel
from ..network.stats import SimResult
from ..obs import REGISTRY
from ..obs import trace as obs_trace
from . import chaos

__all__ = ["ResultStore", "SingleFlight", "SingleFlightCache"]

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
_M_SF_WAITS = REGISTRY.counter(
    "singleflight_waits_total",
    "Lookups that blocked on another process's in-flight computation",
)
_M_SF_STEALS = REGISTRY.counter(
    "singleflight_steals_total", "Stale single-flight locks removed"
)


class SingleFlight:
    """Cross-process ``key -> one computer`` coordination via lock files.

    A lock is a ``<key>.lock`` file created with ``O_CREAT | O_EXCL``
    (atomic on POSIX and NT) containing ``pid timestamp``.  A lock is
    *stale* when its holder pid is gone or its mtime is older than
    ``stale_after`` seconds; stale locks are removed ("stolen") by
    whoever notices, so a killed worker only delays peers, never blocks
    them forever.
    """

    def __init__(
        self,
        root: Union[str, Path],
        stale_after: float = 600.0,
        poll_interval: float = 0.02,
    ) -> None:
        self.root = Path(root)
        self.stale_after = stale_after
        self.poll_interval = poll_interval
        #: how many waits blocked on another holder at least once.
        self.waits = 0
        #: how many stale locks this instance removed.
        self.steals = 0

    def _lock_path(self, key: str) -> Path:
        return self.root / f"{key}.lock"

    def try_acquire(self, key: str) -> bool:
        """Become the key's computer; never blocks.

        A stale lock found in the way is stolen and acquisition retried
        once, so a dead holder's key is immediately adoptable.
        """
        if chaos.should_fire("sf-delay", key):
            time.sleep(chaos.param("sf-delay", "seconds", 0.2, float))
        for _ in range(2):
            try:
                fd = os.open(
                    self._lock_path(key),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                if not self._steal_if_stale(key) and self.locked(key):
                    return False
                continue
            with os.fdopen(fd, "w") as fh:
                fh.write(f"{os.getpid()} {time.time():.3f}")
            return True
        return False

    def release(self, key: str) -> None:
        try:
            os.unlink(self._lock_path(key))
        except OSError:
            pass

    def holder(self, key: str) -> Optional[int]:
        """Pid recorded in the key's lock file, or ``None``."""
        try:
            text = self._lock_path(key).read_text()
            return int(text.split()[0])
        except (OSError, ValueError, IndexError):
            return None

    def locked(self, key: str) -> bool:
        return self._lock_path(key).exists()

    def _steal_if_stale(self, key: str) -> bool:
        """Remove the lock if its holder is dead or too old.

        A lock that vanished before it could be inspected was released,
        not stolen: that is ``False`` too (its holder may have just
        published), and callers re-check the lock.
        """
        path = self._lock_path(key)
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return False
        pid = self.holder(key)
        if pid is None:
            # unreadable/empty lock: orphaned by a crash mid-create —
            # but give a live writer a beat between O_CREAT and the
            # pid landing before calling it dead
            dead = age > 5.0
        else:
            dead = not _pid_alive(pid)
        forced = chaos.should_fire("sf-steal", key)
        if dead or forced or age > self.stale_after:
            try:
                os.unlink(path)
            except OSError:
                pass
            self.steals += 1
            _M_SF_STEALS.inc()
            return True
        return False

    def wait(self, key: str, timeout: float) -> bool:
        """Block until the key's lock disappears.

        Returns ``True`` when the holder released it and ``False`` on
        timeout or when the lock was stale and got stolen.  Either way
        the caller re-reads the store before computing itself: a holder
        may publish and release at any moment of the wait.
        """
        deadline = time.monotonic() + timeout
        waited = False
        while self.locked(key):
            if self._steal_if_stale(key):
                return False
            if time.monotonic() >= deadline:
                return False
            if not waited:
                waited = True
                self.waits += 1
                _M_SF_WAITS.inc()
            time.sleep(self.poll_interval)
        return True

    def clear(self, *, all_locks: bool = False) -> int:
        """Restart hygiene: remove *dead* holders' locks.

        By default only locks whose holder pid is gone (or whose lock
        file is old *and* unreadable) are removed — N servers sharing
        one store directory can each run startup hygiene without
        stealing a live sibling's in-flight computation.
        ``all_locks=True`` force-removes everything (the store-wipe
        path, where the entries are going away anyway).
        """
        n = 0
        for path in self.root.glob("*.lock"):
            if all_locks:
                try:
                    path.unlink()
                    n += 1
                except OSError:
                    pass
                continue
            key = path.name[: -len(".lock")]
            pid = self.holder(key)
            if pid is not None and _pid_alive(pid):
                continue
            if self._steal_if_stale(key):
                n += 1
        return n


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


class ResultStore(ResultCache):
    """Bounded, inspectable content-addressed store over a cache dir.

    A :class:`~repro.engine.cache.ResultCache` (same files, same
    ``get`` / ``put`` / ``clear`` / ``root`` / ``hits`` / ``misses``)
    plus:

    * **LRU eviction** — ``max_entries`` / ``max_bytes`` bounds enforced
      after every write; recency is file mtime, refreshed on every hit,
      and keys with an in-flight ``.lock`` are never evicted;
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
        stale_after: float = 600.0,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        super().__init__(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.single_flight = SingleFlight(self.root, stale_after=stale_after)
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
        self.single_flight.clear(all_locks=True)
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
        this is a no-op.  Entries whose key has an active single-flight
        lock are skipped — someone is mid-computation on them.
        """
        max_entries = self.max_entries if max_entries is None else max_entries
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        if max_entries is None and max_bytes is None:
            return 0
        entries = self.entries()
        total = sum(size for _, _, size, _ in entries)
        count = len(entries)
        removed = 0
        for key, path, size, _ in entries:
            over_entries = max_entries is not None and count > max_entries
            over_bytes = max_bytes is not None and total > max_bytes
            if not over_entries and not over_bytes:
                break
            if self.single_flight.locked(key):
                continue
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
            "locks": sum(1 for _ in self.root.glob("*.lock")),
            "sf_waits": self.single_flight.waits,
            "sf_steals": self.single_flight.steals,
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

    def single_flight_cache(self, **kwargs) -> "SingleFlightCache":
        return SingleFlightCache(self, **kwargs)


class SingleFlightCache:
    """``ResultCache``-compatible adapter adding exactly-once compute.

    Designed to sit under ``run_experiments(cache=...)``: the engine
    calls :meth:`get` before simulating a point and :meth:`put` right
    after.  A miss first tries to *own* the key (making this process
    the one computer); when another process owns it, :meth:`get` blocks
    until the owner publishes the entry, then returns it — so the point
    is never simulated twice.

    Deadlock safety: a run that already owns keys only waits
    ``hold_wait`` seconds on foreign locks (two runs interleaving over
    overlapping key sets could otherwise wait on each other forever);
    on timeout it simply computes the point itself — duplicated work,
    counted in :attr:`fallbacks`, never wrong results (both sides write
    the same deterministic bytes).

    The engine's replay reads each sweep in rate order only up to its
    saturation cutoff, and nothing past a cutoff is stored, so a warm
    resubmission reads exactly the stored points and takes no lock.
    Use as a context manager, or call :meth:`close` in a ``finally`` —
    a cold run's replay scan locks every missing rate, the cutoff
    legitimately skips some of them, and those must be released.
    """

    def __init__(
        self,
        store: ResultStore,
        wait_timeout: float = 300.0,
        hold_wait: float = 2.0,
    ) -> None:
        self.store = store
        self.wait_timeout = wait_timeout
        self.hold_wait = hold_wait
        self._owned: set = set()
        #: points this process actually simulated (put() calls).
        self.computed = 0
        #: foreign-lock timeouts that fell back to computing locally.
        self.fallbacks = 0

    # ResultCache surface the engine/meta block touches
    @property
    def root(self) -> Path:
        return self.store.root

    @property
    def hits(self) -> int:
        return self.store.hits

    @property
    def misses(self) -> int:
        return self.store.misses

    def get(self, key: str) -> Optional[SimResult]:
        res = self.store.get(key)
        if res is not None:
            return res
        sf = self.store.single_flight
        if sf.try_acquire(key):
            self._owned.add(key)
            return None
        timeout = self.hold_wait if self._owned else self.wait_timeout
        with obs_trace.span(
            "store.singleflight_wait", key=key[:16]
        ) as sp:
            sp.set(released=sf.wait(key, timeout))
        res = self.store.get(key)
        if res is not None:
            return res
        # holder died, timed out, or published nothing: compute locally
        if sf.try_acquire(key):
            self._owned.add(key)
        else:
            self.fallbacks += 1
        return None

    def put(
        self, key: str, result: SimResult, meta: Optional[Dict] = None
    ) -> None:
        self.computed += 1
        self.store.put(key, result, meta=meta)
        if key in self._owned:
            self.store.single_flight.release(key)
            self._owned.discard(key)

    def close(self) -> None:
        """Release owned-but-never-computed locks (cutoff leftovers)."""
        while self._owned:
            self.store.single_flight.release(self._owned.pop())

    def __enter__(self) -> "SingleFlightCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
