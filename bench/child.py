"""One workload in one fresh interpreter.

The driver (``bench/run.py``) starts this module once per set-up
repetition, so the engine's in-process LRUs, the loaded kernel and
``ru_maxrss`` are per workload and never inherited.  The job arrives as
one JSON argument; the answer leaves as the last line of stdout.

Modes: ``timed`` (set-up, then closed-loop units with the recorder off),
``overhead`` (alternating untraced/traced units), ``layers`` (the
per-layer probes) and ``golden`` (digests of one unit).

Only the standard library is imported at the top: a timed child starts
its :class:`Speedometer` first and imports the program under test
afterwards, as part of the set-up it times.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from . import spans
from .spans import Recorder


class Speedometer:
    """How slow the host is right now, sampled beside the workload.

    This box's vCPUs alternate between speed regimes 1.0x, 1.28x and
    (rarer) 1.5-1.9x apart, each lasting 2-20 s, sometimes minutes:
    longer than a unit, as long as a run.  CPU time moves with wall
    time and the two vCPUs move independently, so the only witness is
    the vCPU the workload runs on.  The child pins itself (threads and
    subprocesses inherit) to one vCPU, and this thread, every
    ``PERIOD_S``, measures the thread CPU time of a fixed ~1 ms loop
    there.  A unit's slowdown is the mean of the samples taken while it
    ran, over ``NOMINAL_S``; the timing metrics are divided by it.
    """

    SPINS = 30_000
    #: CPU seconds the loop takes on the reference box when the host is
    #: quiet (the fastest sample of every calibration run: 0.96-1.00 ms).
    NOMINAL_S = 0.00097
    PERIOD_S = 0.1

    def __init__(self) -> None:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self._times: List[float] = []
        self._costs: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            c0 = time.thread_time()
            x = 0
            for i in range(self.SPINS):
                x += i * i
            cost = time.thread_time() - c0
            self._times.append(time.perf_counter())
            self._costs.append(cost)
            self._stop.wait(self.PERIOD_S)

    def slowdown(self, start: float, end: float) -> float:
        """Mean sample over ``[start, end]`` (``perf_counter`` instants,
        widened by a period and a half so that a 12 ms unit sees three
        samples), relative to the quiet host."""
        pad = 1.5 * self.PERIOD_S
        lo = bisect.bisect_left(self._times, start - pad)
        hi = bisect.bisect_right(self._times, end + pad)
        costs = self._costs[lo:hi] or self._costs[-1:]
        return statistics.fmean(costs) / self.NOMINAL_S

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def _cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children
    (``getrusage``: microseconds, where ``os.times`` has clock ticks)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _setup(job: Dict, rec: Recorder):
    """Everything before the first timed unit (the driver's clock for
    ``setup_s`` started before this interpreter did)."""
    from repro.network.native import load_native

    from .workloads import WORKLOADS, load_golden

    with rec.span("network.load_native"):
        if load_native() is None:
            raise SystemExit(
                "error: the native kernel could not be compiled; the "
                "benchmark refuses to time the array core"
            )
    workload = WORKLOADS[job["workload"]]()
    workload.setup(job["seed"], Path(job["workdir"]), rec)
    reference = load_golden(workload.name, job["seed"])
    return workload, reference or workload.warm_digests


class _UnitLoop:
    """Runs units closed-loop and checks every output."""

    def __init__(self, workload, reference) -> None:
        from . import workloads

        self.check = workloads
        self.workload = workload
        self.reference = reference
        self.failed = 0
        self.checked_points = 0
        self.mismatched_points = 0
        self.errors: List[str] = []

    def one(self, rec: Recorder):
        """``(wall, cpu, ok)`` of one unit; the check runs off the clock."""
        outputs = error = None
        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            outputs = self.workload.unit(rec)
        except Exception as exc:  # noqa: BLE001 - a failed unit is data
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        if error is None:
            with rec.span("bench.check"):
                bad = total = 0
                for output in outputs:
                    digests = self.check.point_digests(output)
                    if self.reference is None:
                        # no golden, no warm-up: the first output is
                        # the reference
                        self.reference = digests
                    b, t = self.check.mismatches(self.reference, digests)
                    bad, total = bad + b, total + t
            self.checked_points += total
            self.mismatched_points += bad
            if bad:
                error = f"{bad} of {total} points differ from the reference"
        if error is not None:
            self.failed += 1
            self.errors.append(error)
            print(f"unit failed: {error}", file=sys.stderr)
        return wall, cpu, error is None

    def report(self) -> Dict:
        return {
            "failed": self.failed,
            "errors": self.errors[:5],
            "checked_points": self.checked_points,
            "mismatched_points": self.mismatched_points,
            "points": self.workload.points,
            "location": self.workload.location,
        }


def run_timed(job: Dict) -> Dict:
    born = time.perf_counter()
    meter = Speedometer()
    rec = Recorder(job["workload"], enabled=False)
    workload, reference = _setup(job, rec)
    setup_done = time.time()
    setup_slowdown = meter.slowdown(born, time.perf_counter())
    loop = _UnitLoop(workload, reference)
    units = []
    share = job["seconds"]
    limit = min(job["max_units"], workload.max_units)
    begin = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            wall, cpu, ok = loop.one(rec)
            units.append([wall, cpu, ok, t0])
            elapsed = time.perf_counter() - begin
            # always one unit, then none that would overshoot the
            # share: the builder caps the total wall-clock of all runs
            if len(units) >= limit or elapsed + wall > share:
                break
    finally:
        workload.close()
        meter.stop()
    # once the samples after each unit exist too: start -> slowdown
    for unit in units:
        unit[3] = meter.slowdown(unit[3], unit[3] + unit[0])
    return {
        "setup_done": setup_done,
        "setup_slowdown": setup_slowdown,
        "units": units,
        "rss_mb": _peak_rss_mb(),
        **loop.report(),
    }


def run_overhead(job: Dict) -> Dict:
    """Alternate untraced and traced units of one workload: the spans
    of the traced ones, the recorder's own share of a unit, and the
    median ratio of adjacent pairs."""
    rec = Recorder(job["workload"], enabled=False)
    workload, reference = _setup(job, rec)
    loop = _UnitLoop(workload, reference)
    plain, traced = [], []
    begin = time.perf_counter()
    try:
        while True:
            rec.enabled = False
            plain.append(loop.one(rec)[0])
            rec.enabled = True
            with rec.span("unit", index=len(traced)):
                traced.append(loop.one(rec)[0])
            if (
                len(traced) >= job["max_units"]
                or time.perf_counter() - begin > job["seconds"]
            ):
                break
    finally:
        workload.close()
    spans.write_ndjson(Path(job["spans"]), rec.spans)
    # what the recorder itself costs, measured apart from the host's
    # noise: an empty span's time, times the spans one unit records
    scratch = Recorder()
    t0 = time.perf_counter()
    for _ in range(10_000):
        with scratch.span("empty"):
            pass
    span_s = (time.perf_counter() - t0) / 10_000
    return {
        "recorder_share": (
            span_s * len(rec.spans) / len(traced) / statistics.median(traced)
        ),
        "plain": plain,
        "traced": traced,
        # adjacent units share the host's mood: pair them
        "paired_unit_ratio": statistics.median(
            t / p for p, t in zip(plain, traced)
        ),
        "self_times": spans.self_times(rec.spans),
        "span_errors": spans.nesting_errors(rec.spans),
        **loop.report(),
    }


def run_layers(job: Dict) -> Dict:
    from . import layers

    rec = Recorder("layers")
    metrics, notes = layers.run_all(
        rec, job["seed"], Path(job["workdir"]), quick=job["quick"]
    )
    spans.write_ndjson(Path(job["spans"]), rec.spans)
    return {
        "metrics": metrics,
        "notes": notes,
        "self_times": spans.self_times(rec.spans),
        "span_errors": spans.nesting_errors(rec.spans),
    }


def run_golden(job: Dict) -> Dict:
    from .workloads import point_digests

    rec = Recorder(job["workload"], enabled=False)
    workload, _ = _setup(job, rec)
    try:
        digests = workload.warm_digests or point_digests(
            workload.unit(rec)[0]
        )
    finally:
        workload.close()
    return {"digests": digests}


MODES = {
    "timed": run_timed,
    "overhead": run_overhead,
    "layers": run_layers,
    "golden": run_golden,
}


def main(argv=None) -> int:
    job = json.loads((argv or sys.argv[1:])[0])
    answer = MODES[job["mode"]](job)
    print(json.dumps(answer))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
