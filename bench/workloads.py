"""The six workloads and the output check they share.

A *unit* is the thing timed.  Every workload builds its studies from
the bundled library, replaces ``SimParams.seed`` with the benchmark
seed, and only ever hands the program under test those generated
studies.  Why each one is here is recorded beside its class (and in
BENCHMARK.json / README.md, whose names are normative).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import Study, StudyResult, build_study
from repro.network.stats import _SIMRESULT_FIELDS

from . import env
from .spans import Recorder

#: the probe bundle of ``probed_sweep_local`` (record replay dominates).
PROBES = (
    "link_util",
    "vc_util",
    "latency_hist",
    "timeseries",
    "misroute",
    "ejection_fairness",
)


class CheckFailure(RuntimeError):
    """A unit completed but its output failed a correctness check."""


def reseed(study: Study, seed: int) -> Study:
    """Copy of ``study`` with every spec's ``SimParams.seed`` replaced
    (the seed is hashed into each point's derived RNG seed)."""
    return replace(
        study,
        scenarios=tuple(
            replace(
                scn,
                specs=tuple(
                    replace(sp, params=sp.params.scaled(seed=seed))
                    for sp in scn.specs
                ),
            )
            for scn in study.scenarios
        ),
    )


# ----------------------------------------------------------------------
# digests of simulated statistics
# ----------------------------------------------------------------------
def point_digests(result: StudyResult) -> Dict[str, List[str]]:
    """``scenario/curve -> [digest per point]`` over every serialised
    ``SimResult`` field, plus channel summaries when probed.  Simulated
    time only, so it repeats exactly for a fixed seed."""
    out: Dict[str, List[str]] = {}
    for scn in result.scenarios:
        for curve in scn.curves:
            digests = []
            for p in curve.points:
                payload = [p.rate] + [
                    getattr(p.result, name) for name in _SIMRESULT_FIELDS
                ]
                for name in sorted(p.result.channels):
                    ch = p.result.channels[name]
                    payload.append(
                        [name, ch.num_rows, sorted(ch.summary.items())]
                    )
                blob = json.dumps(payload, sort_keys=True)
                digests.append(hashlib.sha256(blob.encode()).hexdigest()[:16])
            out[f"{scn.name}/{curve.label}"] = digests
    return out


def mismatches(
    reference: Dict[str, List[str]], got: Dict[str, List[str]]
) -> Tuple[int, int]:
    """``(mismatched points, points compared)``; a missing or extra
    point (point count per curve) counts as a mismatch."""
    bad = total = 0
    for key in sorted(set(reference) | set(got)):
        ref, new = reference.get(key, []), got.get(key, [])
        total += max(len(ref), len(new))
        bad += abs(len(ref) - len(new))
        bad += sum(1 for a, b in zip(ref, new) if a != b)
    return bad, total


def load_golden(name: str, seed: int) -> Optional[Dict[str, List[str]]]:
    """The committed digests of ``name`` (default seed only; any other
    seed checks every unit against the first one instead)."""
    if seed != env.DEFAULT_SEED or not env.GOLDEN.is_file():
        return None
    return json.loads(env.GOLDEN.read_text())["workloads"].get(name)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Set-up (everything before the first timed unit), then units."""

    name = ""
    #: fixed upper bound of simulated points per unit (points/s column).
    points = 0
    #: digests of the untimed warm-up/priming unit, when there is one.
    warm_digests: Optional[Dict[str, List[str]]] = None
    #: where in a run's unit times ``unit_s`` sits (README.md, "Steady
    #: numbers on an unsteady host").
    location = "median"
    #: most units one set-up times, where the time share alone must not
    #: decide it.
    max_units = 1_000_000

    def setup(self, seed: int, workdir: Path, rec: Recorder) -> None:
        raise NotImplementedError

    def unit(self, rec: Recorder) -> List[StudyResult]:
        """One timed unit; every returned output is checked."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class _WarmSweep(Workload):
    """In-process ``Study.run(workers=1)``, no cache, after one untimed
    warm-up unit: kernel loaded, topologies and route planes resident."""

    library = ("", "")
    metrics: Tuple[str, ...] = ()

    def setup(self, seed, workdir, rec):
        with rec.span("api.build_study"):
            study = build_study(*self.library)
            if self.metrics:
                study = study.with_metrics(list(self.metrics))
            self.study = reseed(study, seed)
        self.points = self.study.num_points()
        with rec.span("bench.warmup"):
            self.warm_digests = point_digests(self.unit(rec)[0])

    def unit(self, rec):
        with rec.span("api.study_run"):
            return [self.study.run(workers=1)]


class WarmSweepLocal(_WarmSweep):
    # ~70 % C kernel, ~30 % Python prepare/finish: kernel and prepare
    # work shows here; a route-plane change must not move it.
    name = "warm_sweep_local"
    library = ("fig10_local", "default")


class WarmSweepValiant(_WarmSweep):
    # Valiant routes are random per packet, nothing is memoised:
    # ~90 % of a unit is Python routing.route(), the kernel ~6 %.
    name = "warm_sweep_valiant"
    library = ("fig13_misrouting", "quick")


class ProbedSweepLocal(_WarmSweep):
    # warm_sweep_local's simulation with six probes attached: the
    # repro.metrics record replay dominates.
    name = "probed_sweep_local"
    library = ("fig10_local", "default")
    metrics = PROBES


class ClosedLoopAllreduce(_WarmSweep):
    # plan mode runs on the Python ArrayCore + PhasePlan (the native
    # kernel declines it); the only workload crossing repro.faults.
    name = "closed_loop_allreduce"
    library = ("workload", "default")


class ColdCliGlobal(Workload):
    """Subprocess ``python -m repro.cli run <file> --workers 1
    --cache-dir <empty> --out <json>``: interpreter start, topology
    build, first-touch route resolution of a deterministic routing (the
    dominant cost), kernel, and one ResultCache write per point."""

    name = "cold_cli_global"

    def setup(self, seed, workdir, rec):
        self.workdir = workdir
        with rec.span("api.build_study"):
            panel = build_study("fig11_global", "default")["uniform"]
            panel = replace(
                panel,
                specs=tuple(
                    s for s in panel.specs
                    if s.label in ("SW-based", "SW-less")
                ),
            )
            study = reseed(Study.wrap(panel), seed)
        self.points = study.num_points()
        self.study_file = study.save(workdir / "cold_cli_study.json")

    def unit(self, rec):
        cache = Path(tempfile.mkdtemp(prefix="cli-cache-", dir=self.workdir))
        out = self.workdir / "cold_cli_result.json"
        out.unlink(missing_ok=True)
        try:
            with rec.span("cli.run"):
                done = subprocess.run(
                    [
                        sys.executable, "-m", "repro.cli", "run",
                        str(self.study_file), "--workers", "1",
                        "--cache-dir", str(cache), "--out", str(out),
                    ],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    text=True,
                    timeout=150,
                    cwd=env.ROOT,
                )
            if done.returncode != 0:
                raise RuntimeError(
                    f"repro.cli run exited {done.returncode}: "
                    f"{done.stderr.strip()[-400:]}"
                )
            with rec.span("api.load_result"):
                result = StudyResult.load(out)
            returned = sum(
                len(c.points) for s in result.scenarios for c in s.curves
            )
            written = sum(1 for _ in cache.glob("*.json"))
            if written < returned:
                raise CheckFailure(
                    f"{written} cache entries written for {returned} "
                    "returned points"
                )
            return [result]
        finally:
            shutil.rmtree(cache, ignore_errors=True)


class ServiceWarmResubmit(Workload):
    """``submit_study`` + ``watch`` to ``done`` against one in-process
    server, one client connection at a time, after a priming submission
    that fills the store.  The simulator does nothing: per job 63
    ResultStore reads, journal fsync, event log, HTTP and telemetry."""

    name = "service_warm_resubmit"
    # a warm job takes ~12 ms, or ~55 ms when ``watch`` stalls (Nagle
    # against the client's delayed ACK), and the stalled share drifts
    # between 30 % and 80 % on identical runs: the median flips between
    # the two modes, the 10th percentile stays in the fast one
    location = "fast_decile"
    # the server keeps every job it ran, so peak_rss_mb grows with the
    # job count (145 MB after 190 jobs, 161 MB after 400), and a run
    # fits 160 or 400 jobs depending on how many of them stall
    max_units = 50

    def setup(self, seed, workdir, rec):
        from repro.service import ServiceClient, create_server

        with rec.span("api.build_study"):
            self.study = reseed(build_study("fig10_local", "default"), seed)
        self.points = self.study.num_points()
        with rec.span("service.start"):
            self.server = create_server(
                host="127.0.0.1",
                port=0,
                cache_dir=workdir / "store",
                state_dir=workdir / "state",
                telemetry=True,
            )
            self._thread = threading.Thread(
                target=self.server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            self._thread.start()
            self.client = ServiceClient(
                f"http://127.0.0.1:{self.server.server_address[1]}"
            )
        with rec.span("bench.warmup"):
            self.warm_digests = point_digests(self.unit(rec)[0])

    def unit(self, rec):
        with rec.span("service.submit"):
            job = self.client.submit_study(self.study, client="bench")
        with rec.span("service.watch"):
            return [self.client.watch(job["id"])]

    def close(self):
        self.server.initiate_shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)


WORKLOADS = {
    cls.name: cls
    for cls in (
        ColdCliGlobal,
        WarmSweepLocal,
        WarmSweepValiant,
        ProbedSweepLocal,
        ClosedLoopAllreduce,
        ServiceWarmResubmit,
    )
}
