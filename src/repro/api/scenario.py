"""Declarative scenarios and studies: the campaign layer over the engine.

A :class:`Scenario` bundles the :class:`~repro.engine.ExperimentSpec`
curves of one comparative experiment (typically one figure panel of the
paper) with presentation metadata — title, paper note, the baseline
architecture's curve label.  A :class:`Study` groups scenarios into a
runnable campaign.  Both round-trip losslessly to plain JSON scenario
files (see the bundled ``scenarios/`` library), and ``Study.run()``
executes every curve point through the parallel experiment engine and
returns the structured :class:`~repro.api.results.StudyResult`
hierarchy.

File format (``schema`` discriminates the two)::

    {"schema": "repro.study/v1", "name": ..., "title": ...,
     "scenarios": [
        {"schema": "repro.scenario/v1", "name": ..., "title": ...,
         "note": ..., "baseline": ..., "stop_after_saturation": 1,
         "specs": [ExperimentSpec.to_data(), ...]},
     ]}

A bare scenario file (the inner object alone) is also accepted
everywhere a study is — it loads as a single-scenario study.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .._shape import shaped
from ..engine import ExperimentSpec, ResultCache, run_experiments
from ..network.stats import SimResult
from .results import ScenarioResult, StudyResult

__all__ = [
    "SCENARIO_SCHEMA",
    "STUDY_SCHEMA",
    "Scenario",
    "Study",
    "StudyPointCallback",
    "load_study",
]

#: signature of the optional per-point progress hook of
#: :meth:`Study.run`: ``on_point(scenario, curve_label, rate, result,
#: source)`` with ``source`` one of ``"cache"`` / ``"fresh"``.  Fires
#: in the calling process as points complete (cache replays first);
#: raising from the hook aborts the run — completed points stay cached.
StudyPointCallback = Callable[[str, str, float, SimResult, str], None]

SCENARIO_SCHEMA = "repro.scenario/v1"
STUDY_SCHEMA = "repro.study/v1"


def _curve_label(spec: ExperimentSpec) -> str:
    return spec.label or spec.describe()


@dataclass(frozen=True)
class Scenario:
    """One comparative experiment: labeled curves plus presentation."""

    name: str
    specs: Tuple[ExperimentSpec, ...]
    title: str = ""
    #: paper expectation shown above the rendered tables.
    note: str = ""
    #: label of the reference curve (usually the switch-based baseline).
    baseline: str = ""
    #: sweep cutoff forwarded to the engine (see ``run_experiments``).
    stop_after_saturation: int = 1
    #: free-form discovery tags (``repro-dragonfly list --tag ...``).
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if not self.specs:
            raise ValueError(f"scenario {self.name!r} has no specs")
        labels = [_curve_label(s) for s in self.specs]
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        if dupes:
            raise ValueError(
                f"scenario {self.name!r} has duplicate curve labels {dupes}; "
                "give each spec a distinct label"
            )
        if self.baseline and self.baseline not in labels:
            raise ValueError(
                f"scenario {self.name!r} baseline {self.baseline!r} is not "
                f"one of its curve labels {labels}"
            )
        if self.stop_after_saturation < 1:
            raise ValueError("stop_after_saturation must be >= 1")

    def labels(self) -> List[str]:
        return [_curve_label(s) for s in self.specs]

    def run(
        self,
        *,
        workers: Optional[int] = None,
        cache: Optional[Union[ResultCache, str, Path]] = None,
        on_point: Optional[StudyPointCallback] = None,
    ) -> ScenarioResult:
        """Run just this scenario (see :meth:`Study.run`)."""
        study = Study(name=self.name, scenarios=(self,))
        result = study.run(workers=workers, cache=cache, on_point=on_point)
        return result.scenarios[0]

    # -- declarative form ----------------------------------------------
    def to_data(self) -> Dict:
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "title": self.title,
            "note": self.note,
            "baseline": self.baseline,
            "stop_after_saturation": self.stop_after_saturation,
            "tags": list(self.tags),
            "specs": [s.to_data() for s in self.specs],
        }

    @classmethod
    def from_data(cls, data: Dict) -> "Scenario":
        schema = shaped(data, dict, "a scenario").get("schema")
        if schema is not None and schema != SCENARIO_SCHEMA:
            raise ValueError(
                f"cannot read {schema!r} payload as {SCENARIO_SCHEMA!r}"
            )
        return cls(
            name=data["name"],
            specs=tuple(
                ExperimentSpec.from_data(s)
                for s in shaped(data["specs"], list, "'specs'")
            ),
            title=data.get("title", ""),
            note=data.get("note", ""),
            baseline=data.get("baseline", ""),
            stop_after_saturation=int(data.get("stop_after_saturation", 1)),
            tags=tuple(data.get("tags", ())),
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_data(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        return cls.from_data(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class Study:
    """A runnable campaign: ordered scenarios under one name."""

    name: str
    scenarios: Tuple[Scenario, ...]
    title: str = ""
    description: str = ""
    #: free-form discovery tags (``repro-dragonfly list --tag ...``).
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a study needs a name")
        if not self.scenarios:
            raise ValueError(f"study {self.name!r} has no scenarios")
        names = [s.name for s in self.scenarios]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ValueError(
                f"study {self.name!r} has duplicate scenario names {dupes}"
            )

    def names(self) -> List[str]:
        return [s.name for s in self.scenarios]

    def num_specs(self) -> int:
        return sum(len(s.specs) for s in self.scenarios)

    def num_points(self) -> int:
        """Upper bound on simulated points (saturation cutoffs may stop
        sweeps early) — the denominator progress displays use."""
        return sum(
            len(spec.rates)
            for scn in self.scenarios
            for spec in scn.specs
        )

    def scenario(self, name: str) -> Scenario:
        for s in self.scenarios:
            if s.name == name:
                return s
        raise KeyError(
            f"study {self.name!r} has no scenario {name!r}; "
            f"scenarios: {self.names()}"
        )

    def __getitem__(self, name: str) -> Scenario:
        return self.scenario(name)

    def _map_specs(self, fn: Callable) -> "Study":
        """Copy with ``fn(spec)`` in place of every scenario's specs."""
        return replace(self, scenarios=tuple(
            replace(scn, specs=tuple(fn(spec) for spec in scn.specs))
            for scn in self.scenarios
        ))

    def with_metrics(self, metrics) -> "Study":
        """Copy with the probe axis of every spec replaced (see
        :meth:`~repro.engine.ExperimentSpec.with_metrics`).

        The CLI's ``run --metrics link_util,misroute`` flag goes
        through here; channels then appear on every simulated point of
        the returned study's results.
        """
        return self._map_specs(lambda spec: spec.with_metrics(metrics))

    def with_workload(self, workload, workload_opts=None) -> "Study":
        """Copy with the closed-loop axis of every spec replaced (see
        :meth:`~repro.engine.ExperimentSpec.with_workload`).

        The CLI's ``run <study> --workload ring_allreduce`` flag goes
        through here: every curve of the study is re-driven closed-loop
        by the named workload (rates become pacing bandwidths).
        """
        return self._map_specs(
            lambda spec: spec.with_workload(workload, workload_opts)
        )

    # -- execution -----------------------------------------------------
    def run(
        self,
        *,
        workers: Optional[int] = None,
        cache: Optional[Union[ResultCache, str, Path]] = None,
        on_point: Optional[StudyPointCallback] = None,
    ) -> StudyResult:
        """Run every scenario through the parallel experiment engine.

        Scenarios sharing a ``stop_after_saturation`` value are batched
        into one ``run_experiments`` call so their points fill the same
        worker pool.  ``cache`` may be a :class:`~repro.engine.
        ResultCache` or a directory path.  ``on_point`` is an optional
        :data:`StudyPointCallback` fired as points complete — live
        progress for the CLI's ``run --progress`` and the streaming
        backbone of the simulation service.  The returned hierarchy is
        deterministic apart from its ``meta`` block (per-point seeds are
        derived from the spec hashes).
        """
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        t0 = time.perf_counter()

        batches: Dict[int, List[Tuple[int, Scenario]]] = {}
        for si, scn in enumerate(self.scenarios):
            batches.setdefault(scn.stop_after_saturation, []).append(
                (si, scn)
            )
        results: Dict[int, ScenarioResult] = {}
        for stop, members in sorted(batches.items()):
            specs = [spec for _, scn in members for spec in scn.specs]
            engine_cb = None
            if on_point is not None:
                origin = [
                    (scn.name, _curve_label(spec))
                    for _, scn in members
                    for spec in scn.specs
                ]

                def engine_cb(si, ri, rate, res, source, _origin=origin):
                    scn_name, label = _origin[si]
                    on_point(scn_name, label, rate, res, source)

            curves = iter(
                run_experiments(
                    specs,
                    workers=workers,
                    cache=cache,
                    stop_after_saturation=stop,
                    on_point=engine_cb,
                )
            )
            for si, scn in members:
                results[si] = ScenarioResult(
                    name=scn.name,
                    curves=tuple(next(curves) for _ in scn.specs),
                    title=scn.title,
                    note=scn.note,
                    baseline=scn.baseline,
                )

        meta: Dict = {
            "elapsed_s": round(time.perf_counter() - t0, 3),
            "workers": workers,
        }
        if cache is not None:
            meta["cache"] = {
                "root": str(cache.root),
                "hits": cache.hits,
                "misses": cache.misses,
            }
        return StudyResult(
            name=self.name,
            scenarios=tuple(results[si] for si in range(len(self.scenarios))),
            title=self.title,
            meta=meta,
        )

    def has_tag(self, tag: str) -> bool:
        """Whether the study or any of its scenarios carries ``tag``."""
        return tag in self.tags or any(
            tag in s.tags for s in self.scenarios
        )

    # -- declarative form ----------------------------------------------
    def to_data(self) -> Dict:
        return {
            "schema": STUDY_SCHEMA,
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "tags": list(self.tags),
            "scenarios": [s.to_data() for s in self.scenarios],
        }

    @classmethod
    def from_data(cls, data: Dict) -> "Study":
        schema = shaped(data, dict, "a study").get("schema")
        if schema == SCENARIO_SCHEMA:
            return cls.wrap(Scenario.from_data(data))
        if schema is not None and schema != STUDY_SCHEMA:
            raise ValueError(
                f"cannot read {schema!r} payload as {STUDY_SCHEMA!r}"
            )
        return cls(
            name=data["name"],
            scenarios=tuple(
                Scenario.from_data(s)
                for s in shaped(data["scenarios"], list, "'scenarios'")
            ),
            title=data.get("title", ""),
            description=data.get("description", ""),
            tags=tuple(data.get("tags", ())),
        )

    @classmethod
    def wrap(cls, scenario: Scenario) -> "Study":
        """Lift a single scenario into a runnable one-scenario study.

        The study title stays empty — the scenario renders its own —
        so the wrapped form prints exactly like the bare scenario.
        """
        return cls(name=scenario.name, scenarios=(scenario,))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_data(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Study":
        return cls.from_data(json.loads(Path(path).read_text()))


def load_study(path: Union[str, Path]) -> Study:
    """Load a study *or* scenario file as a runnable :class:`Study`."""
    return Study.load(path)
