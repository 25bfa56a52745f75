"""Benchmark driver.

Two ways in:

* the builder's contract, one workload per call::

      python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

  prints every metric by name with its unit and, as the last line of
  stdout, one JSON object ``{correct, attempted, failed, metrics}``;

* the ledger command, every workload and then the traced per-layer
  run::

      python3 bench/run.py [--seed N] [--runs R] [--out DIR]

  plus ``--quick``, ``--layers``, ``--compare A B`` and
  ``--update-golden`` (see README.md).

One driver process; each set-up repetition of a workload is a fresh
child interpreter (``bench/child.py``), one after another.  The driver
imports neither numpy nor repro, so children start cold and small.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

if __package__ in (None, ""):  # run as a script: make ``bench`` importable
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import env  # noqa: E402
from bench.spans import fast_decile, write_ndjson  # noqa: E402

#: set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
SUMMARY_SCHEMA = "bench.summary/v1"
#: per-invocation scratch; every child gets a fresh directory below it.
SCRATCH = env.WORK / f"run-{os.getpid()}"


class BenchError(RuntimeError):
    pass


#: wall-clock instant by which the current command must be done; the
#: builder's contract gives one command 180 s, children share it.
_deadline = float("inf")


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def spawn(job: Dict, workdir: Path, log: Path) -> Dict:
    """Run one child to completion and return its answer.

    The child's stderr (for the service workload: the server's) goes to
    ``log``, not the terminal."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    log.parent.mkdir(parents=True, exist_ok=True)
    job = {**job, "workdir": str(workdir)}
    with log.open("a") as err:
        err.write(f"--- {job['mode']} {job.get('workload', '')}\n")
        err.flush()
        started = time.time()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bench.child", json.dumps(job)],
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
            cwd=env.ROOT,
            env=env.child_env(workdir),
        )
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, min(170.0, _deadline - time.time()))
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{job['mode']} child timed out") from None
    shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = log.read_text().strip().splitlines()[-1:]
        raise BenchError(
            f"{job['mode']} child exited {proc.returncode}: "
            f"{' '.join(tail) or 'no output'}"
        )
    answer = json.loads(lines[-1])
    answer["spawned"] = started
    return answer


# ----------------------------------------------------------------------
# one workload, tracing off: the end-to-end metrics
# ----------------------------------------------------------------------
def run_timed(
    name: str, seed: int, seconds: float, out: Path, *, quick: bool = False
) -> Dict:
    reps = 1 if quick else SETUP_REPS
    children = []
    for i in range(reps):
        children.append(
            spawn(
                {
                    "mode": "timed",
                    "workload": name,
                    "seed": seed,
                    "seconds": seconds / reps,
                    "max_units": 1 if quick else 1_000_000,
                },
                SCRATCH / f"timed{i}",
                out / f"{name}.log",
            )
        )
    units = [u for c in children for u in c["units"]]
    # a unit that failed fast must not count as a fast unit
    good = [u for u in units if u[2]] or units
    # every time is divided by the host's slowdown while it was taken
    # (child.Speedometer); the raw ones are printed beside them
    walls = [u[0] / u[3] for u in good]
    attempted = len(units)
    failed = sum(c["failed"] for c in children)
    checked = sum(c["checked_points"] for c in children)
    mismatched = sum(c["mismatched_points"] for c in children)
    locate = {"median": statistics.median, "fast_decile": fast_decile}[
        children[0]["location"]
    ]
    unit_s = locate(walls)
    metrics = {
        "setup_s": statistics.median(
            (c["setup_done"] - c["spawned"]) / c["setup_slowdown"]
            for c in children
        ),
        "unit_s": unit_s,
        "unit_cpu_s": locate([u[1] / u[3] for u in good]),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in children),
    }
    derived = {
        "unit_median_s": statistics.median(walls),
        "unit_raw_s": locate([u[0] for u in good]),
        "setup_raw_s": statistics.median(
            c["setup_done"] - c["spawned"] for c in children
        ),
        "host_slowdown": statistics.median(u[3] for u in good),
        "points_per_s": children[0]["points"] / unit_s,
        "failed_fraction": failed / attempted,
        "sim_mismatch_fraction": mismatched / checked if checked else 0.0,
    }
    return {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and mismatched == 0,
        "metrics": metrics,
        "derived": derived,
        "unit_quartiles": _quartiles(walls),
        "unit_samples": walls,
        "unit_slowdowns": [u[3] for u in good],
        "setups": reps,
        "errors": [e for c in children for e in c["errors"]][:5],
    }


# ----------------------------------------------------------------------
# the traced run: per-layer metrics
# ----------------------------------------------------------------------
def run_overhead(
    name: str, seed: int, seconds: float, out: Path, *, quick: bool = False
) -> Dict:
    spans_file = out / f"spans.{name}.ndjson"
    return spawn(
        {
            "mode": "overhead",
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "max_units": 1 if quick else 1_000_000,
            "spans": str(spans_file),
        },
        SCRATCH / "overhead",
        out / f"{name}.log",
    )


def run_layers(seed: int, out: Path, *, quick: bool = False) -> Dict:
    return spawn(
        {
            "mode": "layers",
            "seed": seed,
            "quick": quick,
            "spans": str(out / "spans.layers.ndjson"),
        },
        SCRATCH / "layers",
        out / "layers.log",
    )


def merge_spans(out: Path) -> int:
    """Concatenate the children's span files into ``spans.ndjson``
    (ids offset so parents still resolve); returns the span count."""
    merged, offset = [], 0
    for part in sorted(out.glob("spans.*.ndjson")):
        spans = [json.loads(l) for l in part.read_text().splitlines()]
        for s in spans:
            s["id"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
        merged.extend(spans)
        offset += len(spans)
        part.unlink()
    write_ndjson(out / "spans.ndjson", merged)
    return len(merged)


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def _units(contract: Dict) -> Dict[str, str]:
    return {
        m["name"]: m["unit"]
        for m in contract["end_to_end"] + contract["per_layer"]
    }


DERIVED_UNITS = {
    "unit_median_s": "s",
    "unit_raw_s": "s",
    "setup_raw_s": "s",
    "host_slowdown": "ratio",
    "points_per_s": "1/s",
    "failed_fraction": "ratio",
    "sim_mismatch_fraction": "ratio",
}


def print_timed(res: Dict, units: Dict[str, str]) -> None:
    q1, _, q3 = res["unit_quartiles"]
    print(
        f"workload {res['workload']} seed {res['seed']}: "
        f"{res['attempted']} units over {res['setups']} set-ups"
    )
    for name, value in res["metrics"].items():
        extra = ""
        if name == "unit_s":
            extra = f"   (q1 {q1:.4f}  q3 {q3:.4f}  n {res['attempted']})"
        print(f"  {name:24s} {value:12.4f} {units[name]}{extra}")
    for name, value in res["derived"].items():
        print(f"  {name:24s} {value:12.4f} {DERIVED_UNITS[name]}   (ungated)")
    for err in res["errors"]:
        print(f"  check failed: {err}")


def print_layers(
    metrics: Dict[str, float], notes: Dict[str, str], units: Dict[str, str]
) -> None:
    for name in sorted(metrics):
        note = f"   ({notes[name]})" if name in notes else ""
        unit = units.get(name, "")
        print(f"  {name:36s} {metrics[name]:16.6g} {unit}{note}")


def print_budget(title: str, self_times: Dict[str, float]) -> None:
    total = sum(self_times.values()) or 1.0
    print(f"  self time by span, {title}:")
    for name, t in sorted(self_times.items(), key=lambda kv: -kv[1])[:12]:
        print(f"    {name:34s} {t:9.4f} s  {100 * t / total:5.1f} %")


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def contract_main(args, contract: Dict) -> int:
    """``--workload NAME --seed N --seconds S --trace 0|1``."""
    global _deadline
    _deadline = time.time() + 170.0
    units = _units(contract)
    out = args.out
    if args.trace:
        traced = traced_section(
            [args.workload], args.seed, args.seconds, out, quick=False
        )
        values = traced["metrics"]
        wanted = [m["name"] for m in contract["per_layer"]]
        problems = traced["problems"] + [
            f"missing metric {n}" for n in wanted if n not in values
        ]
        print(f"traced run, workload {args.workload} seed {args.seed}")
        print_layers(values, traced["notes"], units)
        for title, times in traced["self_times"].items():
            print_budget(title, times)
        for problem in problems:
            print(f"  check failed: {problem}")
        result = {
            "correct": not (traced["failed"] or problems),
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "metrics": {
                n: {"value": values[n], "unit": units[n]}
                for n in wanted if n in values
            },
        }
    else:
        res = run_timed(args.workload, args.seed, args.seconds, out)
        print_timed(res, units)
        (out / f"{args.workload}.json").write_text(json.dumps(res) + "\n")
        result = {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {
                n: {"value": v, "unit": units[n]}
                for n, v in res["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


#: ceiling of ``bench.trace_overhead_ratio`` (the issue's acceptance line).
TRACE_OVERHEAD_LIMIT = 1.05


def traced_section(
    names: List[str], seed: int, seconds: float, out: Path, quick: bool
) -> Dict:
    """Layer probes once, then alternating traced/untraced units of
    each of ``names``: every per-layer metric, with notes."""
    layers = run_layers(seed, out, quick=quick)
    # half the timed budget: the traced run also carries the probes
    overhead = {
        n: run_overhead(n, seed, seconds / 2, out, quick=quick)
        for n in names
    }
    merge_spans(out)
    over = list(overhead.values())
    attempted = sum(len(o["plain"]) + len(o["traced"]) for o in over)
    failed = sum(o["failed"] for o in over)
    checked = sum(o["checked_points"] for o in over)
    # 1 + (empty-span cost x spans per unit / unit time): what the
    # recorder adds to a unit.  It repeats, so it is the value checked;
    # the paired traced/untraced ratio is host noise (adjacent units
    # differ by 10-20 %) and rides along as a note.
    ratios = {n: 1.0 + o["recorder_share"] for n, o in overhead.items()}
    paired = {n: o["paired_unit_ratio"] for n, o in overhead.items()}
    return {
        "metrics": {
            **layers["metrics"],
            # over several workloads, the worst
            "bench.trace_overhead_ratio": max(ratios.values()),
            "failed_fraction": failed / attempted,
            "sim_mismatch_fraction": (
                sum(o["mismatched_points"] for o in over) / checked
                if checked else 0.0
            ),
        },
        "notes": {
            **layers["notes"],
            "bench.trace_overhead_ratio": (
                "paired traced/untraced unit ratio (noise): "
                + ", ".join(f"{r:.3f}" for r in paired.values())
            ),
        },
        "trace_overhead_ratio": ratios,
        "paired_unit_ratio": paired,
        "self_times": {
            "layer probes": layers["self_times"],
            **{f"{n} units": o["self_times"] for n, o in overhead.items()},
        },
        "problems": layers["span_errors"] + [
            e for o in over for e in o["span_errors"]
        ] + [
            f"bench.trace_overhead_ratio {r:.4f} on {n} exceeds "
            f"{TRACE_OVERHEAD_LIMIT}"
            for n, r in ratios.items() if r > TRACE_OVERHEAD_LIMIT
        ],
        "attempted": attempted,
        "failed": failed,
    }


def full_main(args, contract: Dict) -> int:
    """Every workload (tracing off), then the traced per-layer run."""
    units = _units(contract)
    names = [w["name"] for w in contract["workloads"]]
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    ok = True
    if not args.layers:
        for r in range(1 if args.quick else args.runs):
            seed = args.seed + r
            results = {}
            for name in names:
                res = run_timed(
                    name, seed, args.seconds, out, quick=args.quick
                )
                print_timed(res, units)
                ok = ok and res["correct"]
                # the raw samples stay out of the ledger entry
                results[name] = {
                    k: v for k, v in res.items()
                    if k not in ("unit_samples", "unit_slowdowns")
                }
            runs.append({"seed": seed, "workloads": results})
    # --quick measures the recorder's overhead on one cheap workload
    over = ["warm_sweep_local"] if args.quick else names
    traced = traced_section(over, args.seed, args.seconds, out, args.quick)
    print("traced run (per-layer metrics)")
    print_layers(traced["metrics"], traced["notes"], units)
    for name, ratio in traced["trace_overhead_ratio"].items():
        print(
            f"  {'bench.trace_overhead_ratio':36s} {ratio:16.6g} "
            f"ratio   ({name})"
        )
    print_budget("layer probes", traced["self_times"]["layer probes"])
    for problem in traced["problems"]:
        print(f"  check failed: {problem}")
    ok = ok and not traced["problems"] and not traced["failed"]
    timed = [w for r in runs for w in r["workloads"].values()]
    attempted = sum(w["attempted"] for w in timed)
    failed = sum(w["failed"] for w in timed)
    summary = {
        "schema": SUMMARY_SCHEMA,
        "fingerprint": env.fingerprint(
            args.seed,
            {n: w["attempted"] for n, w in runs[0]["workloads"].items()}
            if runs else {},
        ),
        "seconds": args.seconds,
        "quick": args.quick,
        "runs": runs,
        "layers": traced,
        "failed_fraction": failed / attempted if attempted else 0.0,
        "sim_mismatch_fraction": max(
            (w["derived"]["sim_mismatch_fraction"] for w in timed),
            default=0.0,
        ),
        "correct": ok,
        # this benchmark defines the ledger; it claims no gain
        "claim": None,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out / 'summary.json'}")
    print(json.dumps({"correct": ok, "claim": None}))
    return 0 if ok else 1


def update_golden(contract: Dict, out: Path) -> int:
    """Rewrite ``golden.json`` from one unit per workload at the
    default seed (the only way that file is ever written)."""
    digests = {}
    for w in contract["workloads"]:
        answer = spawn(
            {
                "mode": "golden",
                "workload": w["name"],
                "seed": env.DEFAULT_SEED,
            },
            SCRATCH / "golden",
            out / f"{w['name']}.log",
        )
        digests[w["name"]] = answer["digests"]
        points = sum(len(v) for v in answer["digests"].values())
        print(f"{w['name']}: {points} point digests")
    env.GOLDEN.write_text(
        json.dumps(
            {
                "schema": "bench.golden/v1",
                "seed": env.DEFAULT_SEED,
                "fingerprint": env.fingerprint(env.DEFAULT_SEED),
                "workloads": digests,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {env.GOLDEN}")
    return 0


def main(argv=None) -> int:
    contract = env.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=env.DEFAULT_SEED)
    ap.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help="timed seconds per workload run (default: run_seconds)",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=env.WORK / "out",
                    help="output directory (default .bench_build/out)")
    ap.add_argument("--runs", type=int, default=1,
                    help="full sets to run, at seeds seed, seed+1, ...")
    ap.add_argument("--quick", action="store_true",
                    help="one unit per workload, no bounds, under 60 s")
    ap.add_argument("--layers", action="store_true",
                    help="only the traced per-layer run")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two output directories")
    ap.add_argument("--update-golden", action="store_true")
    args = ap.parse_args(argv)

    if args.compare:
        from bench.compare import compare_main

        return compare_main(Path(args.compare[0]), Path(args.compare[1]),
                            contract)
    reason = env.refusal()
    if reason:
        print(f"error: {reason}", file=sys.stderr)
        return 2
    try:
        if args.update_golden:
            return update_golden(contract, args.out)
        if args.workload:
            return contract_main(args, contract)
        return full_main(args, contract)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
