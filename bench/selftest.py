"""``python3 bench/selftest.py``: run ``--quick`` and assert the
benchmark's contract mechanically.

Checked: BENCHMARK.json has exactly the contract's keys and sizes
(2-8 workloads, <=16 end-to-end and <=128 per-layer metrics, names
match ``[A-Za-z0-9][A-Za-z0-9_.-]*``, used once, ``setup_s`` present);
the quick run exits 0; every named workload reports every end-to-end
metric, and the traced run every per-layer metric, each a number with a
unit; spans nest; the summary ends with ``"claim": null``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import env  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}


def check_contract(contract: dict) -> None:
    assert set(contract) == KEYS, sorted(contract)
    assert contract["paths"] == ["bench"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"}, w
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
        names.append(w["name"])
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
        names.append(m["name"])
    for m in contract["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
        names.append(m["name"])
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for n in names:
        assert NAME.match(n), n
    assert len(set(names)) == len(names), "a name is used twice"
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def main() -> int:
    contract = env.load_contract()
    check_contract(contract)
    out = env.WORK / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--quick",
         "--out", str(out)],
        cwd=env.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last == {"correct": True, "claim": None}, last

    summary = json.loads((out / "summary.json").read_text())
    assert summary["claim"] is None and summary["correct"] is True
    assert summary["failed_fraction"] == 0
    assert summary["sim_mismatch_fraction"] == 0
    for key in ("git_rev", "nproc", "cpu_model", "python", "numpy", "cc",
                "platform", "env", "seed", "units"):
        assert key in summary["fingerprint"], key
    workloads = summary["runs"][0]["workloads"]
    for w in contract["workloads"]:
        got = workloads[w["name"]]
        assert got["attempted"] >= 1 and got["failed"] == 0, w["name"]
        for m in contract["end_to_end"]:
            value = got["metrics"][m["name"]]
            assert isinstance(value, float) and value > 0, (w["name"], m)
    layers = summary["layers"]
    assert not layers["problems"], layers["problems"]
    for m in contract["per_layer"]:
        value = layers["metrics"][m["name"]]
        assert isinstance(value, (int, float)), m
    spans = [json.loads(l) for l in
             (out / "spans.ndjson").read_text().splitlines()]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    print(
        f"selftest ok: {len(workloads)} workloads, "
        f"{len(contract['end_to_end'])} end-to-end and "
        f"{len(contract['per_layer'])} per-layer metrics, "
        f"{len(spans)} spans"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
