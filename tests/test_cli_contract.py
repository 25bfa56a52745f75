"""Contract of the ``repro-dragonfly`` command line.

Two halves, both recorded once and asserted as literals:

* the option table of every verb — flags, ``dest``, default, type,
  choices and ``nargs`` of each argument (order within a verb is not
  part of the contract; the verb list's order is);
* stdout / stderr / exit-code transcripts of the offline verbs, their
  error paths, the service verbs against an unreachable address and one
  ``watch`` / ``submit --watch`` round trip against a live in-process
  service.  The transcripts live in ``data/cli_transcripts.json``; temp
  paths, the repository root and the live server's address are
  normalised before comparison.

A refactor of ``repro/cli.py`` must leave both untouched.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import threading
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_transcripts.json"

# -- option tables -------------------------------------------------------
# (flags or positional dest, dest, default, type name, choices, nargs);
# recorded with USER=tester and REPRO_CACHE_DIR=/store.
_SCALES = ("quick", "default", "full")
_EXEC = [
    (("--workers",), "workers", None, "int", None, None),
    (("--cache-dir",), "cache_dir", None, None, None, None),
    (("--out",), "out", None, None, None, None),
    (("--csv",), "csv", None, None, None, None),
    (("--metrics",), "metrics", None, None, None, None),
    (("--progress",), "progress", False, None, None, 0),
    (("-v", "--verbose"), "verbose", False, None, None, 0),
]


def _workload(points, max_rate):
    return [
        (("--arch",), "arch", "switchless,dragonfly", None, None, None),
        (("--routing",), "routing", "minimal", None,
         ("minimal", "valiant"), None),
        (("--scope",), "scope", "local", None, ("local", "global"), None),
        (("--pattern",), "pattern", "uniform", None, None, None),
        (("--preset",), "preset", "small_equiv", None, None, None),
        (("--points",), "points", points, "int", None, None),
        (("--max-rate",), "max_rate", max_rate, "float", None, None),
        (("--warmup",), "warmup", 300, "int", None, None),
        (("--measure",), "measure", 1000, "int", None, None),
        (("--seed",), "seed", 0, "int", None, None),
    ]


_SERVER = (("--server",), "server", None, None, None, None)

OPTION_TABLE = {
    "tables": [],
    "table3": [],
    "layout": [],
    "run": [
        ("scenario", "scenario", None, None, None, None),
        (("--scale",), "scale", "default", None, _SCALES, None),
        (("--workload",), "workload", None, None, None, None),
        (("--workload-opts",), "workload_opts", None, None, None, None),
    ] + _EXEC,
    "list": [(("--tag",), "tag", None, None, None, None)],
    "compare": _workload(6, 1.5) + _EXEC,
    "resilience": [
        (("--failure-rates",), "failure_rates", "0,0.02,0.05,0.1", None,
         None, None),
        (("--model",), "model", "random", None, ("random", "yield"), None),
        (("--fault-seed",), "fault_seed", 7, "int", None, None),
        (("--no-verify",), "no_verify", False, None, None, 0),
        (("--max-pairs",), "max_pairs", 300, "int", None, None),
        (("--smoke",), "smoke", False, None, None, 0),
    ] + _workload(4, 0.6) + _EXEC,
    "report": [
        ("results", "results", None, None, None, None),
        (("--csv",), "csv", None, None, None, None),
        (("--channel",), "channel", None, None, None, None),
    ],
    "metrics": [
        ("results", "results", None, None, None, "?"),
        _SERVER,
        (("--live",), "live", False, None, None, 0),
        (("--interval",), "interval", 2.0, "float", None, None),
        (("--count",), "count", None, "int", None, None),
    ],
    "workloads": [],
    "verify": [
        (("--policy",), "policy", "baseline", None,
         ("baseline", "reduced"), None),
        (("--max-pairs",), "max_pairs", 2000, "int", None, None),
    ],
    "serve": [
        (("--host",), "host", "127.0.0.1", None, None, None),
        (("--port",), "port", 8642, "int", None, None),
        (("--cache-dir",), "cache_dir", "/store", None, None, None),
        (("--workers",), "workers", 1, "int", None, None),
        (("--max-inflight",), "max_inflight", 8, "int", None, None),
        (("--max-entries",), "max_entries", None, "int", None, None),
        (("--max-bytes",), "max_bytes", None, "int", None, None),
        (("--state-dir",), "state_dir", None, None, None, None),
        (("--max-attempts",), "max_attempts", 3, "int", None, None),
        (("--hang-timeout",), "hang_timeout", None, "float", None, None),
        (("--log-format",), "log_format", "text", None, ("text", "json"),
         None),
    ],
    "trace": [
        ("job", "job", None, None, None, None),
        (("--json",), "json", False, None, None, 0),
        _SERVER,
    ],
    "submit": [
        ("scenario", "scenario", None, None, None, None),
        (("--scale",), "scale", "default", None, _SCALES, None),
        (("--metrics",), "metrics", None, None, None, None),
        (("--workers",), "workers", None, "int", None, None),
        (("--client",), "client", "tester", None, None, None),
        (("--priority",), "priority", 0, "int", None, None),
        (("--watch",), "watch", False, None, None, 0),
        (("--out",), "out", None, None, None, None),
        (("--csv",), "csv", None, None, None, None),
        _SERVER,
    ],
    "status": [("job", "job", None, None, None, "?"), _SERVER],
    "watch": [
        ("job", "job", None, None, None, None),
        (("--out",), "out", None, None, None, None),
        (("--csv",), "csv", None, None, None, None),
        _SERVER,
    ],
    "cancel": [("job", "job", None, None, None, None), _SERVER],
    "shutdown": [_SERVER],
    "cache": [
        ("action", "action", "stats", None, ("stats", "clear", "prune"),
         "?"),
        (("--cache-dir",), "cache_dir", "/store", None, None, None),
        (("--max-entries",), "max_entries", None, "int", None, None),
        (("--max-bytes",), "max_bytes", None, "int", None, None),
    ],
}


class _Grabbed(Exception):
    pass


def _cli_parser(monkeypatch) -> argparse.ArgumentParser:
    """The parser ``main`` builds, caught at its ``parse_args`` call."""
    grabbed = []

    def grab(self, args=None, namespace=None):
        grabbed.append(self)
        raise _Grabbed

    monkeypatch.setenv("USER", "tester")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/store")
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", grab)
    with pytest.raises(_Grabbed):
        main(["tables"])
    return grabbed[0]


def _row(action):
    kind = action.type
    return (
        tuple(action.option_strings) or action.dest,
        action.dest,
        action.default,
        getattr(kind, "__name__", kind),
        tuple(action.choices) if action.choices else None,
        action.nargs,
    )


def _verbs(monkeypatch):
    parser = _cli_parser(monkeypatch)
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices


def test_verb_list(monkeypatch):
    assert list(_verbs(monkeypatch)) == list(OPTION_TABLE)


@pytest.mark.parametrize("verb", list(OPTION_TABLE))
def test_option_table(monkeypatch, verb):
    parser = _verbs(monkeypatch)[verb]
    got = {
        row[0]: row
        for row in map(_row, parser._actions)
        if row[1] != "help"
    }
    assert got == {row[0]: row for row in OPTION_TABLE[verb]}


# -- transcripts ---------------------------------------------------------
SMOKE = "<repo>/scenarios/smoke.json"
NOWHERE = ["--server", "http://127.0.0.1:1"]  # nothing listens there
_QUICK = ["smoke", "--scale", "quick", "--workers", "1"]
_RESILIENCE = [
    "resilience", "--arch", "switchless", "--failure-rates", "0,0.05",
    "--points", "2", "--max-rate", "0.3", "--preset", "radix8_equiv",
    "--warmup", "80", "--measure", "200", "--workers", "1",
]

#: case id -> invocations, run in order in one temp directory, one
#: transcript row each; an invocation may start with a dict of
#: environment overrides.
CASES = {
    "tables": [["tables"]],
    "table3": [["table3"]],
    "layout": [["layout"]],
    "list": [["list"]],
    "list-tag": [["list", "--tag", "resilience"]],
    "list-tag-unknown": [["list", "--tag", "martian"]],
    "workloads": [["workloads"]],
    "metrics-kinds": [["metrics"]],
    "verify": [["verify", "--policy", "reduced", "--max-pairs", "40"]],
    "run-cache-replay": [
        ["run", SMOKE, "--workers", "1", "--cache-dir", "<tmp>/cache",
         "--out", "<tmp>/res.json", "--csv", "<tmp>/res.csv",
         "--progress"],
        ["run", SMOKE, "--workers", "1", "--cache-dir", "<tmp>/cache",
         "--progress"],
        ["report", "<tmp>/res.json", "--csv", "<tmp>/again.csv"],
        ["metrics", "<tmp>/res.json"],
        ["report", "<tmp>/res.json", "--channel", "link_util"],
        ["cache", "stats", "--cache-dir", "<tmp>/cache"],
    ],
    "run-metrics-channels": [
        ["run", *_QUICK, "--metrics", "link_util,misroute",
         "--out", "<tmp>/m.json"],
        ["metrics", "<tmp>/m.json"],
        ["report", "<tmp>/m.json", "--channel", "link_util",
         "--csv", "<tmp>/links.csv"],
        ["report", "<tmp>/m.json", "--channel", "link_utl"],
    ],
    "run-workload": [
        ["run", *_QUICK, "--workload", "ring_allreduce",
         "--workload-opts", "volume=32", "--metrics", "cct",
         "--out", "<tmp>/w.json"],
        ["report", "<tmp>/w.json", "--channel", "cct"],
    ],
    "compare": [
        ["compare", "--arch", "switchless", "--points", "2",
         "--max-rate", "0.4", "--warmup", "100", "--measure", "250",
         "--workers", "1", "--progress", "--out", "<tmp>/c.json",
         "--csv", "<tmp>/c.csv"],
    ],
    "resilience": [
        [*_RESILIENCE, "--max-pairs", "40", "--cache-dir", "<tmp>/cache",
         "--out", "<tmp>/r.json", "--csv", "<tmp>/r.csv", "--progress"],
        [*_RESILIENCE, "--no-verify", "--cache-dir", "<tmp>/cache"],
    ],
    "err-run-unknown-name": [["run", "figuresque"]],
    "err-run-misspelled-name": [["run", "fig10_locale"]],
    "err-run-missing-file": [["run", "no/such/scenario.json"]],
    "err-run-schema": [["run", "<tmp>/martian.json"]],
    "err-run-bad-metrics": [["run", *_QUICK, "--metrics", "link_utl"]],
    "err-run-bad-workload": [["run", *_QUICK, "--workload", "ring_alreduce"]],
    "err-run-workload-opts": [
        ["run", *_QUICK, "--workload", "ring_allreduce",
         "--workload-opts", "volume"],
    ],
    "err-run-missing-trace": [
        ["run", *_QUICK, "--workload", "trace",
         "--workload-opts", "trace=<tmp>/no-trace.json"],
    ],
    "err-env-workers": [
        [{"REPRO_WORKERS": "zero"}, "run", *_QUICK[:3], "--cache-dir",
         "<tmp>/cache"],
    ],
    "err-report-missing": [["report", "<tmp>/nope.json"]],
    "err-report-schema": [["report", "<tmp>/martian.json"]],
    "err-metrics-missing": [["metrics", "<tmp>/nope.json"]],
    "err-compare-preset": [
        ["compare", "--arch", "switchless", "--preset", "small_equif",
         "--points", "1"],
    ],
    "err-compare-arch": [["compare", "--arch", "torus9d", "--points", "1"]],
    "err-compare-pattern": [
        ["compare", "--arch", "switchless", "--pattern", "unifrom",
         "--points", "1"],
    ],
    "err-resilience-arch": [["resilience", "--arch", "torus9d"]],
    "err-resilience-rates": [["resilience", "--failure-rates", "0,zap"]],
    "err-resilience-yield": [
        ["resilience", "--model", "yield", "--arch", "switchless,dragonfly"],
    ],
    "cache-offline": [
        ["cache", "--cache-dir", "<tmp>/store"],
        ["cache", "prune", "--cache-dir", "<tmp>/store"],
        ["cache", "prune", "--cache-dir", "<tmp>/store",
         "--max-entries", "1"],
        ["cache", "clear", "--cache-dir", "<tmp>/store"],
    ],
    "err-serve-bounds": [
        ["serve", "--port", "0", "--cache-dir", "<tmp>/store",
         "--max-entries", "0"],
    ],
    "err-unreachable": [
        ["status", *NOWHERE],
        ["status", "j000001", *NOWHERE],
        ["watch", "j000001", *NOWHERE],
        ["trace", "j000001", *NOWHERE],
        ["cancel", "j000001", *NOWHERE],
        ["shutdown", *NOWHERE],
        ["metrics", *NOWHERE],
        ["metrics", "--live", "--count", "1", *NOWHERE],
        ["submit", *_QUICK[:3], *NOWHERE],
        ["submit", "figuresque", *NOWHERE],
    ],
}


def _normalise(text: str, tmp: Path) -> str:
    return text.replace(str(tmp), "<tmp>").replace(str(REPO_ROOT), "<repo>")


def _invoke(argv, tmp: Path, monkeypatch, capsys):
    argv = list(argv)
    with monkeypatch.context() as env:
        if argv and isinstance(argv[0], dict):
            for name, value in argv.pop(0).items():
                env.setenv(name, value)
        argv = [
            a.replace("<tmp>", str(tmp)).replace("<repo>", str(REPO_ROOT))
            for a in argv
        ]
        rc = main(argv)
    captured = capsys.readouterr()
    return [rc, _normalise(captured.out, tmp), _normalise(captured.err, tmp)]


@pytest.fixture(autouse=True)
def _root_logging():
    """``serve`` installs a stderr log handler on the root logger; undo
    it so no later transcript picks up service log lines."""
    root = logging.getLogger()
    handlers, level = list(root.handlers), root.level
    yield
    root.handlers[:] = handlers
    root.setLevel(level)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture()
def quiet_client(monkeypatch):
    """No retry back-off sleeps against the unreachable address."""
    from repro.service import client

    monkeypatch.setattr(client.time, "sleep", lambda _s: None)


@pytest.mark.parametrize("case", list(CASES))
def test_transcript(case, golden, tmp_path, monkeypatch, capsys,
                    quiet_client):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    (tmp_path / "martian.json").write_text('{"schema": "martian/v7"}')
    got = [
        _invoke(argv, tmp_path, monkeypatch, capsys)
        for argv in CASES[case]
    ]
    assert got == golden[case]


# -- a live service: watch / submit --watch ------------------------------
@pytest.fixture()
def live_server(tmp_path, monkeypatch):
    from repro.service import create_server

    # server log lines are not part of the CLI transcript
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", False)

    server = create_server(
        host="127.0.0.1", port=0, cache_dir=tmp_path / "store",
        default_workers=1,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.initiate_shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_service_transcript(golden, live_server, tmp_path, monkeypatch,
                            capsys):
    def run(argv):
        rc, out, err = _invoke(
            [*argv, "--server", live_server], tmp_path, monkeypatch, capsys
        )
        return [rc, out.replace(live_server, "<server>"),
                err.replace(live_server, "<server>")]

    rc, job, _ = run(["submit", SMOKE])
    assert rc == 0
    job = job.strip()
    watched = run(["watch", job, "--out", "<tmp>/w.json",
                   "--csv", "<tmp>/w.csv"])
    rc, out, _ = run(["submit", SMOKE, "--watch", "--out", "<tmp>/s.json"])
    # the second submission is a warm replay: its id is the next one
    got = [watched, [rc, re.sub(r"^j\d+\n", "<job>\n", out)]]
    assert got == golden["service"]
    assert (tmp_path / "w.csv").read_text().startswith("scenario,curve,")
