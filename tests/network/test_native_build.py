"""The kernel's build path: flag-set fallback, cache reuse, clean-up.

``_compile_library`` tries each entry of ``_FLAG_SETS`` in order and
caches the first that builds.  A fake compiler that refuses
``-pthread`` (a toolchain without pthreads) must push it onto the
serial set, leave nothing of the failed attempt in the cache, and a
second call must find the cached build without starting a compiler.
The build writes only files that do not exist yet (and none under
``TMPDIR``), yields the same bytes as a plain one-step ``gcc``, says
why when no flag set builds, and honours a ``CC`` with arguments.
"""

import ctypes
import logging
import shutil
import stat
import subprocess

import pytest

from repro.network import native

pytestmark = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="needs gcc behind the fake CC"
)


def _script(tmp_path, body):
    """An executable ``/bin/sh`` script ``fake-cc`` running ``body``."""
    script = tmp_path / "fake-cc"
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return script


@pytest.fixture()
def fake_cc(tmp_path, monkeypatch):
    """A ``CC`` that logs its argv, fails on ``-pthread`` and otherwise
    runs gcc; returns the log path."""
    log = tmp_path / "cc.log"
    script = _script(
        tmp_path,
        f'echo "$*" >> "{log}"\n'
        'for arg in "$@"; do\n'
        '  [ "$arg" = "-pthread" ] && exit 1\n'
        "done\n"
        'exec gcc "$@"\n',
    )
    monkeypatch.setenv("CC", str(script))
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    return log


def test_serial_fallback_is_cached_and_reused(fake_cc, tmp_path):
    path = native._compile_library()
    assert path is not None

    calls = fake_cc.read_text().splitlines()
    assert len(calls) == 2
    threaded, serial = native._FLAG_SETS
    assert calls[0].startswith(" ".join(threaded))
    assert calls[1].startswith(" ".join(serial))

    # the failed attempt left neither a .so nor a temp file behind
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        path.name
    ]
    lib = ctypes.CDLL(str(path))
    assert hasattr(lib, "sim_run_batch")

    # a second call finds the cached build without a compiler
    assert native._compile_library() == path
    assert len(fake_cc.read_text().splitlines()) == 2


def test_build_writes_only_new_files(tmp_path, monkeypatch):
    # a compiler that refuses an -o target which already exists: a
    # build that pre-creates its output (mkstemp) cannot pass this
    script = _script(
        tmp_path,
        "prev=\n"
        'for arg in "$@"; do\n'
        '  [ "$prev" = "-o" ] && [ -e "$arg" ] && exit 1\n'
        '  prev="$arg"\n'
        "done\n"
        'exec gcc "$@"\n',
    )
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setenv("CC", str(script))
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))

    path = native._compile_library()
    assert path is not None
    assert list(tmpdir.iterdir()) == []
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [path.name]


def test_build_matches_plain_gcc(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", "gcc")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    path = native._compile_library()
    assert path is not None

    plain = tmp_path / "x.so"
    subprocess.run(
        ["gcc", *native._FLAG_SETS[0], str(native._C_SOURCE), "-o", plain],
        check=True,
    )
    assert path.read_bytes() == plain.read_bytes()


def test_failed_build_logs_stderr_tail(tmp_path, monkeypatch, caplog):
    script = _script(tmp_path, 'echo "cc1: fatal: no MARKER" >&2\nexit 1\n')
    monkeypatch.setenv("CC", str(script))
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))

    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert native._compile_library() is None
    (record,) = caplog.records
    message = record.getMessage()
    assert "cc1: fatal: no MARKER" in message
    # names the last command tried: the serial set
    assert " ".join([str(script), *native._FLAG_SETS[-1]]) in message
    assert list((tmp_path / "cache").iterdir()) == []


def test_cc_with_arguments(tmp_path, monkeypatch):
    log = tmp_path / "cc.log"
    script = _script(tmp_path, f'echo "$*" >> "{log}"\nexec gcc "$@"\n')
    monkeypatch.setenv("CC", f"{script} -DMARK")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))

    assert native._compile_library() is not None
    (call,) = log.read_text().splitlines()
    assert call.split()[0] == "-DMARK"


def test_missing_cc_warns_and_falls_back(monkeypatch, caplog):
    monkeypatch.setenv("CC", "no-such-compiler -m64")
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        cc = native._find_cc()
    assert cc is not None and cc[0] in ("cc", "gcc", "clang")
    (record,) = caplog.records
    assert "no-such-compiler" in record.getMessage()
