"""The kernel's build path: flag-set fallback, cache reuse, clean-up.

``_compile_library`` tries each entry of ``_FLAG_SETS`` in order and
caches the first that builds.  A fake compiler that refuses
``-pthread`` (a toolchain without pthreads) must push it onto the
serial set, leave nothing of the failed attempt in the cache, and a
second call must find the cached build without starting a compiler.
"""

import ctypes
import shutil
import stat

import pytest

from repro.network import native

pytestmark = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="needs gcc behind the fake CC"
)


@pytest.fixture()
def fake_cc(tmp_path, monkeypatch):
    """A ``CC`` that logs its argv, fails on ``-pthread`` and otherwise
    runs gcc; returns the log path."""
    log = tmp_path / "cc.log"
    script = tmp_path / "fake-cc"
    script.write_text(
        "#!/bin/sh\n"
        f'echo "$*" >> "{log}"\n'
        'for arg in "$@"; do\n'
        '  [ "$arg" = "-pthread" ] && exit 1\n'
        "done\n"
        'exec gcc "$@"\n'
    )
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
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
