"""The kernel's build path: cache reuse, clean-up, failure reports.

``_compile_library`` builds ``_simcore.c`` with ``_FLAGS`` once and
caches it: a second call must find the cached build without starting
a compiler.  The build writes only files that do not exist yet (and
none under ``TMPDIR``), yields the same bytes as a plain one-step
``gcc``, leaves nothing behind and says why when it fails, and honours
a ``CC`` with arguments.

The load path builds every struct the kernel takes from the layout
the kernel exports, so patched copies of ``_simcore.c`` check that
contract: reordered fields change nothing, a renamed field fails at
the first fill naming it, and a build lacking a symbol says so.
"""

import ctypes
import logging
import shutil
import stat
import subprocess

import numpy as np
import pytest

from repro.engine.spec import ExperimentSpec, build_experiment
from repro.network import SimParams, Simulator, native
from repro.network.vecrandom import DestRows

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
    """A ``CC`` that logs its argv and runs gcc; returns the log path."""
    log = tmp_path / "cc.log"
    script = _script(tmp_path, f'echo "$*" >> "{log}"\nexec gcc "$@"\n')
    monkeypatch.setenv("CC", str(script))
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    return log


def test_build_is_cached_and_reused(fake_cc, tmp_path):
    path = native._compile_library()
    assert path is not None

    (call,) = fake_cc.read_text().splitlines()
    assert call.startswith(" ".join(native._FLAGS))

    # the build left neither a temp file nor a directory behind
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        path.name
    ]
    lib = ctypes.CDLL(str(path))
    assert hasattr(lib, "sim_run")

    # a second call finds the cached build without a compiler
    assert native._compile_library() == path
    assert len(fake_cc.read_text().splitlines()) == 1


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
        ["gcc", *native._FLAGS, str(native._C_SOURCE), "-o", plain],
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
    # names the command it ran
    assert " ".join([str(script), *native._FLAGS]) in message
    # a failed build leaves nothing behind
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


# ----------------------------------------------------------------------
# the layout contract
# ----------------------------------------------------------------------
def _swap(a, b):
    """An edit of the source exchanging its one ``a`` and one ``b``."""

    def edit(source):
        assert source.count(a) == source.count(b) == 1
        return source.replace(a, "\0").replace(b, a).replace("\0", b)

    return edit


def _load_patched(monkeypatch, tmp_path, edit):
    """Load ``edit(source)`` as the kernel, from a private cache; the
    module's own kernel comes back after the test."""
    source = native._C_SOURCE.read_text()
    patched = edit(source)
    assert patched != source
    path = tmp_path / "_simcore.c"
    path.write_text(patched)
    monkeypatch.setattr(native, "_C_SOURCE", path)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_LIB", None)
    monkeypatch.setattr(native, "_LIB_TRIED", False)
    return native.load_native()


def _result():
    """A native Valiant point on a switch-less system with unequal
    injection and ejection widths: it fills ``S``, ``Plane``,
    ``DestRows`` and ``ViaRows``."""
    spec = ExperimentSpec.create(
        topology="switchless",
        topology_opts={"preset": "radix8_equiv", "num_wgroups": 3},
        routing="switchless",
        routing_opts={"mode": "valiant"},
        traffic="uniform",
        params=SimParams(
            injection_width=2, ejection_width=1, warmup_cycles=100,
            measure_cycles=250, drain_cycles=150, seed=5,
        ),
        rates=[0.3],
    )
    graph, routing, traffic = build_experiment(spec)
    sim = Simulator(graph, routing, traffic, spec.params, core="native")
    return sim.run(spec.rates[0]).to_dict()


def test_reordered_fields_are_bit_identical(monkeypatch, tmp_path):
    want = _result()
    lib = _load_patched(
        monkeypatch,
        tmp_path,
        lambda source: _swap("X(i64, C)", "X(i64, L)")(
            _swap("X(i64, inj_w)", "X(i64, ej_w)")(source)
        ),
    )
    assert lib.structs["S"].ej_w.offset < lib.structs["S"].inj_w.offset
    assert lib.structs["Plane"].L.offset < lib.structs["Plane"].C.offset
    assert _result() == want


def test_renamed_field_fails_naming_it(monkeypatch, tmp_path):
    lib = _load_patched(
        monkeypatch,
        tmp_path,
        lambda source: source.replace("X(i64, ej_w)", "X(i64, ej_width)")
        .replace("s->ej_w", "s->ej_width"),
    )
    assert lib is not None
    with pytest.raises(TypeError, match="no field ej_w; ej_width left unset"):
        _result()


def test_fill_rejects_unknown_and_unset_fields():
    assert native.load_native() is not None
    row = dict(
        chain=False, ptr=[0, 2], val=None, key=[0], skip=[-1], fixed=[-1]
    )
    DestRows(**row)._struct  # every field given: fills
    with pytest.raises(TypeError, match="no field bogus"):
        DestRows(**row, bogus=[1])._struct
    del row["val"]
    with pytest.raises(TypeError, match="val left unset"):
        DestRows(**row)._struct
    with pytest.raises(TypeError, match="no field bogus"):
        native.kernel_struct("Plan", bogus=1)


def test_fill_checks_array_types():
    assert native.load_native() is not None
    with pytest.raises(TypeError, match="ptr takes a contiguous int64"):
        native.kernel_struct(
            "DestRows", chain=0, ptr=np.zeros(2), val=None,
            key=None, skip=None, fixed=None,
        )


def test_build_lacking_a_symbol_warns(tmp_path, monkeypatch, caplog):
    # a stale build: exports sim_run and nothing else
    stub = tmp_path / "stub.c"
    stub.write_text("long sim_run(void *s) { (void)s; return 0; }\n")
    script = _script(
        tmp_path, f'exec gcc -shared -fPIC "{stub}" -o k.so\n'
    )
    monkeypatch.setenv("CC", str(script))
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_LIB", None)
    monkeypatch.setattr(native, "_LIB_TRIED", False)

    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert native.load_native() is None
    (record,) = caplog.records
    message = record.getMessage()
    assert "sim_layout" in message and "draw_pass" in message
    assert str(native._compile_library()) in message
