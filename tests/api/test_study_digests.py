"""Every bundled study, pinned by digest: its definition and its points.

``tests/data/study_digests.json`` holds two sections of 16-hex sha256
digests:

* ``definitions``: each bundled study's canonical ``to_data()`` JSON at
  ``quick``, ``default`` and ``full``.  A library edit that moves any
  curve, rate, window, note or tag fails here, including at the two
  scales no ``scenarios/*.json`` file pins.
* ``points``: each point's ``SimResult`` (every field and channel) when
  the study runs at ``quick``, keyed ``scenario/curve@rate``.  A
  simulator, routing or traffic edit that moves any simulated number
  fails here and names the points that moved.  The cores are
  bit-identical by contract, so the section holds under
  ``REPRO_SIM_CORE=reference`` as well as on the compiled kernel.

Refresh the file on purpose, and say which studies changed and why,
with::

    PYTHONPATH=src python tests/api/test_study_digests.py --update
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import SCALES, build_study, list_library

DIGESTS = Path(__file__).resolve().parents[1] / "data" / "study_digests.json"


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def definition_digest(name: str, scale: str) -> str:
    """16-hex sha256 of ``build_study(name, scale)``'s canonical JSON."""
    return _digest(build_study(name, scale).to_data())


def definitions() -> dict:
    return {
        name: {scale: definition_digest(name, scale) for scale in SCALES}
        for name in list_library()
    }


def point_digests(name: str) -> dict:
    """``scenario/curve@rate`` -> 16-hex sha256 of that point's
    ``SimResult.to_dict()``, for ``name`` run at ``quick``."""
    result = build_study(name, "quick").run(workers=1)
    return {
        f"{scn.name}/{curve.label}@{point.rate!r}":
            _digest(point.result.to_dict())
        for scn in result
        for curve in scn
        for point in curve.points
    }


def _pinned(section: str = "definitions") -> dict:
    return json.loads(DIGESTS.read_text())[section]


def test_every_bundled_study_is_pinned():
    assert sorted(_pinned()) == list_library()
    assert sorted(_pinned("points")) == list_library()


@pytest.mark.parametrize("name", list_library())
def test_definition_unchanged(name):
    now = {scale: definition_digest(name, scale) for scale in SCALES}
    assert now == _pinned()[name], (
        f"{name}: definition moved; if on purpose, rerun "
        "tests/api/test_study_digests.py --update"
    )


@pytest.mark.parametrize("name", list_library())
def test_points_unchanged(name):
    now, pinned = point_digests(name), _pinned("points")[name]
    moved = sorted(
        key for key in now.keys() | pinned.keys()
        if now.get(key) != pinned.get(key)
    )
    assert not moved, (
        f"{name}: {len(moved)} of {len(pinned)} point(s) moved "
        f"(or appeared/vanished): {moved}; if on purpose, rerun "
        "tests/api/test_study_digests.py --update"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help=f"rewrite both sections of {DIGESTS.name}",
    )
    if not parser.parse_args(argv).update:
        parser.error("nothing to do without --update")
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data["definitions"] = definitions()
    data["points"] = {name: point_digests(name) for name in list_library()}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
