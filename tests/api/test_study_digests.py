"""Every bundled study's definition, pinned by digest at every scale.

``tests/data/study_digests.json`` holds, under ``definitions``, a
16-hex sha256 of each bundled study's canonical ``to_data()`` JSON at
``quick``, ``default`` and ``full``.  A library edit that moves any
curve, rate, window, note or tag fails here, including at the two
scales no ``scenarios/*.json`` file pins.  Refresh the file on purpose,
and say which studies changed and why, with::

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


def definition_digest(name: str, scale: str) -> str:
    """16-hex sha256 of ``build_study(name, scale)``'s canonical JSON."""
    text = json.dumps(
        build_study(name, scale).to_data(),
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def definitions() -> dict:
    return {
        name: {scale: definition_digest(name, scale) for scale in SCALES}
        for name in list_library()
    }


def _pinned() -> dict:
    return json.loads(DIGESTS.read_text())["definitions"]


def test_every_bundled_study_is_pinned():
    assert sorted(_pinned()) == list_library()


@pytest.mark.parametrize("name", list_library())
def test_definition_unchanged(name):
    now = {scale: definition_digest(name, scale) for scale in SCALES}
    assert now == _pinned()[name], (
        f"{name}: definition moved; if on purpose, rerun "
        "tests/api/test_study_digests.py --update"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help=f"rewrite the 'definitions' section of {DIGESTS.name}",
    )
    if not parser.parse_args(argv).update:
        parser.error("nothing to do without --update")
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data["definitions"] = definitions()
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
