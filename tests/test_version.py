"""The package version matches the one the distribution is built with."""

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    project = PYPROJECT.read_text().split("[project]", 1)[1]
    declared = re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
    assert repro.__version__ == declared
