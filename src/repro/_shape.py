"""The JSON-shape check shared by every parser of external documents.

A leaf module: reading a results file (``report``, ``metrics <file>``)
checks shapes without loading the experiment registries behind
:mod:`repro.engine.spec`.
"""

from __future__ import annotations

__all__ = ["shaped"]


def shaped(value, kind: type, what: str):
    """``value`` when it is a ``kind`` (``dict``: a JSON object,
    ``list``: an array), else a ``ValueError`` naming ``what`` — parsers
    of external JSON check a shape before indexing into it, so hostile
    input is a clear error instead of an ``AttributeError``."""
    if not isinstance(value, kind):
        shape = "object" if kind is dict else "array"
        raise ValueError(f"{what} must be a JSON {shape}, got {value!r:.60}")
    return value
