"""``python -m repro.api DIR [--scale S]``: write the bundled scenario
library to ``DIR/<name>.json`` (``scenarios/`` holds the ``default``
scale)."""

from __future__ import annotations

import argparse

from .library import SCALES, save_library


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api",
        description="write the bundled scenario library to JSON files",
    )
    parser.add_argument("directory", help="output directory")
    parser.add_argument("--scale", choices=SCALES, default="default")
    args = parser.parse_args(argv)
    for path in save_library(args.directory, scale=args.scale):
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
