#!/usr/bin/env python3
"""Regenerate every pinned experiment artifact.

Usage: python scripts/reproduce_all.py [OUTDIR]

Runs `schedbound repro all --outdir OUTDIR` (OUTDIR defaults to
./artifacts): the data files of every target plus repro_all_summary.json,
with the summary also printed to stdout.
"""

import sys

from schedbound import cli


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "artifacts"
    return cli.main(["repro", "all", "--outdir", outdir])


if __name__ == "__main__":
    raise SystemExit(main())
