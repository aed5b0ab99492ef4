"""Write perfbench/repro_reference.json from one `schedbound repro all` run.

    python3 perfbench/make_reference.py

The repro-all check compares every later run against this file, so rewrite
it only for a change that is meant to move the repro results, and say why
in that change.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads


def main() -> int:
    outdir = run.WORK / "reference"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, "-m", "schedbound.cli", "repro", "all"], cwd=outdir, env=run.child_env(),
                       stdout=subprocess.DEVNULL, check=True)
        with open(outdir / "repro_all_summary.json", encoding="utf-8") as fh:
            values = workloads.headline_values(json.load(fh))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(values, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
