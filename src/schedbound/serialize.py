"""CSV and JSON emission shared by the library and the CLI.

Every artifact goes through `serialize` (a table as CSV or JSON) and
`write_summary` (a `*_summary.json`).  Floats are written with 17
significant digits so that files round-trip to the exact binary value and
repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

import numpy as np


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format_float(float(x))
    return str(x)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """Deterministic JSON: sorted keys, floats via repr (shortest round-trip).

    Non-finite floats are rejected; the output must stay parseable by any
    JSON reader.
    """
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def write_text(path: str, text: str) -> str:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def serialize(outdir: str, name: str, header: Sequence[str], rows: Iterable[Sequence], fmt: str = "csv") -> str:
    """Write a table as <outdir>/<name>.csv or, for fmt "json", <name>.json; return the path.

    JSON holds one object per row, keyed by the header.
    """
    if fmt == "json":
        text = json_text([dict(zip(header, row)) for row in rows])
    elif fmt == "csv":
        text = csv_text(header, rows)
    else:
        raise ValueError(f"unknown data format {fmt!r} (use csv or json)")
    return write_text(os.path.join(outdir, f"{name}.{fmt}"), text)


def write_summary(outdir: str, name: str, summary: dict) -> dict:
    """Write summary as <outdir>/<name>_summary.json; return it with summary_file set."""
    path = write_text(os.path.join(outdir, f"{name}_summary.json"), json_text(summary))
    return {**summary, "summary_file": path}
