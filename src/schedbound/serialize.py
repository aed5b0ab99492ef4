"""CSV and JSON emission shared by the library and the CLI.

Every artifact goes through `serialize` (a table as CSV or JSON) and
`write_summary` (a `*_summary.json`).  Floats are written with 17
significant digits so that files round-trip to the exact binary value and
repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from typing import Iterable, Sequence


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _cell(x) -> str:
    # no numpy value can exist before numpy is loaded, so a table of Python values never imports it
    np = sys.modules.get("numpy")
    if isinstance(x, bool) or np is not None and isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, int) or np is not None and isinstance(x, np.integer):
        return str(int(x))
    if isinstance(x, float) or np is not None and isinstance(x, np.floating):
        return format_float(float(x))
    return str(x)


# rows that csv_text holds at once
CSV_BLOCK = 4096


def _column_format(column) -> str | None:
    """The %-template of a column whose cells are all floats ("%.17g") or all ints ("%d"), else None.

    A bool is an int to Python but is written as true/false, so it is no int here.
    """
    types = set(map(type, column))
    np = sys.modules.get("numpy")  # as in _cell
    floats = float if np is None else (float, np.floating)
    ints = int if np is None else (int, np.integer)
    if all(issubclass(tp, floats) for tp in types):
        return "%.17g"
    if all(issubclass(tp, ints) and not issubclass(tp, bool) for tp in types):
        return "%d"
    return None


def _block_lines(block: list) -> list[str]:
    """The CSV lines of a block of rows.

    A float or int column is formatted by one row template, which writes
    the same digits as _cell; any other column, and a block of ragged or
    empty rows, goes through _cell cell by cell.
    """
    widths = set(map(len, block))
    if widths == {0} or len(widths) > 1:
        return [",".join(_cell(x) for x in row) for row in block]
    columns = list(zip(*block))
    formats = [_column_format(column) for column in columns]
    columns = [column if fmt else [_cell(x) for x in column] for column, fmt in zip(columns, formats)]
    return list(map(",".join(fmt or "%s" for fmt in formats).__mod__, zip(*columns)))


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text: the header line, then one line per row, each cell as _cell writes it."""
    lines = [",".join(header)]
    rows = iter(rows)
    while block := list(itertools.islice(rows, CSV_BLOCK)):
        lines += _block_lines(block)
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """Deterministic JSON: sorted keys, floats via repr (shortest round-trip).

    numpy scalars and arrays go in as their Python values.  Non-finite
    floats are rejected; the output must stay parseable by any JSON reader.
    """
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_numpy_value) + "\n"


def _numpy_value(obj):
    np = sys.modules.get("numpy")  # as in _cell
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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
