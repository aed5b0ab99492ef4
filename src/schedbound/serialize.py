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


# the template of every float cell
_FLOAT_FORMAT = "%.17g"
# the data formats of serialize, which are cli's --format choices
FORMATS = ("csv", "json")
# rows that the writer holds at once
CSV_BLOCK = 4096


def _template(tp: type) -> str | None:
    """The %-template of a cell of type tp: _FLOAT_FORMAT for a float, "%d" for an int but no bool, else None."""
    # no numpy value can exist before numpy is loaded, so a table of Python values never imports it
    np = sys.modules.get("numpy")
    floats, ints = (float, int) if np is None else ((float, np.floating), (int, np.integer))
    if issubclass(tp, floats):
        return _FLOAT_FORMAT
    return "%d" if issubclass(tp, ints) and not issubclass(tp, bool) else None


def _cell(x) -> str:
    if template := _template(type(x)):
        return template % x
    np = sys.modules.get("numpy")  # as in _template
    if isinstance(x, bool) or np is not None and isinstance(x, np.bool_):
        return "true" if x else "false"
    return str(x)


def _column_format(column) -> str | None:
    """The one template that every cell type of the column maps to, else None."""
    templates = set(map(_template, set(map(type, column))))
    return templates.pop() if len(templates) == 1 else None


def _blocks(header: Sequence[str], rows: Iterable[Sequence]):
    """The rows in blocks of CSV_BLOCK, each checked to have the shape that csv_text asks for."""
    if not header:
        raise ValueError("a table needs a header of at least one column")
    rows = iter(rows)
    while block := list(itertools.islice(rows, CSV_BLOCK)):
        if set(map(len, block)) != {len(header)}:
            raise ValueError(f"every table row needs {len(header)} cells, one per header column")
        yield block


def _block_lines(block: list) -> list[str]:
    """The CSV lines of a block of rows, by one row template: each column's _column_format, else _cell per cell."""
    columns = list(zip(*block))
    formats = [_column_format(column) for column in columns]
    columns = [column if fmt else [_cell(x) for x in column] for column, fmt in zip(columns, formats)]
    return list(map(",".join(fmt or "%s" for fmt in formats).__mod__, zip(*columns)))


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text: the header line, then one line per row, each cell as _cell writes it.

    A header of no column, or a row of another width, is a ValueError.
    """
    lines = [",".join(header)]
    for block in _blocks(header, rows):
        lines += _block_lines(block)
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """Deterministic JSON: sorted keys, floats via repr (shortest round-trip).

    numpy scalars and arrays go in as their Python values.  Non-finite
    floats are rejected; the output must stay parseable by any JSON reader.
    """
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_numpy_value) + "\n"


def _numpy_value(obj):
    np = sys.modules.get("numpy")  # as in _template
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

    JSON holds one object per row, keyed by the header; the table has csv_text's shape.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown data format {fmt!r} (use {' or '.join(FORMATS)})")
    if fmt == "json":
        text = json_text([dict(zip(header, row)) for block in _blocks(header, rows) for row in block])
    else:
        text = csv_text(header, rows)
    return write_text(os.path.join(outdir, f"{name}.{fmt}"), text)


def write_summary(outdir: str, name: str, summary: dict) -> dict:
    """Write summary as <outdir>/<name>_summary.json; return it with summary_file set."""
    path = write_text(os.path.join(outdir, f"{name}_summary.json"), json_text(summary))
    return {**summary, "summary_file": path}
