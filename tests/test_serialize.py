import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedbound import serialize as serialize_module
from schedbound.serialize import FORMATS, _cell, csv_text, json_text, serialize, write_summary, write_text


def test_float_cell_17_digits():
    assert _cell(1.0) == "1"
    assert _cell(0.1) == "0.10000000000000001"
    assert _cell(2.0 / 3.0) == "0.66666666666666663"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_cell_round_trips(x):
    assert float(_cell(x)) == x


def test_csv_text_layout():
    text = csv_text(["t", "v"], [(1, 0.5), (2, 1.0 / 3.0)])
    lines = text.splitlines()
    assert lines[0] == "t,v"
    assert lines[1] == "1,0.5"
    assert lines[2].startswith("2,0.33333333333333331")
    assert text.endswith("\n")


def test_csv_cell_types():
    text = csv_text(["a", "b", "c", "d"], [(True, 3, 0.25, "label")])
    assert text.splitlines()[1] == "true,3,0.25,label"


def test_csv_numpy_scalars():
    row = (np.int64(4), np.float64(0.5))
    assert csv_text(["a", "b"], [row]).splitlines()[1] == "4,0.5"


def _per_cell_csv(header, rows):
    """csv_text as one _cell call per cell."""
    return "".join(",".join(_cell(x) for x in row) + "\n" for row in [header, *rows])


_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-320])
_CELLS = {
    "float": _FLOATS,
    "np.float64": _FLOATS.map(np.float64),
    "np.float32": st.floats(width=32).map(np.float32),
    "int": st.integers() | st.sampled_from([2**53 + 1, -(2**70)]),
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "np.uint64": st.integers(0, 2**64 - 1).map(np.uint64),
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    "str": st.text("ab,-.e1", max_size=4),
}
_MIXED = st.one_of(*_CELLS.values())


@st.composite
def _tables(draw):
    """(header, rows): one to four typed or mixed columns, and rows as wide as the header."""
    kinds = draw(st.lists(st.sampled_from([*_CELLS, "mixed"]), min_size=1, max_size=4))
    cells = [_CELLS.get(kind, _MIXED) for kind in kinds]
    rows = [tuple(draw(cell) for cell in cells) for _ in range(draw(st.integers(0, 9)))]
    return [f"c{j}" for j in range(len(kinds))], rows


@settings(max_examples=300)
@given(table=_tables(), block=st.integers(1, 4))
def test_csv_text_equals_per_cell_form(table, block):
    header, rows = table
    with mock.patch.object(serialize_module, "CSV_BLOCK", block):
        assert csv_text(header, iter(rows)) == _per_cell_csv(header, rows)


@st.composite
def _ragged_tables(draw):
    """(header, rows): a table from _tables with one row a cell short or a cell long."""
    header, rows = draw(_tables().filter(lambda table: table[1]))
    i = draw(st.integers(0, len(rows) - 1))
    rows[i] = rows[i][:-1] if draw(st.booleans()) else (*rows[i], draw(_MIXED))
    return header, rows


@settings(max_examples=100)
@given(table=_ragged_tables(), block=st.integers(1, 4))
def test_csv_text_rejects_a_ragged_row(table, block):
    header, rows = table
    with mock.patch.object(serialize_module, "CSV_BLOCK", block):
        with pytest.raises(ValueError, match=rf"^every table row needs {len(header)} cells, one per header column$"):
            csv_text(header, iter(rows))


@pytest.mark.parametrize(
    "header, rows",
    [
        (["t", "v"], []),
        (["x", "y"], np.array([[0.1, -0.0], [math.nan, -math.inf]])),
        (["t", "v"], zip(np.arange(1, 4), np.array([1.0, 1e300, 5e-324]))),
        (["v"], [(1,), (0.5,), (2**60,)]),
        (["flag"], [(True,), (np.bool_(False),)]),
        (["v"], [(np.float16(0.1),), (np.longdouble(0.1),)]),
    ],
    ids=["empty", "ndarray", "curve", "int and float", "bools", "float16 and longdouble"],
)
def test_csv_text_equals_per_cell_form_on(header, rows):
    rows = list(rows)
    assert csv_text(header, rows) == _per_cell_csv(header, rows)


_BAD_TABLES = pytest.mark.parametrize(
    "header, rows, message",
    [
        (["a", "b"], [(1.0, 2.0), (1.0, 2.0, 3.0)], "every table row needs 2 cells"),
        (["a", "b"], [(1.0, 2.0), (3,)], "every table row needs 2 cells"),
        (["a", "b"], [()], "every table row needs 2 cells"),
        (["t", "v"], [(k, k / 7.0) for k in range(serialize_module.CSV_BLOCK)] + [(1,)], "every table row needs 2 cells"),
        ([], [], "a table needs a header of at least one column"),
        ([], [(), ()], "a table needs a header of at least one column"),
    ],
    ids=["wide row", "narrow row", "empty row", "narrow row after a full block", "no column", "no column, empty rows"],
)


@_BAD_TABLES
def test_csv_text_rejects_other_shapes(header, rows, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        csv_text(header, rows)


@_BAD_TABLES
@pytest.mark.parametrize("fmt", FORMATS)
def test_serialize_rejects_other_shapes_before_any_file(tmp_path, header, rows, message, fmt):
    with pytest.raises(ValueError, match=f"^{message}"):
        serialize(str(tmp_path / "out"), "tab", header, iter(rows), fmt)
    assert not list(tmp_path.iterdir())


def test_json_text_sorted_and_plain():
    text = json_text({"b": np.float64(0.5), "a": np.int32(2), "c": [np.bool_(True)]})
    obj = json.loads(text)
    assert obj == {"a": 2, "b": 0.5, "c": [True]}
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_json_text_nested_arrays():
    obj = json.loads(json_text({"grid": np.array([1.0, 2.0])}))
    assert obj["grid"] == [1.0, 2.0]


def test_json_rejects_nan():
    with pytest.raises(ValueError):
        json_text({"x": math.nan})


def _plain(obj):
    """The object tree as Python values, walked in full: the encoder json_text replaced."""
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


def _plain_json_text(obj) -> str:
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


_JSON_SCALARS = st.one_of(st.none(), st.text(max_size=3), *_CELLS.values())
_JSON_ARRAYS = st.one_of(
    st.lists(_FLOATS, max_size=4).map(np.array),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), min_size=2, max_size=6).map(lambda v: np.array(v[: len(v) // 2 * 2]).reshape(2, -1)),
    st.lists(_FLOATS, min_size=6, max_size=6).map(lambda v: np.array(v).reshape(3, 2)),
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS | _JSON_ARRAYS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=300)
@given(_JSON_TREES)
def test_json_text_equals_plain_walk(obj):
    try:
        expected = _plain_json_text(obj)
    except ValueError:  # a NaN or an infinity somewhere in the tree
        with pytest.raises(ValueError, match="Out of range float values"):
            json_text(obj)
        return
    assert json_text(obj) == expected


def test_json_text_zero_d_array_is_its_scalar():
    # the plain walk raised TypeError on a 0-d array
    assert json_text({"x": np.array(0.5)}) == json_text({"x": 0.5})
    with pytest.raises(TypeError):
        _plain_json_text({"x": np.array(0.5)})


def test_json_text_rejects_other_objects():
    with pytest.raises(TypeError, match="not JSON serializable"):
        json_text({"x": object()})


def test_write_text_creates_parents(tmp_path):
    target = tmp_path / "deep" / "dir" / "f.csv"
    out = write_text(str(target), "a,b\n1,2\n")
    assert out == str(target)
    assert target.read_text() == "a,b\n1,2\n"


def test_write_text_byte_stable(tmp_path):
    rows = [(k, k / 7.0) for k in range(50)]
    t1 = csv_text(["k", "v"], rows)
    t2 = csv_text(["k", "v"], ((k, k / 7.0) for k in range(50)))
    assert t1 == t2
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_text(str(p1), t1)
    write_text(str(p2), t2)
    assert p1.read_bytes() == p2.read_bytes()


def test_serialize_names_file_by_format(tmp_path):
    rows = [(1, 0.5), (2, 0.25)]
    csv_path = serialize(str(tmp_path), "tab", ["t", "v"], rows)
    json_path = serialize(str(tmp_path), "tab", ["t", "v"], rows, "json")
    assert csv_path == str(tmp_path / "tab.csv")
    assert json_path == str(tmp_path / "tab.json")
    assert (tmp_path / "tab.csv").read_text() == csv_text(["t", "v"], rows)
    assert json.loads((tmp_path / "tab.json").read_text()) == [{"t": 1, "v": 0.5}, {"t": 2, "v": 0.25}]


def test_serialize_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match=r"^unknown data format 'xml' \(use csv or json\)$"):
        serialize(str(tmp_path), "tab", ["t"], [(1,)], "xml")
    assert not list(tmp_path.iterdir())


def test_write_summary_sets_summary_file(tmp_path):
    out = write_summary(str(tmp_path), "run", {"x": 1.5})
    assert out == {"x": 1.5, "summary_file": str(tmp_path / "run_summary.json")}
    assert json.loads((tmp_path / "run_summary.json").read_text()) == {"x": 1.5}
