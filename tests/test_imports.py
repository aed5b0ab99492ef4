"""The package and the test oracles depend on numpy and the standard library only, each CLI subcommand imports only its own modules, and commands that compute nothing load no numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schedbound"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_relative_numpy_or_stdlib(path):
    outside = sorted({name for name in _absolute_imports(path) if name.split(".")[0] not in ALLOWED})
    assert not outside, f"{path.name} imports {outside}"


def _numpy_random_references(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}:
                yield node.lineno
        elif isinstance(node, ast.Import):
            yield from (node.lineno for alias in node.names if alias.name.startswith("numpy.random"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names)
            ):
                yield node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_never_references_numpy_random(path):
    # the toy problem's Philox draws are computed in toy.py; numpy.random is a 6 MiB import
    assert list(_numpy_random_references(path)) == [], f"{path.name} references numpy.random"


def test_numpy_random_rule_sees_every_spelling(tmp_path):
    path = tmp_path / "spellings.py"
    path.write_text(
        "import numpy as np\nimport numpy.random\nfrom numpy import random\nfrom numpy.random import Philox\n"
        "np.random.Generator\nnumpy.random.Philox\nrandom.random()\n"
    )
    assert list(_numpy_random_references(path)) == [2, 3, 4, 5, 6]


def test_check_sees_every_module():
    assert {p.name for p in PACKAGE.glob("*.py")} >= {"bounds.py", "cli.py", "serialize.py"}


def test_oracles_trust_nothing_they_check():
    # an oracle that imported schedbound could share the fault it is meant to find
    path = Path(__file__).with_name("oracles.py")
    imported = list(_absolute_imports(path))
    assert imported
    assert sorted({name for name in imported if name.split(".")[0] not in ALLOWED}) == []
    assert not any(isinstance(node, ast.ImportFrom) and node.level for node in ast.walk(ast.parse(path.read_text())))


ROOT = PACKAGE.parents[1]
# what the parser, main and the writer import: every command loads these
FRONT = {"schedbound", "schedbound._checks", "schedbound.serialize"}


def _imported(argv, tmp_path, returncode=0) -> set[str]:
    """The modules `python -m schedbound.cli ARGV` imports, from its -X importtime log."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "schedbound.cli", *argv, "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == returncode, proc.stderr
    return {ln.rsplit("|", 1)[1].strip() for ln in proc.stderr.splitlines() if ln.startswith("import time:")}


@pytest.mark.parametrize(
    "argv, returncode, runs, numpy",
    [
        (["repro", "list"], 0, {"repro"}, False),
        (["--help"], 0, set(), False),
        (["bound"], 2, set(), False),  # --schedule is required
        (["scaling-law", "--delta", "0.01", "--N", "1e8", "--D", "1e9", "--solve", "tokens"], 0, {"scaling"}, False),
        (["schedule", "--schedule", "cosine:T=100"], 0, {"schedules"}, True),
        (["bound", "--schedule", "wsd:T=100000,c=0.2"], 0, {"bounds", "expsum", "schedules"}, True),
    ],
    ids=["repro list", "help", "parse error", "scaling-law", "schedule", "bound"],
)
def test_subcommand_imports_only_what_it_runs(argv, returncode, runs, numpy, tmp_path):
    imported = _imported(argv, tmp_path, returncode)
    assert {name for name in imported if name.split(".")[0] == "schedbound"} == FRONT | {f"schedbound.{name}" for name in runs}
    assert any(name.split(".")[0] == "numpy" for name in imported) == numpy


def _module_level_imports(path: Path):
    """(line, module) for each import that runs when PATH is imported: outside its functions, also in its classes.

    A relative import is from the package, and `from <package> import x` names <package>.x.
    """
    stack = list(ast.parse(path.read_text(), filename=str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["schedbound" if node.level else None, node.module]))
            names = [f"{module}.{alias.name}" for alias in node.names] if module == "schedbound" else [module]
            yield from ((node.lineno, name) for name in names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _package_imports_at_module_level(path: Path) -> list[str]:
    """The package modules (or package names) that PATH imports when it is imported."""
    return [name.split(".")[1] for _, name in _module_level_imports(path) if name.startswith("schedbound.")]


def _numpy_imports_at_module_level(path: Path) -> list[int]:
    """The lines of PATH that import numpy, or a submodule of it, when PATH is imported."""
    return sorted(line for line, name in _module_level_imports(path) if name.split(".")[0] == "numpy")


@pytest.mark.parametrize("name", ["cli.py", "repro.py"])
def test_front_end_imports_no_library_module_at_module_level(name):
    # each handler and repro target imports what it runs, so commands that do no work load none of it
    assert set(_package_imports_at_module_level(PACKAGE / name)) <= {"serialize", "_checks"}


@pytest.mark.parametrize("name", ["__init__.py", "_checks.py", "cli.py", "repro.py", "scaling.py", "serialize.py"])
def test_front_end_imports_numpy_only_inside_functions(name):
    # numpy is about half the start-up of a command that computes nothing; it loads with the first module that computes with it
    assert _numpy_imports_at_module_level(PACKAGE / name) == []


def test_module_level_import_rule_sees_every_spelling(tmp_path):
    path = tmp_path / "spellings.py"
    path.write_text(
        "from . import bounds, serialize\nfrom .tuning import sweep_gamma\nfrom ._checks import integer\n"
        "import schedbound.toy\nfrom schedbound.scaling import loss\nfrom schedbound import parse_spec\nimport numpy\n"
        "if True:\n    from . import expsum\ndef f():\n    from . import schedules\nclass C:\n    from . import repro\n"
        "    def g(self):\n        from . import cli\n"
    )
    found = sorted(_package_imports_at_module_level(path))
    assert found == ["_checks", "bounds", "expsum", "parse_spec", "repro", "scaling", "serialize", "toy", "tuning"]


def test_module_level_numpy_rule_sees_every_spelling(tmp_path):
    path = tmp_path / "spellings.py"
    path.write_text(
        "import numpy\nimport numpy as np\nimport os, numpy.linalg\nfrom numpy import asarray\nfrom numpy.linalg import norm\n"
        "try:\n    import numpy\nexcept ImportError:\n    pass\nclass C:\n    import numpy\n"
        "def f():\n    import numpy\nclass D:\n    def g(self):\n        import numpy\n"
        "import numpyish\nfrom . import numpy_free\n"
    )
    assert _numpy_imports_at_module_level(path) == [1, 2, 3, 4, 5, 7, 11]


@pytest.mark.parametrize(
    "argv",
    [
        ["repro", "all"],
        ["toy-run", "--schedule", "wsd:T=100,c=0.2", "--gamma", "0.02", "--m", "50", "--d", "5", "--record-iterates"],
        ["toy-compare"],
    ],
    ids=["repro all", "toy-run", "toy-compare"],
)
def test_toy_commands_never_load_numpy_random(argv, tmp_path):
    imported = _imported(argv, tmp_path)
    assert "schedbound.toy" in imported
    assert not {name for name in imported if name.split(".")[:2] == ["numpy", "random"]}


def test_package_exports_resolve_lazily():
    code = """
import sys
import schedbound
assert [m for m in sys.modules if m.startswith("schedbound.")] == [], "import schedbound loaded a submodule"
for name in schedbound.__all__:
    obj = getattr(schedbound, name)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
assert set(schedbound.__all__) <= set(dir(schedbound))
namespace = {}
exec("from schedbound import *", namespace)
assert set(namespace) - {"__builtins__"} == set(schedbound.__all__)
try:
    schedbound.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, spans",
    [
        (["bound", "--schedule", "wsd:T=2000,c=0.2"], {"bounds.bound_curve", "serialize.csv_text"}),
        (["repro", "all"], {"repro.toy", "tuning.sweep_cooldown", "toy.run_sgd", "bounds.bound_terms"}),
    ],
    ids=["bound", "repro all"],
)
def test_tracer_wraps_the_lazily_imported_layers(argv, spans, tmp_path):
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), *argv, "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span["name"] for span in json.loads(out.read_text())["spans"]}
    assert spans <= names


BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def _fresh(code, **env) -> list:
    """The JSON that CODE prints, run in a fresh interpreter whose environment lacks OPENBLAS_NUM_THREADS unless ENV sets it.

    In-process CLI tests set the variable in this process, and a child would inherit it.
    """
    base = {k: v for k, v in os.environ.items() if k != BLAS_THREADS}
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_runs_blas_on_one_thread():
    # OpenBLAS reads the variable once, when numpy loads; the CLI loads no numpy itself, so this
    # holds only if the variable is set before a handler's first import of numpy
    code = f"""
import json, os, sys
import schedbound.cli
loaded = "numpy" in sys.modules
import numpy  # as a handler does
task = "/proc/self/task"
print(json.dumps([loaded, os.environ.get("{BLAS_THREADS}"), len(os.listdir(task)) if os.path.isdir(task) else None]))
"""
    loaded, value, threads = _fresh(code)
    assert not loaded
    assert value == "1"
    if threads is not None:  # Linux: numpy's import started no BLAS worker
        assert threads == 1


def test_cli_keeps_an_exported_blas_thread_count():
    code = f"import json, os, schedbound.cli; print(json.dumps([os.environ.get('{BLAS_THREADS}')]))"
    assert _fresh(code, **{BLAS_THREADS: "2"}) == ["2"]


def test_library_leaves_blas_thread_count_unset():
    code = f"""
import json, os
import schedbound
schedbound.bound_terms(schedbound.parse_spec("wsd:T=100,c=0.2"))
print(json.dumps([os.environ.get("{BLAS_THREADS}")]))
"""
    assert _fresh(code) == [None]


def test_front_end_writes_the_same_bytes_without_numpy():
    # a command that computes nothing writes plain Python values, and must not import numpy to do so
    code = """
import json, sys
from schedbound import _checks, serialize

def texts():
    rows = [(1, 0.5, True, "a"), (2, 1e300, False, "b,c"), (3, -0.0), (2**70, 5e-324, None, "")]
    summary = {"b": 0.1, "a": [1, 2.5, True, None, "x"], "c": {"d": -0.0, "e": 2**70}}
    try:
        serialize.json_text({"a": object()})
    except TypeError as exc:
        error = str(exc)
    return [
        serialize.csv_text(["t", "v", "f", "s"], rows),
        serialize.csv_text(["t", "v"], [(1, 0.5), (2, 0.25)]),
        serialize.json_text(summary),
        serialize.json_text([dict(zip("tvfs", row)) for row in rows]),
        error,
        _checks.integer(3, "n"),
    ]

def rejected():
    out = []
    for bad in (True, "3", 3.0):
        try:
            _checks.integer(bad, "n")
        except ValueError as exc:
            out.append(str(exc))
    return out

without = [texts(), rejected(), "numpy" in sys.modules]
import numpy
print(json.dumps([without, [texts(), rejected()]]))
"""
    (texts, rejected, loaded), with_numpy = _fresh(code)
    assert not loaded
    assert [texts, rejected] == with_numpy
    assert len(rejected) == 3
