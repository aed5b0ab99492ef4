"""The package depends on numpy and the standard library only."""

import ast
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


def test_check_sees_every_module():
    assert {p.name for p in PACKAGE.glob("*.py")} >= {"bounds.py", "cli.py", "serialize.py"}
