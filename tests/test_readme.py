"""The README's python blocks run, in order, and print the values their comments give; the paths it names exist."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a top-level print whose comment is one float
PRINT_WITH_VALUE = re.compile(r"^print\(.*\)\s*#\s*(\S+)\s*$")
# a repository path: directories, each with a trailing slash, then maybe a file
# with an extension, then a space, backtick or the end of the line (so
# `1/gamma`, `CSV/JSON` and `q_k/(S_t - S_k)` are not paths)
REPO_PATH = re.compile(r"(?<![\w/.-])(?:[\w.-]+/)+(?:[\w.-]+\.(?:py|md|json|toml))?(?=[\s`]|$)", re.M)


def full_precision_float(text: str) -> bool:
    """Whether text is a float written with every digit repr gives it."""
    try:
        return repr(float(text)) == text
    except ValueError:
        return False


def test_python_blocks_print_their_commented_values(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    lines = "".join(blocks).splitlines()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", "\n".join(lines)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    prints = [line for line in lines if line.startswith("print(")]
    printed = run.stdout.splitlines()
    assert len(printed) == len(prints)  # one line per top-level print, so they pair up in order
    checked = 0
    for line, out in zip(prints, printed):
        match = PRINT_WITH_VALUE.match(line)
        if match and full_precision_float(match.group(1)):
            assert float(out) == float(match.group(1)), line
            checked += 1
    assert checked >= 2  # gamma and curve.value_final in the quick start


def test_named_paths_exist():
    paths = set(REPO_PATH.findall((ROOT / "README.md").read_text()))
    assert {"src/schedbound/", "tests/oracles.py"} <= paths
    assert [path for path in sorted(paths) if not (ROOT / path).exists()] == []
