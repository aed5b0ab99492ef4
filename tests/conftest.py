import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# pyproject's pythonpath puts src/ on this process's path; tests that start
# `python -m schedbound.cli` in a subprocess need it in the environment too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# node id -> outcome, filled for the acceptance module only
_ACCEPTANCE_RESULTS: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and "test_acceptance" in item.nodeid:
        _ACCEPTANCE_RESULTS[item.nodeid] = "PASS" if rep.passed else "FAIL"
    elif rep.when == "setup" and rep.skipped and "test_acceptance" in item.nodeid:
        _ACCEPTANCE_RESULTS[item.nodeid] = "FAIL (skipped)"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_RESULTS):
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"{name}: {_ACCEPTANCE_RESULTS[nodeid]}")
