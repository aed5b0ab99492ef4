import json

import pytest

from schedbound import repro


def test_target_registry():
    assert set(repro.TARGET_NAMES) == set(repro.TARGETS) - {"fig4"}
    # alias points at the same callable
    assert repro.TARGETS["fig4"] is repro.TARGETS["gamma-star-scaling"]


def test_unknown_target_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown repro target"):
        repro.run_target("nope", str(tmp_path))


def test_rho_transfer_headline_numbers(tmp_path):
    summary = repro.run_target("rho-transfer", str(tmp_path))
    assert summary["rho_2x"] == pytest.approx(0.525, abs=0.025)
    assert summary["rho_4x"] == pytest.approx(0.375, abs=0.025)
    assert summary["feasible_2x"] and summary["feasible_4x"]
    for f in summary["files"]:
        assert (tmp_path / f.split("/")[-1]).exists()


def test_toy_target_deterministic(tmp_path):
    a = repro.run_target("toy", str(tmp_path / "a"))
    b = repro.run_target("toy", str(tmp_path / "b"))
    for key in a:
        if key == "files":
            continue
        assert a[key] == b[key], key
    for f in sorted(p.name for p in (tmp_path / "a").glob("*.csv")):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_closed_form_constants_target(tmp_path):
    summary = repro.run_target("closed-form-constants", str(tmp_path))
    assert summary["harmonic_T_minus_1"] == pytest.approx(12.09, abs=0.01)
    assert summary["wsd_log_gap_doubled"] == pytest.approx(4.39, abs=0.01)
    assert summary["linear_decay_factor"] == pytest.approx(2.0001, abs=0.0001)


def test_json_format_emits_json(tmp_path):
    summary = repro.run_target("scaling-law-cases", str(tmp_path), fmt="json")
    path = [f for f in summary["files"] if f.endswith(".json")][0]
    rows = json.loads(open(path).read())
    assert isinstance(rows, list) and rows


def test_schedule_comparison_keys(tmp_path):
    summary = repro.run_target("schedule-comparison", str(tmp_path))
    assert summary["best_schedule"]
    assert summary["best_tuned_bound"] > 0


def test_run_all_covers_every_target(tmp_path):
    summary = repro.run_target("all", str(tmp_path))
    assert set(summary) == set(repro.TARGET_NAMES)
    for name, sub in summary.items():
        assert sub["files"], name
