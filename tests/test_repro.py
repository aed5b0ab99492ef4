import json

import pytest

from schedbound import cli, repro
from schedbound.serialize import csv_text

# the data files of `repro all`, one per table
DATA_FILES = {
    "gamma-star-scaling": ["gamma_star_scaling"],
    "rho-transfer": ["rho_transfer_2x", "rho_transfer_4x"],
    "cooldown-transfer": ["cooldown_transfer_wsd", "cooldown_transfer_inv_sqrt"],
    "lr-transfer": ["lr_transfer"],
    "cooldown-sweep": ["cooldown_sweep_T400", "cooldown_sweep_T4000"],
    "gradnorm-shapes": ["gradnorm_shapes"],
    "min-ablation": ["min_ablation"],
    "toy": ["toy_wsd", "toy_constant", "toy_cosine"],
    "schedule-comparison": ["schedule_comparison"],
    "cosine-cycles": ["cosine_cycles"],
    "closed-form-constants": ["closed_form_constants"],
    "scaling-law-cases": ["scaling_law_cases"],
}


def _repro_summary(target, outdir, *flags):
    """Run `schedbound repro TARGET` into outdir and return the summary it wrote."""
    assert cli.main(["repro", target, "--outdir", str(outdir), *flags]) == 0
    return json.loads((outdir / f"repro_{target}_summary.json").read_text())


def test_target_registry():
    assert set(repro.TARGET_NAMES) == set(repro.TARGETS) - {"fig4"}
    # alias points at the same callable
    assert repro.TARGETS["fig4"] is repro.TARGETS["gamma-star-scaling"]


def test_unknown_target_rejected():
    with pytest.raises(ValueError, match="unknown repro target") as exc:
        repro.run_target("nope")
    assert "all, list, " in str(exc.value)


def test_targets_compute_without_writing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    names = {}
    for target, run in repro.TARGETS.items():
        headlines, tables = run()
        assert headlines and "files" not in headlines, target
        for _, header, rows in tables:
            assert all(len(row) == len(header) for row in rows), target
        names[target] = [name for name, _, _ in tables]
    assert names.pop("fig4") == names["gamma-star-scaling"]
    assert names == DATA_FILES
    assert sum(map(len, names.values())) == 17
    assert list(tmp_path.iterdir()) == []


def test_cooldown_sweep_evaluates_each_schedule_once(bound_terms_calls):
    # 2 horizons x 50 fractions; the fixed gamma comes from the grid's c = 1 point
    repro.cooldown_sweep()
    assert len(bound_terms_calls) == 100


def test_cosine_cycles_evaluates_each_cycle_once(bound_terms_calls):
    repro.cosine_cycles()
    assert len(bound_terms_calls) == 4


def test_repro_all_bound_terms_calls(bound_terms_calls):
    for run in repro.run_target("all").values():
        run()
    assert len(bound_terms_calls) == 473


def test_rho_transfer_headline_numbers(tmp_path):
    summary = _repro_summary("rho-transfer", tmp_path)
    assert summary["rho_2x"] == pytest.approx(0.525, abs=0.025)
    assert summary["rho_4x"] == pytest.approx(0.375, abs=0.025)
    assert summary["feasible_2x"] and summary["feasible_4x"]
    for f in summary["files"]:
        assert (tmp_path / f.split("/")[-1]).exists()


def test_toy_target_deterministic():
    a, a_tables = repro.toy_runs()
    b, b_tables = repro.toy_runs()
    for key in a:
        assert a[key] == b[key], key
    for (name, header, a_rows), (_, _, b_rows) in zip(a_tables, b_tables):
        assert csv_text(header, a_rows) == csv_text(header, b_rows), name


def test_closed_form_constants_target():
    summary, _ = repro.closed_form_constants()
    assert summary["harmonic_T_minus_1"] == pytest.approx(12.09, abs=0.01)
    assert summary["wsd_log_gap_doubled"] == pytest.approx(4.39, abs=0.01)
    assert summary["linear_decay_factor"] == pytest.approx(2.0001, abs=0.0001)


def test_json_format_emits_json(tmp_path):
    summary = _repro_summary("scaling-law-cases", tmp_path, "--format", "json")
    path = [f for f in summary["files"] if f.endswith(".json")][0]
    rows = json.loads(open(path).read())
    assert isinstance(rows, list) and rows


def test_schedule_comparison_keys():
    summary, _ = repro.schedule_comparison()
    assert summary["best_schedule"]
    assert summary["best_tuned_bound"] > 0


def test_run_all_covers_every_target():
    targets = repro.run_target("all")
    assert set(targets) == set(repro.TARGET_NAMES)
    for name, run in targets.items():
        _, tables = run()
        assert tables, name
