"""Artifacts as files: CSV and JSON agree, and the benchmark's own checks pass on them."""

import csv
import json
import warnings
from pathlib import Path

import pytest

from schedbound import cli


@pytest.fixture(scope="module")
def repro_all_csv(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("repro_csv")
    # an overflow or invalid value anywhere in `repro all` fails the suite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["repro", "all", "--outdir", str(outdir)]) == 0
    return outdir


def _data_stems(outdir: Path, ext: str) -> list[str]:
    return sorted(p.stem for p in outdir.glob(f"*.{ext}") if not p.name.endswith("_summary.json"))


def _assert_same_table(csv_path: Path, json_path: Path):
    with open(csv_path, newline="") as fh:
        header, *csv_rows = list(csv.reader(fh))
    json_rows = json.loads(json_path.read_text())
    assert len(json_rows) == len(csv_rows), csv_path.name
    for j, c in zip(json_rows, csv_rows):
        assert sorted(j) == sorted(header), csv_path.name
        for key, cell in zip(header, c):
            if isinstance(j[key], str):
                assert j[key] == cell, (csv_path.name, key)
            else:
                assert float(cell) == float(j[key]), (csv_path.name, key)


def _assert_formats_agree(csv_dir: Path, json_dir: Path):
    stems = _data_stems(csv_dir, "csv")
    assert stems
    assert _data_stems(json_dir, "json") == stems
    for stem in stems:
        _assert_same_table(csv_dir / f"{stem}.csv", json_dir / f"{stem}.json")


def test_toy_compare_csv_and_json_hold_the_same_data(tmp_path):
    for fmt in ("csv", "json"):
        assert cli.main(["toy-compare", "--T", "60", "--format", fmt, "--outdir", str(tmp_path / fmt)]) == 0
    _assert_formats_agree(tmp_path / "csv", tmp_path / "json")


def test_repro_all_csv_and_json_hold_the_same_data(repro_all_csv, tmp_path):
    assert cli.main(["repro", "all", "--format", "json", "--outdir", str(tmp_path)]) == 0
    _assert_formats_agree(repro_all_csv, tmp_path)


def test_benchmark_output_checks_pass(repro_all_csv, perfbench_workloads, tmp_path, monkeypatch):
    # the checks the benchmark runs on each workload's files: the repro-all
    # headlines against perfbench's reference, and bound rows against a
    # long-double recomputation, each command run as the benchmark runs it
    workloads = perfbench_workloads
    workloads.check(workloads.generate(1)["repro-all"], str(repro_all_csv))
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    for seed in (1, 2, 3):
        bound = workloads.generate(seed)["bound-wsd-1e5"]
        outdir = tmp_path / f"bound_{seed}"
        outdir.mkdir()
        monkeypatch.chdir(outdir)
        assert cli.main(bound.argv) == 0
        assert workloads.check(bound, str(outdir)) <= workloads.BOUND_REL_TOL
