import argparse
import gc
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schedbound import bounds, cli, expsum, serialize, tuning
from schedbound.schedules import wsd


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_schedule_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(
        ["schedule", "--schedule", "wsd:T=10,c=0.2", "--outdir", str(tmp_path)], capsys
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["horizon"] == 10
    assert summary["config"]["schedule"] == "wsd:T=10,c=0.2"
    csv_path = tmp_path / "schedule.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,eta"
    assert len(lines) == 11
    values = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.array_equal(values, wsd(10, 0.2).values)
    assert (tmp_path / "schedule_summary.json").exists()


def test_bound_spec_example(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "bound", "--schedule", "constant:T=4",
            "--D", "1", "--G", "1", "--gamma", "1",
            "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["omega_final"] == pytest.approx(1.54167, abs=1e-5)
    header = (tmp_path / "bound.csv").read_text().splitlines()[0]
    assert header == "t,omega,T1,T2"


def test_bound_gamma_star_default(tmp_path, capsys):
    code, out, _ = run_cli(
        ["bound", "--schedule", "constant:T=100", "--outdir", str(tmp_path)], capsys
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["gamma_used"] == summary["gamma_star"]
    assert summary["gamma_star"] == pytest.approx(0.040234436980874144, rel=1e-15)  # measured 0


@pytest.mark.parametrize("spec", ["wsd:T=50,c=0.3", "wsd:T=100000,c=0.2"])
def test_bound_takes_gamma_star_from_the_curve(tmp_path, capsys, monkeypatch, spec):
    from schedbound import bounds
    from schedbound.schedules import parse_spec

    sched = parse_spec(spec)
    gamma_star = bounds.optimal_gamma(sched)
    curve = bounds.bound_curve(sched)

    def second_pass(*args, **kwargs):
        raise AssertionError("bound evaluated the final horizon outside its curve")

    monkeypatch.setattr(bounds, "bound_terms", second_pass)
    code, out, _ = run_cli(["bound", "--schedule", spec, "--outdir", str(tmp_path)], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["gamma_star"] == summary["gamma_used"] == gamma_star
    assert summary["omega_final"] == curve.value_final
    rows = (tmp_path / "bound.csv").read_text().splitlines()[1:]
    assert [float(ln.split(",")[1]) for ln in rows] == curve.values.tolist()


@pytest.mark.parametrize(
    "spec, flags",
    [
        ("wsd:T=100000,c=0.2", []),
        ("constant:T=5000", []),
        ("cosine:T=400", ["--stride", "7"]),
        ("wsd:T=50,c=0.3", ["--stride", "100"]),
        ("wsd:T=400,c=0.2", ["--stride", "1000000"]),
    ],
)
def test_bound_summary_says_which_horizons_ran(tmp_path, capsys, spec, flags):
    from schedbound.schedules import parse_spec

    T = parse_spec(spec).horizon
    code, out, _ = run_cli(["bound", "--schedule", spec, *flags, "--outdir", str(tmp_path)], capsys)
    assert code == 0
    summary = json.loads(out)
    given = int(flags[1]) if flags else None
    # the stride the curve ran: a given one above T runs as T, and config echoes the given one
    stride = min(given or bounds.default_stride(T), T)
    assert summary["stride"] == stride
    assert summary["config"]["stride"] == given
    curve = bounds.bound_curve(parse_spec(spec), stride=given)
    assert curve.stride == stride
    rows = (tmp_path / "bound.csv").read_text().splitlines()[1:]
    assert summary["horizons"] == len(curve.t) == len(rows)
    # the exp-sum counts are the curve's own, and null for the direct kernels
    said = (summary["exp_sum_nodes"], summary["exp_sum_groups"], summary["exp_sum_shared_groups"])
    if curve.noise_kernel == bounds.EXP_SUM:
        assert said == tuple(curve.exp_sum)
        assert summary["exp_sum_groups"] == -(-(len(curve.t) - 2) // max(1, expsum.GROUP // stride))
    else:
        assert said == (None, None, None)


def test_sweep_gamma(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "sweep-gamma", "--schedule", "wsd:T=200,c=0.2",
            "--gamma-min", "0.01", "--gamma-max", "0.1", "--points", "11",
            "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    lines = (tmp_path / "sweep_gamma.csv").read_text().splitlines()
    assert lines[0] == "gamma,omega"
    assert len(lines) == 12
    assert summary["argmin_omega"] > 0


@pytest.mark.parametrize("rest", [[], ["--gamma-min", "0.01", "--gamma-max", "1", "--points", "11"]])
def test_sweep_gamma_evaluates_the_schedule_once(tmp_path, capsys, bound_terms_calls, rest):
    code, out, _ = run_cli(["sweep-gamma", "--schedule", "wsd:T=200,c=0.2", *rest, "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert len(bound_terms_calls) == 1
    assert json.loads(out)["gamma_star"] == bounds.optimal_gamma(wsd(200, 0.2))


def test_sweep_gamma_partial_range_rejected(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "sweep-gamma", "--schedule", "constant:T=10",
            "--gamma-min", "0.01", "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 2
    assert "gamma-min" in err


def test_sweep_cooldown(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "sweep-cooldown", "--T", "100", "--points", "8",
            "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["argmin_c"] == 1.0
    assert (tmp_path / "sweep_cooldown.csv").read_text().splitlines()[0] == "c,omega,gamma"


def test_transfer_horizon_rho(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "transfer-horizon", "--mode", "rho", "--T1", "400", "--T2", "800",
            "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["feasible"] is True
    assert summary["status"] == "refined"
    assert summary["rho"] == pytest.approx(0.5397, abs=1e-3)
    header = (tmp_path / "transfer_horizon.csv").read_text().splitlines()[0]
    assert header == "rho,abs_gamma_mismatch,gamma_mismatch"


def test_transfer_horizon_cooldown(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "transfer-horizon", "--mode", "cooldown", "--T1", "400", "--T2", "800",
            "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["c"] > 0.2


def test_transfer_horizon_unreachable_is_not_feasible(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "transfer-horizon", "--mode", "cooldown", "--T1", "4000", "--T2", "8000", "--c", "1",
            "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["status"] == "unreachable"
    assert summary["feasible"] is False


def test_rho_transfer_without_flat_steps_exit_2_before_any_file(tmp_path, capsys):
    code, out, err = run_cli(
        ["transfer-horizon", "--mode", "rho", "--T1", "4000", "--T2", "8000", "--c", "1", "--outdir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "use a smaller cooldown fraction or a longer extended horizon" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_rho_transfer_rejects_a_base_it_ignores_exit_2_before_any_file(tmp_path, capsys):
    code, out, err = run_cli(
        ["transfer-horizon", "--mode", "rho", "--T1", "400", "--T2", "800", "--base", "inv-sqrt", "--outdir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "--base inv-sqrt applies to --mode cooldown only" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["rho", "cooldown"])
def test_transfer_to_a_shorter_horizon_one_message_exit_2_before_any_schedule(tmp_path, capsys, monkeypatch, mode):
    for name in ("wsd", "extended", "_cooldown_family"):
        monkeypatch.setattr(tuning, name, lambda *args: pytest.fail("built a schedule"))
    code, out, err = run_cli(
        ["transfer-horizon", "--mode", mode, "--T1", "8000", "--T2", "4000", "--outdir", str(tmp_path)], capsys
    )
    assert (code, out, err) == (2, "", "error: extended horizon 4000 must be >= base horizon 8000\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode, param, value", [("rho", "rho", 1.0), ("cooldown", "c", 0.2)])
def test_transfer_to_the_same_horizon_is_the_identity(tmp_path, capsys, mode, param, value):
    code, out, _ = run_cli(
        ["transfer-horizon", "--mode", mode, "--T1", "4000", "--T2", "4000", "--outdir", str(tmp_path)], capsys
    )
    assert code == 0
    assert json.loads(out)[param] == value


@pytest.mark.parametrize("flags", [[], ["--base", "constant"]], ids=["default", "explicit"])
def test_rho_transfer_takes_the_constant_base(tmp_path, capsys, flags):
    code, out, _ = run_cli(
        ["transfer-horizon", "--mode", "rho", "--T1", "400", "--T2", "800", *flags, "--outdir", str(tmp_path)], capsys
    )
    assert code == 0
    assert json.loads(out)["config"]["base"] == "constant"


@pytest.mark.parametrize("command", ["sweep-cooldown", "transfer-lr"])
def test_default_cooldown_flags_give_the_library_grid(command):
    # the parser spells the default grid without importing tuning
    args = cli._build_parser(command).parse_args([command, "--T", "400"])
    assert cli._c_grid(args).tobytes() == tuning.DEFAULT_COOLDOWN_GRID.tobytes()


def test_transfer_lr(tmp_path, capsys):
    code, out, _ = run_cli(
        ["transfer-lr", "--T", "300", "--points", "10", "--outdir", str(tmp_path)], capsys
    )
    assert code == 0
    summary = json.loads(out)
    assert len(summary["poly6_coefficients"]) == 7
    assert (tmp_path / "transfer_lr.csv").read_text().splitlines()[0] == "c,log_ratio"


def test_toy_run_with_iterates(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "toy-run", "--schedule", "wsd:T=30,c=0.2", "--gamma", "0.02",
            "--record-iterates", "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["final_loss"] > 0
    assert str(tmp_path / "toy_run_iterates.csv") in summary["files"]
    it_lines = (tmp_path / "toy_run_iterates.csv").read_text().splitlines()
    assert it_lines[0] == "t,x1,x2"
    assert len(it_lines) == 31


def test_toy_run_iterates_follow_format(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "toy-run", "--schedule", "wsd:T=30,c=0.2", "--gamma", "0.02",
            "--record-iterates", "--format", "json", "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert str(tmp_path / "toy_run_iterates.json") in json.loads(out)["files"]
    assert not (tmp_path / "toy_run_iterates.csv").exists()
    rows = json.loads((tmp_path / "toy_run_iterates.json").read_text())
    assert len(rows) == 30
    assert rows[0] == {"t": 1, "x1": 0.0, "x2": 0.0}


def test_toy_run_custom_start(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "toy-run", "--schedule", "constant:T=5", "--gamma", "0.1",
            "--x-start", "0.5,-0.5", "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0


def test_toy_run_bad_start_rejected(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "toy-run", "--schedule", "constant:T=5", "--gamma", "0.1",
            "--x-start", "a,b", "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 2
    assert "x-start" in err


def test_toy_run_overflowing_loss_exit_2_before_any_file(tmp_path, capsys):
    code, out, err = run_cli(
        ["toy-run", "--schedule", "constant:T=5", "--gamma", "0.1", "--x-start", "1e308,1e308", "--outdir", str(tmp_path)], capsys
    )
    assert code == 2  # a RuntimeWarning, which the suite makes an error, would exit 1
    assert "x_start [1e+308, 1e+308] at base learning rate gamma 0.1" in err and "Warning" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_toy_compare(tmp_path, capsys):
    code, out, _ = run_cli(["toy-compare", "--T", "60", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    summary = json.loads(out)
    for name in ("wsd", "constant", "cosine"):
        assert f"final_loss_{name}" in summary
        assert (tmp_path / f"toy_compare_{name}.csv").exists()


def test_scaling_law_tokens(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "scaling-law", "--delta", "0.01", "--N", "124e6", "--D", "10.24e9",
            "--solve", "tokens", "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["result"] == pytest.approx(10.88e9, rel=5e-3)
    assert summary["config"]["alpha"] == 0.3478


def test_scaling_law_config_echoes_the_constants_used(tmp_path, capsys):
    from schedbound.scaling import ScalingLaw

    argv = ["scaling-law", "--delta", "0.01", "--N", "124e6", "--D", "10.24e9", "--solve", "params"]
    code, out, _ = run_cli([*argv, "--E", "2", "--loss-scale", "0.959", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert {k: config[k] for k in vars(ScalingLaw())} == {**vars(ScalingLaw()), "E": 2.0, "loss_scale": 0.959}


def test_scaling_law_infeasible_is_validation_error(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "scaling-law", "--delta", "10", "--N", "124e6", "--D", "10.24e9",
            "--solve", "tokens", "--outdir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 2
    assert "unreachable" in err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "solve, flag, name",
    [("tokens", "--N", "N"), ("tokens", "--D", "D1"), ("params", "--N", "N1"), ("params", "--D", "D")],
)
def test_scaling_law_bad_count_exit_2_before_any_file(tmp_path, capsys, solve, flag, name, value):
    # the flag the solve does not take is checked too, by the loss_before it reports
    counts = {"--N": "124e6", "--D": "10.24e9", flag: value}
    argv = ["scaling-law", "--solve", solve, "--delta", "0.01", *(f"{k}={v}" for k, v in counts.items())]
    code, out, err = run_cli([*argv, "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith(f"error: {name} must be ") and err.endswith(f", got {float(value)}\n")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("solve", ["tokens", "params"])
def test_scaling_law_reports_an_unreachable_drop_before_the_other_count(tmp_path, capsys, solve):
    other = "--N" if solve == "tokens" else "--D"
    counts = {"--N": "124e6", "--D": "10.24e9", other: "-1"}
    argv = ["scaling-law", "--solve", solve, "--delta", "10", *(f"{k}={v}" for k, v in counts.items())]
    code, out, err = run_cli([*argv, "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert "a loss drop of 10.0 is unreachable" in err
    assert list(tmp_path.iterdir()) == []


def test_fit_subcommand(tmp_path, capsys):
    data = tmp_path / "xy.csv"
    xs = [1.0, 2.0, 4.0, 8.0, 16.0]
    data.write_text("x,y\n" + "\n".join(f"{x},{2.0/x + 0.5*x + 1.0}" for x in xs) + "\n")
    code, out, _ = run_cli(
        ["fit", "--model", "hgamma", "--input", str(data), "--outdir", str(tmp_path)], capsys
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["model_kind"] == "inv-gamma-linear"
    assert summary["gamma_min"] == pytest.approx(2.0, rel=1e-15)  # measured 0
    assert (tmp_path / "fit.csv").read_text().splitlines()[0] == "x,y,fitted"


def test_fit_reads_exactly_two_columns_exit_2_before_any_file(tmp_path, capsys):
    # repro gamma-star-scaling writes T and one gamma_star column per schedule
    code, _, _ = run_cli(["repro", "gamma-star-scaling", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    wide = tmp_path / "gamma_star_scaling.csv"
    assert wide.read_text().splitlines()[0] == "T,gamma_star_wsd,gamma_star_cosine"
    short_row = tmp_path / "short_row.csv"
    short_row.write_text("x,y\n1,2\n3\n4,5\n")
    long_row = tmp_path / "long_row.csv"
    long_row.write_text("x,y\n1,2\n3,4,5\n")
    cases = [(wide, "input header 'T,gamma_star_wsd,gamma_star_cosine' has 3 columns"), (short_row, "input row '3' has 1 columns"), (long_row, "input row '3,4,5' has 3 columns")]
    for data, named in cases:
        outdir = tmp_path / f"out_{data.stem}"
        code, out, err = run_cli(["fit", "--model", "invsqrt", "--input", str(data), "--outdir", str(outdir)], capsys)
        assert code == 2
        assert named in err and "fit reads exactly two (x, y)" in err
        assert out == ""
        assert list(outdir.iterdir()) == []


def test_fit_poly6(tmp_path, capsys):
    coeffs = [1.0, -2.0, 0.5, 0.25, 0.0, 0.0, 0.0]
    xs = np.linspace(-1.0, 1.0, 9)
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), np.polynomial.polynomial.polyval(xs, coeffs).tolist())))
    code, out, err = run_cli(["fit", "--model", "poly6", "--input", str(data), "--outdir", str(tmp_path / "out")], capsys)
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert summary["model_kind"] == "polynomial-degree-6"
    assert np.allclose(summary["coefficients"], coeffs, rtol=0.0, atol=1e-14)
    lines = (tmp_path / "out" / "fit.csv").read_text().splitlines()
    assert lines[0] == "x,y,fitted" and len(lines) == 10


@pytest.mark.parametrize(
    "content, named",
    [
        (b"", "needs a header and at least one data row"),
        (b"x,y\n\n", "needs a header and at least one data row"),
        (b"x,y\n1,abc\n", "input row '1,abc' has non-numeric cells"),
        (b"x,y\n1,\xff\n", "cannot read input file '{path}': 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"),
    ],
    ids=["empty", "header only", "non-numeric", "not utf-8"],
)
def test_fit_unreadable_input_exit_2_before_any_file(tmp_path, capsys, content, named):
    data = tmp_path / "xy.csv"
    data.write_bytes(content)
    outdir = tmp_path / "out"
    code, out, err = run_cli(["fit", "--model", "poly6", "--input", str(data), "--outdir", str(outdir)], capsys)
    assert code == 2
    assert named.format(path=data) in err
    assert out == ""
    assert list(outdir.iterdir()) == []


def test_fit_missing_input(tmp_path, capsys):
    code, _, err = run_cli(
        ["fit", "--model", "poly6", "--input", str(tmp_path / "nope.csv"), "--outdir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "cannot read" in err


def test_repro_list(tmp_path, capsys):
    code, out, _ = run_cli(["repro", "list", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    targets = json.loads(out)["targets"]
    assert "rho-transfer" in targets
    assert "fig4" not in targets


@pytest.mark.parametrize("target", ["nosuch", "fig4"])
def test_repro_unknown_target(tmp_path, capsys, target):
    code, _, err = run_cli(["repro", target, "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert list(tmp_path.iterdir()) == []
    assert "unknown repro target" in err
    assert "known targets: all, list, " in err


def test_repro_toy_byte_identical(tmp_path, capsys):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    assert run_cli(["repro", "toy", "--outdir", str(d1)], capsys)[0] == 0
    assert run_cli(["repro", "toy", "--outdir", str(d2)], capsys)[0] == 0
    files = sorted(p.name for p in d1.glob("*.csv"))
    assert files
    for name in files:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_unknown_subcommand_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_help_exit_0(capsys):
    assert cli.main(["--help"]) == 0


def _parse(parser, argv, capsys):
    """(exit code, stdout, stderr) of parser.parse_args(argv); code None if it returned."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([command, "--help"] for command in cli._HANDLERS),
        [],
        ["frobnicate", "--schedule", "x"],
        ["bound"],  # --schedule is required
        ["transfer-horizon", "--T1", "10", "--T2", "20"],  # so is --mode
        ["bound", "--schedule", "wsd:T=10,c=0.2", "--format", "xml"],
        ["repro", "list", "--format", "xml"],
        ["-h", "bound"],
        ["-1", "bound"],  # '-1' reads as the command
        ["--", "bound", "--schedule"],
        ["schedule", "--schedule", "constant:T=3", "--threads", "2"],
    ],
    ids=" ".join,
)
def test_lazy_parser_reads_as_the_full_one(argv, capsys):
    full = _parse(cli._build_parser(), argv, capsys)
    assert full[0] in (0, 2)
    assert _parse(cli._build_parser(cli._command(argv)), argv, capsys) == full
    assert run_cli(argv, capsys) == full


def test_lazy_parser_builds_one_subcommand():
    sub = next(a for a in cli._build_parser("bound")._actions if isinstance(a, argparse._SubParsersAction))
    assert [name for name, p in sub.choices.items() if len(p._actions) > 1] == ["bound"]
    assert list(sub.choices) == list(cli._HANDLERS)


@pytest.mark.parametrize("command", ["sweep-cooldown", "transfer-horizon"])
def test_base_choices_are_the_tuning_bases(command):
    # the parser does not import tuning, so this holds its --base choices to tuning's table
    sub = next(a for a in cli._build_parser(command)._actions if isinstance(a, argparse._SubParsersAction))
    base = next(a for a in sub.choices[command]._actions if a.dest == "base")
    assert list(base.choices) == list(tuning._BASES)


def test_format_choices_are_the_writer_formats():
    # every subcommand's --format offers exactly the formats that serialize writes
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = {tuple(a.choices) for p in sub.choices.values() for a in p._actions if a.dest == "format"}
    assert choices == {serialize.FORMATS}


def _cyclic_garbage(argv, tmp_path) -> int:
    """Objects the collector finds unreachable right after cli.main(argv), with it off during the call."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert cli.main([*argv, "--outdir", str(tmp_path)]) == 0
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def test_a_command_leaves_the_same_bounded_cyclic_garbage(tmp_path, capsys):
    # what the `schedbound` process leaves uncollected with the collector off:
    # the parser's graph and nothing that grows with the work
    commands = [["repro", "list"], ["bound", "--schedule", "wsd:T=100000,c=0.2"], ["repro", "all"]]
    for argv in commands:  # the first calls import what each command runs
        _cyclic_garbage(argv, tmp_path)
    garbage = [_cyclic_garbage(argv, tmp_path) for argv in commands]
    capsys.readouterr()
    gc.collect()
    cli._build_parser()
    full_parser = gc.collect()
    assert max(garbage) - min(garbage) <= 100, garbage  # measured 334, 390, 365
    assert max(garbage) < full_parser, (garbage, full_parser)  # measured 501


def test_main_leaves_the_collector_as_it_finds_it(tmp_path, capsys):
    assert gc.isenabled()
    frozen = gc.get_freeze_count()
    assert run_cli(["repro", "list", "--outdir", str(tmp_path)], capsys)[0] == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen  # only entry() freezes, for the exit of its own process
    gc.disable()
    try:
        assert run_cli(["repro", "list", "--outdir", str(tmp_path)], capsys)[0] == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_process_runs_without_the_collector(tmp_path):
    # runpy runs the module as `python -m schedbound.cli` does; atexit reports after it exits,
    # before the interpreter's own exit-time collection, which skips the frozen objects
    script = (
        "import atexit, gc, json, runpy, sys\n"
        "atexit.register(lambda: print(json.dumps([gc.isenabled(), gc.get_freeze_count(), len(gc.get_objects())]), file=sys.stderr))\n"
        "runpy.run_module('schedbound.cli', run_name='__main__', alter_sys=True)\n"
    )
    argv = ["bound", "--schedule", "wsd:T=1000,c=0.2", "--outdir", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["horizons"] == 1000
    enabled, frozen, tracked = json.loads(proc.stderr)
    assert not enabled
    assert frozen > 10_000, frozen  # measured 32,390: numpy's import and the command
    assert tracked == 0


def test_console_script_runs_the_entry():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'schedbound = "schedbound.cli:entry"' in pyproject


def test_invalid_schedule_spec_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["schedule", "--schedule", "wsd:T=10,c=2", "--outdir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "cooldown fraction" in err


def test_invsqrt_shape_without_cooldown_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["schedule", "--schedule", "invsqrt:T=10,shape=1-sqrt", "--outdir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "'shape' only with 'c'" in err
    assert list(tmp_path.iterdir()) == []


def test_toy_problem_too_large_for_memory_exit_2_before_any_draw(tmp_path, capsys, monkeypatch):
    from schedbound import _checks, toy

    # the problem's float64 values, m*d + m + 3d = 920 of them, need 7360 bytes
    monkeypatch.setattr(_checks, "_physical_memory", lambda: 7359)
    monkeypatch.setattr(toy, "_uniforms", lambda seed, n: pytest.fail("drew the problem"))
    argv = ["toy-run", "--m", "10", "--d", "70", "--schedule", "constant:T=5", "--gamma", "0.1", "--outdir", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "toy problem m=10, d=70 needs about" in err and "physical memory" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_toy_run_iterates_too_large_for_memory_exit_2_before_any_file(tmp_path, capsys, monkeypatch):
    from schedbound import _checks, toy

    # T*d = 7000 iterates need 56000 bytes; the schedule's 6400 and the problem's 7360 fit
    monkeypatch.setattr(_checks, "_physical_memory", lambda: 55999)
    monkeypatch.setattr(toy, "_loss_and_subgradient", lambda problem, x: pytest.fail("took a step"))
    argv = ["toy-run", "--m", "10", "--d", "70", "--schedule", "constant:T=100", "--gamma", "0.1", "--record-iterates"]
    code, out, err = run_cli([*argv, "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert "recorded iterates of T=100, d=70 needs about" in err and "physical memory" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("points", ["100000000000", "100000000000000000000"])
@pytest.mark.parametrize(
    "command",
    [
        ["sweep-cooldown", "--T", "400"],
        ["transfer-lr", "--T", "400"],
        ["sweep-gamma", "--schedule", "wsd:T=400,c=0.2", "--gamma-min", "0.01", "--gamma-max", "1"],
    ],
    ids=lambda command: command[0],
)
def test_grid_too_large_for_memory_exit_2_before_any_file(tmp_path, capsys, monkeypatch, command, points):
    from schedbound import _checks

    # 10**11 float64 grid points need 745 GiB; the limit is fixed so the test holds on any machine
    monkeypatch.setattr(_checks, "_physical_memory", lambda: 8 * 2**30)
    code, out, err = run_cli([*command, "--points", points, "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert f"error: --points {points} needs about" in err and "physical memory" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_bound_stride_beyond_the_horizon_writes_the_rows_of_stride_T(tmp_path, capsys):
    spec = ["bound", "--schedule", "wsd:T=1000,c=0.2"]
    for stride in ("1000", "9223372036854775808"):
        assert run_cli([*spec, "--stride", stride, "--outdir", str(tmp_path / stride)], capsys)[0] == 0
    assert (tmp_path / "9223372036854775808" / "bound.csv").read_bytes() == (tmp_path / "1000" / "bound.csv").read_bytes()


def test_horizon_too_large_for_memory_exit_2(tmp_path, capsys):
    # rejected from the horizon alone, before any array of that length exists
    code, _, err = run_cli(
        ["bound", "--schedule", "constant:T=1000000000000000", "--outdir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "physical memory" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, names",
    [
        (["bound", "--schedule", "wsd:T=50,c=0.2", "--D", "inf"], "initial distance D"),
        (["bound", "--schedule", "wsd:T=50,c=0.2", "--gamma", "inf"], "--gamma"),
        (["bound", "--schedule", "wsd:T=50,c=0.2", "--G", "inf"], "gradient norm scale"),
        (["bound", "--schedule", "wsd:T=50,c=0.2", "--grad-alpha", "nan"], "gradient norm exponent"),
        (["sweep-cooldown", "--T", "50", "--gamma", "inf"], "--gamma"),
        (["sweep-gamma", "--schedule", "wsd:T=50,c=0.2", "--D", "inf"], "initial distance D"),
        (["transfer-lr", "--T", "50", "--G", "inf"], "gradient norm scale"),
        (["toy-run", "--schedule", "wsd:T=50,c=0.2", "--gamma", "inf"], "gamma"),
        (["toy-run", "--schedule", "wsd:T=5,c=0.2", "--gamma", "0.1", "--x-start", "inf,0"], "x_start"),
        (["scaling-law", "--solve", "tokens", "--delta", "0.01", "--N", "inf", "--D", "1e10"], "N must"),
        (["scaling-law", "--solve", "tokens", "--delta", "0.01", "--N", "1e8", "--D", "inf"], "D1 must"),
        (["scaling-law", "--solve", "params", "--delta", "0.01", "--N", "1e8", "--D", "inf"], "D must"),
        (["scaling-law", "--solve", "tokens", "--delta", "nan", "--N", "1e8", "--D", "1e10"], "loss delta"),
        (["scaling-law", "--solve", "params", "--delta", "0.01", "--N", "1e8", "--D", "1e10", "--E", "inf"], "loss E"),
        (["scaling-law", "--solve", "params", "--delta", "0.01", "--N", "1e8", "--D", "1e10", "--B", "inf"], "prefactor B"),
    ],
)
def test_non_finite_parameter_exit_2_before_any_file(tmp_path, capsys, args, names):
    code, out, err = run_cli([*args, "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert names in err and "finite" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def _float_flags(command):
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices[command]._actions if a.type is float]


# each command at T <= 800 with small grids; the flag under test comes last, so it overrides a value given here
_SWEEP_COMMANDS = [
    ["bound", "--schedule", "wsd:T=400,c=0.2"],
    ["sweep-gamma", "--schedule", "wsd:T=400,c=0.2"],
    ["sweep-cooldown", "--T", "400", "--points", "5"],
    ["transfer-horizon", "--mode", "rho", "--T1", "400", "--T2", "800"],
    ["transfer-lr", "--T", "400", "--points", "8"],
    ["toy-run", "--schedule", "wsd:T=50,c=0.2", "--gamma", "0.05"],
    ["scaling-law", "--solve", "tokens", "--delta", "0.01", "--N", "124e6", "--D", "10.24e9"],
    ["scaling-law", "--solve", "params", "--delta", "0.01", "--N", "124e6", "--D", "10.24e9"],
]
def test_float_flags_are_found():
    assert _float_flags("bound") == ["--D", "--G", "--grad-alpha"]


# flags that only work with a partner
_PARTNERS = {"--gamma-min": ["--gamma-max", "1", "--points", "5"], "--gamma-max": ["--gamma-min", "0.01", "--points", "5"]}


@pytest.mark.filterwarnings("error")  # a numpy warning would turn into an exit 1
@pytest.mark.parametrize("value", ["inf", "nan", "1e200", "1e300", "1e-200", "-1e-200"])
@pytest.mark.parametrize(
    "command, flag",
    [
        pytest.param(command, flag, id=" ".join([*command[: 3 if command[0] == "scaling-law" else 1], flag]))
        for command in _SWEEP_COMMANDS
        for flag in _float_flags(command[0])
    ],
)
def test_extreme_float_flag_exit_0_with_finite_cells_or_exit_2_before_any_file(tmp_path, capsys, command, flag, value):
    outdir = tmp_path / "out"
    code, out, err = run_cli([*command, *_PARTNERS.get(flag, []), f"{flag}={value}", "--outdir", str(outdir)], capsys)
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        assert list(outdir.iterdir()) == []
        return
    for path in outdir.glob("*.csv"):
        for line in path.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(cell)) for cell in line.split(",")), (path.name, line)


@pytest.mark.filterwarnings("error")  # a numpy warning would turn into an exit 1
@pytest.mark.parametrize(
    "args, flag",
    [
        (["sweep-gamma", "--gamma-min", "0.01", "--gamma-max", "inf"], "--gamma-max"),
        (["sweep-gamma", "--gamma-min", "1e-320", "--gamma-max", "1e300", "--points", "5"], "--gamma-min"),
        (["sweep-gamma", "--gamma-min", "0.01", "--gamma-max", "1e308"], "--gamma-max"),
        (["sweep-gamma", "--gamma-min", "nan", "--gamma-max", "1"], "--gamma-min"),
        (["sweep-gamma", "--gamma-min", "0.01", "--gamma-max", "nan"], "--gamma-max"),
        (["bound", "--gamma", "1e-320"], "--gamma"),
        (["bound", "--gamma", "nan"], "--gamma"),
    ],
)
def test_gamma_that_overflows_the_bound_exit_2_before_any_file(tmp_path, capsys, args, flag):
    command, *rest = args
    code, out, err = run_cli([command, "--schedule", "wsd:T=400,c=0.2", *rest, "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert f"{flag} " in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_sweep_cooldown_gamma_that_overflows_the_bound_exit_2_before_any_file(tmp_path, capsys):
    code, out, err = run_cli(["sweep-cooldown", "--T", "50", "--gamma", "1e-320", "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert "--gamma 1e-320 overflows the bound" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [
        ["sweep-cooldown", "--T", "50"],
        ["transfer-lr", "--T", "50"],
        ["sweep-gamma", "--schedule", "wsd:T=50,c=0.2"],
        ["sweep-gamma", "--schedule", "wsd:T=50,c=0.2", "--gamma-min", "0.01", "--gamma-max", "1"],
    ],
)
@pytest.mark.parametrize("points", ["0", "-3"])
def test_points_below_one_exit_2_before_any_file(tmp_path, capsys, command, points):
    code, out, err = run_cli([*command, "--points", points, "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert f"--points must be >= 1, got {points}" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, repro_target, pairs",
    [
        (
            ["transfer-horizon", "--mode", "rho", "--T1", "4000", "--T2", "8000", "--c", "0.2"],
            "rho-transfer",
            [("transfer_horizon.csv", "rho_transfer_2x.csv")],
        ),
        (
            ["transfer-horizon", "--mode", "cooldown", "--T1", "4000", "--T2", "8000", "--base", "inv-sqrt"],
            "cooldown-transfer",
            [("transfer_horizon.csv", "cooldown_transfer_inv_sqrt.csv")],
        ),
        (
            ["toy-compare", "--name", "toy"],
            "toy",
            [(f"toy_{name}.csv", f"toy_{name}.csv") for name in ("wsd", "constant", "cosine")],
        ),
    ],
    ids=["rho-transfer", "cooldown-transfer-inv-sqrt", "toy"],
)
def test_command_writes_the_repro_target_bytes(tmp_path, capsys, args, repro_target, pairs):
    # each table is defined once, so the command and the repro target agree byte for byte
    assert run_cli([*args, "--outdir", str(tmp_path / "cmd")], capsys)[0] == 0
    assert run_cli(["repro", repro_target, "--outdir", str(tmp_path / "repro")], capsys)[0] == 0
    for ours, theirs in pairs:
        assert (tmp_path / "cmd" / ours).read_bytes() == (tmp_path / "repro" / theirs).read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["repro", "all"],
        ["repro", "all", "--format", "json"],
        ["repro", "toy", "--name", "r"],
        ["repro", "gamma-star-scaling"],
        ["repro", "list"],
        ["bound", "--schedule", "wsd:T=100000,c=0.2"],
        ["bound", "--schedule", "cosine:T=400", "--gamma", "0.1", "--format", "json"],
        ["schedule", "--schedule", "wsd:T=40,c=0.2"],
        ["sweep-gamma", "--schedule", "wsd:T=400,c=0.2"],
        ["sweep-gamma", "--schedule", "wsd:T=400,c=0.2", "--gamma-min", "0.01", "--gamma-max", "1", "--points", "11"],
        ["sweep-cooldown", "--T", "400", "--points", "9"],
        ["transfer-horizon", "--mode", "rho", "--T1", "400", "--T2", "800"],
        ["transfer-horizon", "--mode", "cooldown", "--T1", "400", "--T2", "800", "--base", "inv-sqrt", "--format", "json"],
        ["transfer-lr", "--T", "400", "--points", "12"],
        ["toy-run", "--schedule", "wsd:T=50,c=0.2", "--gamma", "0.05", "--record-iterates"],
        ["toy-run", "--schedule", "wsd:T=50,c=0.2", "--gamma", "0.05", "--record-iterates", "--format", "json"],
        ["toy-compare", "--T", "100"],
        ["scaling-law", "--delta", "0.01", "--N", "124e6", "--D", "10.24e9", "--solve", "tokens"],
        ["scaling-law", "--delta", "0.01", "--N", "124e6", "--D", "10.24e9", "--solve", "params"],
        ["fit", "--model", "hgamma"],
        ["fit", "--model", "invsqrt", "--format", "json"],
    ],
    ids=lambda args: " ".join(args),
)
def test_outdir_holds_exactly_the_listed_files(tmp_path, capsys, args):
    if args[0] == "fit":
        data = tmp_path / "xy.csv"
        data.write_text("x,y\n" + "\n".join(f"{x},{2.0 / x + 0.5 * x + 1.0}" for x in (1.0, 2.0, 4.0, 8.0)) + "\n")
        args = [*args, "--input", str(data)]
    outdir = tmp_path / "out"
    code, out, _ = run_cli([*args, "--outdir", str(outdir)], capsys)
    assert code == 0
    summary = json.loads(out)
    # repro lists each target's files under that target
    listed = [*summary.get("files", [])]
    for value in summary.values():
        if isinstance(value, dict):
            listed += value.get("files", [])
    if args[0] == "scaling-law":
        assert listed == []
    if args[:2] == ["repro", "list"]:
        assert "summary_file" not in summary
    else:
        listed.append(summary["summary_file"])
    assert len(set(listed)) == len(listed)
    assert sorted(str(p) for p in outdir.iterdir()) == sorted(listed)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["x", "y"])
def test_fit_non_finite_cell_exit_2_before_any_file(tmp_path, capsys, cell, column):
    row = f"{cell},0.7" if column == "x" else f"0.2,{cell}"
    data = tmp_path / "xy.csv"
    data.write_text(f"x,y\n0.1,1.0\n{row}\n0.4,0.6\n0.8,0.65\n")
    outdir = tmp_path / "out"
    code, out, err = run_cli(["fit", "--model", "hgamma", "--input", str(data), "--outdir", str(outdir)], capsys)
    assert code == 2
    assert repr(row) in err and "non-finite" in err
    assert out == ""
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize(
    "model, row, named",
    [
        ("poly6", "1e60,10", "x values overflow the polynomial-degree-6 model"),
        ("hgamma", "2e200,1.9", "x values overflow the inv-gamma-linear model"),
        ("invsqrt", "1e-320,0.035", "x values overflow the inv-sqrt model"),
        ("invsqrt", "800,1e300", "x or y values overflow the inv-sqrt model"),
    ],
)
def test_fit_overflowing_input_exit_2_before_any_file(tmp_path, capsys, model, row, named):
    data = tmp_path / "xy.csv"
    data.write_text(f"x,y\n0.1,3\n0.2,2.1\n0.4,1.7\n0.8,1.9\n1.6,2.8\n3.2,5\n6.4,9\n{row}\n")
    outdir = tmp_path / "out"
    code, out, err = run_cli(["fit", "--model", model, "--input", str(data), "--outdir", str(outdir)], capsys)
    assert code == 2  # a RuntimeWarning, which the suite makes an error, would exit 1
    assert named in err and "Warning" not in err
    assert out == ""
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("points", ["11", "61"])  # 61 is the default grid's own size
def test_sweep_gamma_points_without_range_exit_2(tmp_path, capsys, points):
    # --points sizes only the --gamma-min/--gamma-max grid; the default grid has a fixed size
    code, out, err = run_cli(
        ["sweep-gamma", "--schedule", "wsd:T=50,c=0.2", "--points", points, "--outdir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "--points" in err and "--gamma-min" in err and "--gamma-max" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_bound_gamma_neither_float_nor_star_exit_2_before_any_file(tmp_path, capsys):
    code, out, err = run_cli(["bound", "--schedule", "wsd:T=10,c=0.2", "--gamma", "abc", "--outdir", str(tmp_path)], capsys)
    assert (code, out, err) == (2, "", "error: --gamma must be a float or 'star', got 'abc'\n")
    assert list(tmp_path.iterdir()) == []


def test_runtime_failure_exit_1_without_a_summary(tmp_path, capsys):
    # the data file's path is a directory: an OSError, not a validation error
    (tmp_path / "x.csv").mkdir()
    code, out, err = run_cli(["schedule", "--schedule", "constant:T=3", "--name", "x", "--outdir", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("runtime error: ") and "x.csv" in err
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_outdir_without_write_access_exit_2(tmp_path, capsys, monkeypatch):
    # a superuser may write to any directory, so only a stubbed access check says no for certain
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    code, out, err = run_cli(["schedule", "--schedule", "constant:T=3", "--outdir", str(tmp_path)], capsys)
    assert (code, out, err) == (2, "", f"error: output directory {str(tmp_path)!r} is not writable\n")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_outdir_exit_2(capsys):
    code, _, err = run_cli(
        ["schedule", "--schedule", "constant:T=3", "--outdir", "/proc/definitely/nope"], capsys
    )
    assert code == 2
    assert "not writable" in err


def test_outdir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "from_env"))
    code, _, _ = run_cli(["schedule", "--schedule", "constant:T=3"], capsys)
    assert code == 0
    assert (tmp_path / "from_env" / "schedule.csv").exists()


def test_json_format(tmp_path, capsys):
    code, _, _ = run_cli(
        ["schedule", "--schedule", "constant:T=3", "--format", "json", "--outdir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    rows = json.loads((tmp_path / "schedule.json").read_text())
    assert rows == [{"t": 1, "eta": 1.0}, {"t": 2, "eta": 1.0}, {"t": 3, "eta": 1.0}]


def test_csv_floats_round_trip_exactly(tmp_path, capsys):
    run_cli(
        ["bound", "--schedule", "wsd:T=50,c=0.3", "--outdir", str(tmp_path)], capsys
    )
    from schedbound import bounds
    from schedbound.schedules import parse_spec

    sched = parse_spec("wsd:T=50,c=0.3")
    gamma = bounds.optimal_gamma(sched)
    for ln in (tmp_path / "bound.csv").read_text().splitlines()[1:]:
        t, omega = ln.split(",")[:2]
        dist, noise = bounds.bound_terms(sched, t=int(t))
        assert float(omega) == dist / gamma + gamma * noise


def test_threads_flag_rejected(tmp_path, capsys):
    code, _, err = run_cli(
        ["schedule", "--schedule", "constant:T=3", "--outdir", str(tmp_path), "--threads", "2"],
        capsys,
    )
    assert code == 2
    assert "unrecognized arguments: --threads 2" in err


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "schedbound.cli",
            "schedule", "--schedule", "constant:T=3", "--outdir", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["horizon"] == 3


# spellings of schedule kinds and cooldown shapes that no document names; names are exact, so a
# documented name in other letter case or with padding is one of them
_REMOVED_KINDS = ("linear-decay", "1-sqrt", "one-minus-sqrt", "inv-sqrt", "polynomial", "WSD", "Linear", " wsd", "poly ")
_REMOVED_SHAPES = ("lin", "one-minus-sqrt", "1sqrt", "sqrt", "LINEAR", "1-SQRT", " linear", "1-sqrt ")
_SHAPE_COMMANDS = (
    ["sweep-cooldown", "--T", "100", "--shape"],
    ["transfer-horizon", "--mode", "rho", "--T1", "400", "--T2", "800", "--shape"],
    ["transfer-lr", "--T", "400", "--shape"],
)
_KINDS_NAMED = "(use constant, wsd, linear, onesqrt, cosine, invsqrt, poly or extended)"
_SHAPES_NAMED = "(use linear or 1-sqrt)"


@pytest.mark.parametrize(
    "argv, accepted",
    [pytest.param(argv, accepted, id=" ".join(argv)) for argv, accepted in [
        *((["schedule", "--schedule", f"{kind}:T=10,alpha=2"], _KINDS_NAMED) for kind in _REMOVED_KINDS),
        *((["schedule", "--schedule", f"wsd:T=10,c=0.2,shape={shape}"], _SHAPES_NAMED) for shape in _REMOVED_SHAPES),
        *(([*command, shape], _SHAPES_NAMED) for command in _SHAPE_COMMANDS for shape in _REMOVED_SHAPES),
    ]],
)
def test_undocumented_spelling_exit_2_before_any_file(tmp_path, capsys, argv, accepted):
    code, out, err = run_cli([*argv, "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert accepted in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep-cooldown", "transfer-horizon", "transfer-lr"])
def test_shape_help_names_both_shapes(command):
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    shape = next(a for a in sub.choices[command]._actions if a.option_strings == ["--shape"])
    assert shape.help == "cooldown shape: linear or 1-sqrt"
