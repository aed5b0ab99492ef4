"""Command-line front end.

Every subcommand validates its parameters, dispatches to the library and
hands the headline numbers and data tables to `_write`, the one artifact
writer: the tables as CSV/JSON plus a `<name>_summary.json` (echoing the
resolved configuration), which is also printed to stdout.  Exit codes:
0 success, 2 validation error (bad subcommand, parameter, or output
path), 1 runtime error.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

# OpenBLAS spins a worker per core from numpy's import on, and no call here is
# big enough to use one.  It reads the variable once, at that import, so this
# line must run before any handler imports numpy or a library module.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# only what the parser, main and the writer need; each handler imports numpy
# and the library modules it runs, so `repro list`, `--help` and a parse error
# load none of them
from . import serialize
from ._checks import integer, positive

OUTDIR_ENV = "SCHEDBOUND_OUTDIR"


def _add_common(p: argparse.ArgumentParser, name: str):
    p.add_argument("--outdir", default=None, help=f"output directory (default: ${OUTDIR_ENV} or '.')")
    p.add_argument("--name", default=name, help="base name for output files")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="data file format")


def _add_bound_params(p: argparse.ArgumentParser):
    p.add_argument("--D", type=float, default=1.0, help="initial distance to the comparator")
    p.add_argument("--G", type=float, default=1.0, help="gradient norm scale")
    p.add_argument("--grad-alpha", type=float, default=0.0, help="gradient norm exponent (G_t = G * t**alpha, alpha <= 0)")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the arguments of `command` only, or of all if None.

    A process parses one subcommand; the others' arguments would cost it
    about 1.1 ms (the full parser 2.0 ms, one command's 0.8-0.9 ms, best of
    100 in-process).  Their names and help lines stay, so `--help` and an
    unknown command read as with the full parser.
    """
    top = argparse.ArgumentParser(
        prog="schedbound",
        description="Suboptimality bounds, tuning, and transfer for SGD learning-rate schedules.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, help_line: str) -> argparse.ArgumentParser | None:
        """Register the subcommand; its parser if it gets its arguments, else None."""
        p = sub.add_parser(name, help=help_line)
        return p if command in (None, name) else None

    if p := add("schedule", "materialize a schedule to CSV/JSON"):
        p.add_argument("--schedule", required=True, help="schedule spec, e.g. wsd:T=4000,c=0.2")
        _add_common(p, "schedule")

    if p := add("bound", "bound curve for a schedule"):
        p.add_argument("--schedule", required=True)
        _add_bound_params(p)
        p.add_argument("--gamma", default="star", help="base learning rate, a float or 'star'")
        p.add_argument("--stride", type=int, default=None, help="horizon stride (default max(1, T//2000))")
        _add_common(p, "bound")

    if p := add("sweep-gamma", "bound vs base learning rate"):
        p.add_argument("--schedule", required=True)
        _add_bound_params(p)
        p.add_argument("--gamma-min", type=float, default=None)
        p.add_argument("--gamma-max", type=float, default=None)
        p.add_argument("--points", type=int, default=None, help="size of the --gamma-min/--gamma-max grid")
        _add_common(p, "sweep_gamma")

    if p := add("sweep-cooldown", "bound vs cooldown fraction"):
        p.add_argument("--T", type=int, required=True)
        p.add_argument("--shape", default="linear", help="cooldown shape: linear or 1-sqrt")
        p.add_argument("--base", choices=("constant", "inv-sqrt"), default="constant")
        _add_bound_params(p)
        p.add_argument("--gamma", default="star", help="'star' tunes gamma per fraction; a float fixes it")
        p.add_argument("--c-min", type=float, default=0.02)
        p.add_argument("--c-max", type=float, default=1.0)
        p.add_argument("--points", type=int, default=50)
        _add_common(p, "sweep_cooldown")

    if p := add("transfer-horizon", "extend a tuned run to a longer horizon"):
        p.add_argument("--mode", choices=("rho", "cooldown"), required=True)
        p.add_argument("--T1", type=int, required=True)
        p.add_argument("--T2", type=int, required=True)
        p.add_argument("--c", type=float, default=0.2, help="cooldown fraction of the short run")
        p.add_argument("--shape", default="linear")
        p.add_argument("--base", choices=("constant", "inv-sqrt"), default="constant")
        _add_bound_params(p)
        _add_common(p, "transfer_horizon")

    if p := add("transfer-lr", "tuned-gamma ratio across cooldown fractions"):
        p.add_argument("--T", type=int, required=True)
        p.add_argument("--shape", default="linear")
        _add_bound_params(p)
        p.add_argument("--c-min", type=float, default=0.02)
        p.add_argument("--c-max", type=float, default=1.0)
        p.add_argument("--points", type=int, default=50)
        _add_common(p, "transfer_lr")

    if p := add("toy-run", "subgradient descent on the toy problem"):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--m", type=int, default=20)
        p.add_argument("--d", type=int, default=2)
        p.add_argument("--schedule", required=True)
        p.add_argument("--gamma", type=float, required=True)
        p.add_argument("--x-start", default=None, help="comma-separated start point (default: problem's)")
        p.add_argument("--record-iterates", action="store_true")
        _add_common(p, "toy_run")

    if p := add("toy-compare", "wsd vs constant vs cosine on one instance"):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--T", type=int, default=400)
        _add_common(p, "toy_compare")

    if p := add("scaling-law", "price a loss delta in tokens or parameters"):
        p.add_argument("--delta", type=float, required=True)
        p.add_argument("--N", type=float, required=True, help="parameter count")
        p.add_argument("--D", type=float, required=True, help="token count")
        p.add_argument("--solve", choices=("tokens", "params"), required=True)
        # the handler fills in ScalingLaw's defaults, so the parser need not import scaling
        for flag in ("--E", "--A", "--B", "--alpha", "--beta", "--loss-scale"):
            p.add_argument(flag, type=float)
        _add_common(p, "scaling_law")

    if p := add("fit", "fit a parametric model to (x, y) CSV data"):
        p.add_argument("--model", choices=("hgamma", "invsqrt", "poly6"), required=True)
        p.add_argument("--input", required=True, help="CSV file with header and two columns (x, y)")
        _add_common(p, "fit")

    if p := add("repro", "reproduce a named experiment with pinned defaults"):
        p.add_argument("target", help="target id, 'all', or 'list'")
        _add_common(p, "repro")

    return top


def _command(argv: list[str]) -> str | None:
    """The subcommand that argparse will parse in argv: its first argument that is not an option.

    The top-level parser has no option that takes a value, so an argument
    before that one is an option or, if it is not one (`-`, `-1`), an
    unknown command that fails the same way with any parser.
    """
    return next((arg for arg in argv if not arg.startswith("-")), None)


def _resolve_outdir(args) -> str:
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"output directory {outdir!r} is not writable: {exc}") from None
    if not os.access(outdir, os.W_OK):
        raise ValueError(f"output directory {outdir!r} is not writable")
    return outdir


def _gamma_arg(raw: str) -> float | None:
    if raw == "star":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"--gamma must be a float or 'star', got {raw!r}") from None
    return positive(value, "--gamma")


def _grad_norms(args):
    from . import bounds

    return bounds.GradNormModel(G=args.G, alpha=args.grad_alpha)


def _c_grid(args):
    """Log grid of --points cooldown fractions from --c-min to --c-max, as an array."""
    import numpy as np

    if not 0.0 < args.c_min <= args.c_max <= 1.0:
        raise ValueError("need 0 < --c-min <= --c-max <= 1")
    integer(args.points, "--points")
    return np.logspace(math.log10(args.c_min), math.log10(args.c_max), args.points)


def _write_tables(args, tables) -> list[str]:
    """Write each (name, header, rows) table in --format; return the paths."""
    return [serialize.serialize(args.outdir, name, header, rows, args.format) for name, header, rows in tables]


def _write(args, headlines: dict, tables=(), name: str | None = None) -> dict:
    """Write the tables, then <name>_summary.json: config, headlines and, if any tables, their files."""
    summary = {"config": {k: v for k, v in sorted(vars(args).items()) if k not in {"outdir", "name", "format"}}}
    summary.update(headlines)
    if tables:
        summary["files"] = _write_tables(args, tables)
    return serialize.write_summary(args.outdir, name or args.name, summary)


def _cmd_schedule(args) -> dict:
    from . import schedules

    sched = schedules.parse_spec(args.schedule)
    rows = zip(range(1, sched.horizon + 1), sched.values)
    return _write(args, {"horizon": sched.horizon}, [(args.name, ["t", "eta"], rows)])


def _cmd_bound(args) -> dict:
    import numpy as np

    from . import bounds, schedules

    sched = schedules.parse_spec(args.schedule)
    grad = _grad_norms(args)
    gamma = _gamma_arg(args.gamma)
    # the terms do not depend on gamma, and the curve's last row gives gamma_star
    spec = bounds.BoundSpec(sched, grad, args.D, 1.0 if gamma is None else gamma)
    stride = bounds.default_stride(sched.horizon) if args.stride is None else args.stride
    curve = bounds.bound_curve(spec, stride=stride)
    gamma_star = curve.optimal_gamma
    if gamma is None:
        curve = curve.at_gamma(gamma_star)
    if not np.isfinite(curve.values).all():  # bound_curve leaves an overflow as inf
        raise ValueError(f"--gamma {args.gamma} overflows the bound")
    rows = zip(curve.t, curve.values, curve.dist_terms, curve.noise_terms)
    nodes, groups, shared = curve.exp_sum or (None, None, None)  # the direct kernels report no exp-sum counts
    headlines = {
        "gamma_used": curve.gamma,
        "gamma_star": gamma_star,
        "omega_final": curve.value_final,
        "T1_final": curve.dist_final,
        "T2_final": curve.noise_final,
        "tuned_bound_final": 2.0 * math.sqrt(curve.dist_final * curve.noise_final),
        "noise_kernel": curve.noise_kernel,
        "stride": stride,
        "horizons": curve.t.size,
        "exp_sum_nodes": nodes,
        "exp_sum_groups": groups,
        "exp_sum_shared_groups": shared,
    }
    return _write(args, headlines, [(args.name, ["t", "omega", "T1", "T2"], rows)])


def _cmd_sweep_gamma(args) -> dict:
    import numpy as np

    from . import schedules, tuning

    sched = schedules.parse_spec(args.schedule)
    points_given = args.points is not None
    if not points_given:  # the default lives in tuning, which the parser does not import
        args.points = tuning.GAMMA_GRID_POINTS
    grad = _grad_norms(args)
    grid = None
    if (args.gamma_min is None) != (args.gamma_max is None):
        raise ValueError("--gamma-min and --gamma-max must be given together")
    integer(args.points, "--points")
    if args.gamma_min is not None:
        positive(args.gamma_min, "--gamma-min")
        positive(args.gamma_max, "--gamma-max")
        if not args.gamma_min < args.gamma_max:
            raise ValueError("need 0 < --gamma-min < --gamma-max")
        grid = np.logspace(math.log10(args.gamma_min), math.log10(args.gamma_max), args.points)
    elif points_given:
        raise ValueError("--points sets the size of the --gamma-min/--gamma-max grid; give both")
    sweep = tuning.sweep_gamma(sched, grad, args.D, gamma_grid=grid)
    if grid is not None:
        # the bound is convex in gamma, so it is finite on the grid if it is at both ends
        for flag, value, omega in (("--gamma-min", args.gamma_min, sweep.objective[0]), ("--gamma-max", args.gamma_max, sweep.objective[-1])):
            if not math.isfinite(omega):
                raise ValueError(f"{flag} {value} overflows the bound")
    headlines = {
        "argmin_gamma": sweep.argmin_value,
        "argmin_omega": sweep.argmin_objective,
        "gamma_star": math.sqrt(sweep.dist[0] / sweep.noise[0]),
    }
    return _write(args, headlines, [(args.name, ["gamma", "omega"], zip(sweep.grid, sweep.objective))])


def _cmd_sweep_cooldown(args) -> dict:
    import numpy as np

    from . import schedules, tuning

    shape = schedules.CooldownShape.parse(args.shape)
    grad = _grad_norms(args)
    gamma = _gamma_arg(args.gamma)
    sweep = tuning.sweep_cooldown(args.T, _c_grid(args), shape, grad, args.D, base=args.base)
    if gamma is not None:
        sweep = sweep.at_gamma(gamma)
        if not np.isfinite(sweep.objective).all():
            raise ValueError(f"--gamma {args.gamma} overflows the bound")
    rows = zip(sweep.grid, sweep.objective, sweep.gamma)
    headlines = {
        "argmin_c": sweep.argmin_value,
        "argmin_omega": sweep.argmin_objective,
        "gamma_at_argmin": float(sweep.gamma[int(np.argmin(sweep.objective))]),
    }
    return _write(args, headlines, [(args.name, ["c", "omega", "gamma"], rows)])


def _cmd_transfer_horizon(args) -> dict:
    from . import schedules, tuning

    shape = schedules.CooldownShape.parse(args.shape)
    grad = _grad_norms(args)
    if args.mode == "rho":
        res = tuning.transfer_horizon_rho(args.T1, args.T2, args.c, shape, grad, args.D)
        param = "rho"
    else:
        res = tuning.transfer_horizon_cooldown(args.T1, args.T2, args.c, shape, args.base, grad, args.D)
        param = "c"
    headlines = {
        param: res.value,
        "feasible": res.feasible,
        "target_gamma": res.target_gamma,
        "achieved_gamma": res.achieved_gamma,
    }
    return _write(args, headlines, [(args.name, *res.table(param))])


def _cmd_transfer_lr(args) -> dict:
    from . import schedules, tuning

    shape = schedules.CooldownShape.parse(args.shape)
    grad = _grad_norms(args)
    curve = tuning.lr_transfer_curve(args.T, _c_grid(args), shape, grad, args.D)
    fit = tuning.fit_polynomial(curve, degree=6)
    headlines = {
        "poly6_coefficients": [float(x) for x in fit.coefficients],
        "poly6_residual_norm": fit.residual_norm,
    }
    return _write(args, headlines, [(args.name, ["c", "log_ratio"], curve)])


def _cmd_toy_run(args) -> dict:
    from . import schedules, toy

    sched = schedules.parse_spec(args.schedule)
    problem = toy.generate_problem(args.m, args.d, args.seed)
    x_start = None
    if args.x_start is not None:
        try:
            x_start = [float(v) for v in args.x_start.split(",")]
        except ValueError:
            raise ValueError(f"--x-start must be comma-separated floats, got {args.x_start!r}") from None
    rec = toy.run_sgd(problem, sched, args.gamma, x_start=x_start, record_iterates=args.record_iterates)
    tables = [(args.name, *rec.table())]
    if args.record_iterates:
        header = ["t"] + [f"x{i + 1}" for i in range(problem.d)]
        it_rows = ([t + 1, *rec.iterates[t]] for t in range(sched.horizon))
        tables.append((f"{args.name}_iterates", header, it_rows))
    headlines = {"final_loss": float(rec.losses[-1]), "min_loss": float(rec.losses.min())}
    return _write(args, headlines, tables)


def _cmd_toy_compare(args) -> dict:
    from . import toy

    runs = toy.comparison_runs(seed=args.seed, T=args.T)
    headlines = {f"final_loss_{name}": float(run.losses[-1]) for name, run in runs.items()}
    return _write(args, headlines, [(f"{args.name}_{name}", *run.table()) for name, run in runs.items()])


def _cmd_scaling_law(args) -> dict:
    from . import scaling

    given = {k: getattr(args, k) for k in ("E", "A", "B", "alpha", "beta", "loss_scale")}
    law = scaling.ScalingLaw(**{k: v for k, v in given.items() if v is not None})
    vars(args).update(vars(law))  # the config echo shows the constants used
    if args.solve == "tokens":
        result = scaling.tokens_for_delta(law, args.N, args.D, args.delta)
    else:
        result = scaling.params_for_delta(law, args.N, args.D, args.delta)
    return _write(args, {"loss_before": scaling.loss(law, args.N, args.D), "result": result, "solve": args.solve})


def _read_xy_csv(path: str) -> list[tuple[float, float]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read input file {path!r}: {exc}") from None
    if len(lines) < 2:
        raise ValueError(f"input file {path!r} needs a header and at least one data row")
    points = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) < 2:
            raise ValueError(f"input row {ln!r} needs two columns (x, y)")
        try:
            x, y = float(cells[0]), float(cells[1])
        except ValueError:
            raise ValueError(f"input row {ln!r} has non-numeric cells") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"input row {ln!r} has a non-finite cell")
        points.append((x, y))
    return points


def _cmd_fit(args) -> dict:
    from . import tuning

    points = _read_xy_csv(args.input)
    if args.model == "hgamma":
        fit = tuning.fit_inv_gamma_linear(points)
        extra = {"gamma_min": tuning.minimizer(fit)}
    elif args.model == "invsqrt":
        fit = tuning.fit_inv_sqrt(points)
        extra = {"free_prefactor": fit.free_prefactor, "free_exponent": fit.free_exponent}
    else:
        fit = tuning.fit_polynomial(points, degree=6)
        extra = {}
    xs = [p[0] for p in points]
    rows = zip(xs, [p[1] for p in points], fit.predict(xs))
    headlines = {
        "model_kind": fit.model_kind,
        "coefficients": [float(c) for c in fit.coefficients],
        "residual_norm": fit.residual_norm,
        **extra,
    }
    return _write(args, headlines, [(args.name, ["x", "y", "fitted"], rows)])


def _cmd_repro(args) -> dict:
    from . import repro

    if args.target == "list":
        return {"targets": sorted(repro.TARGETS)}
    results = {}
    for target, run in repro.run_target(args.target).items():
        # each target's tables are written as soon as it returns, under that target's files
        headlines, tables = run()
        results[target] = {**headlines, "files": _write_tables(args, tables)}
        del tables  # frees the target's data before the next target runs
    headlines = results if args.target == "all" else results[args.target]
    return _write(args, headlines, name=f"{args.name}_{args.target}")


_HANDLERS = {
    "schedule": _cmd_schedule,
    "bound": _cmd_bound,
    "sweep-gamma": _cmd_sweep_gamma,
    "sweep-cooldown": _cmd_sweep_cooldown,
    "transfer-horizon": _cmd_transfer_horizon,
    "transfer-lr": _cmd_transfer_lr,
    "toy-run": _cmd_toy_run,
    "toy-compare": _cmd_toy_compare,
    "scaling-law": _cmd_scaling_law,
    "fit": _cmd_fit,
    "repro": _cmd_repro,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(_command(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags/subcommands and 0 on --help
        return int(exc.code or 0)
    try:
        args.outdir = _resolve_outdir(args)
        summary = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(serialize.json_text(summary))
    return 0


def entry() -> int:
    """The `schedbound` process: main() with the cyclic garbage collector off.

    Reference counting frees what a command computes.  The collector's 35
    to 40 passes, most of them inside numpy's import, cost 5 to 9 ms and
    find only garbage that a process makes once: argparse's parser graph
    and what numpy's import leaves, some 700 objects.  tests/test_cli.py
    holds that garbage bounded and the same for every command.  main()
    leaves the collector as it finds it, for callers that run it in their
    own process.
    """
    gc.disable()
    return main()


if __name__ == "__main__":
    raise SystemExit(entry())
