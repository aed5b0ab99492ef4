"""Pinned, deterministic experiment reproductions behind `schedbound repro`.

Each target takes no arguments and returns `(headlines, tables)`: a dict of
its headline numbers and a list of `(name, header, rows)` data tables.  A
target writes nothing; `schedbound repro` writes each table and the summary.
Inputs are hard-wired; repeated invocations produce identical results.
Each target imports the library modules it runs, so that `schedbound repro
list` loads none of them.
"""

from __future__ import annotations

import math


def gamma_star_scaling() -> tuple[dict, list]:
    """gamma* vs horizon for wsd(c=0.2) and cosine, with 1/sqrt(T) fits."""
    from . import bounds, schedules, tuning

    Ts = [200 * 2**k for k in range(7)]
    wsd_pts = [(T, bounds.optimal_gamma(schedules.wsd(T, 0.2))) for T in Ts]
    cos_pts = [(T, bounds.optimal_gamma(schedules.cosine(T))) for T in Ts]
    fit_w = tuning.fit_inv_sqrt(wsd_pts)
    fit_c = tuning.fit_inv_sqrt(cos_pts)
    rows = [(T, gw, gc) for (T, gw), (_, gc) in zip(wsd_pts, cos_pts)]
    headlines = {
        "a_wsd": float(fit_w.coefficients[0]),
        "a_cosine": float(fit_c.coefficients[0]),
        "free_exponent_wsd": fit_w.free_exponent,
        "free_exponent_cosine": fit_c.free_exponent,
        "ratio_cosine_over_wsd": float(fit_c.coefficients[0] / fit_w.coefficients[0]),
    }
    return headlines, [("gamma_star_scaling", ["T", "gamma_star_wsd", "gamma_star_cosine"], rows)]


def rho_transfer() -> tuple[dict, list]:
    """Continuation factor keeping gamma* fixed when doubling/quadrupling T."""
    from . import tuning

    T1, c = 4000, 0.2
    out: dict = {"T1": T1, "c": c}
    tables = []
    for mult in (2, 4):
        res = tuning.transfer_horizon_rho(T1, mult * T1, c)
        tables.append((f"rho_transfer_{mult}x", *res.table("rho")))
        out[f"rho_{mult}x"] = res.value
        out[f"feasible_{mult}x"] = res.feasible
    return out, tables


def cooldown_transfer() -> tuple[dict, list]:
    """Cooldown fraction keeping gamma* fixed on a doubled horizon."""
    from . import tuning

    T1, c = 4000, 0.2
    out: dict = {"T1": T1, "c_short": c}
    tables = []
    for base, tag in (("constant", "wsd"), ("inv-sqrt", "inv_sqrt")):
        res = tuning.transfer_horizon_cooldown(T1, 2 * T1, c, base=base)
        tables.append((f"cooldown_transfer_{tag}", *res.table("c")))
        out[f"c_long_{tag}"] = res.value
        out[f"feasible_{tag}"] = res.feasible
    return out, tables


def lr_transfer() -> tuple[dict, list]:
    """ln(gamma*(1)/gamma*(c)) across cooldown fractions, both shapes."""
    from . import bounds, schedules, tuning

    T = 10_000
    lin = tuning.lr_transfer_curve(T, shape=schedules.CooldownShape.LINEAR)
    sqr = tuning.lr_transfer_curve(T, shape=schedules.CooldownShape.ONE_MINUS_SQRT)
    rows = [(c, v, w) for (c, v), (_, w) in zip(lin, sqr)]
    fit = tuning.fit_polynomial(lin, degree=6)
    at_02 = math.log(
        bounds.optimal_gamma(schedules.wsd(T, 1.0)) / bounds.optimal_gamma(schedules.wsd(T, 0.2))
    )
    headlines = {
        "T": T,
        "log_ratio_linear_at_c_0.2": at_02,
        "poly6_coefficients_linear": [float(x) for x in fit.coefficients],
        "poly6_residual_norm": fit.residual_norm,
    }
    return headlines, [("lr_transfer", ["c", "log_ratio_linear", "log_ratio_one_minus_sqrt"], rows)]


def cooldown_sweep() -> tuple[dict, list]:
    """Bound vs cooldown fraction, per-c-tuned and at a fixed gamma."""
    from . import tuning

    out: dict = {}
    tables = []
    for T in (400, 4000):
        tuned = tuning.sweep_cooldown(T)
        g_fix = 0.5 * float(tuned.gamma[-1])  # the default grid ends at c = 1: wsd(T, 1.0)
        fixed = tuned.at_gamma(g_fix)
        rows = zip(tuned.grid, tuned.objective, tuned.gamma, fixed.objective)
        tables.append((f"cooldown_sweep_T{T}", ["c", "omega_tuned", "gamma_tuned", "omega_fixed_gamma"], rows))
        out[f"T{T}"] = {
            "argmin_c_tuned": tuned.argmin_value,
            "argmin_c_fixed_gamma": fixed.argmin_value,
            "fixed_gamma": g_fix,
        }
    return out, tables


def gradnorm_shapes() -> tuple[dict, list]:
    """Cooldown drop of the bound under shrinking gradient-norm models."""
    from . import bounds, schedules

    T, c = 400, 0.2
    T0 = schedules.cooldown_start(T, c)
    sched = schedules.wsd(T, c)
    alphas = (0.0, -0.5, -1.0)
    curves = []
    out: dict = {"T": T, "c": c, "T0": T0}
    for alpha in alphas:
        g = bounds.GradNormModel(alpha=alpha)
        spec = bounds.BoundSpec(sched, g, gamma=bounds.optimal_gamma(sched, g))
        curve = bounds.bound_curve(spec, stride=1)
        curves.append(curve)
        out[f"drop_ratio_alpha_{alpha:g}"] = float(curve.values[T0 - 1] / curve.values[T - 1])
    rows = zip(curves[0].t, *[c.values for c in curves])
    header = ["t"] + [f"omega_alpha_{a:g}" for a in alphas]
    return out, [("gradnorm_shapes", header, rows)]


def min_ablation() -> tuple[dict, list]:
    """Last-iterate bound vs the best-iterate ablation along the run."""
    from . import bounds, schedules

    T, c = 400, 0.2
    T0 = schedules.cooldown_start(T, c)
    sched = schedules.wsd(T, c)
    spec = bounds.BoundSpec(sched, gamma=bounds.optimal_gamma(sched))
    last = bounds.bound_curve(spec, stride=1)
    best = bounds.best_iterate_curve(spec, stride=1)
    rows = zip(last.t, last.values, best.values)
    headlines = {
        "T": T,
        "c": c,
        "T0": T0,
        "gamma": spec.gamma,
        "drop_ratio_last_iterate": float(last.values[T0 - 1] / last.values[T - 1]),
        "drop_ratio_best_iterate": float(best.values[T0 - 1] / best.values[T - 1]),
    }
    return headlines, [("min_ablation", ["t", "omega_last_iterate", "omega_best_iterate"], rows)]


def toy_runs() -> tuple[dict, list]:
    """The three-schedule subgradient-descent comparison, seed 0."""
    from . import schedules, toy

    T, seed = 400, 0
    runs = toy.comparison_runs(seed=seed, T=T)
    T0 = schedules.cooldown_start(T, 0.2)
    out: dict = {"seed": seed, "T": T, "T0": T0}
    tables = []
    for name, run in runs.items():
        tables.append((f"toy_{name}", *run.table()))
        out[f"final_loss_{name}"] = float(run.losses[-1])
    w = runs["wsd"].losses
    out["wsd_cooldown_drop_ratio"] = float(w[T0 - 1] / w[T - 1])
    out["wsd_pre_window_ratio"] = float(w[2 * T0 - T - 1] / w[T0 - 1])
    return out, tables


def schedule_comparison() -> tuple[dict, list]:
    """Tuned bound for the standard schedule zoo at one horizon."""
    from . import bounds, schedules

    T = 400
    zoo = [
        ("constant", schedules.constant(T)),
        ("cosine", schedules.cosine(T)),
        ("cosine_final_0.1", schedules.cosine(T, 0.1)),
        ("wsd_c0.2", schedules.wsd(T, 0.2)),
        ("wsd_c0.2_1-sqrt", schedules.wsd(T, 0.2, schedules.CooldownShape.ONE_MINUS_SQRT)),
        ("linear_decay", schedules.linear_decay(T)),
        ("one_minus_sqrt", schedules.one_minus_sqrt(T)),
        ("inv_sqrt", schedules.inv_sqrt(T)),
        ("inv_sqrt_cooldown_0.2", schedules.with_cooldown(schedules.inv_sqrt(T), 0.2)),
        ("poly_alpha_1", schedules.polynomial_decay(T, 1.0)),
    ]
    rows = []
    for name, sched in zoo:
        dist, noise = bounds.bound_terms(sched)
        rows.append((name, math.sqrt(dist / noise), 2.0 * math.sqrt(dist * noise)))
    best_name, _, best_val = min(rows, key=lambda r: r[2])
    headlines = {"T": T, "best_schedule": best_name, "best_tuned_bound": best_val}
    return headlines, [("schedule_comparison", ["schedule", "gamma_star", "tuned_bound"], rows)]


def cosine_cycles() -> tuple[dict, list]:
    """Cosine warm restarts: shorter cycles only hurt the bound."""
    from . import bounds, schedules

    T, final = 400, 0.1
    cycles = (0.125, 0.25, 0.5, 1.0)
    terms = [bounds.bound_terms(schedules.cosine(T, final, cycle)) for cycle in cycles]
    dist, noise = terms[-1]  # the full cycle
    g_full = math.sqrt(dist / noise)
    # the tuned bound 2 sqrt(dist * noise), and the bound at g_full
    rows = [(c, 2.0 * math.sqrt(dist * noise), dist / g_full + g_full * noise) for c, (dist, noise) in zip(cycles, terms)]
    headlines = {
        "T": T,
        "final_fraction": final,
        "full_cycle_gamma": g_full,
        "best_cycle_tuned": float(min(rows, key=lambda r: r[1])[0]),
        "best_cycle_fixed_gamma": float(min(rows, key=lambda r: r[2])[0]),
    }
    return headlines, [("cosine_cycles", ["cycle", "omega_tuned", "omega_at_full_cycle_gamma"], rows)]


def closed_form_constants() -> tuple[dict, list]:
    """Headline harmonic-number constants at T = 1e5."""
    from . import bounds

    T = 10**5
    T0 = int(0.8 * T)
    h = bounds.harmonic(T - 1)
    gap = bounds.harmonic(T + T0 - 2) - bounds.harmonic(T - T0 + 1)
    vals = {
        "harmonic_T_minus_1": h,
        "wsd_log_gap_doubled": 2.0 * gap,
        "linear_decay_factor": 2.0 + (h - 2.0 / 3.0) / (T + 1.0),
        "constant_bound_sqrtT": bounds.constant_bound_exact(T) * math.sqrt(T),
        "wsd_bound_sqrtT": bounds.wsd_bound_exact(T, T0) * math.sqrt(T),
        "linear_decay_bound_sqrtT": bounds.linear_decay_bound_exact(T) * math.sqrt(T),
    }
    return {"T": T, "T0": T0, **vals}, [("closed_form_constants", ["name", "value"], sorted(vals.items()))]


def scaling_law_cases() -> tuple[dict, list]:
    """Loss-delta pricing for the four documented cases, delta = 0.01."""
    from . import scaling

    law = scaling.ScalingLaw()
    delta = 0.01
    cases = [
        ("tokens", 124e6, 10.24e9),
        ("tokens", 124e6, 20.48e9),
        ("params", 124e6, 10.24e9),
        ("params", 210e6, 10.24e9),
    ]
    rows = []
    out: dict = {"delta": delta}
    for mode, N, D in cases:
        if mode == "tokens":
            result = scaling.tokens_for_delta(law, N, D, delta)
            out[f"tokens_from_{D / 1e9:.2f}B"] = result
        else:
            result = scaling.params_for_delta(law, N, D, delta)
            out[f"params_from_{N / 1e6:.0f}M"] = result
        rows.append((mode, N, D, delta, result))
    return out, [("scaling_law_cases", ["mode", "N", "D", "delta", "result"], rows)]


TARGETS = {
    "fig4": gamma_star_scaling,
    "gamma-star-scaling": gamma_star_scaling,
    "rho-transfer": rho_transfer,
    "cooldown-transfer": cooldown_transfer,
    "lr-transfer": lr_transfer,
    "cooldown-sweep": cooldown_sweep,
    "gradnorm-shapes": gradnorm_shapes,
    "min-ablation": min_ablation,
    "toy": toy_runs,
    "schedule-comparison": schedule_comparison,
    "cosine-cycles": cosine_cycles,
    "closed-form-constants": closed_form_constants,
    "scaling-law-cases": scaling_law_cases,
}

# primary names only (fig4 is a legacy alias for gamma-star-scaling)
TARGET_NAMES = [name for name in TARGETS if name != "fig4"]


def run_target(target: str) -> dict:
    """Resolve a repro target name, or 'all', to {name: target function}; call each to run it."""
    if target == "all":
        return {name: TARGETS[name] for name in TARGET_NAMES}
    if target not in TARGETS:
        known = ", ".join(["all", "list"] + sorted(TARGETS))
        raise ValueError(f"unknown repro target {target!r}; known targets: {known}")
    return {target: TARGETS[target]}
