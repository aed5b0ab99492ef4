"""Per-layer metrics from the spans of one traced command.

A layer is a `schedbound` module; a span belongs to the layer named before
the first dot of its name.  Self time is a span's duration minus the union
of its children's intervals, not their sum, because pool-thread children
overlap one another.
"""

from __future__ import annotations

from collections import defaultdict

CURVE = {"bounds.bound_curve", "bounds.best_iterate_curve"}
TERMS = "bounds.bound_terms"
# Tuning calls that evaluate the bound over a grid, bisection included.
GRID = {
    "tuning.sweep_gamma",
    "tuning.sweep_cooldown",
    "tuning.transfer_horizon_rho",
    "tuning.transfer_horizon_cooldown",
    "tuning.lr_transfer_curve",
}
REPRO_TARGETS = (
    "gamma-star-scaling",
    "rho-transfer",
    "cooldown-transfer",
    "lr-transfer",
    "cooldown-sweep",
    "gradnorm-shapes",
    "min-ablation",
    "toy",
    "schedule-comparison",
    "cosine-cycles",
    "closed-form-constants",
    "scaling-law-cases",
)
# Exact work counts: they must repeat between traced runs of the same command.
COUNTS = (
    "bounds.curve.calls",
    "bounds.curve.horizons",
    "bounds.curve.pairs",
    "bounds.terms.calls",
    "bounds.terms.steps",
    "tuning.calls",
    "tuning.grid_calls",
    "tuning.evals",
    "tuning.evals_per_call",
    "schedules.calls",
    "schedules.values",
    "toy.steps",
    "serialize.cells",
    "serialize.bytes",
    "trace.spans",
)


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Metric name -> value for one traced command (see BENCHMARK.json per_layer)."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)

    def dur(s):
        return s["t1"] - s["t0"]

    def covered(s):
        return _union((max(c["t0"], s["t0"]), min(c["t1"], s["t1"])) for c in children[s["id"]] if c["t1"] > s["t0"])

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def named(names):
        return [s for s in spans if s["name"] in names]

    def layer(prefix):
        return [s for s in spans if s["name"].startswith(prefix + ".")]

    def self_s(group):
        return sum(dur(s) - covered(s) for s in group)

    def count(group, key):
        return sum((s.get("n") or {}).get(key, 0) for s in group)

    curve, terms = named(CURVE), named({TERMS})
    tuning = layer("tuning")
    tuning_top = [s for s in tuning if not any(a["name"].startswith("tuning.") for a in ancestors(s))]
    grid_calls = named(GRID)
    evals = sum(1 for s in terms if any(a["name"] in GRID for a in ancestors(s)))
    sched = layer("schedules")
    sched_top = [s for s in sched if not any(a["name"].startswith("schedules.") for a in ancestors(s))]
    main = named({"cli.main"})
    main_s = sum(dur(s) for s in main)

    m = {
        "bounds.curve.calls": len(curve),
        "bounds.curve.horizons": count(curve, "horizons"),
        "bounds.curve.pairs": count(curve, "pairs"),
        "bounds.curve.self_s": self_s(curve),
        "bounds.curve.cpu_per_wall": _ratio(sum(s["cpu"] for s in curve), sum(dur(s) for s in curve)),
        "bounds.terms.calls": len(terms),
        "bounds.terms.steps": count(terms, "steps"),
        "bounds.terms.self_s": self_s(terms),
        "tuning.calls": len(tuning),
        "tuning.grid_calls": len(grid_calls),
        "tuning.evals": evals,
        "tuning.evals_per_call": _ratio(evals, len(grid_calls)),
        "tuning.self_s": self_s(tuning),
        "tuning.cpu_per_wall": _ratio(sum(s["cpu"] for s in tuning_top), sum(dur(s) for s in tuning_top)),
        "schedules.calls": len(sched),
        "schedules.values": count(sched_top, "values"),
        "schedules.self_s": self_s(sched),
        "toy.steps": count(layer("toy"), "steps"),
        "toy.self_s": self_s(layer("toy")),
        "serialize.cells": count(named({"serialize.csv_text"}), "cells"),
        "serialize.bytes": count(named({"serialize.write_text"}), "bytes"),
        "serialize.csv.self_s": self_s(named({"serialize.csv_text"})),
        "serialize.json.self_s": self_s(named({"serialize.json_text"})),
        "serialize.write.self_s": self_s(named({"serialize.write_text"})),
        "cli.import_s": trace["import_s"],
        "cli.main_s": main_s,
        "cli.self_s": self_s(main),
        "trace.coverage": _ratio(sum(covered(s) for s in main), main_s),
        "trace.spans": len(spans),
    }
    m["bounds.curve.pairs_per_s"] = _ratio(m["bounds.curve.pairs"], m["bounds.curve.self_s"])
    m["bounds.terms.steps_per_s"] = _ratio(m["bounds.terms.steps"], m["bounds.terms.self_s"])
    m["serialize.cells_per_s"] = _ratio(m["serialize.cells"], m["serialize.csv.self_s"])
    for target in REPRO_TARGETS:
        m[f"repro.{target}.s"] = sum(dur(s) for s in named({f"repro.{target}"}))
    return m
