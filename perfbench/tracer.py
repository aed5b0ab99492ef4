"""Traced entry point for one `schedbound` command.

    python3 perfbench/tracer.py SPANS_OUT CLI_ARG...

Wraps the public functions of each layer module, runs
`schedbound.cli.main(CLI_ARGS)` and, also when the command fails, writes the
spans it recorded to SPANS_OUT as JSON.  The package itself is not edited:
every module attribute and every `repro.TARGETS` value that refers to a
wrapped function is rebound to its wrapper, so calls through names imported
with `from .schedules import wsd` are traced too.

A span is {id, parent, name, t0, t1, cpu, n}: wall-clock bounds from
`time.perf_counter`, process CPU seconds (all threads) from
`time.process_time`, and optional exact work counts `n` taken from the
call's arguments and result after its clock has stopped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

LAYERS = ("schedules", "bounds", "tuning", "toy", "serialize", "repro", "cli")
# Called once per CSV cell; a span each would cost more than the work it times.
SKIP = {"serialize.format_float"}


def _terms_steps(result, args, kwargs):
    schedule = args[0] if args else kwargs["schedule"]
    t = args[3] if len(args) > 3 else kwargs.get("t")
    return {"steps": schedule.horizon if t is None else int(t)}


def _csv_cells(result, args, kwargs):
    header = args[0] if args else kwargs["header"]
    return {"cells": (result.count("\n") - 1) * len(header)}


def _curve_pairs(result, args, kwargs):
    return {"horizons": int(result.t.size), "pairs": int(result.t.sum())}


COUNTERS = {
    "bounds.bound_curve": _curve_pairs,
    "bounds.best_iterate_curve": _curve_pairs,
    "bounds.bound_terms": _terms_steps,
    "toy.run_sgd": lambda result, args, kwargs: {"steps": int(result.losses.size)},
    "serialize.csv_text": _csv_cells,
    "serialize.write_text": lambda result, args, kwargs: {"bytes": os.path.getsize(result)},
}


class Recorder:
    """Keeps spans in memory; create it on the main thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread starts with an empty stack: its caller is the span open on the main thread.
            source = stack or self._main_stack
            parent = source[-1] if source else None
            span = {"id": next(self._ids), "parent": parent, "name": name}
            stack.append(span["id"])
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                span["cpu"] = time.process_time() - c0
                span["t0"] = t0
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span["n"] = counter(result, args, kwargs)
            return result

        return traced


def _values_counter(schedule_type):
    def count(result, args, kwargs):
        return {"values": result.horizon} if isinstance(result, schedule_type) else None

    return count


def install(recorder: Recorder):
    """Wrap every layer's public functions and rebind all references to them."""
    modules = {layer: importlib.import_module(f"schedbound.{layer}") for layer in LAYERS}
    schedule_values = _values_counter(modules["schedules"].Schedule)
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if attr.startswith("_") or name in SKIP or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            counter = schedule_values if layer == "schedules" else COUNTERS.get(name)
            wrapped[obj] = recorder.wrap(name, obj, counter)
    repro = modules["repro"]
    for target in repro.TARGET_NAMES:  # repro spans are named by target, not by function
        fn = repro.TARGETS[target]
        wrapped[fn] = recorder.wrap(f"repro.{target}", fn)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "schedbound" or mod_name.startswith("schedbound."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
    for target, fn in list(repro.TARGETS.items()):
        repro.TARGETS[target] = wrapped.get(fn, fn)


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import schedbound.cli

    import_s = time.perf_counter() - t0
    recorder = Recorder()
    install(recorder)
    try:
        return schedbound.cli.main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
