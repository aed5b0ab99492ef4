"""The two benchmark workloads: argv generated from a seed, and output checks.

Each workload is one `schedbound` CLI command run with default flags in an
empty output directory.  The seed picks only parameters that leave the
amount of work unchanged.  Each check reads the files the command wrote and
recomputes what it can without the library, so it runs outside the timed
region and does not trust the code it measures.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

BOUND_T = 100_000
BOUND_REL_TOL = 1e-9  # T1, T2 and gamma against the long-double recomputation
OMEGA_REL_TOL = 1e-12  # omega against T1/gamma + gamma*T2 from the same row
BISECTION_REL_TOL = 1e-4  # rel_tol of the transfer bisections in tuning
HEADLINE_REL_TOL = 1e-9
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "repro_reference.json")

NAMES = ("bound-wsd-1e5", "repro-all")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]  # arguments after `python -m schedbound.cli`
    params: dict  # seed-derived parameters the check needs


class CheckError(Exception):
    """The files a command wrote do not match what it was asked for."""


def generate(seed: int) -> dict[str, Workload]:
    """All workloads for one seed; the same seed gives the same argv."""
    rng = random.Random(seed)
    c = round(rng.uniform(0.1, 0.3), 4)
    shape = rng.choice(("linear", "1-sqrt"))
    rows = sorted(rng.sample(range(1, 2000), 3))  # interior rows of the 2,001-row curve
    return {
        "bound-wsd-1e5": Workload(
            "bound-wsd-1e5",
            ["bound", "--schedule", f"wsd:T={BOUND_T},c={c},shape={shape}"],
            {"c": c, "shape": shape, "rows": rows},
        ),
        "repro-all": Workload("repro-all", ["repro", "all"], {}),
    }


def check(workload: Workload, outdir: str) -> float:
    """Raise CheckError if the outputs are wrong; return the worst bound error (0 if none)."""
    if workload.name == "bound-wsd-1e5":
        return _check_bound(workload.params, outdir)
    _check_repro(outdir)
    return 0.0


def _require(ok: bool, what: str):
    if not ok:
        raise CheckError(what)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{os.path.basename(path)}: {exc}") from None


def _read_csv(path: str) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise CheckError(f"{os.path.basename(path)}: {exc}") from None
    _require(len(rows) >= 2, f"{path}: needs a header and at least one row")
    width = len(rows[0])
    for row in rows[1:]:
        _require(len(row) == width, f"{path}: row {row!r} does not match header {rows[0]!r}")
        for cell in row[1:]:  # the first column may hold labels
            try:
                value = float(cell)
            except ValueError:
                raise CheckError(f"{path}: non-numeric cell {cell!r}") from None
            _require(math.isfinite(value), f"{path}: non-finite cell {cell!r}")
    return rows


# --- bound-wsd-1e5 --------------------------------------------------------


def wsd_eta(T: int, c: float, shape: str) -> np.ndarray:
    """eta_1..eta_T of wsd:T,c,shape, written out from the schedule's definition."""
    T0 = max(1, T - int(math.floor(c * T + 0.5)))
    t = np.arange(1, T + 1)
    u = np.maximum((t - T0) / float(T + 1 - T0), 0.0)
    decay = 1.0 - u if shape == "linear" else 1.0 - np.sqrt(u)
    return np.where(t < T0, 1.0, decay)


def terms_longdouble(eta: np.ndarray, t: int) -> tuple[float, float]:
    """(T1, T2) at horizon t for D = G = 1 from long-double suffix sums.

    T2 uses the telescoped single-sum form
    noise_t = 1/2 [q_t/eta_t + sum_{k<t} q_k / (S_t - S_k)], q_k = eta_k^2,
    with S_t - S_k summed directly from the tail, so nothing cancels.
    """
    e = eta[:t].astype(np.longdouble)
    tail = np.cumsum(e[::-1])[::-1]  # tail[i] = eta_{i+1} + ... + eta_t
    noise = 0.5 * (e[-1] + np.sum(e[:-1] * e[:-1] / tail[1:]))
    return float(1.0 / (2.0 * tail[0])), float(noise)


def _check_bound(params: dict, outdir: str) -> float:
    summary = _read_json(os.path.join(outdir, "bound_summary.json"))
    rows = _read_csv(os.path.join(outdir, "bound.csv"))
    _require(rows[0] == ["t", "omega", "T1", "T2"], f"bound.csv header {rows[0]!r}")
    stride = BOUND_T // 2000
    expected_t = list(range(1, BOUND_T + 1, stride)) + [BOUND_T]
    data = rows[1:]
    _require([int(r[0]) for r in data] == expected_t, "bound.csv horizons are not 1, 1+stride, ..., T")
    eta = wsd_eta(BOUND_T, params["c"], params["shape"])
    gamma = float(summary["gamma_used"])
    worst = 0.0
    final = None
    for i in [0, *params["rows"], len(data) - 1]:
        t, omega, t1, t2 = int(data[i][0]), *map(float, data[i][1:])
        ref1, ref2 = terms_longdouble(eta, t)
        err = max(_rel(t1, ref1), _rel(t2, ref2))
        _require(err <= BOUND_REL_TOL, f"bound.csv t={t}: T1/T2 off by {err:.3g} relative")
        _require(_rel(omega, t1 / gamma + gamma * t2) <= OMEGA_REL_TOL, f"bound.csv t={t}: omega != T1/gamma + gamma*T2")
        worst = max(worst, err)
        final = (ref1, ref2)
    gamma_err = _rel(gamma, math.sqrt(final[0] / final[1]))
    _require(gamma_err <= BOUND_REL_TOL, f"gamma_used off by {gamma_err:.3g} relative")
    return max(worst, gamma_err)


# --- repro-all ------------------------------------------------------------


def headline_values(summary: dict) -> dict[str, object]:
    """Scalar results of `repro all`, keyed target/name, without file lists or feasible_* flags."""
    out: dict[str, object] = {}

    def walk(obj, path):
        for key, value in obj.items():
            name = f"{path}/{key}" if path else key
            if isinstance(value, dict):
                walk(value, name)
            elif key != "files" and not key.startswith("feasible_") and not isinstance(value, list):
                out[name] = value

    walk({k: v for k, v in summary.items() if k != "config"}, "")
    return out


def _headline_tol(name: str) -> float:
    key = name.rsplit("/", 1)[-1]
    return BISECTION_REL_TOL if key.startswith(("rho_", "c_long_")) else HEADLINE_REL_TOL


def _check_repro(outdir: str):
    summary = _read_json(os.path.join(outdir, "repro_all_summary.json"))
    files = [f for target in summary.values() if isinstance(target, dict) for f in target.get("files", [])]
    _require(len(files) == 17, f"repro all listed {len(files)} files, expected 17")
    for name in files:
        _read_csv(os.path.join(outdir, name))
    got = headline_values(summary)
    want = _read_json(REFERENCE_FILE)
    _require(set(got) == set(want), f"headline keys differ: {sorted(set(got) ^ set(want))}")
    for name, ref in want.items():
        value = got[name]
        if isinstance(ref, (int, float)) and not isinstance(ref, bool):
            ok = isinstance(value, (int, float)) and (value == ref or _rel(value, ref) <= _headline_tol(name))
        else:
            ok = value == ref
        _require(ok, f"{name} = {value!r}, reference {ref!r}")
