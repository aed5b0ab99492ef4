"""Learning-rate schedules as explicit per-step value arrays.

A schedule is the full sequence (eta_1, ..., eta_T) of step-size
multipliers for a run of T steps, normalized so the peak value is 1
(polynomial decay is the one documented exception).  The actual step
size used by an optimizer is gamma * eta_t for a base learning rate
gamma, which lives elsewhere; this module only builds and serializes
the eta sequences.

Indexing is 1-based in all formulas and file formats; ``values[i]``
holds eta_{i+1}.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._checks import finite, fraction, integer, positive


class CooldownShape(enum.Enum):
    """Shape of the decay leg appended by a cooldown."""

    LINEAR = "linear"
    ONE_MINUS_SQRT = "1-sqrt"

    @classmethod
    def parse(cls, text: str) -> "CooldownShape":
        key = text.strip().lower()
        if key in ("linear", "lin"):
            return cls.LINEAR
        if key in ("1-sqrt", "one-minus-sqrt", "1sqrt", "sqrt"):
            return cls.ONE_MINUS_SQRT
        raise ValueError(f"unknown cooldown shape {text!r} (use linear or 1-sqrt)")


@dataclass(frozen=True)
class Schedule:
    """Immutable step-size schedule over a fixed horizon.

    Attributes:
        values: float64 array of length T with values[t-1] = eta_t.
            Every entry must be finite and strictly positive.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("schedule must be a non-empty 1-d sequence")
        # a NaN makes both extremes NaN, so it reads as not finite first
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("schedule values must be finite")
        if not lo > 0.0:
            raise ValueError("schedule values must be strictly positive")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def horizon(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:  # keep reprs short for long horizons
        head = ", ".join(f"{v:g}" for v in self.values[:4])
        tail = ", ..." if self.horizon > 4 else ""
        return f"Schedule(T={self.horizon}, values=[{head}{tail}])"


# float64 arrays of length T that building a schedule and evaluating its
# bound hold at once (the bound command peaks at about 7, on extended schedules)
_ARRAYS_PER_STEP = 8


@functools.cache
def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _allocatable_horizon(T: int) -> int:
    """T as an integer horizon >= 1 whose arrays of length T fit in physical memory.

    For the constructors that allocate them, before they do.
    """
    T = integer(T, "horizon")
    need = 8 * _ARRAYS_PER_STEP * T
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ValueError(
            f"horizon {T} needs about {need / 2**30:.3g} GiB for its arrays, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )
    return T


def _round_half_up(x: float) -> int:
    # Deterministic tie handling; round-half-even would make grids
    # like c*T = 2.5 implementation-dependent.
    return int(math.floor(x + 0.5))


def cooldown_start(T: int, c: float) -> int:
    """First step of the cooldown leg when a fraction c of T steps cools down.

    Returns T0 in [1, T]; the schedule decays for t in [T0, T] and a
    virtual eta_{T+1} = 0 closes the leg.  c close to 0 can round to an
    empty cooldown (T0 = T with eta_T = 1).
    """
    T = integer(T, "horizon")
    c = fraction(c, "cooldown fraction")
    return max(1, T - _round_half_up(c * T))


def _cooldown_factor(u: np.ndarray, shape: CooldownShape) -> np.ndarray:
    """Decay multiplier on the cooldown leg, u in [0, 1)."""
    if shape is CooldownShape.LINEAR:
        return 1.0 - u
    return 1.0 - np.sqrt(u)


def _cool(values: np.ndarray, c: float, shape: CooldownShape) -> Schedule:
    """with_cooldown on a fresh float64 array, written in place, as a Schedule."""
    T = values.size
    T0 = cooldown_start(T, c)
    n = T + 1 - T0
    values[T0 - 1 :] = values[T0 - 1] * _cooldown_factor(np.arange(n) / float(n), shape)
    return Schedule(values)


def with_cooldown(base: Schedule, c: float, shape: CooldownShape = CooldownShape.LINEAR) -> Schedule:
    """Replace the last fraction c of a schedule with a cooldown to zero.

    For t >= T0 = cooldown_start(T, c) the value is
    base[T0] * factor((t - T0) / (T + 1 - T0)), which starts at the
    base schedule's value at T0 and would hit 0 at the virtual step
    T + 1.  Steps before T0 are untouched.

    Args:
        base: schedule supplying the pre-cooldown values and the peak
            value that the cooldown scales down from.
        c: fraction of the horizon spent cooling down, in (0, 1].
        shape: linear or one-minus-sqrt decay.
    """
    return _cool(base.values.copy(), c, shape)


def constant(T: int) -> Schedule:
    """All-ones schedule of length T."""
    return Schedule(np.ones(_allocatable_horizon(T)))


def wsd(T: int, c: float, shape: CooldownShape = CooldownShape.LINEAR) -> Schedule:
    """Warmup-stable-decay schedule without the warmup: flat at 1, then cooldown.

    eta_t = 1 for t < T0 and eta_t = factor((t - T0) / (T + 1 - T0))
    for t >= T0, with T0 = cooldown_start(T, c).

    Args:
        T: horizon, >= 1.
        c: cooldown fraction in (0, 1]; c = 1 gives pure decay from step 1.
        shape: cooldown shape.
    """
    return _cool(np.ones(_allocatable_horizon(T)), c, shape)


def linear_decay(T: int) -> Schedule:
    """Linear decay to zero: identical to wsd(T, c=1) element-wise."""
    return wsd(T, 1.0, CooldownShape.LINEAR)


def one_minus_sqrt(T: int) -> Schedule:
    """eta_t = 1 - sqrt((t - 1) / T): identical to wsd(T, c=1, 1-sqrt)."""
    return wsd(T, 1.0, CooldownShape.ONE_MINUS_SQRT)


def inv_sqrt(T: int) -> Schedule:
    """eta_t = 1 / sqrt(t)."""
    T = _allocatable_horizon(T)
    return Schedule(1.0 / np.sqrt(np.arange(1, T + 1, dtype=np.float64)))


def polynomial_decay(T: int, alpha: float) -> Schedule:
    """eta_t = (T + 1 - t) ** alpha for alpha > 0.

    Not peak-normalized: eta_1 = T ** alpha exceeds 1 whenever T > 1,
    unlike every other generator in this module.
    """
    T = _allocatable_horizon(T)
    alpha = positive(alpha, "decay exponent")
    t = np.arange(1, T + 1, dtype=np.float64)
    return Schedule((T + 1.0 - t) ** alpha)


def cosine(T: int, final_fraction: float = 0.0, cycle_length: float = 1.0) -> Schedule:
    """Cosine annealing from 1 down to final_fraction, with optional restarts.

    eta_t = f + (1 - f) * 0.5 * (1 + cos(pi * ((t - 1) mod C) / C))
    where C = round(cycle_length * T) clamped to >= 1.  cycle_length < 1
    gives warm restarts: the schedule jumps back to 1 every C steps.

    Args:
        T: horizon, >= 1.
        final_fraction: floor value f in [0, 1).
        cycle_length: cycle length as a fraction of T, in (0, 1].
    """
    T = _allocatable_horizon(T)
    f = finite(final_fraction, "final fraction")
    if not 0.0 <= f < 1.0:
        raise ValueError(f"final fraction must be in [0, 1), got {f}")
    ell = fraction(cycle_length, "cycle length")
    C = max(1, _round_half_up(ell * T))
    t = np.arange(T)
    vals = f + (1.0 - f) * 0.5 * (1.0 + np.cos(np.pi * (t % C) / C))
    return Schedule(vals)


def extended(
    T_short: int,
    c_short: float,
    T_long: int,
    rho: float,
    c_long: float | None = None,
    shape: CooldownShape = CooldownShape.LINEAR,
) -> Schedule:
    """Continuation of a flat run past its planned horizon at a reduced rate.

    Models stopping a wsd(T_short, c_short) run right before its cooldown
    and training on to T_long instead: eta_t = 1 until the short run's
    cooldown would have started, then eta_t = rho until the long run's
    cooldown starts, then a cooldown scaled by rho.

    Args:
        T_short: originally planned horizon.
        c_short: cooldown fraction of the original plan.
        T_long: extended horizon, > T_short.
        rho: step-size factor for the continuation phase, in (0, 1].
        c_long: cooldown fraction of the extended run; defaults to c_short.
        shape: cooldown shape of the extended run.

    Raises:
        ValueError: if T_long <= T_short, or the extended cooldown would
            begin before the continuation phase does.
    """
    T_short = integer(T_short, "horizon")
    T_long = _allocatable_horizon(T_long)
    rho = fraction(rho, "continuation factor rho")
    if c_long is None:
        c_long = c_short
    if T_long <= T_short:
        raise ValueError(f"extended horizon {T_long} must exceed the base horizon {T_short}")
    start_short = cooldown_start(T_short, c_short)
    start_long = cooldown_start(T_long, c_long)
    if start_long <= start_short:
        raise ValueError(
            f"extended cooldown starts at step {start_long}, not after the "
            f"continuation begins at step {start_short}; shrink c_long or grow T_long"
        )
    flat = np.full(T_long, rho)
    flat[: start_short - 1] = 1.0
    return _cool(flat, c_long, shape)


# --- spec-string parsing -------------------------------------------------

_INT_KEYS = {"T", "T1", "T2"}


def _parse_kv(body: str) -> dict:
    params: dict = {}
    if not body:
        return params
    for item in body.split(","):
        if "=" not in item:
            raise ValueError(f"malformed schedule parameter {item!r} (expected key=value)")
        key, _, raw = item.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in params:
            raise ValueError(f"duplicate schedule parameter {key!r}")
        if key == "shape":
            params[key] = CooldownShape.parse(raw)
        else:
            parse, kind = (int, "an integer") if key in _INT_KEYS else (float, "a number")
            try:
                params[key] = parse(raw)
            except ValueError:
                raise ValueError(f"parameter {key!r} must be {kind}, got {raw!r}") from None
    return params


def _take(params: dict, *names, required=(), where=""):
    unknown = set(params) - set(names)
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for schedule {where!r}")
    missing = [n for n in required if n not in params]
    if missing:
        raise ValueError(f"schedule {where!r} requires parameter(s) {missing}")


def parse_spec(text: str) -> Schedule:
    """Build a schedule from a compact spec string.

    Formats (shape defaults to linear, optional keys in brackets):

    - ``constant:T=400``
    - ``wsd:T=4000,c=0.2[,shape=linear]``
    - ``linear:T=400``
    - ``onesqrt:T=400``
    - ``cosine:T=400[,final=0.1,cycle=0.5]``
    - ``invsqrt:T=400[,c=0.2,shape=linear]`` (c adds a cooldown tail)
    - ``poly:T=400,alpha=1``
    - ``extended:T1=4000,c=0.2,T2=8000,rho=0.5[,c_long=0.2,shape=linear]``

    Raises ValueError on unknown names, unknown keys, or malformed values.
    """
    head, sep, body = text.strip().partition(":")
    kind = head.strip().lower()
    params = _parse_kv(body if sep else "")
    if kind == "constant":
        _take(params, "T", required=("T",), where=kind)
        return constant(params["T"])
    if kind == "wsd":
        _take(params, "T", "c", "shape", required=("T", "c"), where=kind)
        return wsd(params["T"], params["c"], params.get("shape", CooldownShape.LINEAR))
    if kind in ("linear", "linear-decay"):
        _take(params, "T", required=("T",), where=kind)
        return linear_decay(params["T"])
    if kind in ("onesqrt", "1-sqrt", "one-minus-sqrt"):
        _take(params, "T", required=("T",), where=kind)
        return one_minus_sqrt(params["T"])
    if kind == "cosine":
        _take(params, "T", "final", "cycle", required=("T",), where=kind)
        return cosine(params["T"], params.get("final", 0.0), params.get("cycle", 1.0))
    if kind in ("inv-sqrt", "invsqrt"):
        _take(params, "T", "c", "shape", required=("T",), where=kind)
        base = inv_sqrt(params["T"])
        if "c" in params:
            return with_cooldown(base, params["c"], params.get("shape", CooldownShape.LINEAR))
        return base
    if kind in ("poly", "polynomial"):
        _take(params, "T", "alpha", required=("T", "alpha"), where=kind)
        return polynomial_decay(params["T"], params["alpha"])
    if kind == "extended":
        _take(params, "T1", "c", "T2", "rho", "c_long", "shape", required=("T1", "c", "T2", "rho"), where=kind)
        return extended(
            params["T1"],
            params["c"],
            params["T2"],
            params["rho"],
            params.get("c_long"),
            params.get("shape", CooldownShape.LINEAR),
        )
    raise ValueError(f"unknown schedule type {head!r}")
