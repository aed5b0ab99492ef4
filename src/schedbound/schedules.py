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
import math
from dataclasses import dataclass

import numpy as np

from ._checks import finite, fits_in_memory, fraction, integer, positive


class CooldownShape(enum.Enum):
    """Shape of the decay leg appended by a cooldown."""

    LINEAR = "linear"
    ONE_MINUS_SQRT = "1-sqrt"

    @classmethod
    def parse(cls, text: str) -> "CooldownShape":
        """The shape whose value is exactly text: linear or 1-sqrt."""
        try:
            return cls(text)
        except ValueError:
            raise ValueError(f"unknown cooldown shape {text!r} (use linear or 1-sqrt)") from None


@dataclass(frozen=True, eq=False)
class Schedule:
    """Immutable step-size schedule over a fixed horizon.

    Attributes:
        values: float64 array of length T with values[t-1] = eta_t.
            Every entry must be finite and strictly positive.

    Compares and hashes by identity, as every record holding arrays does.
    A read-only float64 1-d array that owns its data is kept as it is
    (the constructors hand over their fresh arrays so); anything else is
    copied, so a caller's writable array, or a read-only view of one,
    cannot change the schedule later.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = self.values
        if not (
            type(arr) is np.ndarray
            and arr.dtype == np.float64
            and arr.ndim == 1
            and arr.flags.owndata
            and not arr.flags.writeable
        ):
            arr = np.array(arr, dtype=np.float64)
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


def _fresh_schedule(values: np.ndarray) -> Schedule:
    """The Schedule of a fresh float64 array that nothing else holds: read-only, so Schedule keeps it."""
    values.flags.writeable = False
    return Schedule(values)


def _allocatable_horizon(T: int) -> int:
    """T as an integer horizon >= 1 whose arrays of length T fit in physical memory.

    For the constructors that allocate them, before they do.
    """
    T = integer(T, "horizon")
    fits_in_memory(8 * _ARRAYS_PER_STEP * T, f"horizon {T}")
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


def _cool(values: np.ndarray, c: float, shape: CooldownShape) -> Schedule:
    """with_cooldown on a fresh float64 array, written in place, as a Schedule.

    The leg is formed in its own slots: u = (t - T0) / n in [0, 1), then
    the decay factor 1 - u or 1 - sqrt(u), then times the value at T0.
    Only the index array is a temporary: temporaries as long as the leg
    grow with c, so along a grid of fractions each point would need blocks
    the heap has not held, and freeing them makes it trim and regrow (up
    to 371 minor page faults on a warm sweep_cooldown(16000), by layout).
    A shape other than the two CooldownShape members is a ValueError first.
    """
    if shape is not CooldownShape.LINEAR and shape is not CooldownShape.ONE_MINUS_SQRT:
        raise ValueError(f"cooldown shape must be CooldownShape.LINEAR or CooldownShape.ONE_MINUS_SQRT, got {shape!r}")
    T = values.size
    T0 = cooldown_start(T, c)
    n = T + 1 - T0
    leg = values[T0 - 1 :]
    peak = float(leg[0])
    np.divide(np.arange(n), float(n), out=leg)
    if shape is CooldownShape.ONE_MINUS_SQRT:
        np.sqrt(leg, out=leg)
    np.subtract(1.0, leg, out=leg)
    np.multiply(peak, leg, out=leg)
    return _fresh_schedule(values)


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
        shape: CooldownShape.LINEAR or CooldownShape.ONE_MINUS_SQRT decay.
    """
    return _cool(base.values.copy(), c, shape)


def constant(T: int) -> Schedule:
    """All-ones schedule of length T."""
    return _fresh_schedule(np.ones(_allocatable_horizon(T)))


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


def inv_sqrt(T: int) -> Schedule:
    """eta_t = 1 / sqrt(t)."""
    T = _allocatable_horizon(T)
    return _fresh_schedule(1.0 / np.sqrt(np.arange(1, T + 1, dtype=np.float64)))


def polynomial_decay(T: int, alpha: float) -> Schedule:
    """eta_t = (T + 1 - t) ** alpha for alpha > 0.

    Not peak-normalized: eta_1 = T ** alpha exceeds 1 whenever T > 1,
    unlike every other generator in this module.
    """
    T = _allocatable_horizon(T)
    alpha = positive(alpha, "decay exponent")
    t = np.arange(1, T + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # eta_1 = T ** alpha is the largest value, checked below
        values = (T + 1.0 - t) ** alpha
    if not math.isfinite(values[0]):
        raise ValueError(f"decay exponent {alpha} overflows T ** alpha at T = {T}")
    return _fresh_schedule(values)


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
    return _fresh_schedule(vals)


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
            f"continuation begins at step {start_short}; use a smaller cooldown "
            "fraction or a longer extended horizon"
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


def _inv_sqrt_spec(T, **cooldown) -> Schedule:
    base = inv_sqrt(T)
    if "c" in cooldown:
        return with_cooldown(base, **cooldown)
    if cooldown:
        raise ValueError("schedule 'invsqrt' takes parameter 'shape' only with 'c', the cooldown it shapes")
    return base


# kind -> (required keys, optional keys, builder of the parsed params), in the order the
# errors list them; a builder calls its constructor through the module name, which
# perfbench/tracer.py rebinds to trace it
_KINDS = {
    "constant": (("T",), (), lambda T: constant(T)),
    "wsd": (("T", "c"), ("shape",), lambda T, c, shape=CooldownShape.LINEAR: wsd(T, c, shape)),
    "linear": (("T",), (), lambda T: wsd(T, 1.0, CooldownShape.LINEAR)),
    "onesqrt": (("T",), (), lambda T: wsd(T, 1.0, CooldownShape.ONE_MINUS_SQRT)),
    "cosine": (("T",), ("final", "cycle"), lambda T, final=0.0, cycle=1.0: cosine(T, final, cycle)),
    "invsqrt": (("T",), ("c", "shape"), _inv_sqrt_spec),
    "poly": (("T", "alpha"), (), lambda T, alpha: polynomial_decay(T, alpha)),
    "extended": (("T1", "c", "T2", "rho"), ("c_long", "shape"), lambda T1, c, T2, rho, **rest: extended(T1, c, T2, rho, **rest)),
}


def parse_spec(text: str) -> Schedule:
    """Build a schedule from a compact spec string.

    Formats (shape defaults to linear, optional keys in brackets):

    - ``constant:T=400``
    - ``wsd:T=4000,c=0.2[,shape=linear]``
    - ``linear:T=400`` (wsd with c=1)
    - ``onesqrt:T=400`` (wsd with c=1 and shape=1-sqrt)
    - ``cosine:T=400[,final=0.1,cycle=0.5]``
    - ``invsqrt:T=400[,c=0.2[,shape=linear]]`` (c adds a cooldown tail)
    - ``poly:T=400,alpha=1``
    - ``extended:T1=4000,c=0.2,T2=8000,rho=0.5[,c_long=0.2,shape=linear]``

    These eight kinds are the only names accepted, each spelled as here, as
    are the keys and shapes: in this case and with no padding.  Raises
    ValueError on any other name, key or shape, or a malformed value.
    """
    kind, _, body = text.partition(":")
    params = _parse_kv(body)
    if kind not in _KINDS:
        *rest, last = _KINDS
        raise ValueError(f"unknown schedule type {kind!r} (use {', '.join(rest)} or {last})")
    required, optional, build = _KINDS[kind]
    unknown = set(params) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for schedule {kind!r}")
    missing = [n for n in required if n not in params]
    if missing:
        raise ValueError(f"schedule {kind!r} requires parameter(s) {missing}")
    return build(**params)
