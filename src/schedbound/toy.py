"""Deterministic subgradient descent on min_x ||A x - b||_inf.

A small non-smooth convex problem where the cooldown effect is visible
on a real optimization run, not just in the bound: the loss plateaus
while the schedule is flat and drops sharply once the cooldown begins.
Gradient norms do not vanish as the loss shrinks (the subgradient is
always a signed row of A), which is exactly the regime the last-iterate
bound is built for.

Reproducibility: problems are drawn from the Philox4x64-10
counter-based generator (Salmon et al., SC 2011), computed here:

- key: the two 64-bit words of numpy's SeedSequence(seed).generate_state
  (its 4-word pool, entropy = seed in 32-bit little-endian words);
- block c (c = 1, 2, ...): ten Philox rounds on the counter (c, 0, 0, 0),
  giving four 64-bit words; the words of blocks 1, 2, ... form the stream;
- draw x: low + (high - low) * ((x >> 11) * 2**-53), uniform on [-1, 1).

Draw order is fixed: first the m*d entries of A row-major, then the d
entries of the oracle point.  The stream equals that of
np.random.Generator(np.random.Philox(seed)).uniform bit for bit (the
tests hold it to that), but it is defined here, so it stays fixed
whatever numpy's generators do.  Same seed, same problem, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import fits_in_memory, integer, positive
from .schedules import Schedule, constant, cosine, wsd


@dataclass(frozen=True, eq=False)
class ToyProblem:
    """Instance of min_x max_i |<A_i, x> - b_i|, with A and b finite (checked).

    x_oracle, when given, is a finite vector of length d (checked) with
    b = A @ x_oracle (a precondition: a caller's b may round differently),
    so the optimal value is 0 (generate_problem always gives one).  Runs
    start at the origin unless run_sgd is given another start point.
    """

    A: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    x_oracle: np.ndarray | None = field(default=None, kw_only=True)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError("A must be a non-empty 2-d matrix")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b must have length {A.shape[0]}, got shape {b.shape}")
        for name, value in (("A", A), ("b", b)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got a non-finite entry")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if self.x_oracle is not None:
            x_oracle = np.asarray(self.x_oracle, dtype=np.float64)
            if x_oracle.shape != (A.shape[1],) or not np.isfinite(x_oracle).all():
                raise ValueError(f"x_oracle must be a finite vector of length {A.shape[1]}, got {x_oracle}")
            object.__setattr__(self, "x_oracle", x_oracle)

    @property
    def d(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Trajectory of one subgradient-descent run.

    losses[t-1] = f(x_t) is recorded before update t, so losses[0] is
    the loss at the start point and there is one entry per schedule
    step.  iterates, when kept, align with losses (row t-1 is x_t).
    """

    losses: np.ndarray
    schedule_used: Schedule
    iterates: np.ndarray | None = None

    def table(self):
        """Header and rows of the run: step t, schedule value eta_t, loss f(x_t)."""
        steps = range(1, self.losses.size + 1)
        return ["t", "eta", "loss"], zip(steps, self.schedule_used.values, self.losses)


_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# Philox blocks (4 draws each) that _uniforms takes through the rounds at once
_SLICE = 8192


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: a 32-bit hash whose constant advances at every call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ r >> 16


def _philox_key(seed: int) -> tuple[int, int]:
    """SeedSequence(seed).generate_state(2, np.uint64), in Python ints (numpy scalars warn on overflow)."""
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    w0, w1, w2, w3 = (out(w) for w in pool)
    return w0 | w1 << 32, w2 | w3 << 32


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 64-bit halves of a * m, the high one from 32-bit limbs."""
    a_lo, a_hi = a & _MASK32, a >> 32
    m_lo, m_hi = m & _MASK32, m >> 32
    lh, hl = a_lo * m_hi, a_hi * m_lo
    mid = (a_lo * m_lo >> 32) + (lh & _MASK32) + (hl & _MASK32)
    return a * np.uint64(m), a_hi * m_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _uniforms(seed: int, n: int) -> np.ndarray:
    """The first n draws on [-1, 1) of the Philox4x64-10 stream keyed by seed (module docstring).

    The rounds run on slices of _SLICE blocks, so their temporaries stay a
    fixed size whatever n is; each draw depends only on its own block.
    """
    key = _philox_key(seed)
    blocks = -(-n // 4)
    out = np.empty(4 * blocks)
    for first in range(0, blocks, _SLICE):
        c0 = np.arange(1 + first, 1 + min(first + _SLICE, blocks), dtype=np.uint64)
        c1 = c2 = c3 = np.zeros(c0.size, dtype=np.uint64)
        k0, k1 = key
        for r in range(10):
            if r:
                k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
            lo0, hi0 = _mulhilo(c0, _PHILOX_M[0])
            lo1, hi1 = _mulhilo(c2, _PHILOX_M[1])
            c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        draws = out[4 * first : 4 * (first + c0.size)]
        np.multiply(np.stack([c0, c1, c2, c3], axis=1).ravel() >> 11, 2.0**-53, out=draws)
        draws *= 2.0
        draws -= 1.0
    return out[:n]


def generate_problem(m: int = 20, d: int = 2, seed: int = 0) -> ToyProblem:
    """Random instance: A uniform on [-1,1]^(m x d), b = A @ x_oracle; runs on it start at the origin.

    A problem whose arrays, with a run's start point, would exceed physical memory is a ValueError, before any draw.
    """
    m, d, seed = integer(m, "row count m"), integer(d, "dimension d"), integer(seed, "seed", 0)
    # float64 values: the m*d + d draws, b, x_oracle and the start point every run allocates
    fits_in_memory(8 * (m * d + m + 3 * d), f"toy problem m={m}, d={d}")
    draws = _uniforms(seed, m * d + d)
    # x_oracle gets its own aligned buffer, as from numpy's generator: BLAS kernels may sum by alignment
    A, x_oracle = draws[: m * d].reshape(m, d), draws[m * d :].copy()
    return ToyProblem(A=A, b=A @ x_oracle, x_oracle=x_oracle)


def _loss_and_subgradient(problem: ToyProblem, x: np.ndarray) -> tuple[float, np.ndarray]:
    """(loss(problem, x), linf_subgradient(problem, x)) from one residual, for float64 x."""
    r = problem.A @ x - problem.b
    i = int(np.argmax(np.abs(r)))  # argmax returns the smallest maximizing index
    peak = r[i]
    if peak == 0.0:
        return 0.0, np.zeros(problem.d)
    row = problem.A[i]
    # a new array equal to sign(peak) * row (a nan peak gives a nan row), with no multiplication by +-1.0
    g = row.copy() if peak > 0.0 else -row if peak < 0.0 else np.sign(peak) * row
    return float(abs(peak)), g


def loss(problem: ToyProblem, x: np.ndarray) -> float:
    """f(x) = max_i |<A_i, x> - b_i|."""
    return _loss_and_subgradient(problem, np.asarray(x, dtype=np.float64))[0]


def linf_subgradient(problem: ToyProblem, x: np.ndarray) -> np.ndarray:
    """A subgradient of f at x, as a new array: sign(r_i*) * A_i* for the peak residual.

    r = A x - b; i* is the smallest index attaining max |r_i| (fixed
    tie-break for determinism).  At r = 0 the zero vector is returned,
    which is a valid subgradient at a minimizer.
    """
    return _loss_and_subgradient(problem, np.asarray(x, dtype=np.float64))[1]


def run_sgd(
    problem: ToyProblem,
    schedule: Schedule,
    gamma: float,
    x_start: np.ndarray | None = None,
    record_iterates: bool = False,
) -> RunRecord:
    """Run x_{t+1} = x_t - gamma * eta_t * g_t for the full schedule.

    The run starts at x_start, or at the origin when x_start is None.
    Deterministic: the only randomness lives in the problem instance.
    Loss is recorded before each update, one entry per schedule step.
    A loss out of the float range is a ValueError naming x_start and gamma;
    recorded iterates too large for physical memory are one, before any step.
    """
    positive(gamma, "base learning rate gamma")
    x = np.zeros(problem.d) if x_start is None else np.array(x_start, dtype=np.float64)
    if x.shape != (problem.d,):
        raise ValueError(f"x_start must have length {problem.d}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x_start must be finite, got {x}")
    T, start = schedule.horizon, x
    if record_iterates:
        fits_in_memory(8 * T * problem.d, f"recorded iterates of T={T}, d={problem.d}")
    losses = np.empty(T)
    iterates = np.empty((T, problem.d)) if record_iterates else None
    with np.errstate(over="ignore", invalid="ignore"):  # a loss out of range fails below
        for t, eta in enumerate(schedule.values.tolist()):
            losses[t], g = _loss_and_subgradient(problem, x)
            if iterates is not None:
                iterates[t] = x
            x = x - gamma * eta * g
    if not np.all(np.isfinite(losses)):
        raise ValueError(f"the loss leaves the float range from x_start {start.tolist()} at base learning rate gamma {gamma}")
    return RunRecord(losses=losses, schedule_used=schedule, iterates=iterates)


def comparison_runs(seed: int = 0, T: int = 400) -> dict[str, RunRecord]:
    """The three-run comparison on one shared generate_problem(seed=seed) instance.

    wsd (c = 0.2, gamma = 0.02) and cosine (gamma = 0.04) start at 0;
    the constant baseline (gamma = 0.02) starts at (1e-3, ..., 1e-3) so
    its path does not sit on top of the others when plotted.
    """
    problem = generate_problem(seed=seed)
    offset = np.full(problem.d, 1e-3)
    configs = [
        ("wsd", wsd(T, 0.2), 0.02, None),
        ("constant", constant(T), 0.02, offset),
        ("cosine", cosine(T), 0.04, None),
    ]
    return {name: run_sgd(problem, sched, gamma, x_start=start) for name, sched, gamma, start in configs}
