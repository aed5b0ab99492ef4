"""Deterministic subgradient descent on min_x ||A x - b||_inf.

A small non-smooth convex problem where the cooldown effect is visible
on a real optimization run, not just in the bound: the loss plateaus
while the schedule is flat and drops sharply once the cooldown begins.
Gradient norms do not vanish as the loss shrinks (the subgradient is
always a signed row of A), which is exactly the regime the last-iterate
bound is built for.

Reproducibility: problems are drawn from numpy's Philox counter-based
generator (4x64, 10 rounds), seeded with SeedSequence(seed).  Draw
order is fixed: first the m*d entries of A row-major, then the d
entries of the oracle point, all uniform on [-1, 1].  Same seed, same
problem, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import integer, positive
from .schedules import Schedule, constant, cosine, wsd


@dataclass(frozen=True)
class ToyProblem:
    """Instance of min_x max_i |<A_i, x> - b_i| with known optimum.

    b = A @ x_oracle by construction, so the optimal value is 0.
    """

    A: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    x_start: np.ndarray
    x_oracle: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError("A must be a non-empty 2-d matrix")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b must have length {A.shape[0]}, got shape {b.shape}")
        x0 = np.asarray(self.x_start, dtype=np.float64)
        if x0.shape != (A.shape[1],):
            raise ValueError(f"x_start must have length {A.shape[1]}, got shape {x0.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "x_start", x0)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class RunRecord:
    """Trajectory of one subgradient-descent run.

    losses[t-1] = f(x_t) is recorded before update t, so losses[0] is
    the loss at the start point and there is one entry per schedule
    step.  iterates, when kept, align with losses (row t-1 is x_t).
    """

    losses: np.ndarray
    schedule_used: Schedule
    gamma: float
    seed: int | None = None
    iterates: np.ndarray | None = None

    def table(self):
        """Header and rows of the run: step t, schedule value eta_t, loss f(x_t)."""
        steps = range(1, self.losses.size + 1)
        return ["t", "eta", "loss"], zip(steps, self.schedule_used.values, self.losses)


def generate_problem(m: int = 20, d: int = 2, seed: int = 0) -> ToyProblem:
    """Random instance: A uniform on [-1,1]^(m x d), b = A @ x_oracle, x_start = 0."""
    m, d, seed = integer(m, "row count m"), integer(d, "dimension d"), integer(seed, "seed", 0)
    rng = np.random.Generator(np.random.Philox(seed))
    A = rng.uniform(-1.0, 1.0, size=(m, d))
    x_oracle = rng.uniform(-1.0, 1.0, size=d)
    return ToyProblem(A=A, b=A @ x_oracle, x_start=np.zeros(d), x_oracle=x_oracle, seed=seed)


def _loss_and_subgradient(problem: ToyProblem, x: np.ndarray) -> tuple[float, np.ndarray]:
    """(loss(problem, x), linf_subgradient(problem, x)) from one residual, for float64 x."""
    r = problem.A @ x - problem.b
    i = int(np.argmax(np.abs(r)))  # argmax returns the smallest maximizing index
    peak = r[i]
    if peak == 0.0:
        return 0.0, np.zeros(problem.d)
    return float(abs(peak)), np.sign(peak) * problem.A[i]


def loss(problem: ToyProblem, x: np.ndarray) -> float:
    """f(x) = max_i |<A_i, x> - b_i|."""
    return _loss_and_subgradient(problem, np.asarray(x, dtype=np.float64))[0]


def linf_subgradient(problem: ToyProblem, x: np.ndarray) -> np.ndarray:
    """A subgradient of f at x: sign(r_i*) * A_i* for the peak residual.

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

    Deterministic: the only randomness lives in the problem instance.
    Loss is recorded before each update, one entry per schedule step.
    """
    positive(gamma, "base learning rate gamma")
    x = np.array(problem.x_start if x_start is None else x_start, dtype=np.float64)
    if x.shape != (problem.d,):
        raise ValueError(f"x_start must have length {problem.d}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x_start must be finite, got {x}")
    T = schedule.horizon
    losses = np.empty(T)
    iterates = np.empty((T, problem.d)) if record_iterates else None
    for t, eta in enumerate(schedule.values.tolist()):
        losses[t], g = _loss_and_subgradient(problem, x)
        if iterates is not None:
            iterates[t] = x
        x = x - gamma * eta * g
    return RunRecord(losses=losses, schedule_used=schedule, gamma=gamma, seed=problem.seed, iterates=iterates)


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
