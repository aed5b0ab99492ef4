"""Tuning base learning rates and cooldown fractions from the bound.

Everything here treats the last-iterate bound as the objective: sweeps
evaluate it over parameter grids, transfers match the bound-optimal
gamma of one run configuration to another, and the fit helpers recover
the simple parametric forms those curves follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds
from ._checks import fraction, integer, positive
from .bounds import GradNormModel
from .schedules import CooldownShape, Schedule, extended, inv_sqrt, with_cooldown, wsd

DEFAULT_COOLDOWN_GRID = np.logspace(math.log10(0.02), 0.0, 50)
GAMMA_GRID_POINTS = 61
GAMMA_GRID_DECADES = 3.0
# relative width to which the transfers bisect a bracketed root
TRANSFER_REL_TOL = 1e-4


@dataclass(frozen=True)
class SweepResult:
    """The bound's two terms, and the gamma each is taken at, on an ascending parameter grid.

    objective is dist / gamma + gamma * noise; a value that overflows
    stays inf.  argmin ties break toward the smallest parameter value
    (first grid hit).
    """

    grid: np.ndarray
    dist: np.ndarray
    noise: np.ndarray
    gamma: np.ndarray
    objective: np.ndarray = field(init=False)
    argmin_value: float = field(init=False)
    argmin_objective: float = field(init=False)

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        object.__setattr__(self, "objective", self.dist / self.gamma + self.gamma * self.noise)
        i = int(np.argmin(self.objective))  # first minimum = smallest parameter on ties
        object.__setattr__(self, "argmin_value", float(self.grid[i]))
        object.__setattr__(self, "argmin_objective", float(self.objective[i]))

    def at_gamma(self, gamma: float) -> SweepResult:
        """The same terms at one fixed base learning rate gamma at every grid point."""
        return replace(self, gamma=np.full_like(self.grid, positive(gamma, "base learning rate gamma")))


@dataclass(frozen=True)
class TransferResult:
    """Outcome of matching a reference tuned gamma on a new configuration.

    value is the matched parameter (rho or cooldown fraction), bisected
    to TRANSFER_REL_TOL when one grid bracket holds the root.  feasible
    is False when no grid point brackets the target, in which case value
    is the grid point coming closest.  mismatch is the tuned gamma minus
    the target at each grid point.
    """

    value: float
    feasible: bool
    target_gamma: float
    achieved_gamma: float
    grid: np.ndarray
    mismatch: np.ndarray

    def table(self, param: str):
        """Header and rows of the grid: grid point, |mismatch|, mismatch."""
        return [param, "abs_gamma_mismatch", "gamma_mismatch"], zip(self.grid, np.abs(self.mismatch), self.mismatch)


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of a named parametric model.

    coefficients are ordered as documented per model kind; for
    inv-sqrt fits the unconstrained power-law diagnostic (prefactor,
    exponent) is reported alongside the constrained 1/sqrt(T) fit.
    """

    coefficients: np.ndarray
    residual_norm: float
    model_kind: str
    free_prefactor: float | None = None
    free_exponent: float | None = None

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.model_kind == "inv-gamma-linear":
            a, b, c = self.coefficients
            return a / x + b * x + c
        if self.model_kind == "inv-sqrt":
            return self.coefficients[0] / np.sqrt(x)
        if self.model_kind.startswith("polynomial-degree-"):
            return np.polynomial.polynomial.polyval(x, self.coefficients)
        raise ValueError(f"unknown fit model {self.model_kind!r}")


def default_gamma_grid(center: float) -> np.ndarray:
    """Log grid of 61 points spanning 3 decades centered at center."""
    center = positive(center, "gamma grid center")
    half = GAMMA_GRID_DECADES / 2.0
    return center * np.logspace(-half, half, GAMMA_GRID_POINTS)


def sweep_gamma(
    schedule: Schedule,
    grad_norms: GradNormModel = GradNormModel(),
    D: float = 1.0,
    gamma_grid: np.ndarray | None = None,
    t: int | None = None,
) -> SweepResult:
    """Bound at horizon t as a function of gamma on a log grid.

    The grid defaults to default_gamma_grid around the analytically
    optimal gamma, so the sweep minimum lands within one grid step of it.
    """
    dist, noise = bounds.bound_terms(schedule, grad_norms, D, t)
    grid = _grid_array(default_gamma_grid(math.sqrt(dist / noise)) if gamma_grid is None else gamma_grid, "gamma")
    for gamma in grid:
        positive(gamma, "gamma grid value")
    return SweepResult(grid, np.full_like(grid, dist), np.full_like(grid, noise), grid)


def _cooldown_family(T: int, shape: CooldownShape, base: str):
    """Schedule builder c -> flat-or-1/sqrt base with a cooldown tail."""
    if base == "constant":
        return lambda c: wsd(T, c, shape)
    if base == "inv-sqrt":
        root = inv_sqrt(T)
        return lambda c: with_cooldown(root, c, shape)
    raise ValueError(f"unknown base schedule family {base!r} (use constant or inv-sqrt)")


def _grid_array(grid, what: str) -> np.ndarray:
    """grid as a float64 array, or a ValueError naming the grid unless it is a non-empty 1-d array of numbers."""
    try:
        values = np.asarray(grid)
    except ValueError:  # a ragged grid
        values = None
    if values is None or values.dtype.kind not in "iuf" or values.ndim != 1 or values.size < 1:
        raise ValueError(f"{what} grid must be a non-empty 1-d array of numbers, got {grid!r:.80}")
    return values.astype(np.float64, copy=False)


def _family_terms(build, grid, what: str, grad_norms: GradNormModel, D: float, work: bounds.Workspace):
    """(grid, dist, noise) arrays: the bound terms of build(x) at each point x of the named grid, in work.

    Every tuning grid is evaluated here.
    """
    grid = _grid_array(grid, what)
    terms = np.array([bounds.bound_terms(build(float(x)), grad_norms, D, work=work) for x in grid])
    return grid, *terms.T


def sweep_cooldown(
    T: int,
    c_grid: np.ndarray | None = None,
    shape: CooldownShape = CooldownShape.LINEAR,
    grad_norms: GradNormModel = GradNormModel(),
    D: float = 1.0,
    base: str = "constant",
) -> SweepResult:
    """Tuned bound at horizon T as a function of the cooldown fraction.

    Each fraction is evaluated at its own optimal gamma; .at_gamma(g)
    evaluates every fraction at one fixed gamma instead, which is how a
    single already-tuned run responds to cooldown changes.
    """
    grid = DEFAULT_COOLDOWN_GRID if c_grid is None else c_grid
    work = bounds.Workspace()
    grid, dist, noise = _family_terms(_cooldown_family(T, shape, base), grid, "cooldown", grad_norms, D, work)
    return SweepResult(grid, dist, noise, np.sqrt(dist / noise))


def _refine(g, lo, hi, g_lo):
    """Bisect a sign change of g on [lo, hi] to TRANSFER_REL_TOL; g_lo is the sign at lo."""
    while hi - lo > TRANSFER_REL_TOL * 0.5 * (lo + hi):
        mid = 0.5 * (lo + hi)
        if (g(mid) > 0.0) == (g_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _match_gamma(g, grid: np.ndarray, vals: np.ndarray) -> tuple[float, bool]:
    """Root of the mismatch g, whose values on the grid are vals, bisection-refined.

    Requires a unique sign change between adjacent grid points; with
    none the target is unreachable (returns the closest grid point,
    flagged infeasible), with several the crossing is ambiguous and the
    grid argmin of |g| is returned unrefined.
    """
    sign_change = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    if sign_change.size == 0:
        root_hits = np.nonzero(vals == 0.0)[0]
        if root_hits.size:
            return float(grid[root_hits[0]]), True
        return float(grid[int(np.argmin(np.abs(vals)))]), False
    if sign_change.size > 1:
        return float(grid[int(np.argmin(np.abs(vals)))]), True
    i = int(sign_change[0])
    return float(_refine(g, float(grid[i]), float(grid[i + 1]), float(vals[i]))), True


def _transfer(reference: Schedule, family, grid, what: str, grad_norms: GradNormModel, D: float) -> TransferResult:
    """Match optimal_gamma(family(x)) over the named grid to the optimal gamma of reference."""
    work = bounds.Workspace()  # for the reference, the grid, every bisection step and the achieved gamma
    target = bounds.optimal_gamma(reference, grad_norms, D, work=work)

    def gamma_at(x: float) -> float:
        return bounds.optimal_gamma(family(float(x)), grad_norms, D, work=work)

    grid, dist, noise = _family_terms(family, grid, what, grad_norms, D, work)
    mismatch = np.sqrt(dist / noise) - target
    value, feasible = _match_gamma(lambda x: gamma_at(x) - target, grid, mismatch)
    return TransferResult(value, feasible, target, gamma_at(value), grid, mismatch)


def transfer_horizon_rho(
    T_short: int,
    T_long: int,
    c: float = 0.2,
    shape: CooldownShape = CooldownShape.LINEAR,
    grad_norms: GradNormModel = GradNormModel(),
    D: float = 1.0,
    rho_grid: np.ndarray | None = None,
) -> TransferResult:
    """Continuation factor rho that keeps the tuned gamma unchanged.

    Extending a flat run from T_short to T_long at reduced rate rho
    (see schedules.extended) lowers the bound-optimal gamma; this finds
    the rho whose extended schedule has the same optimal gamma as the
    original wsd(T_short, c) plan, so the already-tuned base learning
    rate stays optimal for the longer run.  The root is bisected to
    TRANSFER_REL_TOL; equal horizons give rho = 1.
    """
    reference = wsd(T_short, c, shape)
    if integer(T_long, "extended horizon") == T_short:
        return _transfer(reference, lambda rho: reference, [1.0], "rho", grad_norms, D)
    grid = np.linspace(0.02, 1.0, 50) if rho_grid is None else rho_grid
    return _transfer(reference, lambda rho: extended(T_short, c, T_long, rho, c, shape), grid, "rho", grad_norms, D)


def transfer_horizon_cooldown(
    T_short: int,
    T_long: int,
    c_short: float = 0.2,
    shape: CooldownShape = CooldownShape.LINEAR,
    base: str = "constant",
    grad_norms: GradNormModel = GradNormModel(),
    D: float = 1.0,
    c_grid: np.ndarray | None = None,
) -> TransferResult:
    """Cooldown fraction for a longer run that keeps the tuned gamma unchanged.

    Finds c_long with optimal_gamma(family(T_long, c_long)) equal to
    optimal_gamma(family(T_short, c_short)), where the family is a flat
    (base="constant") or 1/sqrt(t) (base="inv-sqrt") schedule with a
    cooldown tail.  The root is bisected to TRANSFER_REL_TOL; equal
    horizons give c_short.  feasible is False when even c_long = 1
    cannot reach the target.
    """
    if integer(T_long, "extended horizon") < integer(T_short, "base horizon"):
        raise ValueError(f"extended horizon {T_long} must be >= base horizon {T_short}")
    build_short = _cooldown_family(T_short, shape, base)
    build_long = _cooldown_family(T_long, shape, base)
    if T_long == T_short:
        grid = [fraction(c_short, "cooldown fraction")]
    else:
        grid = DEFAULT_COOLDOWN_GRID if c_grid is None else c_grid
    return _transfer(build_short(c_short), build_long, grid, "cooldown", grad_norms, D)


def lr_transfer_curve(
    T: int,
    c_grid: np.ndarray | None = None,
    shape: CooldownShape = CooldownShape.LINEAR,
    grad_norms: GradNormModel = GradNormModel(),
    D: float = 1.0,
) -> list[tuple[float, float]]:
    """How much larger the tuned gamma gets as the cooldown shortens.

    Returns (c, ln(gamma*(c=1) / gamma*(c))) pairs for the given shape
    family at horizon T.  The reference c = 1 is the full-decay member
    of the same shape family.  The ratio is scale-free: it does not
    depend on D or the gradient-norm scale.
    """
    build, work = _cooldown_family(T, shape, "constant"), bounds.Workspace()
    reference = bounds.optimal_gamma(build(1.0), grad_norms, D, work=work)
    grid = DEFAULT_COOLDOWN_GRID if c_grid is None else c_grid
    grid, dist, noise = _family_terms(build, grid, "cooldown", grad_norms, D, work)
    return [(float(c), math.log(reference / g)) for c, g in zip(grid, np.sqrt(dist / noise))]


# --- parametric fits ------------------------------------------------------


def _lstsq_columns(columns: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least squares by numpy's SVD solver on L2-normalized columns.

    The scaling evens out the column norms, which keeps the minimizer of
    an inv-gamma-linear fit at rounding level of the exact one.
    """
    X = np.asarray(columns, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < X.shape[1]:
        raise ValueError(f"need at least {X.shape[1]} points, got {X.shape[0]}")
    scale = np.sqrt(np.sum(X * X, axis=0))
    if np.any(scale == 0.0):
        raise ValueError("fit is degenerate: a model column is identically zero")
    w, _, rank, _ = np.linalg.lstsq(X / scale, y, rcond=None)
    if rank < X.shape[1]:
        raise ValueError("fit is degenerate: model columns are collinear")
    coef = w / scale
    return coef, float(np.linalg.norm(X @ coef - y))


def _split_points(points) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise ValueError("points must be a non-empty sequence of (x, y) pairs")
    return arr[:, 0], arr[:, 1]


def fit_inv_gamma_linear(points) -> FitResult:
    """Fit y = A/x + B*x + C; coefficients ordered [A, B, C].

    The shape the bound takes as a function of gamma, so the fitted
    minimizer sqrt(A/B) estimates the optimal gamma from sweep data.
    """
    x, y = _split_points(points)
    if np.any(x <= 0.0):
        raise ValueError("gamma values must be positive")
    coef, resid = _lstsq_columns(np.column_stack([1.0 / x, x, np.ones_like(x)]), y)
    return FitResult(coef, resid, "inv-gamma-linear")


def minimizer(fit: FitResult) -> float | None:
    """Minimizer of a fitted inv-gamma-linear model, or None if non-physical.

    sqrt(A/B) requires A > 0 and B > 0; fits violating that have no
    interior minimum and get flagged by returning None.
    """
    if fit.model_kind != "inv-gamma-linear":
        raise ValueError(f"minimizer needs an inv-gamma-linear fit, got {fit.model_kind!r}")
    a, b = float(fit.coefficients[0]), float(fit.coefficients[1])
    if a <= 0.0 or b <= 0.0:
        return None
    return math.sqrt(a / b)


def fit_inv_sqrt(points) -> FitResult:
    """Fit y = a / sqrt(x); coefficients = [a].

    Also reports the unconstrained log-log power-law fit y = b * x**p as
    (free_prefactor, free_exponent) so the 1/sqrt assumption can be
    checked; the diagnostic needs strictly positive data and is omitted
    (None) otherwise.
    """
    x, y = _split_points(points)
    if np.any(x <= 0.0):
        raise ValueError("x values must be positive")
    coef, resid = _lstsq_columns((1.0 / np.sqrt(x))[:, None], y)
    prefactor = exponent = None
    if np.all(y > 0.0) and x.size >= 2:
        logs, logy = np.log(x), np.log(y)
        w, _ = _lstsq_columns(np.column_stack([np.ones_like(logs), logs]), logy)
        prefactor, exponent = float(math.exp(w[0])), float(w[1])
    return FitResult(coef, resid, "inv-sqrt", prefactor, exponent)


def fit_polynomial(points, degree: int = 6) -> FitResult:
    """Fit a polynomial of the given degree; coefficients ascending in power."""
    degree = integer(degree, "degree", 0)
    x, y = _split_points(points)
    coef, resid = _lstsq_columns(np.vander(x, degree + 1, increasing=True), y)
    return FitResult(coef, resid, f"polynomial-degree-{degree}")
