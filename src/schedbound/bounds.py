"""Suboptimality bounds for the last iterate of (sub)gradient descent.

For a convex objective with initial distance D to a minimizer, per-step
gradient-norm bounds G_t, base learning rate gamma and schedule eta,
the expected suboptimality of the final iterate after t steps is at most

    dist_term / gamma + gamma * noise_term

with

    dist_term  = D^2 / (2 * sum_s eta_s)
    noise_term = (sum_s eta_s^2 G_s^2) / (2 * sum_s eta_s)
               + 1/2 * sum_{k=1}^{t-1} [ eta_k / sum_{s=k+1}^t eta_s ]
                     * [ (sum_{s=k}^t eta_s^2 G_s^2) / (sum_{s=k}^t eta_s) ]

(all sums over s run from the indicated start to t).  Everything in this
module evaluates, optimizes, or specializes that expression.  The bound
is exactly minimized over gamma at gamma = sqrt(dist_term / noise_term),
where it equals 2 * sqrt(dist_term * noise_term).

One horizon costs O(t).  Summing the cross terms by parts gives the
equivalent single sum

    noise_term = 1/2 * [ q_t / eta_t + sum_{k<t} q_k / (S_t - S_k) ]

with q_k = eta_k^2 G_k^2 and S_t = sum_{s<=t} eta_s.  Three float64
kernels evaluate the noise term.  The accumulator length n (t for a
single horizon, T for a curve) chooses between the two direct ones,
which serve bound_terms and the rows of a curve that exp-sum does not:

* prefix-difference (n < LONG_HORIZON): the definition above, with every
  tail sum a difference of prefix sums.  The differences cancel, so it
  loses digits on long cooldowns and restarts: against an exact oracle,
  up to 5.4e-7 relative on the noise term of cosine(12800) at t = 12800
  and 2.1e-8 on wsd:T=100000,c=0.3 at t = 99999.  A curve with stride s
  costs O(T^2 / s).
* suffix-sum (n >= LONG_HORIZON): the single sum, with S_t - S_k built as
  a running sum of eta_{k+1..t} from the tail, so nothing cancels, and
  S_t as a pairwise sum.  Against the exact oracle its noise term is
  within 7.5e-16 relative on wsd at T = 100000 (c in {0.1, 0.2, 0.3},
  linear and 1-sqrt) and 1.0e-15 on cosine(12800); the tests hold it to
  1e-15 (dist) and 2.5e-15 (noise) on every schedule family, measured
  2.1e-16 and 6.2e-16.  A curve that calls it at every horizon costs
  O(T^2 / s).
* exp-sum, for a last-iterate curve of any T whose direct pair count (the
  sum of t over its horizons) exceeds EXP_SUM_MARGIN * J * T: the far
  part of each horizon's single sum comes from J exponentials whose sums
  are carried across horizons (module expsum, which states its error), so
  the curve costs O(T * J) at any stride; J is about 190 to 250 at
  T = 100000.  Only the 30 to 50 nodes that are neither smooth nor dead
  over a group form an exponential per step: the smooth ones take Taylor
  moments of the group, the dead ones nothing.
  EXP_SUM_MARGIN = 0.25 is where its time crosses the suffix-sum kernel's:
  about 7 ns per direct pair against 1.6 to 2.0 ns per unit of J * T on
  wsd at T = 100000 and 1000000, strides 800 to 14000 (2 vCPUs).  Below
  LONG_HORIZON direct pairs cost less, so exp-sum is slower near there.

The two direct kernels work in the rows of a Workspace: q, the prefix
sums S and Q, the tail sums and the denominators.  bound_terms makes a
fresh one for each call unless its caller passes one; the sweeps and
transfers of module tuning pass one per run, so that the calls of a grid
allocate nothing and the heap does not trim and regrow between them.
The rows keep q, S and Q of the last schedule, and the next one
recomputes them only past the steps the two share: a prefix sum carried
on from S_k adds in the order np.cumsum does, so the terms are the same
bit for bit.  _accumulators alone fills them and records which steps
they hold; every path forms q with _q.  A last-iterate curve makes its
own workspace; its rows are made on first use, at the schedule's length.

Best-iterate curves (running-sum) take S_t and Q_t from pairwise block
sums and a compensated running sum, so they cost O(T) at any T;
best_iterate_terms takes them as pairwise sums.  Exp-sum curves take
S_t the same way.  Every curve evaluates its last row as the *_terms
functions do, so it equals them bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import expsum
from ._checks import finite, integer, positive
from .schedules import Schedule

# accumulator length from which the noise term uses the float64 suffix-sum
# kernel instead of prefix differences (see the module docstring)
LONG_HORIZON = 100_000
SUFFIX_SUM = "suffix-sum"
PREFIX_DIFFERENCE = "prefix-difference"
EXP_SUM = "exp-sum"
RUNNING_SUM = "running-sum"
# a last-iterate curve takes the exp-sum kernel when the direct kernel's
# pair count sum(t) exceeds EXP_SUM_MARGIN * J * T (J nodes), see above
EXP_SUM_MARGIN = 0.25


# harmonic() sums the terms 1/k in blocks of HARMONIC_BLOCK, each term cut
# into integer chunks of _CHUNK_BITS bits; HARMONIC_BLOCK * 2**_CHUNK_BITS
# <= 2**53 keeps every chunk sum of a block exact in float64
HARMONIC_BLOCK = 8192
_CHUNK_BITS = 40


def harmonic(n: int) -> float:
    """n-th harmonic number H_n = sum_{k=1}^n 1/k, with H_0 = 0, exactly rounded.

    Equal bit for bit to math.fsum of the float64 terms 1.0 / k, in blocks
    of HARMONIC_BLOCK terms.  A term with k < 2**L is at least 2**-L, so
    its 53 bits end at or above 2**-(L + 52): F = 52 + L bits after the
    binary point hold every term of H_n exactly, L the bit length of n.
    With b = _CHUNK_BITS and K = ceil(F / b), scaling a block by 2**b and
    splitting off the integer parts K - 1 times cuts each term exactly into
    K - 1 integer chunks of at most 2**b and a remainder in [0, 1) that is
    a multiple of 2**-b.  A block's sums of these stay below 2**53 units of
    their last bit, so float64 adds them exactly.  The sums of each chunk
    position are combined as Python ints into the exact numerator of H_n
    over 2**(b K); int true division rounds that quotient correctly, once.
    Memory is three arrays of the block length.  The value is cached by n:
    the closed forms ask for the same few H_n more than once.
    """
    return _harmonic(integer(n, "n for the harmonic number H_n", 0))


@functools.lru_cache(maxsize=32)  # keyed on the checked int, so harmonic(True) still raises
def _harmonic(n: int) -> float:
    K = -(-(52 + n.bit_length()) // _CHUNK_BITS)
    scale = float(2**_CHUNK_BITS)
    sums = [0] * K
    offsets = np.arange(HARMONIC_BLOCK, dtype=np.float64)
    buf = np.empty((2, HARMONIC_BLOCK))
    for lo in range(1, n + 1, HARMONIC_BLOCK):
        size = min(HARMONIC_BLOCK, n + 1 - lo)
        x, chunk = buf[0, :size], buf[1, :size]
        np.add(offsets[:size], lo, out=x)
        np.divide(1.0, x, out=x)
        for j in range(K - 1):
            np.multiply(x, scale, out=x)
            np.floor(x, out=chunk)
            np.subtract(x, chunk, out=x)
            sums[j] += int(np.sum(chunk))
        sums[K - 1] += int(np.sum(x) * scale)
    numerator = 0
    for s in sums:
        numerator = (numerator << _CHUNK_BITS) + s
    return numerator / (1 << (_CHUNK_BITS * K))


@dataclass(frozen=True)
class GradNormModel:
    """Per-step bound on E ||g_t||^2 via G_t = G * t ** alpha.

    alpha = 0 models a constant bound G; alpha < 0 models gradient norms
    that shrink as optimization proceeds.  Growing norms (alpha > 0) are
    rejected.
    """

    G: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        positive(self.G, "gradient norm scale")
        if finite(self.alpha, "gradient norm exponent") > 0.0:
            raise ValueError(f"gradient norm exponent must be <= 0, got {self.alpha}")

    @property
    def unit(self) -> bool:
        """Whether every G_t is exactly 1.0 (G = 1, alpha = 0), as in every repro target."""
        return self.G == 1.0 and self.alpha == 0.0

    def values(self, T: int) -> np.ndarray:
        """G_t for t = 1..T."""
        if self.alpha == 0.0:
            return np.full(T, float(self.G))
        return self.G * np.arange(1, T + 1, dtype=np.float64) ** self.alpha


@dataclass(frozen=True)
class BoundSpec:
    """Everything needed to evaluate the bound for one configured run."""

    schedule: Schedule
    grad_norms: GradNormModel = GradNormModel()
    D: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        positive(self.D, "initial distance D")
        positive(self.gamma, "base learning rate gamma")


@dataclass(frozen=True)
class MirrorSpec:
    """Mirror-descent variant: Bregman initialization and dual-norm noise.

    bregman_init is E B(x*, x_1) for the mirror map's Bregman divergence,
    mu its strong-convexity modulus w.r.t. the chosen norm, and
    dual_grad_norms bounds E ||g_t||_*^2 in the dual norm.
    """

    bregman_init: float
    mu: float = 1.0
    dual_grad_norms: GradNormModel = field(default_factory=GradNormModel)

    def __post_init__(self):
        positive(self.bregman_init, "initial Bregman divergence")
        positive(self.mu, "strong-convexity modulus")


@dataclass(frozen=True)
class BoundCurve:
    """Bound evaluated along a grid of horizons for a fixed gamma.

    values is dist_terms / gamma + gamma * noise_terms; a value that
    overflows stays inf.
    """

    t: np.ndarray
    values: np.ndarray = field(init=False)
    dist_terms: np.ndarray
    noise_terms: np.ndarray
    gamma: float
    noise_kernel: str  # EXP_SUM, RUNNING_SUM, SUFFIX_SUM or PREFIX_DIFFERENCE, see _curve()
    exp_sum: expsum.Counts | None = None  # what the exp-sum kernel did; None for the others

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        object.__setattr__(self, "values", self.dist_terms / self.gamma + self.gamma * self.noise_terms)

    def at_gamma(self, gamma: float) -> BoundCurve:
        """The same terms at base learning rate gamma."""
        return replace(self, gamma=gamma)

    @property
    def dist_final(self) -> float:
        return float(self.dist_terms[-1])

    @property
    def noise_final(self) -> float:
        return float(self.noise_terms[-1])

    @property
    def value_final(self) -> float:
        return float(self.values[-1])

    @property
    def optimal_gamma(self) -> float:
        """The gamma that would minimize the bound at the final horizon."""
        return math.sqrt(self.dist_final / self.noise_final)


def _noise_kernel(n: int) -> str:
    """Name of the kernel that evaluates the noise term for n accumulators."""
    return SUFFIX_SUM if n >= LONG_HORIZON else PREFIX_DIFFERENCE


class Workspace:
    """Rows that the noise kernels fill in place, owned by one caller and reused across its calls.

    A sweep or a transfer makes one and passes it to each of its bound_terms
    calls, so that evaluating a grid allocates nothing per call.  Fresh
    temporaries of about 128 KB a call (t >= 16000) instead make the heap
    trim and regrow between calls, about 93 minor page faults a call.
    Each row grows to the longest horizon asked of it (a curve asks for
    the schedule's length), keeps its entries when it grows, and lives as
    long as the workspace; the G_t row is kept for the last gradient-norm
    model, whose longer rows hold the same leading values bit for bit.
    Which steps the rows hold is _accumulators' record.  A workspace is for
    one thread; a call that raised leaves it usable.
    """

    def __init__(self):
        self._rows: dict[str, np.ndarray] = {}
        self._grad_norms = None
        self._gvals = np.empty(0)
        self._held = None  # (steps, whether S and Q were formed, gradient-norm model): _accumulators' record

    def row(self, name: str, n: int) -> np.ndarray:
        """The first n entries of the named float64 row."""
        row = self._rows.get(name)
        if row is None or row.size < n:
            grown = self._rows[name] = np.empty(n)
            if row is not None:
                grown[: row.size] = row
            row = grown
        return row[:n]

    def gvals(self, grad_norms: GradNormModel, n: int) -> np.ndarray:
        """G_1..G_n of grad_norms."""
        if grad_norms != self._grad_norms or self._gvals.size < n:
            self._grad_norms, self._gvals = grad_norms, grad_norms.values(n)
        return self._gvals[:n]


def _q(eta: np.ndarray, grad_norms: GradNormModel, out: np.ndarray | None = None, gvals=None) -> np.ndarray:
    """q_k = eta_k^2 G_k^2 of the steps eta as eta * eta * G * G, into out if given.

    G is gvals() if given, else grad_norms.values(eta.size).  The unit model
    builds no G row and leaves out its G_k = 1.0: x * 1.0 == x in IEEE
    arithmetic, so q is the same bit for bit.
    """
    q = np.multiply(eta, eta, out=out)
    if not grad_norms.unit:
        g = grad_norms.values(eta.size) if gvals is None else gvals()
        np.multiply(q, g, out=q)
        np.multiply(q, g, out=q)
    return q


def _accumulators(eta: np.ndarray, grad_norms: GradNormModel, work: Workspace):
    """(q, prefix) for the first n = eta.size steps, with q_k = eta_k^2 G_k^2 (_q), in rows of work.

    prefix is the pair (S, Q) of prefix sums of eta and q, each with a
    leading zero, when n selects the prefix-difference kernel, and None
    when it selects the suffix-sum kernel, which needs no prefix sums.
    It alone keeps the record of what the rows hold: the steps of the last
    call, whether it formed S and Q, and its gradient-norm model.  Only the
    steps past those the two calls share are computed: the prefix sums go
    on from S_k and Q_k one step at a time, as np.cumsum adds, so every row
    equals a fresh one bit for bit.
    """
    n = eta.size
    sums = _noise_kernel(n) == PREFIX_DIFFERENCE
    q = work.row("q", n)
    S, Q = (work.row("S", n + 1), work.row("Q", n + 1)) if sums else (None, None)
    held, work._held = work._held, None  # nothing is held until the rows are filled: a call that raised leaves none
    k = 0
    if held is not None and held[2] == grad_norms and (held[1] or not sums):
        same = np.equal(eta[: held[0].size], held[0][:n])
        k = int(np.argmin(same))
        k = same.size if same[k] else k
    _q(eta[k:], grad_norms, q[k:], lambda: work.gvals(grad_norms, n)[k:])
    if sums:
        S[0] = Q[0] = 0.0
        S[k + 1 :], Q[k + 1 :] = eta[k:], q[k:]
        np.add.accumulate(S[k:], out=S[k:])
        np.add.accumulate(Q[k:], out=Q[k:])
    work._held = (eta, sums, grad_norms)
    return q, (S, Q) if sums else None


def _horizon(eta, q, prefix, t: int, work: Workspace) -> tuple[float, float]:
    """(S_t, noise_term) at horizon t from _accumulators; the cross terms are formed in rows of work."""
    if prefix is not None:
        S, Q = prefix
        total = Q[t] / (2.0 * S[t])
        if t >= 2:
            tail = np.subtract(S[t], S[:t], out=work.row("tail", eta.size)[:t])  # sum_{s=k}^t eta_s for k = 1..t
            # sum_{s=k+1}^t eta_s * sum_{s=k}^t eta_s for k = 1..t-1
            denom = np.multiply(tail[1:], tail[:-1], out=work.row("denom", eta.size)[: t - 1])
            # then tail's row holds sum_{s=k}^t eta_s^2 G_s^2, and then eta_k times that over denom
            q_tail = np.subtract(Q[t], Q[: t - 1], out=tail[:-1])
            np.multiply(eta[: t - 1], q_tail, out=q_tail)
            total += 0.5 * np.sum(np.divide(q_tail, denom, out=q_tail))
        return float(S[t]), float(total)
    tail = np.cumsum(eta[1:t][::-1], out=work.row("tail", eta.size)[: t - 1])  # S_t - S_k for k = t-1, ..., 1
    ratio = np.divide(q[: t - 1][::-1], tail, out=tail)
    return float(np.sum(eta[:t])), float(0.5 * (q[t - 1] / eta[t - 1] + np.sum(ratio)))


def _resolve_t(schedule: Schedule, t: int | None) -> int:
    T = schedule.horizon
    if t is None:
        return T
    if (t := integer(t, "horizon t")) > T:
        raise ValueError(f"horizon {t} outside 1..{T}")
    return t


def _sum_and_noise(schedule, grad_norms, t, work=None) -> tuple[float, float]:
    """(S_t, noise_term) at horizon t, in work or, without one, in fresh arrays."""
    t = _resolve_t(schedule, t)
    work = Workspace() if work is None else work
    eta = schedule.values[:t]
    q, prefix = _accumulators(eta, grad_norms, work)
    return _horizon(eta, q, prefix, t, work)


def _in_range(dist, noise, D="initial distance D", G="gradient norm scale") -> tuple[float, float]:
    """The final (dist_term, noise_term), or a ValueError naming D or G if a term left the float range."""
    dist = positive(dist, f"the distance term of {D} and the schedule")
    return dist, positive(noise, f"the noise term of {G} and the schedule")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a term out of range fails _in_range
def bound_terms(
    schedule: Schedule,
    grad_norms: GradNormModel = GradNormModel(),
    D: float = 1.0,
    t: int | None = None,
    work: Workspace | None = None,
) -> tuple[float, float]:
    """(dist_term, noise_term) of the last-iterate bound at horizon t.

    The bound for base learning rate gamma is
    dist_term / gamma + gamma * noise_term.  A caller that evaluates many
    schedules passes one Workspace to every call; the terms are the same
    bit for bit, with or without one.
    """
    D = positive(D, "initial distance D")
    S_t, noise = _sum_and_noise(schedule, grad_norms, t, work)
    return _in_range(D * D / (2.0 * S_t), noise)  # D * D, not D ** 2: mirror_bound relies on it


def bound_value(spec: BoundSpec, t: int | None = None) -> float:
    """Last-iterate bound at horizon t for the gamma in spec."""
    dist, noise = bound_terms(spec.schedule, spec.grad_norms, spec.D, t)
    return dist / spec.gamma + spec.gamma * noise


def optimal_gamma(
    schedule: Schedule,
    grad_norms: GradNormModel = GradNormModel(),
    D: float = 1.0,
    t: int | None = None,
    work: Workspace | None = None,
) -> float:
    """gamma minimizing the last-iterate bound at horizon t; work as in bound_terms."""
    dist, noise = bound_terms(schedule, grad_norms, D, t, work=work)
    return math.sqrt(dist / noise)


def tuned_bound(
    schedule: Schedule,
    grad_norms: GradNormModel = GradNormModel(),
    D: float = 1.0,
    t: int | None = None,
) -> float:
    """Last-iterate bound at the optimal gamma: 2 * sqrt(dist * noise)."""
    dist, noise = bound_terms(schedule, grad_norms, D, t)
    return 2.0 * math.sqrt(dist * noise)


def _plain_sums(eta: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """(S_t, best-iterate noise_term) over all of eta, from pairwise sums of eta and q."""
    S_t = np.sum(eta)
    return float(S_t), float(np.sum(q) / (2.0 * S_t))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a term out of range fails _in_range
def best_iterate_terms(
    schedule: Schedule,
    grad_norms: GradNormModel = GradNormModel(),
    D: float = 1.0,
    t: int | None = None,
) -> tuple[float, float]:
    """(dist_term, noise_term) of the classical best-iterate bound.

    Bounds min over the first t iterates instead of the last one; the
    noise term drops the cross-horizon coupling and keeps only
    (sum eta_s^2 G_s^2) / (2 sum eta_s).  Used as the ablation baseline
    that shows no benefit from a cooldown.
    """
    D = positive(D, "initial distance D")
    t = _resolve_t(schedule, t)
    eta = schedule.values[:t]
    S_t, noise = _plain_sums(eta, _q(eta, grad_norms))
    return _in_range(D * D / (2.0 * S_t), noise)


def best_iterate_bound(spec: BoundSpec, t: int | None = None) -> float:
    """Best-iterate bound at horizon t for the gamma in spec."""
    dist, noise = best_iterate_terms(spec.schedule, spec.grad_norms, spec.D, t)
    return dist / spec.gamma + spec.gamma * noise


def best_iterate_optimal_gamma(
    schedule: Schedule,
    grad_norms: GradNormModel = GradNormModel(),
    D: float = 1.0,
    t: int | None = None,
) -> float:
    """gamma minimizing the best-iterate bound: D / sqrt(sum eta_s^2 G_s^2)."""
    dist, noise = best_iterate_terms(schedule, grad_norms, D, t)
    return math.sqrt(dist / noise)


def default_stride(T: int) -> int:
    return max(1, T // 2000)


def _grid(T: int, stride: int) -> np.ndarray:
    """Curve horizons 1, 1 + stride, ... up to T, plus T if it is off the grid."""
    ts = np.arange(1, T + 1, stride)
    return ts if ts[-1] == T else np.append(ts, T)


def _block_sums(x: np.ndarray, stride: int) -> np.ndarray:
    """x_1, then the pairwise sums of x over (t_{i-1}, t_i] for t_i = 1 + i * stride <= T."""
    n = (x.size - 1) // stride
    out = np.empty(n + 1)
    out[0] = x[0]
    np.sum(x[1 : 1 + n * stride].reshape(n, stride), axis=1, out=out[1:])
    return out


def _running_sums(blocks: np.ndarray) -> np.ndarray:
    """Prefix sums of blocks, each step's rounding error carried (TwoSum)."""
    total = np.cumsum(blocks)
    prev, new = total[:-1], total[1:]
    added = new - prev
    err = (prev - (new - added)) + (blocks[1:] - added)
    total[1:] += np.cumsum(err)
    return total


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a final term out of range fails _in_range; an overflowing value stays inf
def _curve(spec: BoundSpec, stride: int | None, cross_terms: bool) -> BoundCurve:
    T = spec.schedule.horizon
    stride = default_stride(T) if stride is None else integer(stride, "stride")
    ts = _grid(T, stride)
    eta = spec.schedule.values
    n = ts.size - 1  # rows before the last
    blocks = _block_sums(eta, stride)
    S, noise = np.empty(ts.size), np.empty(ts.size)
    counts = None
    S[:n] = _running_sums(blocks)[:n]  # rows that the direct kernels overwrite
    if not cross_terms:
        kernel, q = RUNNING_SUM, _q(eta, spec.grad_norms)
        noise[:n] = _running_sums(_block_sums(q, stride))[:n] / (2.0 * S[:n])
        S[n], noise[n] = _plain_sums(eta, q)
    else:
        # rows are made on first use, so the tail row of the direct kernels comes
        # after the exp-sum kernel has freed its working arrays
        work = Workspace()
        q, prefix = _accumulators(eta, spec.grad_norms, work)
        S_T = np.sum(eta)
        a, w = expsum.nodes(np.min(blocks[1:n], initial=S_T), S_T)  # over the Delta_i the state sees
        if int(ts.sum()) > EXP_SUM_MARGIN * a.size * T:
            kernel = EXP_SUM
            noise[:n], counts = expsum.curve_noise(eta, q, ts[:n], stride, a, w)
        else:
            kernel = _noise_kernel(T)
            for i in range(n):
                S[i], noise[i] = _horizon(eta, q, prefix, int(ts[i]), work)
        S[n], noise[n] = _horizon(eta, q, prefix, T, work)
    D = float(spec.D)
    dist = D * D / (2.0 * S)
    _in_range(dist[n], noise[n])
    return BoundCurve(t=ts, dist_terms=dist, noise_terms=noise, gamma=spec.gamma, noise_kernel=kernel, exp_sum=counts)


def bound_curve(spec: BoundSpec, stride: int | None = None) -> BoundCurve:
    """Last-iterate bound at horizons {1, 1+stride, ...} plus T.

    Default stride is max(1, T // 2000).
    """
    return _curve(spec, stride, cross_terms=True)


def best_iterate_curve(spec: BoundSpec, stride: int | None = None) -> BoundCurve:
    """Best-iterate bound along the same horizon grid as bound_curve."""
    return _curve(spec, stride, cross_terms=False)


def mirror_bound(
    mirror: MirrorSpec,
    schedule: Schedule,
    t: int | None = None,
    gamma: float = 1.0,
) -> float:
    """Last-iterate bound for mirror descent with step sizes gamma * eta_t.

    Value is

        bregman_init / S_t + (1 / mu) * noise_term(gamma * eta)

    where S_t sums the actual steps gamma * eta_s and noise_term is the
    same expression as in the Euclidean bound, evaluated on the actual
    steps and the dual gradient-norm bounds.  gamma is homogeneous in
    that expression (degree -1 in the first term, +1 in the rest), so it
    is factored out analytically rather than multiplied into the
    accumulators.  The operations are ordered as in bound_value, so the
    Euclidean specialization (bregman_init = D*D/2, mu = 1) equals it
    bit for bit.
    """
    positive(gamma, "base learning rate gamma")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a term out of range fails _in_range
        S_t, noise = _sum_and_noise(schedule, mirror.dual_grad_norms, t)
    dist, noise = _in_range(mirror.bregman_init / S_t, noise, "initial Bregman divergence", "dual gradient norm scale")
    return dist / gamma + gamma * noise / mirror.mu


# --- closed forms for specific schedules ---------------------------------


def constant_bound_exact(T: int, D: float = 1.0, G: float = 1.0) -> float:
    """Tuned bound for the constant schedule: D*G*sqrt((1 + H_{T-1}) / T).

    Agrees with 2*sqrt(dist*noise) to rounding error; the harmonic term
    means a flat schedule loses a log factor over decaying ones.
    """
    T, D, G = integer(T, "horizon"), positive(D, "initial distance D"), positive(G, "gradient norm scale")
    return D * G * math.sqrt((1.0 + harmonic(T - 1)) / T)


def wsd_bound_exact(T: int, T0: int, D: float = 1.0, G: float = 1.0) -> float:
    """Closed-form tuned bound for flat-then-linear-cooldown schedules.

    T0 is the first cooldown step; requires T - T0 >= 2 so the cooldown
    spans at least two steps.  For T0 >= 2 it upper-bounds the
    numerically tuned bound and tracks it within a few percent.  On the
    T0 = 1 boundary (no flat phase, i.e. pure linear decay) the formula
    undershoots the numeric value by a relative O(1/T); use
    linear_decay_bound_exact for that schedule.
    """
    T, T0 = integer(T, "horizon"), integer(T0, "cooldown start")
    D, G = positive(D, "initial distance D"), positive(G, "gradient norm scale")
    if T - T0 < 2:
        raise ValueError(f"cooldown must span at least 2 steps, got T - T0 = {T - T0}")
    n = T - T0
    L1 = 2.0 / 3.0 + (T + 2.0 * T0) / (3.0 * (T + T0))
    L2 = harmonic(T + T0 - 2) - harmonic(T - T0 + 1)
    L3 = n * (T0 - 1.0) / (3.0 * (n + 2.0) * (T + T0))
    L4 = 1.0 / n**2 + harmonic(n - 1) / (n + 1.0)
    return D * G * math.sqrt(4.0 / (T + T0) * (L1 + L2 - L3 + L4))


def linear_decay_bound_exact(T: int, D: float = 1.0, G: float = 1.0) -> float:
    """Closed-form tuned bound for linear decay: (2 + (H_{T-1} - 2/3)/(T+1)) * D*G/sqrt(T).

    Approaches 2*D*G/sqrt(T) as T grows; an upper bound for finite T.
    """
    T, D, G = integer(T, "horizon"), positive(D, "initial distance D"), positive(G, "gradient norm scale")
    return (2.0 + (harmonic(T - 1) - 2.0 / 3.0) / (T + 1.0)) * D * G / math.sqrt(T)


def polynomial_bound_approx(T: int, alpha: float, D: float = 1.0, G: float = 1.0) -> float:
    """Leading-order tuned bound for eta_t = (T+1-t)^alpha: D*G*(alpha+1)/sqrt(alpha*T).

    Minimized over alpha at alpha = 1, where it reads 2*D*G/sqrt(T).
    """
    T, D, G = integer(T, "horizon"), positive(D, "initial distance D"), positive(G, "gradient norm scale")
    alpha = positive(alpha, "decay exponent")
    return D * G * (alpha + 1.0) / math.sqrt(alpha * T)
