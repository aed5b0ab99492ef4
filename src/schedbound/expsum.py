"""Exponential-sum evaluation of the noise term along a long bound curve.

On the horizons t = 1, 1 + stride, ... of a curve, the noise term's single
sum (see bounds) is sum_{k<t} q_k / (S_t - S_k).  Writing

    1/x = sum_j w_j exp(-a_j x)

with J nodes from the trapezoid rule on 1/x = int exp(u - x e^u) du
(Trefethen and Weideman, SIAM Review 2014; Beylkin and Monzon, ACHA 2010)
turns the part of the sum far behind t into J running sums that move from
horizon to horizon without ever forming S_t - S_k, so a whole curve costs
O(T * J) instead of O(T^2 / stride).  J is about 190 to 250 at T = 100000.

Each group of horizons adds to node j the inflow sum_k q_k exp(-a_j g_k)
of its own steps, g_k = S_{t_1} - S_k in (0, span].  Over a chunk of
groups the nodes fall in three classes, split by searchsorted on a:
* smooth, a_j * span <= SMOOTH on every group: the inflow comes from TAYLOR
  moments of q about the group's midpoint c = span / 2,
  exp(-a_j c) sum_p (-a_j)^p / p! sum_k q_k (g_k - c)^p, which is off by at
  most (SMOOTH / 2)^TAYLOR / TAYLOR! * e^SMOOTH, about 2e-18 relative;
* dead, a_j * g_k >= CLAMP for every step: every term is below exp(-100),
  far below rounding, and the inflow is 0;
* live, the rest (30 to 50 nodes on wsd at T = 100000): one exponential
  per node and step.
So the inflow costs one exponential per live node and step, plus, for the
smooth nodes, TAYLOR products and sums per step (the powers of a chunk
formed one degree at a time, in place) and O(J) per group.  The
default-stride rows of wsd, 1-sqrt, cosine and constant at T = 100000
differ by at most 4.4e-16 relative from taking every node live.

Groups share their exponentials where the schedule is flat.  When every
group of a chunk has the same steps eta_k, bit for bit, they have the same
gaps, so the live nodes' exponentials, the decay rows exp(-a (S_t - S_{t_0}))
and the expm1 rows of the state update are formed for one group and serve
all of them: the inflow's matmul takes the one row as a stride-0 batch
operand, which makes the same per-group BLAS calls, and the decay rows are
copied.  When q is equal as well (a flat stretch at alpha = 0), so are
the groups' near field, live inflow and TAYLOR moments, which are then
formed for one group too; only the moments' gemm with the coefficients
runs over every group's row, since a gemm over fewer rows may round
differently.  The products and sums are those of the per-group arrays, so
the curve is the same bit for bit.  Constant schedules, the flat phase of wsd
and both levels of extended gain (1,562 of the 1,999 default-stride groups
of wsd at T = 100000, c = 0.2, take shared exponentials); cosine, inv-sqrt
and cooldowns have no two groups with equal steps and share nothing, and
a chunk of one group, as on every T <= 400 curve of repro, has nothing to
share.  curve_noise returns these counts with the noise (Counts).

Against the exact oracle the tests hold every row at T = 240, stride 1
and 7, on every schedule family to 5e-16 relative on the distance term
and 4e-15 on the noise term (measured: at most 1.7e-16 and 1.2e-15), and
every row of constant(100000) at the default stride and stride 1 to
4e-15 (measured: at most 8.9e-16).  At sampled rows of
constant, wsd, 1-sqrt and cosine curves at T = 100000 (alpha 0 and -0.5)
the kernel is within 3.1e-15 of the exact oracle, where the direct
suffix-sum kernel is up to 1.5e-14 off on cosines, and next to the level
changes of extended(40000, 0.2, 100000, 0.5), in chunks that share and
chunks that straddle a change, within 3.7e-15 (the tests hold 8e-15).  The state's rounding
errors add up with the number of groups it crosses: at T = 1000000 the
sampled wsd rows are within 5.1e-15 at the default stride, but a wsd curve at
stride 1 (15,600 groups) is 1.1e-14 off near T, against 5e-17 for the
direct kernel.  The error is not measured beyond that.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# trapezoid step in u of the nodes, and the largest a_j * x their
# exponentials see (exp(-100) is far below rounding and far from subnormal)
STEP = 0.25
CLAMP = 100.0
# the state steps over groups of horizons that span this many steps
GROUP = 64
# smooth nodes (a_j * span <= SMOOTH on every group of a chunk) take their
# inflow from TAYLOR moments of each group's sources
SMOOTH = 1.0
TAYLOR = 16


def nodes(x_min: float, x_max: float) -> np.ndarray:
    """Nodes a with 1/x = sum_j w_j exp(-a_j x), w_j = STEP * a_j, to ~1e-15 relative on [x_min, x_max].

    The trapezoid rule with step STEP on 1/x = int exp(u - x e^u) du, so
    a_j = e^{u_j}.  The lower u-tail is cut where the integrand's mass
    below it is 1e-15 / x_max, the upper where x_min e^u = 40 e, so there
    are at least 157 nodes ((log 40 + 1 - log 1e-15) / STEP = 156.9).
    """
    u = np.arange(math.log(1e-15 / x_max), math.log(40.0 / x_min) + 1.0, STEP)
    return np.exp(u)


def _clamped_exp(x: np.ndarray) -> np.ndarray:
    """exp(max(x, -CLAMP)) in place."""
    np.maximum(x, -CLAMP, out=x)
    return np.exp(x, out=x)


def _moment_inflow(q, g, a, n: int) -> np.ndarray:
    """sum_k q_k exp(-a_j g_k) for n groups, from rows of q >= 0 and 0 < g <= g[:, :1].

    From TAYLOR moments of q about each row's midpoint c = g[:, 0] / 2:
    exp(-a_j c) sum_p (-a_j)^p / p! sum_k q_k (g_k - c)^p.  The powers are
    taken in units of h = max g / 2, so that they and (-a_j h)^p stay in
    [-1, 1] and nothing over- or underflows.  One row of g, or of q and g,
    serves all n groups; the moments of one row of q are repeated n times
    before the gemm with the coefficients, which gives the per-group bits
    only over all n rows.
    """
    span = g[:, 0]
    h = 0.5 * span.max()
    x = (g - 0.5 * span[:, None]) / h
    term = q.copy()  # q_k x_k^p, from p = 0 up
    moments = np.empty((q.shape[0], TAYLOR))
    moments[:, 0] = term.sum(axis=1)
    for p in range(1, TAYLOR):
        term *= x
        moments[:, p] = term.sum(axis=1)
    if len(moments) < n:
        moments = np.repeat(moments, n, axis=0)
    coef = np.ones((TAYLOR, a.size))
    coef[1:] = np.multiply.outer(-1.0 / np.arange(1, TAYLOR), a * h)
    return (moments @ np.cumprod(coef, axis=0, out=coef)) * np.exp(np.multiply.outer(-0.5 * span, a))


def _shared_rows(x) -> int:
    """1 if every group (row along axis 0) of x is the same, bit for bit, else len(x).

    The first test is a cheap necessary one, false on a decaying schedule.
    """
    return 1 if len(x) > 1 and x[-1, 0, 0] == x[0, 0, 0] and (x == x[0]).all() else len(x)


def _own_sums(qs, gaps, own, a, inflow) -> np.ndarray:
    """The sums over the own steps of a chunk's groups: the inflow, into inflow (n, J), and the near field.

    qs (v, 1, L) holds the groups' sources q_k and gaps (u, m, L) their
    S_t - S_k at each horizon of a group (0 where k >= t, as own says),
    v >= u, and a single row serves every group.  The near field comes
    back with v rows; both are the per-group values bit for bit.
    """
    g = gaps[:, -1]  # S_{t_1} - S_k
    span = g[:, 0]
    smooth = np.searchsorted(a, SMOOTH / span.max(), side="right")
    dead = np.searchsorted(a, CLAMP / g.min())
    # one exponential row serves all groups as a stride-0 batch operand, the same per-group BLAS calls
    inflow[:, smooth:dead] = np.matmul(qs, _clamped_exp(np.multiply.outer(g, -a[smooth:dead])))[:, 0]
    if smooth:
        inflow[:, :smooth] = _moment_inflow(qs[:, 0], g, a[:smooth], len(inflow))
    return np.divide(qs, gaps, out=np.zeros((len(qs), *gaps.shape[1:])), where=own).sum(axis=2)


class Counts(NamedTuple):
    """What curve_noise did: its node count J, the groups of horizons the
    state stepped over, and how many of them took their exponentials from
    another group's row."""

    nodes: int
    groups: int
    shared: int


def curve_noise(eta, q, t, a) -> tuple[np.ndarray, Counts]:
    """Noise term at the horizons t = 1, 1 + stride, ... < T, from nodes a (weights w = STEP * a), and its Counts.

    The horizons go in groups of `rows`, so that a group spans about
    GROUP steps.  At horizon t in the group that starts at t_0, the single
    sum over k < t splits at t_0: the near field t_0 <= k < t is summed
    directly, with S_t - S_k from a reversed cumsum over the group, and
    the far field k < t_0 is w . (exp(-a (S_t - S_{t_0})) r) from the
    state r_j = sum_{k < t_0} q_k exp(-a_j (S_{t_0} - S_k)).  The state
    moves to the next group's start t_1 as
    r <- exp(-a (S_{t_1} - S_{t_0})) r + sum_{t_0 <= k < t_1} q_k exp(-a (S_{t_1} - S_k)).
    The nodes must cover every far-field distance S_t - S_k, k < t_0.
    Exponents are clamped at CLAMP, where the terms are far below
    rounding, so nothing goes subnormal.  Each group's inflow takes the
    three node classes of the module docstring.  The groups go in chunks
    whose working arrays hold at most about 3 T floats in all.  When every
    group of a chunk has the same steps, the chunk's exponentials come from
    u = 1 row of gaps, else from u = nc rows, and its own-step sums from
    v = 1 row when q is equal too (module docstring).
    """
    T = eta.size
    # t holds two horizons or more: bounds takes this kernel only past
    # EXP_SUM_MARGIN * J * T = 0.25 J T direct pairs, and with J >= 157 (nodes)
    # that is more than the T + 1 of a curve with one horizon before T
    stride = int(t[1] - t[0])
    n = t.size - 1  # horizons after the first
    noise = q[t - 1] / eta[t - 1]
    neg_a = -a
    w = STEP * a
    J = a.size
    rows = max(1, GROUP // stride)
    # a node is neither smooth nor dead in any group, of at most rows * stride
    # steps, only if SMOOTH / (rows * stride * max eta) < a_j < CLAMP / min eta
    # (an int, so that the chunk sizes below are Python ints)
    live = int(np.searchsorted(a, CLAMP / eta.min()) - np.searchsorted(a, SMOOTH / (rows * stride * eta.max()), "right"))
    r = np.zeros(J)
    tmp = np.empty(J)
    i = 0  # horizons done, after the first
    groups = shared = 0
    while i < n:
        m = min(rows, n - i)
        L = m * stride
        # a group works on at most L (m + TAYLOR + live) + (m + 5) J floats
        nc = min((n - i) // m, max(1, 3 * T // (L * (m + TAYLOR + live) + (m + 5) * J)))  # groups in this chunk
        lo, hi = i * stride, (i + nc * m) * stride
        qs = q[lo:hi].reshape(nc, 1, L)
        steps = eta[1 + lo : 1 + hi].reshape(nc, 1, L)
        own = np.arange(L) < stride * np.arange(1, m + 1)[:, None]  # k < t, per horizon of a group
        # groups with equal steps have equal gaps, bit for bit: they then come
        # from u = 1 row of steps, and group b takes row b % u; when q is equal
        # too (a flat stretch at alpha = 0), so are their near field and inflow
        u = _shared_rows(steps)
        v = _shared_rows(qs) if u == 1 else nc
        gaps = np.cumsum((steps[:u] * own)[..., ::-1], axis=2)[..., ::-1]
        inflow = np.zeros((nc, J))
        out = noise[1 + i : 1 + i + nc * m].reshape(nc, m)
        out += _own_sums(qs[:v], gaps, own, a, inflow)
        decay = np.empty((nc, m, J))  # exp(-a (S_t - S_{t_0}))
        _clamped_exp(np.multiply.outer(gaps[:, :, 0], neg_a, out=decay[:u]))
        decay[u:] = decay[0]
        # r * exp(-a x) with a rounded exp(-a x) near 1 repeats one relative
        # error at every group, which compounds; there the product is taken
        # as r + r * expm1(-a x), whose rounding does not repeat
        last = decay[:u, -1]
        near_one = last >= 0.5
        keep = np.where(near_one, 1.0, last)
        lost = np.where(near_one, np.expm1(np.multiply.outer(gaps[:, -1, 0], neg_a)), 0.0)
        start = np.empty((nc, J))
        for b in range(nc):
            start[b] = r
            np.multiply(r, lost[b % u], out=tmp)
            r *= keep[b % u]
            r += tmp
            r += inflow[b]
        decay *= start[:, None, :]
        out += decay @ w
        i += nc * m
        groups += nc
        shared += nc - u
    return 0.5 * noise, Counts(J, groups, shared)
