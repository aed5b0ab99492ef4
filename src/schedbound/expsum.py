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
So the inflow costs one exponential per live node and step, plus TAYLOR
products per step and O(J) per group for the smooth nodes.  The
default-stride rows of wsd, 1-sqrt, cosine and constant at T = 100000
differ by at most 4.4e-16 relative from taking every node live.

Against the exact oracle the tests hold every row to 1e-13 relative on
every schedule family (measured: at most 1.1e-15 at T = 240, stride 1 and
7), and every row of constant(100000) at stride 1.  At sampled rows of
constant, wsd, 1-sqrt and cosine curves at T = 100000 (alpha 0 and -0.5)
the kernel is within 3.1e-15 of the exact oracle, where the direct
suffix-sum kernel is up to 1.5e-14 off on cosines.  The state's rounding
errors add up with the number of groups it crosses: at T = 1000000 the
sampled wsd rows are within 5.1e-15 at the default stride, but a wsd curve at
stride 1 (15,600 groups) is 1.1e-14 off near T, against 5e-17 for the
direct kernel.  The 1e-13 is not measured beyond that.
"""

from __future__ import annotations

import math

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


def nodes(x_min: float, x_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(a, w) with 1/x = sum_j w_j exp(-a_j x) to ~1e-15 relative on [x_min, x_max].

    The trapezoid rule with step STEP on 1/x = int exp(u - x e^u) du, so
    a_j = e^{u_j} and w_j = STEP * a_j.  The lower u-tail is cut where the
    integrand's mass below it is 1e-15 / x_max, the upper where
    x_min e^u = 40 e.
    """
    u = np.arange(math.log(1e-15 / x_max), math.log(40.0 / x_min) + 1.0, STEP)
    a = np.exp(u)
    return a, STEP * a


def _clamped_exp(x: np.ndarray) -> np.ndarray:
    """exp(max(x, -CLAMP)) in place."""
    np.maximum(x, -CLAMP, out=x)
    return np.exp(x, out=x)


def _moment_inflow(q, g, a) -> np.ndarray:
    """sum_k q_k exp(-a_j g_k) for each row of q >= 0 and 0 < g <= g[:, :1].

    From TAYLOR moments of q about each row's midpoint c = g[:, 0] / 2:
    exp(-a_j c) sum_p (-a_j)^p / p! sum_k q_k (g_k - c)^p.  The powers are
    taken in units of h = max g / 2, so that they and (-a_j h)^p stay in
    [-1, 1] and nothing over- or underflows.
    """
    span = g[:, 0]
    h = 0.5 * span.max()
    powers = np.empty((g.shape[0], TAYLOR, g.shape[1]))
    powers[:, 0] = q
    powers[:, 1:] = ((g - 0.5 * span[:, None]) / h)[:, None]
    moments = np.cumprod(powers, axis=1, out=powers).sum(axis=2)
    coef = np.ones((TAYLOR, a.size))
    coef[1:] = np.multiply.outer(-1.0 / np.arange(1, TAYLOR), a * h)
    return (moments @ np.cumprod(coef, axis=0, out=coef)) * np.exp(np.multiply.outer(-0.5 * span, a))


def curve_noise(eta, q, stride: int, a, w) -> np.ndarray:
    """Noise term at the horizons 1, 1 + stride, ... < T, from nodes (a, w).

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
    whose working arrays hold at most about 3 T floats in all.
    """
    T = eta.size
    n = (T - 2) // stride  # horizons after the first and before T
    t = np.arange(1, 2 + n * stride, stride)
    noise = q[t - 1] / eta[t - 1]
    neg_a = -a
    J = a.size
    rows = max(1, GROUP // stride)
    # a node is neither smooth nor dead in any group, of at most rows * stride
    # steps, only if SMOOTH / (rows * stride * max eta) < a_j < CLAMP / min eta
    live = np.searchsorted(a, CLAMP / eta.min()) - np.searchsorted(a, SMOOTH / (rows * stride * eta.max()), "right")
    r = np.zeros(J)
    tmp = np.empty(J)
    i = 0  # horizons done, after the first
    while i < n:
        m = min(rows, n - i)
        L = m * stride
        # a group works on at most L (m + TAYLOR + live) + (m + 5) J floats
        nc = min((n - i) // m, max(1, 3 * T // (L * (m + TAYLOR + live) + (m + 5) * J)))  # groups in this chunk
        lo, hi = i * stride, (i + nc * m) * stride
        qs = q[lo:hi].reshape(nc, 1, L)
        own = np.arange(L) < stride * np.arange(1, m + 1)[:, None]  # k < t, per horizon of a group
        gaps = np.cumsum((eta[1 + lo : 1 + hi].reshape(nc, 1, L) * own)[..., ::-1], axis=2)[..., ::-1]
        out = noise[1 + i : 1 + i + nc * m]
        out += np.divide(qs, gaps, out=np.zeros(gaps.shape), where=own).sum(axis=2).ravel()
        g = gaps[:, -1]  # S_{t_1} - S_k
        span = g[:, 0]
        smooth = np.searchsorted(a, SMOOTH / span.max(), side="right")
        dead = np.searchsorted(a, CLAMP / g.min())
        inflow = np.zeros((nc, J))
        inflow[:, smooth:dead] = np.matmul(qs, _clamped_exp(np.multiply.outer(g, neg_a[smooth:dead])))[:, 0]
        if smooth:
            inflow[:, :smooth] = _moment_inflow(qs[:, 0], g, a[:smooth])
        decay = _clamped_exp(np.multiply.outer(gaps[:, :, 0], neg_a))  # exp(-a (S_t - S_{t_0}))
        # r * exp(-a x) with a rounded exp(-a x) near 1 repeats one relative
        # error at every group, which compounds; there the product is taken
        # as r + r * expm1(-a x), whose rounding does not repeat
        last = decay[:, -1]
        near_one = last >= 0.5
        keep = np.where(near_one, 1.0, last)
        lost = np.where(near_one, np.expm1(np.multiply.outer(gaps[:, -1, 0], neg_a)), 0.0)
        start = np.empty((nc, J))
        for b in range(nc):
            start[b] = r
            np.multiply(r, lost[b], out=tmp)
            r *= keep[b]
            r += tmp
            r += inflow[b]
        decay *= start[:, None, :]
        out += (decay @ w).ravel()
        i += nc * m
    return 0.5 * noise
