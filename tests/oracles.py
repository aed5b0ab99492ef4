"""Exact answers for the tests, and the one place in them that computes one.

Every float converts to a rational exactly, so these answers round nowhere
(or, for the 60-digit rows, at the 60th digit).  The module imports the
standard library and numpy only, never schedbound, so that no oracle can
share a fault with the code it checks (tests/test_imports.py holds this).

The bound's noise term at horizon t, with q_k = eta_k^2 g_k^2 and
S_t = eta_1 + ... + eta_t, has two forms:

    double sum (its definition):
        Q_t / (2 S_t) + sum_{k<t} eta_k (Q_t - Q_{k-1}) / (2 (S_t - S_k) (S_t - S_{k-1}))
    single sum (what the suffix-sum and exp-sum kernels evaluate):
        (q_t / eta_t + sum_{k<t} q_k / (S_t - S_k)) / 2

and tests/test_bounds.py proves that the two agree exactly.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

import numpy as np


def rel_err(value, exact) -> float:
    """|value - exact| / |exact| for a float value and an exact Fraction, Decimal or float."""
    exact = Fraction(exact)
    return float(abs(Fraction(value) - exact) / abs(exact))


def double_sum_terms(eta, gvals, D, t):
    """Exact (dist, noise) at horizon t, the literal double sum of the bound's definition."""
    e = [Fraction(float(x)) for x in eta[:t]]
    q = [x * x * Fraction(float(g)) ** 2 for x, g in zip(e, gvals)]
    S = [Fraction(0), *accumulate(e)]
    Q = [Fraction(0), *accumulate(q)]
    noise = Q[t] / (2 * S[t])
    for k in range(1, t):
        noise += e[k - 1] * (Q[t] - Q[k - 1]) / (2 * (S[t] - S[k]) * (S[t] - S[k - 1]))
    return Fraction(float(D)) ** 2 / (2 * S[t]), noise


def _common_scale(ratios):
    """Integers n_k and one power of two E with n_k / E = num_k / den_k for every (num_k, den_k)."""
    scale = max(den for _, den in ratios)  # every float's denominator is a power of two
    return [num * (scale // den) for num, den in ratios], scale


def _integer_steps(eta, gvals):
    """(n, E, m, F) with eta_k = n_k / E and q_k = eta_k^2 g_k^2 = m_k / F, all integers."""
    e = [float(x).as_integer_ratio() for x in eta]
    g = [float(x).as_integer_ratio() for x in gvals]
    q = [((a * c) ** 2, (b * d) ** 2) for (a, b), (c, d) in zip(e, g)]
    return (*_common_scale(e), *_common_scale(q))


def single_sum_noise(eta, gvals, rows, digits=None):
    """Noise terms at the horizons rows by the single sum: Fractions, or Decimals to `digits` digits.

    Over the integers of _integer_steps each tail S_t - S_k is an exact
    integer over E, so a term q_k / (S_t - S_k) is (E / F) m_k / tail.  The
    Fraction rows add a horizon's terms over one common denominator and
    reduce once, which keeps a whole curve cheap; the Decimal rows round
    only the divisions, and serve horizons too long for Fractions.
    """
    n, E, m, F = _integer_steps(eta[: max(rows)], gvals)
    out = []
    for t in rows:
        if digits is None:
            num, den, tail = m[t - 1], n[t - 1], 0  # q_t / eta_t
            for k in range(t - 1, 0, -1):  # q_k = m[k - 1] over S_t - S_k = sum of n[k:t]
                tail += n[k]
                num, den = num * tail + m[k - 1] * den, den * tail
            out.append(Fraction(num * E, 2 * den * F))
            continue
        with localcontext() as ctx:
            ctx.prec = digits
            total, tail = Decimal(m[t - 1]) / n[t - 1], 0
            for k in range(t - 1, 0, -1):
                tail += n[k]
                total += Decimal(m[k - 1]) / tail
            out.append(total * E / (2 * F))
    return out


def prefix_sum_terms(eta, gvals, D, rows):
    """Exact (D^2 / (2 S_t), Q_t / (2 S_t)) at the horizons rows: dist, and the best-iterate noise."""
    n, E, m, F = _integer_steps(eta[: max(rows)], gvals)
    S, Q = list(accumulate(n)), list(accumulate(m))
    D2 = Fraction(float(D)) ** 2
    return [(D2 * E / (2 * S[t - 1]), Fraction(Q[t - 1] * E, 2 * F * S[t - 1])) for t in rows]


def single_sum_terms(eta, gvals, D, rows):
    """Exact (dist, noise) at the horizons rows: dist from prefix sums, the noise by the single sum."""
    dists = [dist for dist, _ in prefix_sum_terms(eta, gvals, D, rows)]
    return list(zip(dists, single_sum_noise(eta, gvals, rows)))


def exponential_sums(q, g, a, digits=40):
    """sum_k q[b, k] exp(-a[j] g[b, k]) for every row b and node j, as Decimals to `digits` digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return [
            [sum(Decimal(qk) * (Decimal(-aj) * Decimal(gk)).exp() for qk, gk in zip(qb, gb)) for aj in a.tolist()]
            for qb, gb in zip(q.tolist(), g.tolist())
        ]


def lstsq(X, y) -> list[Fraction]:
    """Least-squares coefficients of the float columns X for y, exactly: the normal equations in Fraction."""
    X = [[Fraction(v) for v in row] for row in np.asarray(X).tolist()]
    y = [Fraction(v) for v in np.asarray(y).tolist()]
    n = len(X[0])
    A = [[sum(r[i] * r[j] for r in X) for j in range(n)] + [sum(r[i] * v for r, v in zip(X, y))] for i in range(n)]
    for k in range(n):  # Gauss-Jordan; the Gram matrix of independent columns is positive definite
        for i in range(n):
            if i != k:
                f = A[i][k] / A[k][k]
                A[i] = [a - f * b for a, b in zip(A[i], A[k])]
    return [A[i][n] / A[i][i] for i in range(n)]


def fitted_err(X, coef, exact) -> float:
    """Largest error of the float fitted values X @ coef against the exact fit's, relative to its largest."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(X).tolist()]
    fitted = [sum(x * e for x, e in zip(row, exact)) for row in rows]
    got = (np.asarray(X) @ np.asarray(coef)).tolist()
    return float(max(abs(Fraction(f) - g) for f, g in zip(got, fitted)) / max(abs(g) for g in fitted))


def coef_err(coef, exact) -> float:
    """Largest relative error of a coefficient, over those at least 1e-12 of the largest exact one.

    A smaller coefficient moves the fitted values by less than rounding.
    """
    big = max(abs(e) for e in exact)
    return max(rel_err(c, e) for c, e in zip(np.asarray(coef).tolist(), exact) if abs(e) >= big * Fraction(1e-12))


def harmonic_numbers(n: int) -> np.ndarray:
    """[H_0, H_1, ..., H_n] from TwoSum-compensated prefix sums of the float64 terms 1/k.

    Not exact, unlike the rest of this module: each H_k is within one ulp of
    the exactly rounded bounds.harmonic(k) (tests/test_bounds.py holds this),
    far closer than the sandwich and curve tolerances it serves.
    """
    out = np.zeros(n + 1)
    if n:
        terms = 1.0 / np.arange(1, n + 1, dtype=np.float64)
        total = np.cumsum(terms)
        prev, new = total[:-1], total[1:]
        added = new - prev
        err = (prev - (new - added)) + (terms[1:] - added)  # the rounding error of each step
        total[1:] += np.cumsum(err)
        out[1:] = total
    return out
