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

import math
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


def predict_err(fit, x, exact, digits=40) -> float:
    """Largest error of fit.predict(x) against the model with the exact coefficients at the exact x, relative to its largest.

    fit is a tuning.FitResult; the inv-sqrt model's square roots are Decimals
    to `digits` digits, every other value is exact.
    """
    xs = np.asarray(x, dtype=np.float64).tolist()
    if fit.model_kind == "polynomial-degree-6":
        model = [sum(e * Fraction(v) ** k for k, e in enumerate(exact)) for v in xs]
    elif fit.model_kind == "inv-gamma-linear":
        A, B, C = exact
        model = [A / Fraction(v) + B * Fraction(v) + C for v in xs]
    else:
        with localcontext() as ctx:
            ctx.prec = digits
            model = [exact[0] / Fraction(Decimal(v).sqrt()) for v in xs]
    got = fit.predict(x).tolist()
    return float(max(abs(Fraction(g) - m) for g, m in zip(got, model)) / max(abs(m) for m in model))


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


def wsd_limit_F(c: float) -> float:
    """F(c) = Phi(1) * I of wsd with a linear cooldown of fraction c: its bound as T -> infinity.

    Not exact, unlike the rest of this module: it is the limit the kernels
    approach, not their answer at any T.  With eta_k = phi(k/T), Phi(u) the
    integral of phi from 0 and R(u) = Phi(1) - Phi(u), T * dist -> D^2 / (2 Phi(1))
    and, for phi(1) = 0, noise -> G^2 I / 2 with I the integral of phi^2 / R.
    For wsd, phi = 1 before 1 - c and (1 - u) / c after, so Phi(1) = 1 - c/2,
    R = 1 - c/2 - u before 1 - c and (1 - u)^2 / (2c) after, and
    I = ln((1 - c/2) / (c/2)) + 2.  Hence gamma* = (D/G) / sqrt(T F(c)), and
    F(1) = 1.
    """
    return (1.0 - c / 2.0) * (2.0 + math.log((2.0 - c) / c))


def wsd_limit_cooldown(T_short: int, T_long: int, c_short: float) -> float | None:
    """The c_long with T_long F(c_long) = T_short F(c_short), or None where none exists.

    F falls from infinity at c -> 0 to F(1) = 1, so the root exists exactly
    when T_long / T_short <= F(c_short); bisected to the last bit.
    """
    target = T_short * wsd_limit_F(c_short) / T_long
    if target < 1.0:
        return None
    lo, hi = 0.0, 1.0  # F(lo) > target >= F(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if wsd_limit_F(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def _roots(f, lo: float, hi: float, points: int = 1000) -> list[float]:
    """Every root of f on [lo, hi] where it changes sign between two of `points` log-spaced nodes, bisected to the last bit."""
    nodes = np.geomspace(lo, hi, points).tolist()
    above = [f(x) > 0.0 for x in nodes]
    roots = []
    for i in range(points - 1):
        if above[i] != above[i + 1]:
            left, right = nodes[i], nodes[i + 1]
            while (mid := 0.5 * (left + right)) not in (left, right):
                if (f(mid) > 0.0) == above[i]:
                    left = mid
                else:
                    right = mid
            roots.append(right)
    return roots


def extended_limit_rho(T_short: int, T_long: int, c: float) -> list[float]:
    """The roots rho of T_short F(c) = T_long Phi(1) I for extended(T_short, c, T_long, rho) with a linear cooldown.

    Not exact: the limit of the rho transfer as both horizons grow at a fixed
    ratio (see wsd_limit_F).  With a = T_short (1 - c) / T_long, phi is 1 on
    [0, a), rho on [a, 1 - c) and rho (1 - u) / c after.  Then Phi(1) = a + B
    with B = rho (1 - c/2 - a), and R is a + B - u, rho (1 - c/2 - u) and
    rho (1 - u)^2 / (2c) on the three legs, whose phi^2 / R integrate to
    ln((a + B) / B), rho ln((1 - c/2 - a) / (c/2)) and 2 rho.  The two sides
    of the law are equal gamma*s, each (D/G) / sqrt(T Phi(1) I).
    """
    a = T_short * (1.0 - c) / T_long

    def excess(rho):
        B = rho * (1.0 - c / 2.0 - a)
        integral = math.log((a + B) / B) + rho * math.log((1.0 - c / 2.0 - a) / (c / 2.0)) + 2.0 * rho
        return T_long * (a + B) * integral - T_short * wsd_limit_F(c)

    return _roots(excess, 1e-9, 1.0)


def _cosine_integral() -> float:
    """I of the cosine schedule, phi = (1 + cos(pi u)) / 2, by 64-node Gauss-Legendre quadrature.

    With w = 1 - u and x = pi w, phi = sin(x/2)^2 and R = (x - sin x) / (2 pi),
    formed from the tail: Phi(1) - Phi(u) would cancel to nothing near u = 1.
    x - sin x takes its series below x = 0.5, where its next term is 1e-15 of it.
    The integrand phi^2 / R is analytic on [0, 1]: 32 and 128 nodes agree with 64 within 1e-14.
    """
    t, weights = np.polynomial.legendre.leggauss(64)
    x = math.pi * (t + 1.0) / 2.0
    series = sum((-1) ** k * x ** (2 * k + 3) / math.factorial(2 * k + 3) for k in range(6))
    tail = np.where(x < 0.5, series, x - np.sin(x)) / (2.0 * math.pi)
    return float(weights @ (np.sin(x / 2.0) ** 4 / tail)) / 2.0


def tuned_bound_limits(c: float) -> dict[str, float]:
    """sqrt(T) * tuned_bound as T -> infinity, sqrt(I / Phi(1)), for the zoo's decaying schedules at D = G = 1.

    Not exact: the limit the kernels approach (see wsd_limit_F), since
    T * dist -> 1 / (2 Phi(1)), noise -> I / 2 and tuned_bound = 2 sqrt(dist * noise).
    - linear decay: Phi(1) = 1/2, R = (1 - u)^2 / 2, phi^2 / R = 2, so I = 2;
    - wsd, linear cooldown of fraction c: I / Phi(1) = F(c) / Phi(1)^2;
    - wsd, 1-sqrt cooldown: on the leg, v = u - (1 - c) and s = sqrt(v / c), phi = 1 - s,
      R = (c/3)(1 - s)^2 (1 + 2s) and phi^2 / R = 3 / (c (1 + 2s)), whose integral is
      3 - (3/2) ln 3; Phi(1) = 1 - 2c/3, and the flat leg adds ln(Phi(1) / (c/3));
    - cosine: Phi(1) = 1/2 and I by quadrature.
    """
    phi_sqrt = 1.0 - 2.0 * c / 3.0
    I_sqrt = math.log(phi_sqrt / (c / 3.0)) + 3.0 - 1.5 * math.log(3.0)
    return {
        "linear-decay": 2.0,
        "wsd-linear": math.sqrt(wsd_limit_F(c)) / (1.0 - c / 2.0),
        "wsd-1-sqrt": math.sqrt(I_sqrt / phi_sqrt),
        "cosine": math.sqrt(2.0 * _cosine_integral()),
    }
