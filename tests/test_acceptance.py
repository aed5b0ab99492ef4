"""End-to-end acceptance checks.

One test per advertised capability, each asserting the stated tolerance.
The conftest hook prints a PASS/FAIL line per criterion in the terminal
summary.
"""

import math

import numpy as np
import pytest
from oracles import harmonic_numbers

from schedbound import bounds, scaling, serialize, toy, tuning
from schedbound.bounds import (
    BoundSpec,
    GradNormModel,
    MirrorSpec,
    bound_curve,
    bound_terms,
    bound_value,
    best_iterate_curve,
    constant_bound_exact,
    harmonic,
    linear_decay_bound_exact,
    mirror_bound,
    optimal_gamma,
    polynomial_bound_approx,
    tuned_bound,
    wsd_bound_exact,
)
from schedbound.schedules import (
    Schedule,
    constant,
    cooldown_start,
    cosine,
    linear_decay,
    polynomial_decay,
    wsd,
)


def test_criterion_01_tuned_gamma_scales_like_inverse_sqrt_horizon():
    Ts = [200 * 2**k for k in range(7)]  # 200 .. 12800
    pts_wsd = [(float(T), optimal_gamma(wsd(T, 0.2))) for T in Ts]
    pts_cos = [(float(T), optimal_gamma(cosine(T))) for T in Ts]
    fit_wsd = tuning.fit_inv_sqrt(pts_wsd)
    fit_cos = tuning.fit_inv_sqrt(pts_cos)
    assert -0.55 <= fit_wsd.free_exponent <= -0.45
    assert -0.55 <= fit_cos.free_exponent <= -0.45
    ratio = fit_cos.coefficients[0] / fit_wsd.coefficients[0]
    assert 1.8 <= ratio <= 2.2


def test_criterion_02_full_cooldown_optimal_only_when_gamma_is_tuned():
    for T in (400, 4000):
        sweep = tuning.sweep_cooldown(T)
        assert sweep.argmin_value == 1.0
        gamma_fixed = 0.5 * optimal_gamma(wsd(T, 1.0))
        fixed = sweep.at_gamma(gamma_fixed)
        assert fixed.argmin_value < 1.0
        assert fixed.argmin_objective < fixed.objective[0]
        assert fixed.argmin_objective < fixed.objective[-1]


def test_criterion_03_horizon_transfer_step_down_factor():
    r2 = tuning.transfer_horizon_rho(4000, 8000)
    r4 = tuning.transfer_horizon_rho(4000, 16000)
    assert r2.feasible and r4.feasible
    assert r2.value == pytest.approx(0.525, abs=0.025)
    assert r4.value == pytest.approx(0.375, abs=0.025)
    rescaled = tuning.transfer_horizon_rho(4000, 8000, grad_norms=GradNormModel(G=0.2), D=3.0)
    assert abs(rescaled.value - r2.value) <= 0.01
    longer = tuning.transfer_horizon_rho(8000, 16000)
    assert abs(longer.value - r2.value) <= 0.01


def test_criterion_04_horizon_transfer_cooldown_fraction():
    res = tuning.transfer_horizon_cooldown(4000, 8000, 0.2)
    assert res.feasible
    assert res.value == pytest.approx(0.6, abs=0.05)


def test_criterion_05_lr_transfer_log_ratio():
    grid = np.array([0.2, 1.0])
    ratios = {}
    for T in (10**3, 10**4):
        curve = tuning.lr_transfer_curve(T, grid)
        ratios[T] = curve[0][1]
        assert ratios[T] == pytest.approx(0.7, abs=0.05)
    assert abs(ratios[10**3] - ratios[10**4]) <= 0.05
    wide = np.logspace(math.log10(0.02), 0.0, 25)
    base = tuning.lr_transfer_curve(10**3, wide)
    rescaled = tuning.lr_transfer_curve(10**3, wide, grad_norms=GradNormModel(G=0.3), D=5.0)
    for (_, v1), (_, v2) in zip(base, rescaled):
        assert abs(v1 - v2) <= 5e-11  # measured 1.4e-11


def test_criterion_06_harmonic_headline_constants():
    T = 10**5
    assert harmonic(T - 1) == pytest.approx(12.09, abs=0.01)
    T0 = int(0.8 * T)
    # headline value printed for this gap is twice the harmonic difference
    doubled_gap = 2.0 * (harmonic(T + T0 - 2) - harmonic(T - T0 + 1))
    assert doubled_gap == pytest.approx(4.39, abs=0.01)
    leading = 2.0 + (harmonic(T - 1) - 2.0 / 3.0) / (T + 1.0)
    assert leading == pytest.approx(2.0001, abs=0.0001)


def test_criterion_07_closed_forms_match_numeric():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        T = int(rng.integers(1, 2001))
        closed = constant_bound_exact(T)
        numeric = tuned_bound(constant(T))
        assert closed == pytest.approx(numeric, rel=1e-15)  # measured 2.6e-16 over 500 draws
    # flat phase required (T0 >= 2): on the T0 = 1 boundary the closed
    # form undershoots the numeric value, see test_bounds
    for _ in range(100):
        T = int(rng.integers(4, 2001))
        T0 = int(rng.integers(2, T - 1))  # T - T0 >= 2
        vals = np.ones(T)
        tail = np.arange(T0, T + 1)
        vals[T0 - 1 :] = 1.0 - (tail - T0) / (T + 1.0 - T0)
        closed = wsd_bound_exact(T, T0)
        numeric = tuned_bound(Schedule(vals))
        assert closed >= numeric, (T, T0)  # at least 1.0e-3 above, relative, over 1000 draws


def test_criterion_08_summation_identity_oracles():
    # weighted final-value identity
    rng = np.random.default_rng(77)
    for _ in range(100):
        T = int(rng.integers(2, 501))
        w = rng.uniform(0.05, 2.0, size=T)
        q = np.cumsum(rng.normal(size=T)) + rng.uniform(-3.0, 3.0)
        S = np.concatenate([[0.0], np.cumsum(w)])
        wq = w * q
        avg = wq.sum() / S[T]
        correction = 0.0
        for k in range(1, T):
            tail_after = S[T] - S[k]
            tail_incl = S[T] - S[k - 1]
            correction += (w[k - 1] / tail_after) * ((wq[k - 1 :].sum() - w[k - 1 :].sum() * q[k - 1]) / tail_incl)
        rhs = avg + correction
        scale = max(float(np.max(np.abs(q))), 1.0)
        assert abs(q[-1] - rhs) <= 1.5e-13 * scale  # measured 1.3e-14 here, 3.7e-14 over 1000 draws
    # arithmetic-series closed forms, exact in integer arithmetic
    T = 10**4
    ls = sorted(set(np.linspace(1, T + 1, 60, dtype=int)) | {1, 2, T, T + 1})
    for l in ls:
        n = T + 1 - l
        assert sum(range(1, n + 1)) == (T + 2 - l) * (T + 1 - l) // 2
        assert sum(s * s for s in range(1, n + 1)) == (2 * T + 3 - 2 * l) * (T + 2 - l) * (T + 1 - l) // 6
    # logarithmic sandwich on harmonic numbers
    t_max = 10**6
    hs = harmonic_numbers(t_max)[1:]
    ts = np.arange(1, t_max + 1, dtype=np.float64)
    assert np.all(np.log(ts + 1.0) <= hs)
    assert np.all(hs <= 1.0 + np.log(ts))


def test_criterion_09_gamma_grid_argmin_and_joint_rescaling():
    rng = np.random.default_rng(99)
    log_step = 3.0 / (tuning.GAMMA_GRID_POINTS - 1) * math.log(10.0)
    for _ in range(20):
        T = int(rng.integers(5, 800))
        sched = Schedule(rng.uniform(0.1, 1.0, size=T))
        star = optimal_gamma(sched)
        # de-center the grid so the optimum is not a grid point
        grid = tuning.default_gamma_grid(star * float(rng.uniform(0.5, 2.0)))
        sweep = tuning.sweep_gamma(sched, gamma_grid=grid)
        assert abs(math.log(sweep.argmin_value) - math.log(star)) <= log_step * (1.0 + 1e-9)
    for _ in range(20):
        T = int(rng.integers(2, 1001))
        vals = rng.uniform(0.1, 1.0, size=T)
        s = float(rng.uniform(0.1, 10.0))
        gamma = float(rng.uniform(0.05, 2.0))
        a = bound_value(BoundSpec(Schedule(vals), GradNormModel(), 1.0, gamma))
        b = bound_value(BoundSpec(Schedule(s * vals), GradNormModel(), 1.0, gamma / s))
        assert b == pytest.approx(a, rel=6.5e-13)  # measured 1.6e-13 over 200 draws


def test_criterion_10_cooldown_drop_needs_last_iterate_analysis():
    T, c = 400, 0.2
    T0 = cooldown_start(T, c)
    sched = wsd(T, c)
    spec = BoundSpec(sched, gamma=optimal_gamma(sched))
    last = bound_curve(spec, stride=1)
    best = best_iterate_curve(spec, stride=1)
    drop_last = last.values[T0 - 1] / last.values[T - 1]
    drop_best = best.values[T0 - 1] / best.values[T - 1]
    assert drop_last > drop_best


def test_criterion_11_gradient_norm_shape_weakens_drop():
    T, c = 400, 0.2
    T0 = cooldown_start(T, c)
    sched = wsd(T, c)
    drops = {}
    for alpha in (0.0, -1.0):
        g = GradNormModel(alpha=alpha)
        spec = BoundSpec(sched, g, gamma=optimal_gamma(sched, g))
        curve = bound_curve(spec, stride=1)
        drops[alpha] = curve.values[T0 - 1] / curve.values[T - 1]
    assert drops[0.0] > drops[-1.0]


def test_criterion_12_toy_simulator_goldens():
    T = 400
    T0 = cooldown_start(T, 0.2)
    runs = toy.comparison_runs(seed=0, T=T)
    w = runs["wsd"].losses
    assert w[-1] < runs["constant"].losses[-1]
    assert w[T0 - 1] / w[T - 1] > w[2 * T0 - T - 1] / w[T0 - 1]
    # subgradient validity on sampled point pairs
    problem = toy.generate_problem(20, 2, 0)
    rng = np.random.default_rng(123)
    for _ in range(1000):
        x = rng.uniform(-2.0, 2.0, size=2)
        y = rng.uniform(-2.0, 2.0, size=2)
        g = toy.linf_subgradient(problem, x)
        assert toy.loss(problem, y) >= toy.loss(problem, x) + g @ (y - x) - 3.6e-15  # measured 4.4e-16 here, 8.9e-16 over 1e5 pairs
    # golden trajectory is byte-stable across independent runs
    again = toy.comparison_runs(seed=0, T=T)
    header = ["t", "eta", "loss"]
    for name in ("wsd", "constant", "cosine"):
        a, b = runs[name], again[name]
        text_a = serialize.csv_text(header, zip(range(1, T + 1), a.schedule_used.values, a.losses))
        text_b = serialize.csv_text(header, zip(range(1, T + 1), b.schedule_used.values, b.losses))
        assert text_a == text_b


def test_criterion_13_scaling_law_pricing():
    law = scaling.ScalingLaw()
    cases = [
        (scaling.tokens_for_delta(law, 124e6, 10.24e9, 0.01), 10.88e9),
        (scaling.tokens_for_delta(law, 124e6, 20.48e9, 0.01), 22.16e9),
        (scaling.params_for_delta(law, 124e6, 10.24e9, 0.01), 129.0e6),
        (scaling.params_for_delta(law, 210e6, 10.24e9, 0.01), 220.1e6),
    ]
    for got, want in cases:
        assert got == pytest.approx(want, rel=5e-3)
    d2 = scaling.tokens_for_delta(law, 124e6, 10.24e9, 0.01)
    achieved = scaling.loss(law, 124e6, 10.24e9) - scaling.loss(law, 124e6, d2)
    assert achieved == pytest.approx(0.01, rel=1e-13)  # measured 2.3e-14
    n2 = scaling.params_for_delta(law, 124e6, 10.24e9, 0.01)
    achieved = scaling.loss(law, 124e6, 10.24e9) - scaling.loss(law, n2, 10.24e9)
    assert achieved == pytest.approx(0.01, rel=1e-13)  # measured 2.1e-14


def test_criterion_14_polynomial_decay_approximation():
    T = 10**4
    alphas = (0.25, 0.5, 1.0, 2.0, 4.0)
    approx = {a: polynomial_bound_approx(T, a) for a in alphas}
    assert min(approx, key=approx.get) == 1.0
    numeric = tuned_bound(polynomial_decay(T, 1.0))
    assert abs(approx[1.0] - numeric) / numeric < 0.10


def test_criterion_15_mirror_bound_euclidean_specialization():
    rng = np.random.default_rng(15)
    for _ in range(20):
        T = int(rng.integers(2, 500))
        vals = rng.uniform(0.05, 1.0, size=T)
        D = float(rng.uniform(0.3, 3.0))
        gamma = float(rng.uniform(0.01, 2.0))
        grad = GradNormModel(G=float(rng.uniform(0.3, 3.0)))
        sched = Schedule(vals)
        mirror = MirrorSpec(bregman_init=D * D / 2.0, mu=1.0, dual_grad_norms=grad)
        lhs = mirror_bound(mirror, sched, gamma=gamma)
        rhs = bound_value(BoundSpec(sched, grad, D, gamma))
        assert lhs == rhs  # bit-identical by construction
