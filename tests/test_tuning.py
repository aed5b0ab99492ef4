import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from schedbound import bounds, tuning
from schedbound.bounds import GradNormModel, optimal_gamma
from schedbound.schedules import CooldownShape, constant, inv_sqrt, with_cooldown, wsd
from schedbound.tuning import (
    DEFAULT_COOLDOWN_GRID,
    FitResult,
    default_gamma_grid,
    fit_inv_gamma_linear,
    fit_inv_sqrt,
    fit_polynomial,
    lr_transfer_curve,
    minimizer,
    sweep_cooldown,
    sweep_gamma,
    transfer_horizon_cooldown,
    transfer_horizon_rho,
)


class TestSweepGamma:
    def test_argmin_matches_analytic_optimum(self):
        sched = wsd(200, 0.2)
        sweep = sweep_gamma(sched)
        # default grid is centered on gamma*, so the argmin is exact
        assert sweep.argmin_value == pytest.approx(optimal_gamma(sched), rel=1e-12)
        assert sweep.argmin_objective == pytest.approx(bounds.tuned_bound(sched), rel=1e-12)

    def test_objective_matches_direct_evaluation(self):
        sched = constant(50)
        grid = np.array([0.05, 0.1, 0.2])
        sweep = sweep_gamma(sched, gamma_grid=grid)
        dist, noise = bounds.bound_terms(sched)
        expect = dist / grid + grid * noise
        assert np.allclose(sweep.objective, expect, rtol=1e-14)

    def test_default_grid_shape(self):
        grid = default_gamma_grid(0.5)
        assert len(grid) == tuning.GAMMA_GRID_POINTS
        assert grid[len(grid) // 2] == pytest.approx(0.5, rel=1e-12)
        assert grid[0] == pytest.approx(0.5 * 10**-1.5, rel=1e-12)
        assert grid[-1] == pytest.approx(0.5 * 10**1.5, rel=1e-12)

    def test_first_minimum_tie_break(self):
        # duplicated grid values give equal objectives; the first wins
        sched = constant(10)
        grid = np.array([0.3, 0.3, 0.5])
        sweep = sweep_gamma(sched, gamma_grid=grid)
        assert sweep.argmin_value in (0.3, 0.5)
        if sweep.objective[0] <= sweep.objective[2]:
            assert sweep.argmin_value == 0.3


class TestSweepCooldown:
    def test_tuned_gamma_prefers_full_cooldown(self):
        grid = np.logspace(math.log10(0.02), 0.0, 12)
        sweep = sweep_cooldown(400, grid)
        assert sweep.argmin_value == 1.0
        assert np.all(np.diff(sweep.objective) <= 1e-12)

    def test_fixed_gamma_has_interior_minimum(self):
        gamma = 0.5 * optimal_gamma(wsd(400, 1.0))
        sweep = sweep_cooldown(400).at_gamma(gamma)
        assert sweep.argmin_value < 1.0
        assert sweep.argmin_value > DEFAULT_COOLDOWN_GRID[0]
        assert sweep.argmin_objective < sweep.objective[0]
        assert sweep.argmin_objective < sweep.objective[-1]

    def test_gammas_match_per_c_optimum(self):
        grid = np.array([0.1, 0.5, 1.0])
        sweep = sweep_cooldown(100, grid)
        for c, g in zip(sweep.grid, sweep.gamma):
            assert g == pytest.approx(optimal_gamma(wsd(100, float(c))), rel=1e-12)

    @pytest.mark.parametrize("base", ["constant", "inv-sqrt"])
    def test_terms_are_those_of_each_schedule_bit_for_bit(self, base):
        grid = np.array([0.05, 0.2, 0.7, 1.0])
        build = (lambda c: wsd(300, c)) if base == "constant" else (lambda c: with_cooldown(inv_sqrt(300), c))
        terms = [bounds.bound_terms(build(float(c))) for c in grid]
        sweep = sweep_cooldown(300, grid, base=base)
        assert list(zip(sweep.dist.tolist(), sweep.noise.tolist())) == terms
        tuned = [math.sqrt(d / n) for d, n in terms]
        assert sweep.gamma.tolist() == tuned
        assert sweep.objective.tolist() == [d / g + g * n for (d, n), g in zip(terms, tuned)]
        g = 0.013
        fixed = sweep.at_gamma(g)
        assert fixed.gamma.tolist() == [g] * grid.size
        assert fixed.objective.tolist() == [d / g + g * n for d, n in terms]

    def test_inv_sqrt_base(self):
        grid = np.array([0.2, 1.0])
        sweep = sweep_cooldown(100, grid, base="inv-sqrt")
        expect = bounds.tuned_bound(with_cooldown(inv_sqrt(100), 0.2))
        assert sweep.objective[0] == pytest.approx(expect, rel=1e-12)

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError):
            sweep_cooldown(100, base="quadratic")


class TestTransferHorizon:
    def test_rho_identity(self):
        res = transfer_horizon_rho(400, 400)
        assert res.value == 1.0
        assert res.feasible
        assert res.achieved_gamma == res.target_gamma

    def test_rho_doubling_oracle(self):
        res = transfer_horizon_rho(400, 800)
        assert res.feasible
        assert res.value == pytest.approx(0.5396679687500001, rel=1e-9)
        assert res.achieved_gamma == pytest.approx(res.target_gamma, rel=1e-3)

    def test_rho_smaller_for_longer_extension(self):
        r2 = transfer_horizon_rho(1000, 2000)
        r4 = transfer_horizon_rho(1000, 4000)
        assert r4.value < r2.value

    def test_rho_infeasible_grid(self):
        # restricted to a window with no sign change the result is the
        # closest grid point, flagged infeasible
        res = transfer_horizon_rho(400, 800, rho_grid=np.linspace(0.9, 1.0, 5))
        assert not res.feasible
        assert 0.9 <= res.value <= 1.0

    def test_rho_scale_invariance(self):
        base = transfer_horizon_rho(500, 1000)
        scaled = transfer_horizon_rho(500, 1000, grad_norms=GradNormModel(G=0.2), D=3.0)
        assert scaled.value == base.value

    def test_cooldown_identity(self):
        res = transfer_horizon_cooldown(400, 400, 0.3)
        assert res.value == 0.3
        assert res.feasible

    def test_cooldown_doubling_grows_fraction(self):
        res = transfer_horizon_cooldown(1000, 2000, 0.2)
        assert res.feasible
        assert res.value > 0.2
        assert res.achieved_gamma == pytest.approx(res.target_gamma, rel=1e-3)

    def test_cooldown_validation(self):
        with pytest.raises(ValueError):
            transfer_horizon_cooldown(400, 200, 0.2)
        with pytest.raises(ValueError):
            transfer_horizon_rho(400, 200)

    def test_result_exposes_mismatch(self):
        res = transfer_horizon_rho(400, 800)
        assert len(res.mismatch) == len(res.grid)

    def test_equal_horizons_tabulate_one_zero_row(self):
        cases = [
            (transfer_horizon_rho(400, 400), "rho", 1.0),
            (transfer_horizon_cooldown(400, 400, 0.3), "c", 0.3),
            (transfer_horizon_cooldown(400, 400, 0.3, base="inv-sqrt"), "c", 0.3),
        ]
        for res, param, value in cases:
            header, rows = res.table(param)
            assert header == [param, "abs_gamma_mismatch", "gamma_mismatch"]
            assert list(rows) == [(value, 0.0, 0.0)]
            assert not np.signbit(res.mismatch[0])
            assert res.achieved_gamma == res.target_gamma


def test_perfbench_mirrors_the_transfer_tolerance(monkeypatch):
    # perfbench checks rho_* and c_long_* headlines at its own copy of the tolerance
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    assert workloads.BISECTION_REL_TOL == tuning.TRANSFER_REL_TOL


class TestLrTransferCurve:
    def test_full_cooldown_anchors_at_zero(self):
        curve = lr_transfer_curve(500, np.array([0.2, 1.0]))
        assert curve[-1][0] == 1.0
        assert curve[-1][1] == pytest.approx(0.0, abs=1e-14)

    def test_matches_direct_ratio(self):
        curve = lr_transfer_curve(500, np.array([0.2]))
        expect = math.log(optimal_gamma(wsd(500, 1.0)) / optimal_gamma(wsd(500, 0.2)))
        assert curve[0][1] == pytest.approx(expect, rel=1e-12)

    def test_one_minus_sqrt_reference_is_same_shape(self):
        shape = CooldownShape.ONE_MINUS_SQRT
        curve = lr_transfer_curve(500, np.array([0.2]), shape=shape)
        expect = math.log(
            optimal_gamma(wsd(500, 1.0, shape)) / optimal_gamma(wsd(500, 0.2, shape))
        )
        assert curve[0][1] == pytest.approx(expect, rel=1e-12)


class TestFits:
    def test_inv_gamma_linear_exact_recovery(self):
        A, B, C = 2.0, 3.0, 1.0
        xs = np.logspace(-1, 1, 12)
        pts = [(float(x), A / x + B * x + C) for x in xs]
        fit = fit_inv_gamma_linear(pts)
        assert fit.model_kind == "inv-gamma-linear"
        assert np.allclose(fit.coefficients, [A, B, C], rtol=1e-9)
        assert fit.residual_norm == pytest.approx(0.0, abs=1e-8)
        assert minimizer(fit) == pytest.approx(math.sqrt(A / B), rel=1e-9)
        assert np.allclose(fit.predict(xs), [p[1] for p in pts], rtol=1e-9)

    def test_minimizer_none_when_curvature_missing(self):
        xs = np.linspace(1.0, 5.0, 8)
        pts = [(float(x), -1.0 / x + 2.0 * x + 1.0) for x in xs]  # A < 0
        fit = fit_inv_gamma_linear(pts)
        assert fit.coefficients[0] < 0
        assert minimizer(fit) is None
        pts = [(float(x), 2.0 / x - 0.5 * x + 1.0) for x in xs]  # B < 0
        assert minimizer(fit_inv_gamma_linear(pts)) is None

    def test_minimizer_rejects_other_kinds(self):
        pts = [(float(x), 1.0 / math.sqrt(x)) for x in (1.0, 2.0, 4.0, 8.0)]
        with pytest.raises(ValueError):
            minimizer(fit_inv_sqrt(pts))

    def test_inv_sqrt_exact_recovery(self):
        pts = [(float(x), 3.0 / math.sqrt(x)) for x in (1.0, 2.0, 4.0, 8.0, 16.0)]
        fit = fit_inv_sqrt(pts)
        assert fit.model_kind == "inv-sqrt"
        assert fit.coefficients[0] == pytest.approx(3.0, rel=1e-12)
        assert fit.free_prefactor == pytest.approx(3.0, rel=1e-9)
        assert fit.free_exponent == pytest.approx(-0.5, abs=1e-9)
        assert fit.predict(np.array([9.0]))[0] == pytest.approx(1.0, rel=1e-12)

    def test_polynomial_exact_recovery(self):
        coeffs = [1.0, -2.0, 0.5, 0.25]
        xs = np.linspace(-1.0, 1.0, 9)
        ys = np.polynomial.polynomial.polyval(xs, coeffs)
        fit = fit_polynomial(list(zip(xs, ys)), degree=3)
        assert fit.model_kind == "polynomial-degree-3"
        assert np.allclose(fit.coefficients, coeffs, atol=1e-9)
        assert np.allclose(fit.predict(xs), ys, atol=1e-9)

    def test_degenerate_points_rejected(self):
        pts = [(2.0, 1.0)] * 6
        with pytest.raises(ValueError, match="degenerate"):
            fit_inv_gamma_linear(pts)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_inv_gamma_linear([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(ValueError):
            fit_polynomial([(1.0, 1.0), (2.0, 2.0)], degree=3)

    def test_predict_unknown_kind_rejected(self):
        fit = FitResult(coefficients=(1.0,), residual_norm=0.0, model_kind="mystery")
        with pytest.raises(ValueError):
            fit.predict(np.array([1.0]))


def test_gamma_star_scaling_fit_behaviour():
    # gamma*(T) for a fixed shape behaves like a/sqrt(T); the constrained
    # and free fits must agree on held-out horizons
    Ts = [200 * 2**k for k in range(5)]
    pts = [(float(T), optimal_gamma(wsd(T, 0.2))) for T in Ts]
    fit = fit_inv_sqrt(pts)
    assert -0.55 < fit.free_exponent < -0.45
    probe = 200 * 2**5
    predicted = float(fit.predict(np.array([float(probe)]))[0])
    actual = optimal_gamma(wsd(probe, 0.2))
    assert predicted == pytest.approx(actual, rel=0.05)
