import math
import os
import subprocess
import sys

import numpy as np
import pytest
from oracles import (
    coef_err,
    extended_limit_rho,
    fitted_err,
    lstsq,
    predict_err,
    tuned_bound_limits,
    wsd_limit_cooldown,
    wsd_limit_F,
)

from schedbound import bounds, repro, tuning
from schedbound.bounds import GradNormModel, optimal_gamma, tuned_bound
from schedbound.schedules import CooldownShape, constant, cosine, inv_sqrt, with_cooldown, wsd
from schedbound.tuning import (
    DEFAULT_COOLDOWN_GRID,
    RHO_GRID,
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
        assert sweep.argmin_value == pytest.approx(optimal_gamma(sched), rel=1e-15)  # measured 0
        assert sweep.argmin_objective == pytest.approx(bounds.tuned_bound(sched), rel=1e-15)  # measured 0

    def test_objective_matches_direct_evaluation(self):
        sched = constant(50)
        grid = np.array([0.05, 0.1, 0.2])
        sweep = sweep_gamma(sched, gamma_grid=grid)
        dist, noise = bounds.bound_terms(sched)
        expect = dist / grid + grid * noise
        assert np.allclose(sweep.objective, expect, rtol=1e-15, atol=0.0)  # measured 0

    def test_default_grid_shape(self):
        grid = default_gamma_grid(0.5)
        assert len(grid) == tuning.GAMMA_GRID_POINTS
        # measured 0 on all three
        assert grid[len(grid) // 2] == pytest.approx(0.5, rel=1e-15)
        assert grid[0] == pytest.approx(0.5 * 10**-1.5, rel=1e-15)
        assert grid[-1] == pytest.approx(0.5 * 10**1.5, rel=1e-15)

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
        assert np.all(np.diff(sweep.objective) < 0.0)  # each step at least 4.1e-4 down

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
        # the sweep's terms are bound_terms' own, bit for bit, and so is the square root
        assert sweep.gamma.tolist() == [optimal_gamma(wsd(100, float(c))) for c in grid]

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
        assert sweep.objective[0] == pytest.approx(expect, rel=1e-15)  # measured 1.3e-16

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError):
            sweep_cooldown(100, base="quadratic")

    def test_default_grid_ends_at_full_decay(self):
        # repro cooldown-sweep takes its fixed gamma from this point
        assert DEFAULT_COOLDOWN_GRID[-1] == 1.0

    @pytest.mark.parametrize(
        "grid",
        ["sweep_cooldown(16000)", "[bound_terms(wsd(16000, c)) for c in DEFAULT_COOLDOWN_GRID]"],
        ids=["sweep_cooldown", "bound_terms"],
    )
    @pytest.mark.parametrize("blas_threads", [None, "1"], ids=["blas-threads-unset", "blas-threads-1"])
    def test_warm_grid_takes_no_page_faults(self, grid, blas_threads):
        # the calls of a thread reuse its rows, and each schedule forms its
        # cooldown leg in place, so a warm grid takes no minor page faults: 0
        # in each of 350 heap layouts shifted by a padding allocation, in both
        # settings below.  With leg-long temporaries for each step of the leg
        # it took 61 to 371 in some layouts, and with rows that lived for one
        # call or one sweep 156 to 408 for the sweep and up to 7,485 for the
        # plain loop, over 12 layouts.  The bound is below the 31 pages of one
        # 128,000-byte array regrowing once.  It runs in a fresh process, since
        # an allocator that has freed larger blocks (as this test run's has)
        # raises its trim threshold and would hide the faults.  The child runs
        # with OPENBLAS_NUM_THREADS unset and set to 1, each explicitly: a test
        # run that has imported schedbound.cli has it set, and the setting
        # moves the heap layout
        pytest.importorskip("resource")
        code = (
            "import resource\n"
            "from schedbound.bounds import bound_terms\n"
            "from schedbound.schedules import wsd\n"
            "from schedbound.tuning import DEFAULT_COOLDOWN_GRID, sweep_cooldown\n"
            f"{grid}\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"{grid}\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert int(done.stdout) <= 30


class TestTransferHorizon:
    def test_rho_identity(self):
        res = transfer_horizon_rho(400, 400)
        assert res.value == 1.0
        assert res.feasible
        assert res.achieved_gamma == res.target_gamma

    def test_rho_doubling_oracle(self):
        res = transfer_horizon_rho(400, 800)
        assert res.feasible
        assert res.value == pytest.approx(0.5396679687500001, rel=1e-15)  # measured 0
        assert res.achieved_gamma == pytest.approx(res.target_gamma, rel=1e-3)

    def test_rho_smaller_for_longer_extension(self):
        r2 = transfer_horizon_rho(1000, 2000)
        r4 = transfer_horizon_rho(1000, 4000)
        assert r4.value < r2.value

    def test_unreachable_transfer_is_infeasible(self):
        # no cooldown of an 8000-step run tunes gamma as high as a 4000-step
        # linear decay: every mismatch lies between -0.0114 and -0.0046, so
        # the result is the closest grid point, c = 1, flagged infeasible
        res = transfer_horizon_cooldown(4000, 8000, 1.0)
        assert not res.feasible
        assert np.all(res.mismatch < 0.0)
        assert res.value == res.grid[np.argmin(np.abs(res.mismatch))] == 1.0

    @pytest.mark.parametrize("c", [1.0, 0.9999])
    def test_rho_without_flat_steps_to_continue_is_rejected(self, c):
        # the extended cooldown would start no later than the short run's, for
        # every rho, so the transfer is a validation error, not unreachable
        with pytest.raises(ValueError, match="use a smaller cooldown fraction or a longer extended horizon"):
            transfer_horizon_rho(4000, 8000, c)

    @pytest.mark.parametrize(
        "transfer, status, sign_changes",
        [
            (lambda: transfer_horizon_rho(4000, 8000), "refined", 1),
            (lambda: transfer_horizon_rho(4000, 4000), "grid-hit", 0),
            (lambda: transfer_horizon_rho(4000, 4400, 0.1), "ambiguous", 2),
            (lambda: transfer_horizon_cooldown(4000, 8000, 0.2, base="inv-sqrt"), "ambiguous", 2),
            (lambda: transfer_horizon_cooldown(4000, 8000, 1.0), "unreachable", 0),
        ],
        ids=["rho-refined", "identity-grid-hit", "rho-ambiguous", "inv-sqrt-ambiguous", "cooldown-unreachable"],
    )
    def test_status_says_how_the_value_was_found(self, transfer, status, sign_changes):
        res = transfer()
        assert res.status == status
        assert res.feasible == (status in ("refined", "grid-hit"))
        assert np.count_nonzero(np.signbit(res.mismatch[:-1]) != np.signbit(res.mismatch[1:])) == sign_changes
        if status == "ambiguous":  # the closest grid point, unrefined
            assert res.value == res.grid[np.argmin(np.abs(res.mismatch))]

    @pytest.mark.parametrize(
        "grid, vals, value, status",
        [
            ([0.5, 1.0, 1.5], [0.5, 0.0, -0.5], 1.0, "grid-hit"),  # falls through a zero: no bracket beside it
            ([0.5, 1.0, 1.5], [-0.5, 0.0, 0.5], 1.0, "grid-hit"),  # rises through a zero
            ([0.5, 1.0, 1.5], [1.0, 0.0, 1.0], 1.0, "grid-hit"),  # touches zero
            ([0.5, 1.0, 1.5], [1.0, -1.0, 0.0], 1.5, "ambiguous"),  # a bracket and a zero
            ([0.5, 1.25, 1.5], [0.5, -0.25, -0.5], 1.0, "refined"),  # one strict bracket
            ([0.5, 1.0, 1.5], [1.0, 0.5, 0.25], 1.5, "unreachable"),  # no root
        ],
        ids=["falling-zero", "rising-zero", "touching-zero", "bracket-and-zero", "bracket", "no-root"],
    )
    def test_a_root_is_an_exact_zero_or_a_strict_sign_change(self, grid, vals, value, status):
        root, found = tuning._match_gamma(lambda x: 1.0 - x, np.array(grid), np.array(vals))
        assert found == status
        assert root == pytest.approx(value, rel=tuning.TRANSFER_REL_TOL)
        if status != "refined":
            assert root == value

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


def test_perfbench_mirrors_the_transfer_tolerance(perfbench_workloads):
    # perfbench checks rho_* and c_long_* headlines at its own copy of the tolerance
    assert perfbench_workloads.BISECTION_REL_TOL == tuning.TRANSFER_REL_TOL


class TestLrTransferCurve:
    def test_full_cooldown_anchors_at_zero(self):
        curve = lr_transfer_curve(500, np.array([0.2, 1.0]))
        assert curve[-1][0] == 1.0
        assert curve[-1][1] == 0.0  # the reference's own terms: log(1.0)

    def test_matches_direct_ratio(self):
        curve = lr_transfer_curve(500, np.array([0.2]))
        # bound_terms' own terms, bit for bit, so the same quotient and logarithm
        assert curve[0][1] == math.log(optimal_gamma(wsd(500, 1.0)) / optimal_gamma(wsd(500, 0.2)))

    @pytest.mark.parametrize(
        "shape, grad_norms, D",
        [(CooldownShape.LINEAR, GradNormModel(), 1.0), (CooldownShape.ONE_MINUS_SQRT, GradNormModel(G=2.0, alpha=-0.5), 1.5)],
        ids=["linear", "1-sqrt-alpha-0.5"],
    )
    def test_ratios_are_those_of_the_cooldown_sweep(self, shape, grad_norms, D):
        grid = np.array([0.05, 0.3, 0.7, 1.0])
        curve = lr_transfer_curve(600, grid, shape, grad_norms, D)
        reference = optimal_gamma(wsd(600, 1.0, shape), grad_norms, D)
        gammas = sweep_cooldown(600, grid, shape, grad_norms, D).gamma
        assert curve == [(c, math.log(reference / g)) for c, g in zip(grid.tolist(), gammas.tolist())]

    def test_one_minus_sqrt_reference_is_same_shape(self):
        shape = CooldownShape.ONE_MINUS_SQRT
        curve = lr_transfer_curve(500, np.array([0.2]), shape=shape)
        assert curve[0][1] == math.log(optimal_gamma(wsd(500, 1.0, shape)) / optimal_gamma(wsd(500, 0.2, shape)))


class TestLimitLaws:
    """The transfers and tuned bounds against their T -> infinity laws (oracles.wsd_limit_F and what builds on it)."""

    # |error| at T = 1e3, 1e4, 1e5, each bound set from its measurement
    LR_BOUNDS = {
        0.05: (8e-3, 1.6e-3, 2.3e-4),  # measured 7.9e-3, 1.5e-3, 2.2e-4
        0.2: (1.8e-3, 3.4e-4, 5e-5),  # measured 1.7e-3, 3.3e-4, 4.9e-5
        0.5: (4e-4, 4e-4, 4e-4),  # measured 3.7e-4, 2.8e-6, 3.1e-6: no steady trend, so one bound
    }

    def test_lr_transfer_approaches_half_log_F(self):
        # gamma* = 1 / sqrt(T F(c)) and F(1) = 1, so ln(gamma*(1) / gamma*(c)) -> ln(F(c)) / 2
        errors = {c: [] for c in self.LR_BOUNDS}
        for T in (1_000, 10_000, 100_000):
            for c, log_ratio in lr_transfer_curve(T, np.array(list(self.LR_BOUNDS))):
                errors[c].append(abs(log_ratio - 0.5 * math.log(wsd_limit_F(c))))
        for c, bound in self.LR_BOUNDS.items():
            assert all(e <= b for e, b in zip(errors[c], bound)), (c, errors[c])
        for c in (0.05, 0.2):
            assert errors[c][0] > errors[c][1] > errors[c][2], (c, errors[c])

    def test_cooldown_transfer_approaches_the_law(self):
        # T_short F(c_short) = T_long F(c_long); the same ratio at longer horizons lands closer
        limit = wsd_limit_cooldown(1, 2, 0.2)
        assert limit == pytest.approx(0.634512, abs=1e-6)
        errors = []
        for T_short, bound in ((1000, 4.8e-3), (4000, 1.6e-3)):  # measured 4.74e-3, 1.58e-3
            res = transfer_horizon_cooldown(T_short, 2 * T_short, 0.2)
            assert res.status == "refined"
            errors.append(abs(res.value - limit))
            assert errors[-1] <= bound, (T_short, errors[-1])
        assert errors[0] > errors[1]

    def test_unreachable_exactly_past_F(self):
        # F(1) = 1 is F's least value, so no c_long reaches the target once T_long / T_short > F(c_short)
        assert 3.0 < wsd_limit_F(0.2) < 4.0  # 3.7775
        assert wsd_limit_cooldown(1000, 4000, 0.2) is None
        assert transfer_horizon_cooldown(1000, 4000, 0.2).status == "unreachable"
        res = transfer_horizon_cooldown(1000, 3000, 0.2)
        assert res.status == "refined"
        assert abs(res.value - wsd_limit_cooldown(1000, 3000, 0.2)) <= 5.1e-3  # measured 5.04e-3 against 0.878178

    # (T_long / T_short, c) -> |kernel - law| at T_short = 1000, 4000, 16000, each bound set from its measurement
    RHO_BOUNDS = {
        (2, 0.2): (4.2e-3, 1.4e-3, 4.2e-4),  # measured 4.13e-3, 1.36e-3, 4.18e-4
        (4, 0.2): (3.2e-3, 1.1e-3, 3.2e-4),  # measured 3.15e-3, 1.02e-3, 3.17e-4
        (2, 0.1): (5.6e-3, 1.9e-3, 6.1e-4),  # measured 5.53e-3, 1.89e-3, 6.04e-4
        (2, 0.5): (2.6e-3, 8e-4, 2.5e-4),  # measured 2.51e-3, 7.90e-4, 2.43e-4
    }

    def test_rho_transfer_approaches_the_law(self):
        # T_short F(c) = T_long Phi(1) I(rho) has two roots: I grows without bound as rho -> 0.
        # RHO_GRID starts between them, so the kernel's sign change is at the larger root only.
        smaller, larger = extended_limit_rho(1, 2, 0.2)
        assert smaller == pytest.approx(0.0077, abs=1e-4)
        assert larger == pytest.approx(0.531555, abs=1e-6)
        for (ratio, c), bound in self.RHO_BOUNDS.items():
            smaller, larger = extended_limit_rho(1, ratio, c)
            assert smaller < RHO_GRID[0] < larger
            errors = []
            for T_short in (1_000, 4_000, 16_000):
                res = transfer_horizon_rho(T_short, ratio * T_short, c)
                assert res.status == "refined"
                errors.append(abs(res.value - larger))
            assert all(e <= b for e, b in zip(errors, bound)), (ratio, c, errors)
            assert errors[0] > errors[1] > errors[2], (ratio, c, errors)

    # relative error of sqrt(T) * tuned_bound at T = 1e3, 1e4, 1e5, each bound set from its measurement
    ZOO = {
        "linear-decay": (lambda T: wsd(T, 1.0), (3.0e-3, 4.2e-4, 5.3e-5)),  # measured 2.99e-3, 4.14e-4, 5.30e-5
        "wsd-linear": (lambda T: wsd(T, 0.2), (5.7e-3, 8.5e-4, 1.13e-4)),  # measured 5.70e-3, 8.48e-4, 1.12e-4
        "wsd-1-sqrt": (
            lambda T: wsd(T, 0.2, CooldownShape.ONE_MINUS_SQRT),
            (3.95e-3, 5.45e-4, 6.9e-5),  # measured 3.94e-3, 5.41e-4, 6.88e-5
        ),
        "cosine": (cosine, (1.46e-3, 1.44e-4, 1.44e-5)),  # measured 1.453e-3, 1.438e-4, 1.439e-5
    }

    def test_tuned_bounds_of_the_zoo_approach_their_limits(self):
        limits = tuned_bound_limits(0.2)
        # the limits to six decimals
        expected = {"linear-decay": 2.0, "wsd-linear": 2.159533, "wsd-1-sqrt": 2.125947, "cosine": 2.060167}
        assert limits == pytest.approx(expected, abs=1e-6)
        for name, (build, bound) in self.ZOO.items():
            errors = [abs(math.sqrt(T) * tuned_bound(build(T)) / limits[name] - 1.0) for T in (1_000, 10_000, 100_000)]
            assert all(e <= b for e, b in zip(errors, bound)), (name, errors)
            assert errors[0] > errors[1] > errors[2], (name, errors)


class TestFits:
    def test_inv_gamma_linear_exact_recovery(self):
        A, B, C = 2.0, 3.0, 1.0
        xs = np.logspace(-1, 1, 12)
        pts = [(float(x), A / x + B * x + C) for x in xs]
        fit = fit_inv_gamma_linear(pts)
        assert fit.model_kind == "inv-gamma-linear"
        assert np.allclose(fit.coefficients, [A, B, C], rtol=2e-15, atol=0.0)  # measured 6.7e-16
        assert fit.residual_norm == pytest.approx(0.0, abs=9e-14)  # measured 2.2e-14
        assert minimizer(fit) == pytest.approx(math.sqrt(A / B), rel=1e-15)  # measured 1.4e-16
        assert np.allclose(fit.predict(xs), [p[1] for p in pts], rtol=2e-15, atol=0.0)  # measured 6.7e-16

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
        assert fit.coefficients[0] == pytest.approx(3.0, rel=1e-15)  # measured 0
        assert fit.free_prefactor == pytest.approx(3.0, rel=1e-15)  # measured 3.0e-16
        assert fit.free_exponent == pytest.approx(-0.5, abs=1e-15)  # measured 2.2e-16
        assert fit.predict(np.array([9.0]))[0] == pytest.approx(1.0, rel=1e-15)  # measured 0

    def test_polynomial_exact_recovery(self):
        coeffs = [1.0, -2.0, 0.5, 0.25, 0.0, 0.0, 0.0]
        xs = np.linspace(-1.0, 1.0, 9)
        ys = np.polynomial.polynomial.polyval(xs, coeffs)
        fit = fit_polynomial(list(zip(xs, ys)))
        assert fit.model_kind == "polynomial-degree-6"
        assert np.allclose(fit.coefficients, coeffs, rtol=0.0, atol=1e-14)  # measured 5.5e-15
        assert np.allclose(fit.predict(xs), ys, rtol=0.0, atol=1e-14)  # measured 5.3e-15

    def test_degenerate_points_rejected(self):
        pts = [(2.0, 1.0)] * 6
        with pytest.raises(ValueError, match="degenerate: model columns are collinear"):
            fit_inv_gamma_linear(pts)

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            fit_polynomial([(0.0, 1.0)] * 8)

    def test_numerically_rank_deficient_fit_rejected(self):
        # powers of x within 1e-8 of 1 are collinear to rounding
        xs = 1.0 + np.arange(8) * 1e-9
        with pytest.raises(ValueError, match="degenerate: model columns are collinear"):
            fit_polynomial(list(zip(xs, xs)))

    # finite points whose columns, column norms, coefficients or residual leave the float range
    @pytest.mark.parametrize(
        "fit, row, named",
        [
            (fit_polynomial, (1e60, 10.0), "x values overflow the polynomial-degree-6 model"),
            (fit_inv_gamma_linear, (2e200, 1.9), "x values overflow the inv-gamma-linear model"),
            (fit_inv_gamma_linear, (1e-320, 1.9), "x values overflow the inv-gamma-linear model"),
            (fit_inv_sqrt, (1e-320, 0.035), "x values overflow the inv-sqrt model"),
            (fit_inv_sqrt, (800.0, 1e300), "x or y values overflow the inv-sqrt model"),
            (fit_inv_gamma_linear, (800.0, 1e300), "x or y values overflow the inv-gamma-linear model"),
        ],
    )
    def test_overflow_rejected_by_name(self, fit, row, named):
        points = [(0.1, 3.0), (0.2, 2.1), (0.4, 1.7), (0.8, 1.9), (1.6, 2.8), (3.2, 5.0), (6.4, 9.0), row]
        with pytest.raises(ValueError, match=named):  # and no RuntimeWarning, which the suite makes an error
            fit(points)

    def test_free_prefactor_overflow_rejected_by_name(self):
        # y = 1e400 / x**2: the 1/sqrt(x) fit is finite, exp of the log-log intercept (921) is not
        with pytest.raises(ValueError, match="x or y values overflow the free power-law model"):
            fit_inv_sqrt([(1e200, 1.0), (2e200, 0.25), (4e200, 0.0625)])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_inv_gamma_linear([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(ValueError):
            fit_polynomial([(1.0, 1.0), (2.0, 2.0)])

    @pytest.mark.parametrize("fit", [fit_inv_gamma_linear, fit_inv_sqrt, fit_polynomial])
    @pytest.mark.parametrize("points", [[], [1.0, 2.0], [(1.0, 2.0, 3.0)], [[(1.0, 2.0)]]], ids=["empty", "1-d", "triple", "3-d"])
    def test_points_that_are_not_pairs_rejected(self, fit, points):
        with pytest.raises(ValueError, match=r"^points must be a non-empty sequence of \(x, y\) pairs$"):
            fit(points)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_non_positive_x_rejected(self, x):
        points = [(x, 1.0), (1.0, 1.0), (2.0, 0.7), (4.0, 0.5)]
        with pytest.raises(ValueError, match="^gamma values must be positive$"):
            fit_inv_gamma_linear(points)
        with pytest.raises(ValueError, match="^x values must be positive$"):
            fit_inv_sqrt(points)

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


class TestReportedFitsAgainstExactOracle:
    """Every fit that repro and the CLI report, against exact rational least squares.

    predict_err holds FitResult.predict, the `fitted` column that the `fit`
    command writes, against the exact fit's model at the exact x.
    The tolerances are the measured errors rounded up.
    """

    def test_lr_transfer_poly6_both_shapes(self):
        headlines, [(_, _, rows)] = repro.lr_transfer()
        c, linear, one_minus_sqrt = np.array(rows).T
        X = np.vander(c, 7, increasing=True)
        # measured 8.0e-14 (linear) and 6.7e-14 (1-sqrt) on the coefficients, 5.7e-15 on
        # the fitted values, and 4.3e-15 and 5.0e-15 on predict
        for y, headline in ((linear, headlines["poly6_coefficients_linear"]), (one_minus_sqrt, None)):
            fit = fit_polynomial(list(zip(c, y)))
            if headline is not None:
                assert fit.coefficients.tolist() == headline
            exact = lstsq(X, y)
            assert fitted_err(X, fit.coefficients, exact) <= 1e-14
            assert coef_err(fit.coefficients, exact) <= 1e-13
            assert predict_err(fit, c, exact) <= 6e-15

    def test_gamma_star_scaling_constrained_and_free_fits(self):
        headlines, [(_, _, rows)] = repro.gamma_star_scaling()
        T, wsd_gamma, cosine_gamma = np.array(rows, dtype=np.float64).T
        for name, y in (("wsd", wsd_gamma), ("cosine", cosine_gamma)):
            fit = fit_inv_sqrt(list(zip(T, y)))
            assert fit.coefficients[0] == headlines[f"a_{name}"]
            assert fit.free_exponent == headlines[f"free_exponent_{name}"]
            # measured 1.7e-16 and 2e-16, and at most 1.4e-16 on predict
            X = (1.0 / np.sqrt(T))[:, None]
            exact = lstsq(X, y)
            assert fitted_err(X, fit.coefficients, exact) <= 1e-15
            assert coef_err(fit.coefficients, exact) <= 1e-15
            assert predict_err(fit, T, exact) <= 2e-16
            logs = np.log(T)
            free = np.array([math.log(fit.free_prefactor), fit.free_exponent])
            X = np.column_stack([np.ones_like(logs), logs])
            intercept, slope = lstsq(X, np.log(y))
            assert fitted_err(X, free, [intercept, slope]) <= 1e-15
            assert coef_err(free[1:], [slope]) <= 1e-15  # measured 8.2e-16
            # the prefactor's relative error is the intercept's absolute error, about
            # an ulp of the slope * ln T it cancels: measured 2.7e-15
            assert fit.free_prefactor == pytest.approx(math.exp(intercept), rel=4e-15)

    def test_hgamma_fit_of_a_gamma_sweep(self):
        sweep = sweep_gamma(wsd(4000, 0.2))
        fit = fit_inv_gamma_linear(list(zip(sweep.grid, sweep.objective)))
        X = np.column_stack([1.0 / sweep.grid, sweep.grid, np.ones_like(sweep.grid)])
        # measured 5.6e-16 on A and B (C is 2e-18 of B), 6.2e-16 on the fitted values, 6.5e-16 on predict
        A, B, C = exact = lstsq(X, sweep.objective)
        assert fitted_err(X, fit.coefficients, exact) <= 1e-15
        assert coef_err(fit.coefficients, exact) <= 1e-15
        assert predict_err(fit, sweep.grid, exact) <= 1e-15
        assert minimizer(fit) == pytest.approx(math.sqrt(A / B), rel=1e-15)  # measured 6.7e-16
