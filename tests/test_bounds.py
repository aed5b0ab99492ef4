import functools
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedbound import bounds, expsum
from schedbound.bounds import (
    BoundSpec,
    GradNormModel,
    MirrorSpec,
    best_iterate_bound,
    best_iterate_curve,
    best_iterate_optimal_gamma,
    best_iterate_terms,
    bound_curve,
    bound_terms,
    bound_value,
    constant_bound_exact,
    default_stride,
    harmonic,
    harmonic_numbers,
    linear_decay_bound_exact,
    mirror_bound,
    optimal_gamma,
    polynomial_bound_approx,
    tuned_bound,
    wsd_bound_exact,
)
from schedbound.schedules import (
    CooldownShape,
    Schedule,
    constant,
    cosine,
    extended,
    inv_sqrt,
    linear_decay,
    polynomial_decay,
    wsd,
)


def brute_force_terms(eta, gvals, D):
    """Literal double-loop transcription of the bound's two halves.

    Deliberately naive (O(T^2)); the implementation must agree with it.
    """
    eta = np.asarray(eta, dtype=np.float64)
    g2 = np.asarray(gvals, dtype=np.float64) ** 2
    T = len(eta)
    dist = D * D / (2.0 * eta.sum())
    noise = (eta**2 * g2).sum() / (2.0 * eta.sum())
    for k in range(1, T):  # k = 1..T-1 in 1-based terms
        w_k = eta[k - 1]
        tail_after = eta[k:].sum()
        tail_incl = eta[k - 1 :].sum()
        q_tail = (eta[k - 1 :] ** 2 * g2[k - 1 :]).sum()
        noise += 0.5 * (w_k / tail_after) * (q_tail / tail_incl)
    return dist, noise


def fraction_terms(eta, gvals, D, t):
    """Exact (dist, noise) at horizon t in rationals, from the bound's definition.

    Every float converts to a Fraction exactly, so nothing rounds.  This is
    the double sum of the bounds module docstring, not the single sum that
    the suffix-sum kernel evaluates, so it checks that identity too.
    """
    e = [Fraction(float(x)) for x in eta[:t]]
    q = [x * x * Fraction(float(g)) ** 2 for x, g in zip(e, gvals)]
    S = [Fraction(0), *accumulate(e)]
    Q = [Fraction(0), *accumulate(q)]
    noise = Q[t] / (2 * S[t])
    for k in range(1, t):
        noise += e[k - 1] * (Q[t] - Q[k - 1]) / (2 * (S[t] - S[k]) * (S[t] - S[k - 1]))
    return Fraction(D) ** 2 / (2 * S[t]), noise


def rel_err(value, exact):
    return float(abs(Fraction(value) - exact) / exact)


ORACLE_T = 240
ORACLE_SCHEDULES = {
    "constant": constant(ORACLE_T),
    "wsd-linear": wsd(ORACLE_T, 0.3),
    "wsd-1-sqrt": wsd(ORACLE_T, 0.3, CooldownShape.ONE_MINUS_SQRT),
    "cosine-final-0": cosine(ORACLE_T),
    "cosine-restarts": cosine(ORACLE_T, 0.0, 0.3),
    "inv-sqrt": inv_sqrt(ORACLE_T),
    "polynomial": polynomial_decay(ORACLE_T, 2.0),
    "extended": extended(ORACLE_T // 2, 0.2, ORACLE_T, 0.5),
    "random": Schedule(np.random.default_rng(23).uniform(0.1, 1.0, size=ORACLE_T)),
}


@pytest.fixture
def suffix_sum_kernel(monkeypatch):
    """Send every horizon, however short, through the suffix-sum noise kernel."""
    monkeypatch.setattr(bounds, "LONG_HORIZON", 1)


def random_schedule(rng, T):
    kind = rng.integers(0, 4)
    if kind == 0:
        return constant(T)
    if kind == 1:
        return wsd(T, float(rng.uniform(0.05, 1.0)))
    if kind == 2:
        return Schedule(rng.uniform(0.1, 1.0, size=T))
    return linear_decay(T)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(5) == pytest.approx(137.0 / 60.0, rel=1e-15)

    def test_large_oracle(self):
        assert harmonic(10**5 - 1) == pytest.approx(12.090136129863428, rel=1e-13)

    @pytest.mark.parametrize(
        "n",
        [
            0, 1, 2, 5,
            bounds.HARMONIC_BLOCK - 1, bounds.HARMONIC_BLOCK, bounds.HARMONIC_BLOCK + 1,
            19999, 20001, 99999, 179998, 10**6,
        ],
    )
    def test_equals_fsum_exactly(self, n):
        assert harmonic(n) == math.fsum(1.0 / k for k in range(1, n + 1))

    @pytest.mark.parametrize("chunk_bits", [20, 30])
    def test_more_chunks_stay_exact(self, monkeypatch, chunk_bits):
        # narrower chunks take the path that n >= 2**28 takes with the shipped
        # width: more than one integer chunk before the remainder
        monkeypatch.setattr(bounds, "_CHUNK_BITS", chunk_bits)
        for n in (1, 7, bounds.HARMONIC_BLOCK + 3, 40000):
            assert harmonic(n) == math.fsum(1.0 / k for k in range(1, n + 1))

    def test_memory_stays_blockwise(self):
        tracemalloc.start()
        try:
            harmonic(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_array_matches_scalar(self):
        hs = harmonic_numbers(50)
        assert hs[0] == 0.0
        for n in (1, 7, 50):
            assert hs[n] == pytest.approx(harmonic(n), rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, "3", None])
    def test_non_integer_rejected(self, n):
        with pytest.raises(ValueError, match="integer n"):
            harmonic(n)
        with pytest.raises(ValueError, match="integer n"):
            harmonic_numbers(n)

    def test_numpy_integer_accepted(self):
        assert harmonic(np.int64(5)) == harmonic(5)
        assert np.array_equal(harmonic_numbers(np.int32(5)), harmonic_numbers(5))


class TestGradNormModel:
    def test_flat(self):
        m = GradNormModel(G=2.0)
        assert np.array_equal(m.values(3), [2.0, 2.0, 2.0])

    def test_decaying(self):
        m = GradNormModel(G=2.0, alpha=-0.5)
        assert np.allclose(m.values(4), 2.0 / np.sqrt([1.0, 2.0, 3.0, 4.0]), rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            GradNormModel(G=0.0)
        with pytest.raises(ValueError):
            GradNormModel(G=-1.0)
        with pytest.raises(ValueError):
            GradNormModel(alpha=0.5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"G": math.inf}, "gradient norm scale must be finite"),
            ({"G": math.nan}, "gradient norm scale must be positive"),
            ({"alpha": math.inf}, "gradient norm exponent must be <= 0"),
            ({"alpha": -math.inf}, "gradient norm exponent must be finite"),
            ({"alpha": math.nan}, "gradient norm exponent must be finite"),
        ],
    )
    def test_non_finite_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            GradNormModel(**kwargs)


class TestNonFinite:
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_bound_spec(self, value):
        with pytest.raises(ValueError, match="initial distance D"):
            BoundSpec(constant(4), D=value)
        with pytest.raises(ValueError, match="base learning rate gamma"):
            BoundSpec(constant(4), gamma=value)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_mirror_spec(self, value):
        with pytest.raises(ValueError, match="initial Bregman divergence"):
            MirrorSpec(bregman_init=value)
        with pytest.raises(ValueError, match="strong-convexity modulus"):
            MirrorSpec(bregman_init=0.5, mu=value)
        with pytest.raises(ValueError, match="base learning rate gamma"):
            mirror_bound(MirrorSpec(bregman_init=0.5), constant(4), gamma=value)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_terms_distance(self, value):
        # sweeps and transfers take D without a BoundSpec
        for terms in (bound_terms, best_iterate_terms):
            with pytest.raises(ValueError, match="initial distance D"):
                terms(constant(4), D=value)

    # a valid schedule whose last step vanishes against the prefix sum: S_400 - S_399 rounds to 0
    TINY_TAIL = Schedule(np.r_[np.ones(399), 1e-14])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call",
        [
            lambda s: bound_terms(s),
            lambda s: bound_curve(BoundSpec(s), stride=1),
            lambda s: mirror_bound(MirrorSpec(bregman_init=0.5), s),
        ],
        ids=["bound_terms", "bound_curve", "mirror_bound"],
    )
    def test_vanishing_last_step_fails_only_as_a_named_error(self, call):
        with pytest.raises(ValueError, match="noise term of .*gradient norm scale"):
            call(self.TINY_TAIL)

    @pytest.mark.xfail(strict=True, raises=ValueError, reason="the prefix-difference kernel loses the last step")
    def test_vanishing_last_step_exact_noise(self):
        _, noise = bound_terms(self.TINY_TAIL)
        assert noise == pytest.approx(5.000000000000328e13, rel=1e-12)


class TestBoundTerms:
    def test_constant_T4_hand_oracle(self):
        # Hand summation, T=4, eta=1, G=D=1: dist = 1/8,
        # noise = 4/8 + (1/2)[(1/3)(4/4) + (1/2)(3/3) + (1/1)(2/2)] = 17/12
        dist, noise = bound_terms(constant(4))
        assert dist == pytest.approx(0.125, rel=1e-15)
        assert noise == pytest.approx(17.0 / 12.0, rel=1e-14)
        spec = BoundSpec(constant(4), GradNormModel(), 1.0, 1.0)
        assert bound_value(spec) == pytest.approx(0.125 + 17.0 / 12.0, rel=1e-14)

    def test_single_step(self):
        # T=1: no cross terms; dist = 1/(2 eta), noise = eta G^2 / 2
        dist, noise = bound_terms(Schedule(np.array([0.5])), GradNormModel(G=3.0), D=2.0)
        assert dist == pytest.approx(4.0, rel=1e-15)
        assert noise == pytest.approx(0.5 * 0.25 * 9.0 / 0.5, rel=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            T = int(rng.integers(1, 160))
            sched = random_schedule(rng, T)
            grad = GradNormModel(G=float(rng.uniform(0.2, 3.0)), alpha=float(rng.uniform(-1.0, 0.0)))
            D = float(rng.uniform(0.2, 3.0))
            dist, noise = bound_terms(sched, grad, D)
            bf_dist, bf_noise = brute_force_terms(sched.values, grad.values(T), D)
            assert dist == pytest.approx(bf_dist, rel=1e-11)
            assert noise == pytest.approx(bf_noise, rel=1e-11)

    def test_intermediate_horizon_matches_truncation(self):
        sched = wsd(30, 0.3)
        for t in (1, 7, 30):
            dist, noise = bound_terms(sched, t=t)
            trunc = Schedule(sched.values[:t])
            dist2, noise2 = bound_terms(trunc)
            assert dist == pytest.approx(dist2, rel=1e-12)
            assert noise == pytest.approx(noise2, rel=1e-12)

    @given(
        values=st.lists(st.floats(min_value=1e-3, max_value=4.0), min_size=1, max_size=300),
        alpha=st.sampled_from([0.0, -0.5]),
        data=st.data(),
    )
    def test_prefix_difference_matches_three_array_form(self, values, alpha, data):
        # the kernel's expression with a separate array for each tail sum,
        # as it read before one difference array served both eta tails
        eta = np.array(values)
        grad = GradNormModel(G=1.3, alpha=alpha)
        t = data.draw(st.integers(min_value=1, max_value=eta.size))
        q = eta[:t] * eta[:t] * grad.values(t) * grad.values(t)
        S, Q = np.zeros(t + 1), np.zeros(t + 1)
        np.cumsum(eta[:t], out=S[1:])
        np.cumsum(q, out=Q[1:])
        expect = Q[t] / (2.0 * S[t])
        if t >= 2:
            tail_after = S[t] - S[1:t]
            tail_incl = S[t] - S[: t - 1]
            q_tail = Q[t] - Q[: t - 1]
            expect += 0.5 * np.sum(eta[: t - 1] * q_tail / (tail_after * tail_incl))
        assert bound_terms(Schedule(eta), grad, t=t)[1] == expect

    def test_horizon_out_of_range(self):
        with pytest.raises(ValueError):
            bound_terms(constant(4), t=0)
        with pytest.raises(ValueError):
            bound_terms(constant(4), t=5)


class TestTunedBound:
    def test_gamma_decomposition(self):
        sched = wsd(50, 0.4)
        dist, noise = bound_terms(sched)
        for gamma in (0.01, 0.3, 2.0):
            spec = BoundSpec(sched, GradNormModel(), 1.0, gamma)
            assert bound_value(spec) == pytest.approx(dist / gamma + gamma * noise, rel=1e-14)

    def test_optimal_gamma_first_order(self):
        sched = wsd(80, 0.25)
        g = optimal_gamma(sched)
        dist, noise = bound_terms(sched)
        assert g == pytest.approx(math.sqrt(dist / noise), rel=1e-14)
        assert tuned_bound(sched) == pytest.approx(2.0 * math.sqrt(dist * noise), rel=1e-14)

    @given(gamma=st.floats(min_value=1e-3, max_value=1e3))
    def test_tuned_is_minimum(self, gamma):
        sched = wsd(40, 0.5)
        spec = BoundSpec(sched, GradNormModel(), 1.0, gamma)
        assert tuned_bound(sched) <= bound_value(spec) * (1.0 + 1e-12)

    def test_scale_covariance(self):
        # dist scales with D^2, noise with G^2
        sched = wsd(60, 0.3)
        d1, n1 = bound_terms(sched, GradNormModel(G=1.0), D=1.0)
        d2, n2 = bound_terms(sched, GradNormModel(G=3.0), D=2.0)
        assert d2 == pytest.approx(4.0 * d1, rel=1e-14)
        assert n2 == pytest.approx(9.0 * n1, rel=1e-14)


class TestCurves:
    def test_dense_curve_matches_pointwise(self):
        sched = wsd(25, 0.4)
        spec = BoundSpec(sched, GradNormModel(), 1.0, 0.1)
        curve = bound_curve(spec, stride=1)
        assert np.array_equal(curve.t, np.arange(1, 26))
        for i, t in enumerate(curve.t):
            assert curve.values[i] == pytest.approx(bound_value(spec, t=int(t)), rel=1e-14)
        assert curve.value_final == curve.values[-1]
        assert curve.dist_final == curve.dist_terms[-1]
        assert curve.noise_final == curve.noise_terms[-1]

    def test_strided_curve_includes_final_horizon(self):
        sched = constant(103)
        spec = BoundSpec(sched, GradNormModel(), 1.0, 0.1)
        curve = bound_curve(spec, stride=10)
        assert curve.t[0] == 1
        assert curve.t[-1] == 103
        assert np.all(np.diff(curve.t) > 0)

    def test_default_stride(self):
        assert default_stride(100) == 1
        assert default_stride(2000) == 1
        assert default_stride(4000) == 2
        assert default_stride(100000) == 50

    def test_optimal_gamma_property(self):
        sched = wsd(30, 0.5)
        spec = BoundSpec(sched, GradNormModel(), 1.0, 0.1)
        curve = bound_curve(spec, stride=1)
        assert curve.optimal_gamma == pytest.approx(optimal_gamma(sched), rel=1e-14)


class TestBestIterate:
    def test_constant_T4_oracle(self):
        # S=4, Q=4: dist = 1/8, noise = 4/8
        dist, noise = best_iterate_terms(constant(4))
        assert dist == pytest.approx(0.125, rel=1e-15)
        assert noise == pytest.approx(0.5, rel=1e-15)
        assert best_iterate_optimal_gamma(constant(4)) == pytest.approx(0.5, rel=1e-14)
        spec = BoundSpec(constant(4), GradNormModel(), 1.0, 1.0)
        assert best_iterate_bound(spec) == pytest.approx(0.625, rel=1e-14)

    def test_below_last_iterate(self):
        # dropping the cross terms can only shrink the noise half
        sched = wsd(60, 0.3)
        _, noise_last = bound_terms(sched)
        _, noise_best = best_iterate_terms(sched)
        assert noise_best < noise_last

    def test_curve_runs(self):
        spec = BoundSpec(wsd(40, 0.2), GradNormModel(), 1.0, 0.1)
        curve = best_iterate_curve(spec, stride=1)
        assert len(curve.t) == 40
        assert np.all(np.isfinite(curve.values))


class TestClosedForms:
    def test_constant_matches_tuned_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            T = int(rng.integers(1, 2001))
            D = float(rng.uniform(0.5, 2.0))
            G = float(rng.uniform(0.5, 2.0))
            closed = constant_bound_exact(T, D, G)
            numeric = tuned_bound(constant(T), GradNormModel(G=G), D)
            assert closed == pytest.approx(numeric, rel=1e-12)

    def test_constant_T1(self):
        # single step: dist = 1/2, noise = 1/2 -> tuned = 1; H_0 = 0
        assert constant_bound_exact(1) == pytest.approx(1.0, rel=1e-15)

    @staticmethod
    def _flat_then_linear(T, T0):
        # build from the exact T0 rather than going through c rounding
        vals = np.ones(T)
        tail = np.arange(T0, T + 1)
        vals[T0 - 1 :] = 1.0 - (tail - T0) / (T + 1.0 - T0)
        return Schedule(vals)

    def test_wsd_upper_bounds_numeric(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            T = int(rng.integers(4, 2001))
            T0 = int(rng.integers(2, T - 1))  # T - T0 >= 2, flat phase present
            closed = wsd_bound_exact(T, T0)
            numeric = tuned_bound(self._flat_then_linear(T, T0))
            assert closed >= numeric * (1.0 - 1e-12), (T, T0)

    def test_wsd_closed_form_undershoots_without_flat_phase(self):
        # with T0 = 1 the formula is NOT an upper bound: it lands a
        # relative O(1/T) below the numeric value
        for T in (5, 50, 500):
            closed = wsd_bound_exact(T, 1)
            numeric = tuned_bound(self._flat_then_linear(T, 1))
            assert closed < numeric
            assert closed > numeric * (1.0 - 2.0 / T)

    def test_wsd_validation(self):
        with pytest.raises(ValueError):
            wsd_bound_exact(10, 9)
        with pytest.raises(ValueError):
            wsd_bound_exact(10, 0)

    def test_linear_decay_closed_form(self):
        # T=1 collapses to the 5/3 prefactor
        assert linear_decay_bound_exact(1) == pytest.approx(5.0 / 3.0, rel=1e-14)
        for T in (10, 100, 1500):
            closed = linear_decay_bound_exact(T)
            numeric = tuned_bound(linear_decay(T))
            assert closed >= numeric * (1.0 - 1e-12)
            assert closed == pytest.approx(numeric, rel=0.2)

    def test_polynomial_approx_formula(self):
        assert polynomial_bound_approx(100, 1.0, D=2.0, G=3.0) == pytest.approx(
            2.0 * 3.0 * 2.0 / math.sqrt(100.0), rel=1e-15
        )
        with pytest.raises(ValueError):
            polynomial_bound_approx(100, 0.0)


class TestLongHorizon:
    def test_extended_precision_path_matches_closed_form(self):
        # T = LONG_HORIZON takes the suffix-sum kernel
        T = bounds.LONG_HORIZON
        numeric = tuned_bound(constant(T))
        closed = constant_bound_exact(T)
        assert numeric == pytest.approx(closed, rel=1e-13)

    def test_short_and_long_paths_agree(self, monkeypatch):
        # the same schedules through the prefix-difference and the suffix-sum kernel
        scheds = [constant(400), wsd(400, 0.3)]
        short = [bound_terms(s) for s in scheds]
        assert bound_curve(BoundSpec(scheds[0])).noise_kernel == bounds.PREFIX_DIFFERENCE
        monkeypatch.setattr(bounds, "LONG_HORIZON", 1)
        assert bound_curve(BoundSpec(scheds[0])).noise_kernel == bounds.SUFFIX_SUM
        for (dist64, noise64), sched in zip(short, scheds):
            dist, noise = bound_terms(sched)
            assert dist == pytest.approx(dist64, rel=1e-12)
            assert noise == pytest.approx(noise64, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEDULES))
    def test_suffix_sum_matches_fraction_oracle(self, suffix_sum_kernel, name, alpha):
        sched = ORACLE_SCHEDULES[name]
        grad = GradNormModel(G=1.3, alpha=alpha)
        for t in (1, 2, ORACLE_T // 2, ORACLE_T - 1, ORACLE_T):
            exact_dist, exact_noise = fraction_terms(sched.values, grad.values(t), 0.7, t)
            dist, noise = bound_terms(sched, grad, 0.7, t)
            assert rel_err(dist, exact_dist) <= 1e-13, t
            assert rel_err(noise, exact_noise) <= 1e-13, t

    def test_mirror_bound_bit_identical_on_suffix_sum_path(self, suffix_sum_kernel):
        rng = np.random.default_rng(19)
        for _ in range(20):
            T = int(rng.integers(1, 300))
            sched = random_schedule(rng, T)
            D = float(rng.uniform(0.3, 3.0))
            gamma = float(rng.uniform(0.01, 2.0))
            grad = GradNormModel(G=float(rng.uniform(0.3, 2.0)), alpha=float(rng.uniform(-1.0, 0.0)))
            mirror = MirrorSpec(bregman_init=D * D / 2.0, mu=1.0, dual_grad_norms=grad)
            assert mirror_bound(mirror, sched, gamma=gamma) == bound_value(BoundSpec(sched, grad, D, gamma))

    def test_constant_curve_on_suffix_sum_path(self):
        # noise of the constant schedule at horizon t is (1 + H_{t-1}) / 2
        sched = constant(bounds.LONG_HORIZON)
        curve = bound_curve(BoundSpec(sched), stride=10_000)
        assert curve.noise_kernel == bounds.SUFFIX_SUM
        for t, noise in zip(curve.t, curve.noise_terms):
            assert noise == pytest.approx((1.0 + harmonic(int(t) - 1)) / 2.0, rel=1e-13)
        assert (curve.dist_final, curve.noise_final) == bound_terms(sched)


@functools.lru_cache(maxsize=None)
def exact_oracle_terms(name, alpha, t):
    """fraction_terms of ORACLE_SCHEDULES[name] at horizon t, G = 1.3, D = 0.7."""
    sched = ORACLE_SCHEDULES[name]
    return fraction_terms(sched.values, GradNormModel(G=1.3, alpha=alpha).values(t), 0.7, t)


def exact_prefix_sums(pairs, rows):
    """Exact sum_{k<=t} n_k / d_k for t in rows, from (n_k, d_k) with every d_k a power of two."""
    scale = max(d for _, d in pairs)
    running = list(accumulate(n * (scale // d) for n, d in pairs))
    return [Fraction(running[t - 1], scale) for t in rows]


def exact_noise(eta, t):
    """Noise term at horizon t for G = 1, to about 1e-50 relative.

    Every eta is an integer multiple of 2^-E, so the tails S_t - S_k are
    exact integers and only the t divisions round, at 60 digits.
    """
    ratios = [float(x).as_integer_ratio() for x in eta[:t]]
    scale = max(den for _, den in ratios)  # every den is a power of two
    nums = [num * (scale // den) for num, den in ratios]
    with localcontext() as ctx:
        ctx.prec = 60
        total = Decimal(0)
        tail = 0
        for k in range(t - 1, 0, -1):  # 0-based k pairs eta_k with S_t - S_k = sum of nums[k:]
            tail += nums[k]
            total += Decimal(nums[k - 1] ** 2) / Decimal(tail)
        return (total + nums[t - 1]) / Decimal(scale) / 2


@pytest.fixture
def exp_sum_kernel(monkeypatch):
    """Send every curve with more than two horizons through the exp-sum kernel."""
    monkeypatch.setattr(bounds, "LONG_HORIZON", 1)
    monkeypatch.setattr(bounds, "EXP_SUM_HORIZON", 1)
    monkeypatch.setattr(bounds, "EXP_SUM_MARGIN", 0)


def _cumprod_moment_inflow(q, g, a):
    """expsum._moment_inflow with its moments from one cumprod over a (rows, TAYLOR, L) array of powers."""
    span = g[:, 0]
    h = 0.5 * span.max()
    powers = np.empty((g.shape[0], expsum.TAYLOR, g.shape[1]))
    powers[:, 0] = q
    powers[:, 1:] = ((g - 0.5 * span[:, None]) / h)[:, None]
    moments = np.cumprod(powers, axis=1, out=powers).sum(axis=2)
    coef = np.ones((expsum.TAYLOR, a.size))
    coef[1:] = np.multiply.outer(-1.0 / np.arange(1, expsum.TAYLOR), a * h)
    return (moments @ np.cumprod(coef, axis=0, out=coef)) * np.exp(np.multiply.outer(-0.5 * span, a))


class TestExpSum:
    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEDULES))
    def test_every_row_matches_fraction_oracle(self, exp_sum_kernel, name, alpha, stride):
        # stride 7 ends on a 1-step block (239 -> 240) and a part-filled group of horizons
        sched = ORACLE_SCHEDULES[name]
        curve = bound_curve(BoundSpec(sched, GradNormModel(G=1.3, alpha=alpha), 0.7), stride=stride)
        assert curve.noise_kernel == bounds.EXP_SUM
        assert curve.t[-1] == ORACLE_T
        for t, dist, noise in zip(curve.t, curve.dist_terms, curve.noise_terms):
            exact_dist, exact_noise = exact_oracle_terms(name, alpha, int(t))
            assert rel_err(dist, exact_dist) <= 1e-13, t
            assert rel_err(noise, exact_noise) <= 1e-13, t

    @pytest.mark.parametrize("x_min, x_max", [(1.0, 1e5), (0.05, 5e4), (1e-3, 1e3), (1e-5, 1e6)])
    def test_nodes_invert_x_on_their_range(self, x_min, x_max):
        a, w = expsum.nodes(x_min, x_max)
        x = np.geomspace(x_min, x_max, 4001)
        approx = np.exp(-np.multiply.outer(x, a)) @ w
        assert np.max(np.abs(approx * x - 1.0)) <= 1e-14

    def test_long_curve_evaluates_only_the_last_horizon_directly(self, monkeypatch):
        calls = []
        horizon = bounds._horizon

        def counted(*args):
            calls.append(args[3])
            return horizon(*args)

        monkeypatch.setattr(bounds, "_horizon", counted)
        sched = wsd(bounds.LONG_HORIZON, 0.2)
        curve = bound_curve(BoundSpec(sched))
        assert curve.noise_kernel == bounds.EXP_SUM
        assert len(curve.t) == 2001
        assert calls == [bounds.LONG_HORIZON]
        assert (curve.dist_final, curve.noise_final) == bound_terms(sched)

    @pytest.mark.parametrize("stride", [None, 1])
    def test_constant_curve_holds_every_row_at_scale(self, stride):
        # noise of the constant schedule at horizon t is (1 + H_{t-1}) / 2; at
        # stride 1 the state is carried across about 1,600 groups of horizons
        T = bounds.LONG_HORIZON
        sched = constant(T)
        curve = bound_curve(BoundSpec(sched), stride=stride)
        assert curve.noise_kernel == bounds.EXP_SUM
        exact = (1.0 + harmonic_numbers(T)[curve.t - 1]) / 2.0
        assert np.max(np.abs(curve.noise_terms / exact - 1.0)) <= 1e-13
        assert np.array_equal(curve.dist_terms, 0.5 / curve.t)
        assert (curve.dist_final, curve.noise_final) == bound_terms(sched)

    @pytest.mark.parametrize("stride, kernel", [(700, bounds.EXP_SUM), (1500, bounds.SUFFIX_SUM)])
    def test_kernel_follows_pair_count(self, stride, kernel):
        # sum(t) is 0.38 * J * T at stride 700 and 0.19 * J * T at stride 1500
        assert bound_curve(BoundSpec(wsd(bounds.LONG_HORIZON, 0.2)), stride=stride).noise_kernel == kernel

    @pytest.mark.parametrize(
        "sched",
        [
            wsd(bounds.LONG_HORIZON, 0.2),
            wsd(bounds.LONG_HORIZON, 0.2, CooldownShape.ONE_MINUS_SQRT),
            cosine(bounds.LONG_HORIZON),
        ],
        ids=["wsd-linear", "wsd-1-sqrt", "cosine"],
    )
    def test_moment_inflow_matches_direct_nodes(self, monkeypatch, sched):
        curve = bound_curve(BoundSpec(sched))
        monkeypatch.setattr(expsum, "SMOOTH", 0.0)  # no node is smooth
        direct = bound_curve(BoundSpec(sched))
        assert curve.noise_kernel == direct.noise_kernel == bounds.EXP_SUM
        assert np.max(np.abs(curve.values / direct.values - 1.0)) <= 1e-15

    @given(
        rows=st.integers(1, 6),
        L=st.integers(1, 300),
        fractions=st.lists(st.floats(1e-12, 1e3), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_moment_recurrence_equals_cumprod(self, rows, L, fractions, seed):
        rng = np.random.default_rng(seed)
        steps = rng.uniform(0.01, 1.0, size=(rows, L)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
        g = np.cumsum(steps[:, ::-1], axis=1)[:, ::-1]
        q = rng.uniform(0.0, 1.0, size=(rows, L))
        # nodes up to 1000 times past the smooth class weight the high moments, so a changed bit shows
        a = np.sort(expsum.SMOOTH / g[:, 0].max() * np.array(fractions))
        assert np.array_equal(expsum._moment_inflow(q, g, a), _cumprod_moment_inflow(q, g, a))

    def test_moment_inflow_holds_its_truncation_bound(self):
        # a_j * span = SMOOTH at the first node, the edge of the smooth class
        truncation = (expsum.SMOOTH / 2) ** expsum.TAYLOR / math.factorial(expsum.TAYLOR) * math.exp(expsum.SMOOTH)
        rng = np.random.default_rng(31)
        for _ in range(10):
            L = int(rng.integers(2, 80))
            steps = rng.uniform(0.01, 1.0, size=(4, L)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(4, 1))
            g = np.cumsum(steps[:, ::-1], axis=1)[:, ::-1]
            q = rng.uniform(0.0, 1.0, size=(4, L))
            a = expsum.SMOOTH / g[:, 0].max() * np.array([1.0, 0.9, 0.5, 1e-2, 1e-8])
            inflow = expsum._moment_inflow(q, g, a)
            with localcontext() as ctx:
                ctx.prec = 40
                for b, j in np.ndindex(inflow.shape):
                    exact = sum(Decimal(qk) * (Decimal(-a[j]) * Decimal(gk)).exp() for qk, gk in zip(q[b], g[b]))
                    assert abs(Decimal(inflow[b, j]) / exact - 1) <= truncation + 8 * 2.0**-52, (b, j)

    @pytest.mark.parametrize("shape", [CooldownShape.LINEAR, CooldownShape.ONE_MINUS_SQRT])
    def test_long_wsd_rows_match_exact_oracle(self, shape):
        sched = wsd(bounds.LONG_HORIZON, 0.2, shape)
        curve = bound_curve(BoundSpec(sched))
        assert curve.noise_kernel == bounds.EXP_SUM
        for row in (2, 1600, 1999):  # 1999 is the last row from the exp-sum kernel
            exact = exact_noise(sched.values, int(curve.t[row]))
            assert abs(Decimal(curve.noise_terms[row]) / exact - 1) <= 1e-14, row

    def test_curve_memory(self):
        T = bounds.LONG_HORIZON
        spec = BoundSpec(wsd(T, 0.2))
        tracemalloc.start()
        try:
            bound_curve(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * T * 8

    def test_best_iterate_curve_on_suffix_sum_path(self):
        T = bounds.LONG_HORIZON
        sched = wsd(T, 0.3, CooldownShape.ONE_MINUS_SQRT)
        grad = GradNormModel(G=1.3, alpha=-0.5)
        curve = best_iterate_curve(BoundSpec(sched, grad, 0.7))
        assert curve.noise_kernel == bounds.RUNNING_SUM
        rows = [int(t) for t in curve.t]
        eta = [float(x).as_integer_ratio() for x in sched.values]
        g = [float(x).as_integer_ratio() for x in grad.values(T)]
        q = [((en * gn) ** 2, (ed * gd) ** 2) for (en, ed), (gn, gd) in zip(eta, g)]
        S = exact_prefix_sums(eta, rows)
        Q = exact_prefix_sums(q, rows)
        for i in range(len(rows)):
            assert rel_err(curve.dist_terms[i], Fraction(0.7) ** 2 / (2 * S[i])) <= 1e-15, rows[i]
            assert rel_err(curve.noise_terms[i], Q[i] / (2 * S[i])) <= 1e-15, rows[i]
        assert (curve.dist_final, curve.noise_final) == best_iterate_terms(sched, grad, 0.7)


class TestMirror:
    def test_euclidean_specialization_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            T = int(rng.integers(2, 300))
            sched = random_schedule(rng, T)
            D = float(rng.uniform(0.3, 2.0))
            gamma = float(rng.uniform(0.05, 2.0))
            grad = GradNormModel(G=float(rng.uniform(0.3, 2.0)))
            mirror = MirrorSpec(bregman_init=D * D / 2.0, mu=1.0, dual_grad_norms=grad)
            lhs = mirror_bound(mirror, sched, gamma=gamma)
            rhs = bound_value(BoundSpec(sched, grad, D, gamma))
            assert lhs == rhs  # bit-identical by construction

    def test_strong_convexity_scales_noise(self):
        sched = wsd(50, 0.3)
        m1 = MirrorSpec(bregman_init=0.5, mu=1.0)
        m2 = MirrorSpec(bregman_init=0.5, mu=2.0)
        b1 = mirror_bound(m1, sched, gamma=0.2)
        b2 = mirror_bound(m2, sched, gamma=0.2)
        dist, noise = bound_terms(sched)
        assert b1 - b2 == pytest.approx(0.2 * noise / 2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            MirrorSpec(bregman_init=-1.0)
        with pytest.raises(ValueError):
            MirrorSpec(bregman_init=0.5, mu=0.0)


@settings(max_examples=20)
@given(
    T=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_gamma_schedule_rescaling_invariance(T, seed):
    # scaling the schedule by s and gamma by 1/s leaves the bound unchanged
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.1, 1.0, size=T)
    s = float(rng.uniform(0.1, 10.0))
    gamma = float(rng.uniform(0.05, 2.0))
    base = bound_value(BoundSpec(Schedule(vals), GradNormModel(), 1.0, gamma))
    scaled = bound_value(BoundSpec(Schedule(s * vals), GradNormModel(), 1.0, gamma / s))
    assert scaled == pytest.approx(base, rel=1e-12)
