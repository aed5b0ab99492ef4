import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    double_sum_terms,
    exponential_sums,
    harmonic_numbers,
    prefix_sum_terms,
    rel_err,
    single_sum_noise,
    single_sum_terms,
)

from schedbound import bounds, expsum
from schedbound.bounds import (
    GradNormModel,
    best_iterate_curve,
    bound_curve,
    bound_terms,
    bound_value,
    constant_bound_exact,
    default_stride,
    harmonic,
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
    polynomial_decay,
    with_cooldown,
    wsd,
)


ORACLE_T = 240
# the size of the long-horizon tests, a constant of their own so that they
# keep T = 100000 whatever becomes of bounds.LONG_HORIZON
LONG_T = 100_000
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
    return wsd(T, 1.0)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(5) == pytest.approx(137.0 / 60.0, rel=1e-15)  # measured 0

    def test_large_oracle(self):
        assert harmonic(10**5 - 1) == pytest.approx(12.090136129863428, rel=1e-15)  # measured 0

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
        bounds._harmonic.cache_clear()  # a cached H_n would skip the narrower path
        for n in (1, 7, bounds.HARMONIC_BLOCK + 3, 40000):
            assert harmonic(n) == math.fsum(1.0 / k for k in range(1, n + 1))

    def test_memory_stays_blockwise(self):
        bounds._harmonic.cache_clear()  # a cached H_n would allocate nothing
        tracemalloc.start()
        try:
            harmonic(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n", [True, False, 1.0, 3.5, -1, np.int64(-2)])
    def test_bad_n_raises_even_with_a_cached_value(self, n):
        harmonic(0), harmonic(1)  # a cache keyed on the raw argument would answer True == 1
        with pytest.raises(ValueError, match="n for the harmonic number H_n"):
            harmonic(n)

    def test_repeated_n_is_computed_once(self):
        bounds._harmonic.cache_clear()
        assert [harmonic(n) for n in (99999, 20001, 99999, np.int64(99999))] == [harmonic(n) for n in (99999, 20001, 99999, 99999)]
        assert bounds._harmonic.cache_info().misses == 2

    def test_array_matches_scalar(self):
        hs = harmonic_numbers(50)
        assert hs[0] == 0.0
        for n in (1, 7, 50):
            assert hs[n] == pytest.approx(harmonic(n), rel=1e-15)  # measured 0

    def test_array_within_one_ulp_of_exact(self):
        # compensated prefix sums; a plain cumsum is up to 5.1e-14 off at n = 10**6
        hs = harmonic_numbers(10**6)
        sampled = np.random.default_rng(41).integers(1, 10**6, size=30)
        for n in [1, 2, 3, bounds.HARMONIC_BLOCK, 10**5, 10**6, *sampled]:
            exact = harmonic(int(n))
            assert abs(hs[n] - exact) <= math.ulp(exact), n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, "3", None])
    def test_non_integer_rejected(self, n):
        with pytest.raises(ValueError, match="integer n"):
            harmonic(n)

    def test_numpy_integer_accepted(self):
        assert harmonic(np.int64(5)) == harmonic(5)


class TestGradNormModel:
    def test_flat(self):
        m = GradNormModel(G=2.0)
        assert np.array_equal(m.values(3), [2.0, 2.0, 2.0])

    def test_decaying(self):
        m = GradNormModel(G=2.0, alpha=-0.5)
        assert np.allclose(m.values(4), 2.0 / np.sqrt([1.0, 2.0, 3.0, 4.0]), rtol=1e-15, atol=0.0)  # measured 1.9e-16

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
            ({"alpha": math.inf}, "gradient norm exponent must be finite"),
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
            bound_curve(constant(4), D=value)
        with pytest.raises(ValueError, match="base learning rate gamma"):
            bound_value(constant(4), value)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_mirror_spec(self, value):
        with pytest.raises(ValueError, match="initial Bregman divergence"):
            mirror_bound(constant(4), 1.0, bregman_init=value)
        with pytest.raises(ValueError, match="strong-convexity modulus"):
            mirror_bound(constant(4), 1.0, bregman_init=0.5, mu=value)
        with pytest.raises(ValueError, match="base learning rate gamma"):
            mirror_bound(constant(4), value, bregman_init=0.5)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_terms_distance(self, value):
        # sweeps and transfers take D from the terms
        for terms in (bound_terms, best_iterate_curve):
            with pytest.raises(ValueError, match="initial distance D"):
                terms(constant(4), D=value)

    # a valid schedule whose last step vanishes against the prefix sum: S_400 - S_399 rounds to 0
    TINY_TAIL = Schedule(np.r_[np.ones(399), 1e-14])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call",
        [
            lambda s: bound_terms(s),
            lambda s: bound_curve(s, stride=1),
            lambda s: mirror_bound(s, 1.0, bregman_init=0.5),
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
        assert dist == pytest.approx(0.125, rel=1e-15)  # measured 0
        assert noise == pytest.approx(17.0 / 12.0, rel=1e-15)  # measured 1.6e-16
        assert bound_value(constant(4), 1.0, GradNormModel(), 1.0) == pytest.approx(0.125 + 17.0 / 12.0, rel=1e-15)  # measured 1.4e-16

    def test_single_step(self):
        # T=1: no cross terms; dist = 1/(2 eta), noise = eta G^2 / 2
        dist, noise = bound_terms(Schedule(np.array([0.5])), GradNormModel(G=3.0), D=2.0)
        assert dist == pytest.approx(4.0, rel=1e-15)  # measured 0
        assert noise == pytest.approx(0.5 * 0.25 * 9.0 / 0.5, rel=1e-15)  # measured 0

    def test_matches_double_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            T = int(rng.integers(1, 160))
            sched = random_schedule(rng, T)
            grad = GradNormModel(G=float(rng.uniform(0.2, 3.0)), alpha=float(rng.uniform(-1.0, 0.0)))
            D = float(rng.uniform(0.2, 3.0))
            dist, noise = bound_terms(sched, grad, D)
            exact_dist, exact_noise = double_sum_terms(sched.values, grad.values(T), D, T)
            # measured at most 1.9e-15 (dist) and 1.2e-12 (noise, prefix differences) over 300 draws
            assert rel_err(dist, exact_dist) <= 8e-15
            assert rel_err(noise, exact_noise) <= 5e-12

    def test_intermediate_horizon_matches_truncation(self):
        sched = wsd(30, 0.3)
        for t in (1, 7, 30):
            # the kernel reads the first t steps only, so the terms are bit-identical
            assert bound_terms(sched, t=t) == bound_terms(Schedule(sched.values[:t]))

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
            assert bound_value(sched, gamma, GradNormModel(), 1.0) == pytest.approx(dist / gamma + gamma * noise, rel=1e-15)  # measured 0

    def test_optimal_gamma_first_order(self):
        sched = wsd(80, 0.25)
        g = optimal_gamma(sched)
        dist, noise = bound_terms(sched)
        assert g == pytest.approx(math.sqrt(dist / noise), rel=1e-15)  # measured 0
        assert tuned_bound(sched) == pytest.approx(2.0 * math.sqrt(dist * noise), rel=1e-15)  # measured 0

    @given(gamma=st.floats(min_value=1e-3, max_value=1e3))
    def test_tuned_is_minimum(self, gamma):
        sched = wsd(40, 0.5)
        # at most -3.6e-7 relative over 300 draws; the slack is the rounding of both sides at gamma*
        assert tuned_bound(sched) <= bound_value(sched, gamma, GradNormModel(), 1.0) * (1.0 + 2e-15)

    def test_scale_covariance(self):
        # dist scales with D^2, noise with G^2
        sched = wsd(60, 0.3)
        d1, n1 = bound_terms(sched, GradNormModel(G=1.0), D=1.0)
        d2, n2 = bound_terms(sched, GradNormModel(G=3.0), D=2.0)
        assert d2 == pytest.approx(4.0 * d1, rel=1e-15)  # measured 0
        assert n2 == pytest.approx(9.0 * n1, rel=1e-14)  # measured 4.6e-15


class TestCurves:
    def test_dense_curve_matches_pointwise(self):
        sched = wsd(25, 0.4)
        gamma = 0.1
        curve = bound_curve(sched, GradNormModel(), 1.0, stride=1).at_gamma(gamma)
        assert np.array_equal(curve.t, np.arange(1, 26))
        for i, t in enumerate(curve.t):
            dist, noise = bound_terms(sched, t=int(t))
            assert curve.values[i] == pytest.approx(dist / gamma + gamma * noise, rel=1e-15)  # measured 0
        assert curve.value_final == curve.values[-1]
        assert curve.dist_final == curve.dist_terms[-1]
        assert curve.noise_final == curve.noise_terms[-1]

    def test_strided_curve_includes_final_horizon(self):
        sched = constant(103)
        curve = bound_curve(sched, GradNormModel(), 1.0, stride=10).at_gamma(0.1)
        assert curve.t[0] == 1
        assert curve.t[-1] == 103
        assert np.all(np.diff(curve.t) > 0)

    @pytest.mark.parametrize("curve_of", [bound_curve, best_iterate_curve])
    def test_stride_beyond_the_horizon_gives_the_rows_of_stride_T(self, curve_of):
        # any stride from T on gives the rows 1 and T, also one past numpy's index range
        sched = wsd(103, 0.2)
        at_T = curve_of(sched, stride=103)
        for stride in (104, 2**63, 10**20):
            curve = curve_of(sched, stride=stride)
            assert curve.t.tolist() == [1, 103]
            assert (curve.dist_terms.tobytes(), curve.noise_terms.tobytes()) == (at_T.dist_terms.tobytes(), at_T.noise_terms.tobytes())
        assert curve_of(constant(1), stride=10**20).t.tolist() == [1]

    def test_default_stride(self):
        assert default_stride(100) == 1
        assert default_stride(2000) == 1
        assert default_stride(4000) == 2
        assert default_stride(100000) == 50

    def test_direct_rows_equal_bound_terms(self):
        sched, grad = wsd(400, 0.2), GradNormModel(1.3, -0.5)
        curve = bound_curve(sched, grad, 0.7, stride=20)
        assert curve.noise_kernel == bounds.PREFIX_DIFFERENCE
        for t, dist, noise in zip(curve.t, curve.dist_terms, curve.noise_terms):
            assert (dist, noise) == bound_terms(sched, grad, 0.7, int(t)), t

    @pytest.mark.parametrize(
        "fixture, kernel",
        [(None, bounds.PREFIX_DIFFERENCE), ("suffix_sum_kernel", bounds.SUFFIX_SUM), ("exp_sum_kernel", bounds.EXP_SUM)],
    )
    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEDULES))
    def test_curve_comes_at_optimal_gamma(self, request, name, alpha, fixture, kernel):
        if fixture is not None:
            request.getfixturevalue(fixture)
        sched, grad = ORACLE_SCHEDULES[name], GradNormModel(G=1.3, alpha=alpha)
        curve = bound_curve(sched, grad, 0.7, stride=7)
        assert curve.noise_kernel == kernel
        assert curve.gamma == optimal_gamma(sched, grad, 0.7)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEDULES))
    def test_best_iterate_curve_comes_at_its_optimal_gamma(self, name, alpha):
        sched, grad = ORACLE_SCHEDULES[name], GradNormModel(G=1.3, alpha=alpha)
        curve = best_iterate_curve(sched, grad, 0.7, stride=7)
        assert curve.gamma == math.sqrt(curve.dist_final / curve.noise_final)
        [(dist, noise)] = prefix_sum_terms(sched.values, grad.values(sched.horizon), 0.7, [sched.horizon])
        assert rel_err(curve.gamma, math.sqrt(dist / noise)) <= 1e-15  # measured 2.0e-16


class TestBestIterate:
    def test_constant_T4_oracle(self):
        # S=4, Q=4: dist = 1/8, noise = 4/8
        curve = best_iterate_curve(constant(4))
        assert curve.dist_final == pytest.approx(0.125, rel=1e-15)  # measured 0
        assert curve.noise_final == pytest.approx(0.5, rel=1e-15)  # measured 0

    def test_below_last_iterate(self):
        # dropping the cross terms can only shrink the noise half
        sched = wsd(60, 0.3)
        _, noise_last = bound_terms(sched)
        assert best_iterate_curve(sched).noise_final < noise_last

    def test_curve_runs(self):
        curve = best_iterate_curve(wsd(40, 0.2), GradNormModel(), 1.0, stride=1).at_gamma(0.1)
        assert len(curve.t) == 40
        assert np.all(np.isfinite(curve.values))


class TestClosedForms:
    def test_constant_matches_tuned_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            T = int(rng.integers(1, 2001))
            D = float(rng.uniform(0.5, 2.0))
            G = float(rng.uniform(0.5, 2.0))
            closed = D * G * constant_bound_exact(T)
            numeric = tuned_bound(constant(T), GradNormModel(G=G), D)
            assert closed == pytest.approx(numeric, rel=2.5e-13)  # measured 6.4e-14 over 200 draws

    def test_constant_T1(self):
        # single step: dist = 1/2, noise = 1/2 -> tuned = 1; H_0 = 0
        assert constant_bound_exact(1) == pytest.approx(1.0, rel=1e-15)  # measured 0

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
            assert closed >= numeric, (T, T0)  # at least 3.0e-4 above, relative, over 400 draws

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
        assert linear_decay_bound_exact(1) == pytest.approx(5.0 / 3.0, rel=1e-15)  # measured 0
        for T in (10, 100, 1500):
            closed = linear_decay_bound_exact(T)
            numeric = tuned_bound(wsd(T, 1.0))
            assert closed >= numeric  # at least 2.8e-4 above, relative
            assert closed == pytest.approx(numeric, rel=0.2)

    def test_polynomial_approx_formula(self):
        assert 2.0 * 3.0 * polynomial_bound_approx(100, 1.0) == pytest.approx(
            2.0 * 3.0 * 2.0 / math.sqrt(100.0), rel=1e-15
        )
        with pytest.raises(ValueError):
            polynomial_bound_approx(100, 0.0)


# every schedule family at horizon T >= 12 (extended needs room for its continuation)
FAMILIES = {
    "constant": constant,
    "wsd-linear": lambda T: wsd(T, 0.3),
    "wsd-1-sqrt": lambda T: wsd(T, 0.3, CooldownShape.ONE_MINUS_SQRT),
    "linear-decay": lambda T: wsd(T, 1.0),
    "one-minus-sqrt": lambda T: wsd(T, 1.0, CooldownShape.ONE_MINUS_SQRT),
    "cosine-restarts": lambda T: cosine(T, 0.1, 0.3),
    "inv-sqrt": inv_sqrt,
    "inv-sqrt-cooldown": lambda T: with_cooldown(inv_sqrt(T), 0.2),
    "polynomial": lambda T: polynomial_decay(T, 2.0),
    "extended": lambda T: extended(T // 2, 0.2, T, 0.5),
    "random": lambda T: Schedule(np.random.default_rng(T).uniform(0.1, 1.0, size=T)),
}


def in_new_thread(fn, *args):
    """fn(*args), called in a thread of its own and so in rows that start empty; what it raises is raised here."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()


def fresh(cases):
    """bound_terms(*case) for each case, each call in a new thread."""
    return [in_new_thread(bound_terms, *case) for case in cases]


class TestWorkspace:
    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from(sorted(FAMILIES)),
                st.integers(12, 300),  # T
                st.floats(0.0, 1.0),  # t / T
                st.sampled_from([0.0, -0.5]),  # gradient norm exponent
            ),
            min_size=1,
            max_size=6,
        ),
        long_horizon=st.integers(1, 301),
    )
    def test_reused_rows_equal_fresh_rows_bit_for_bit(self, calls, long_horizon):
        # LONG_HORIZON in 1..301 sends the horizons to the suffix-sum kernel,
        # to prefix differences, or to both in one thread's rows; the calls run
        # forth and back, so the rows are reused for longer and shorter
        # horizons, and each follows a call that raised after filling them.
        # The fresh calls come last: freed arrays of theirs could otherwise
        # hand the reused rows the right values by chance
        def reused():
            cases, got = [], []
            for name, T, u, alpha in calls + calls[::-1]:
                sched, grad = FAMILIES[name](T), GradNormModel(1.3, alpha)
                t = max(1, round(u * T))
                with pytest.raises(ValueError, match="initial distance D"):
                    bound_terms(sched, grad, 1e200, t)
                cases.append((sched, grad, 0.7, t))
                got.append(bound_terms(*cases[-1]))
            return cases, got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "LONG_HORIZON", long_horizon)
            cases, got = in_new_thread(reused)
            assert got == fresh(cases)

    def test_rows_grow_and_are_kept(self):
        def calls():
            work = bounds._THREAD_ROWS
            got = [bound_terms(wsd(400, 0.2))]
            q = work.row("q", 400)
            got.append(bound_terms(wsd(200, 0.2)))
            assert np.shares_memory(work.row("q", 200), q)
            # the grown rows keep the 160 steps wsd(800) shares with wsd(200), in new memory
            got.append(bound_terms(wsd(800, 0.2)))
            assert work.row("q", 800).size == 800 and not np.shares_memory(work.row("q", 800), q)
            return got

        assert in_new_thread(calls) == fresh((wsd(T, 0.2),) for T in (400, 200, 800))

    def test_prefix_sums_are_not_taken_from_a_suffix_sum_call(self, monkeypatch):
        # wsd(400, 0.2) takes the suffix-sum kernel, which leaves S and Q as
        # wsd(250, 0.5) made them (right for 125 steps); wsd(250, 0.2) takes
        # prefix differences and shares 200 steps with wsd(400, 0.2)
        monkeypatch.setattr(bounds, "LONG_HORIZON", 300)
        cases = [(wsd(T, c),) for T, c in [(400, 0.5), (250, 0.5), (400, 0.2), (250, 0.2)]]
        assert in_new_thread(lambda: [bound_terms(*case) for case in cases]) == fresh(cases)

    def test_grown_prefix_sum_rows_keep_their_entries(self, monkeypatch):
        # wsd(400) (suffix-sum) sizes the G row and q for 400 steps; the second
        # wsd(200) call leaves S and Q holding its steps, and wsd(250), which
        # shares 160 of them, grows S and Q alone and recomputes them past those
        monkeypatch.setattr(bounds, "LONG_HORIZON", 300)
        cases = [(wsd(T, 0.2),) for T in [400, 200, 200, 250]]
        assert in_new_thread(lambda: [bound_terms(*case) for case in cases]) == fresh(cases)

    def test_next_schedule_recomputes_only_past_the_shared_steps(self, monkeypatch):
        # wsd(400, 0.2) and wsd(400, 0.5) are both 1.0 up to step 200
        formed = []  # the steps of each call that q is formed for
        q = bounds._q
        monkeypatch.setattr(bounds, "_q", lambda eta, *args: formed.append(eta.size) or q(eta, *args))
        grid = (0.2, 0.5, 0.3, 1.0, 0.3)

        def calls():
            bound_terms(wsd(400, 0.2))
            bound_terms(wsd(400, 0.2), t=300)
            bound_terms(wsd(400, 0.5))
            with pytest.raises(ValueError, match="initial distance D"):
                bound_terms(wsd(400, 0.5), D=1e200)
            bound_terms(wsd(400, 0.5), GradNormModel(1.3))  # a new model shares no steps
            assert formed == [400, 0, 200, 0, 400]
            return [bound_terms(wsd(400, c)) for c in grid], [optimal_gamma(wsd(400, c)) for c in grid]

        got, gammas = in_new_thread(calls)
        assert got == fresh((wsd(400, c),) for c in grid)
        assert gammas == [in_new_thread(optimal_gamma, wsd(400, c)) for c in grid]

    def test_a_call_that_raised_inside_the_rows_leaves_nothing_held(self, monkeypatch):
        # wsd(400, 0.5) shares 200 steps with wsd(300, 0.2); its q row is overwritten
        # past them before the longer G row it needs fails to build.  The suffix-sum
        # kernel reads q itself, where prefix differences read only S and Q
        monkeypatch.setattr(bounds, "LONG_HORIZON", 1)
        grad = GradNormModel(1.3)

        def calls():
            first = bound_terms(wsd(300, 0.2), grad)
            with monkeypatch.context() as mp:
                mp.setattr(GradNormModel, "values", lambda self, T: 1 / 0)
                with pytest.raises(ZeroDivisionError):
                    bound_terms(wsd(400, 0.5), grad)
            return first, bound_terms(wsd(300, 0.2), grad)

        first, again = in_new_thread(calls)
        assert again == first

    def test_g_row_follows_the_gradient_norms(self):
        sched = wsd(50, 0.2)
        cases = [(sched, grad) for grad in (GradNormModel(), GradNormModel(2.0), GradNormModel(2.0, -0.5), GradNormModel())]
        assert in_new_thread(lambda: [bound_terms(*case) for case in cases]) == fresh(cases)

    def test_threads_keep_their_own_rows(self):
        # two grids at once, one of them with a G row; rows shared by the two
        # threads would take q, S, Q and the held steps of one for the other's
        grids = {
            GradNormModel(): [wsd(16000, c) for c in np.linspace(0.05, 0.5, 40)],
            GradNormModel(1.0, -0.5): [wsd(16000, c, CooldownShape.ONE_MINUS_SQRT) for c in np.linspace(0.1, 1.0, 40)],
        }
        serial = {grad: [bound_terms(sched, grad) for sched in scheds] for grad, scheds in grids.items()}
        start = threading.Barrier(len(grids))

        def run(grad):
            start.wait()
            return [bound_terms(sched, grad) for sched in grids[grad]]

        with ThreadPoolExecutor(len(grids)) as pool:
            assert dict(zip(grids, pool.map(run, grids))) == serial


@pytest.mark.parametrize("grad", [GradNormModel(), GradNormModel(1.0, -0.5), GradNormModel(1.3)])
@pytest.mark.parametrize("name", ["wsd-linear", "random"])
@pytest.mark.parametrize("long_horizon", [bounds.LONG_HORIZON, 200])  # 200 sends T = 300 to the suffix sums
def test_unit_model_skips_only_multiplications_by_one(monkeypatch, name, grad, long_horizon):
    # the unit model leaves out q *= G twice; x * 1.0 == x, so every result is
    # the three-multiply one bit for bit, on each kernel
    monkeypatch.setattr(bounds, "LONG_HORIZON", long_horizon)
    sched = FAMILIES[name](300)
    T, ts = sched.horizon, (1, 2, 150, 299, 300)
    q, prefix = bounds._accumulators(sched.values, grad, bounds.Workspace())
    g = grad.values(T)
    q_ref = sched.values * sched.values * g * g
    assert q.tobytes() == q_ref.tobytes()
    if prefix is not None:
        assert prefix[0].tobytes() == np.cumsum([0.0, *sched.values]).tobytes()
        assert prefix[1].tobytes() == np.cumsum([0.0, *q_ref]).tobytes()

    def results():
        terms = [bound_terms(sched, grad, 0.7, t) for t in ts]
        curves = [bound_curve(sched, grad, stride=stride) for stride in (1, 7)]
        return terms, [(c.noise_kernel, c.dist_terms.tobytes(), c.noise_terms.tobytes()) for c in curves]

    got = results()
    monkeypatch.setattr(GradNormModel, "unit", property(lambda self: False))
    assert got == results()


def test_unit_model_builds_no_g_row(monkeypatch):
    # G_t = 1.0 under the unit model, so no bound path asks for the row of G_t
    def fail(self, T):
        raise AssertionError("G row built")

    monkeypatch.setattr(GradNormModel, "values", fail)
    sched = wsd(400, 0.2)
    bound_terms(sched)
    for stride in (1, 20):  # exp-sum and prefix differences
        bound_curve(sched, stride=stride)
        best_iterate_curve(sched, stride=stride)
    with pytest.raises(AssertionError, match="G row built"):
        bound_terms(sched, GradNormModel(1.3))


# the oracle families, and a last step that prefix differences lose against S_399
SUFFIX_SUM_SCHEDULES = {**ORACLE_SCHEDULES, "tiny-tail": TestNonFinite.TINY_TAIL}


@pytest.mark.parametrize("alpha", [0.0, -0.5])
@pytest.mark.parametrize("name", sorted(ORACLE_SCHEDULES))
def test_single_sum_oracle_equals_double_sum(name, alpha):
    eta, gvals = ORACLE_SCHEDULES[name].values, GradNormModel(G=1.3, alpha=alpha).values(ORACLE_T)
    rows = (1, 2, ORACLE_T // 2, ORACLE_T - 1, ORACLE_T)
    assert single_sum_terms(eta, gvals, 0.7, rows) == [double_sum_terms(eta, gvals, 0.7, t) for t in rows]


class TestLongHorizon:
    def test_extended_precision_path_matches_closed_form(self):
        # T = LONG_T, not below bounds.LONG_HORIZON, takes the suffix-sum kernel
        T = LONG_T
        numeric = tuned_bound(constant(T))
        closed = constant_bound_exact(T)
        assert numeric == pytest.approx(closed, rel=1e-15)  # measured 1.5e-16

    def test_short_and_long_paths_agree(self, monkeypatch):
        # the same schedules through the prefix-difference and the suffix-sum kernel
        scheds = [constant(400), wsd(400, 0.3)]
        short = [bound_terms(s) for s in scheds]
        assert bounds._noise_kernel(400) == bounds.PREFIX_DIFFERENCE
        monkeypatch.setattr(bounds, "LONG_HORIZON", 1)
        assert bounds._noise_kernel(400) == bounds.SUFFIX_SUM
        for (dist64, noise64), sched in zip(short, scheds):
            dist, noise = bound_terms(sched)
            assert dist == pytest.approx(dist64, rel=1e-15)  # measured 0
            assert noise == pytest.approx(noise64, rel=1e-12)  # measured 3.2e-13, the prefix differences' error

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    @pytest.mark.parametrize("name", sorted(SUFFIX_SUM_SCHEDULES))
    def test_suffix_sum_matches_fraction_oracle(self, suffix_sum_kernel, name, alpha):
        sched, grad = SUFFIX_SUM_SCHEDULES[name], GradNormModel(G=1.3, alpha=alpha)
        T = sched.horizon
        rows = (1, 2, T // 2, T - 1, T)
        for t, (exact_dist, exact_noise) in zip(rows, single_sum_terms(sched.values, grad.values(T), 0.7, rows)):
            dist, noise = bound_terms(sched, grad, 0.7, t)
            assert rel_err(dist, exact_dist) <= 1e-15, t  # measured 2.1e-16
            assert rel_err(noise, exact_noise) <= 2.5e-15, t  # measured 6.2e-16

    def test_mirror_bound_bit_identical_on_suffix_sum_path(self, suffix_sum_kernel):
        rng = np.random.default_rng(19)
        for _ in range(20):
            T = int(rng.integers(1, 300))
            sched = random_schedule(rng, T)
            D = float(rng.uniform(0.3, 3.0))
            gamma = float(rng.uniform(0.01, 2.0))
            grad = GradNormModel(G=float(rng.uniform(0.3, 2.0)), alpha=float(rng.uniform(-1.0, 0.0)))
            mirror = mirror_bound(sched, gamma, bregman_init=D * D / 2.0, mu=1.0, dual_grad_norms=grad)
            assert mirror == bound_value(sched, gamma, grad, D=D)

    def test_constant_curve_on_suffix_sum_path(self):
        # noise of the constant schedule at horizon t is (1 + H_{t-1}) / 2
        sched = constant(LONG_T)
        curve = bound_curve(sched, stride=10_000)
        assert curve.noise_kernel == bounds.SUFFIX_SUM
        for t, noise in zip(curve.t, curve.noise_terms):
            assert noise == pytest.approx((1.0 + harmonic(int(t) - 1)) / 2.0, rel=1e-15)  # measured 1.4e-16
        assert (curve.dist_final, curve.noise_final) == bound_terms(sched)


def assert_best_iterate_rows_exact(sched, grad, stride, tol):
    """Every row of the best-iterate curve within tol of exact prefix sums; the last row, the terms at T, is the same at every stride."""
    curve = best_iterate_curve(sched, grad, 0.7, stride=stride)
    assert curve.noise_kernel == bounds.RUNNING_SUM
    rows = [int(t) for t in curve.t]
    exact = prefix_sum_terms(sched.values, grad.values(sched.horizon), 0.7, rows)
    for t, dist, noise, (exact_dist, exact_noise) in zip(rows, curve.dist_terms, curve.noise_terms, exact):
        assert rel_err(dist, exact_dist) <= tol, t
        assert rel_err(noise, exact_noise) <= tol, t
    last = best_iterate_curve(sched, grad, 0.7, stride=sched.horizon)
    assert (curve.dist_final, curve.noise_final) == (last.dist_final, last.noise_final)


@pytest.fixture
def no_horizon(monkeypatch):
    """Fail any call of the direct kernels' per-horizon evaluation."""

    def fail(*args):
        raise AssertionError("_horizon called")

    monkeypatch.setattr(bounds, "_horizon", fail)


@pytest.fixture
def exp_sum_kernel(monkeypatch):
    """Send every curve with more than two horizons through the exp-sum kernel."""
    monkeypatch.setattr(bounds, "LONG_HORIZON", 1)
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


def _chunk_exponentials(qs, steps, m, neg_a, start, w):
    """What curve_noise takes from exponentials for a chunk of len(qs) groups, from u rows of steps.

    The live inflow sum_k q_k exp(-a g_k), the far field w . (exp(-a (S_t - S_{t_0})) start) and
    the expm1 rows of each group, formed as the kernel forms them from u rows of gaps.
    """
    (nc, _, L), u = qs.shape, len(steps)
    own = np.arange(L) < L // m * np.arange(1, m + 1)[:, None]
    gaps = np.cumsum((steps * own)[..., ::-1], axis=2)[..., ::-1]
    inflow = np.matmul(qs, expsum._clamped_exp(np.multiply.outer(gaps[:, -1], neg_a)))
    decay = np.empty((nc, m, neg_a.size))
    expsum._clamped_exp(np.multiply.outer(gaps[:, :, 0], neg_a, out=decay[:u]))
    decay[u:] = decay[0]
    decay *= start[:, None, :]
    lost = np.expm1(np.multiply.outer(gaps[:, -1, 0], neg_a))
    return inflow, decay @ w, lost[np.arange(nc) % u]


class TestExpSum:
    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEDULES))
    def test_every_row_matches_fraction_oracle(self, exp_sum_kernel, name, alpha, stride):
        # stride 7 ends on a 1-step block (239 -> 240) and a part-filled group of horizons
        sched, grad = ORACLE_SCHEDULES[name], GradNormModel(G=1.3, alpha=alpha)
        curve = bound_curve(sched, grad, 0.7, stride=stride)
        assert curve.noise_kernel == bounds.EXP_SUM
        assert curve.t[-1] == ORACLE_T
        rows = [int(t) for t in curve.t]
        exact = single_sum_terms(sched.values, grad.values(ORACLE_T), 0.7, rows)
        for t, dist, noise, (exact_dist, exact_noise) in zip(rows, curve.dist_terms, curve.noise_terms, exact):
            # measured at most 1.7e-16 (dist) and 1.2e-15 (noise) over these 36 curves
            assert rel_err(dist, exact_dist) <= 5e-16, t
            assert rel_err(noise, exact_noise) <= 4e-15, t

    @pytest.mark.parametrize("x_min, x_max", [(1.0, 1e5), (0.05, 5e4), (1e-3, 1e3), (1e-5, 1e6)])
    def test_nodes_invert_x_on_their_range(self, x_min, x_max):
        a = expsum.nodes(x_min, x_max)
        x = np.geomspace(x_min, x_max, 4001)
        approx = np.exp(-np.multiply.outer(x, a)) @ (expsum.STEP * a)
        assert np.max(np.abs(approx * x - 1.0)) <= 5e-15  # measured 1.2e-15

    def test_long_curve_evaluates_only_the_last_horizon_directly(self, monkeypatch):
        calls = []
        horizon = bounds._horizon

        def counted(*args):
            calls.append(args[3])
            return horizon(*args)

        monkeypatch.setattr(bounds, "_horizon", counted)
        sched = wsd(LONG_T, 0.2)
        curve = bound_curve(sched)
        assert curve.noise_kernel == bounds.EXP_SUM
        assert len(curve.t) == 2001
        assert calls == [LONG_T]
        assert (curve.dist_final, curve.noise_final) == bound_terms(sched)

    @pytest.mark.parametrize("stride", [None, 1])
    def test_constant_curve_holds_every_row_at_scale(self, stride):
        # noise of the constant schedule at horizon t is (1 + H_{t-1}) / 2; at
        # stride 1 the state is carried across about 1,600 groups of horizons
        T = LONG_T
        sched = constant(T)
        curve = bound_curve(sched, stride=stride)
        assert curve.noise_kernel == bounds.EXP_SUM
        exact = (1.0 + harmonic_numbers(T)[curve.t - 1]) / 2.0
        # measured 6.7e-16 at the default stride and 8.9e-16 at stride 1; about 4x margin
        assert np.max(np.abs(curve.noise_terms / exact - 1.0)) <= 4e-15
        assert np.array_equal(curve.dist_terms, 0.5 / curve.t)
        assert (curve.dist_final, curve.noise_final) == bound_terms(sched)

    @pytest.mark.parametrize(
        "T, stride, kernel",
        [
            pytest.param(LONG_T, 700, bounds.EXP_SUM, id="700-exp-sum"),
            pytest.param(LONG_T, 1500, bounds.SUFFIX_SUM, id="1500-suffix-sum"),
            pytest.param(400, 1, bounds.EXP_SUM, id="T400-1-exp-sum"),
            pytest.param(400, 20, bounds.PREFIX_DIFFERENCE, id="T400-20-prefix-difference"),
        ],
    )
    def test_kernel_follows_pair_count(self, T, stride, kernel):
        # sum(t) is 0.38 * J * T at stride 700 and 0.19 * J * T at stride 1500 (T = 100000),
        # 1.02 * J * T at stride 1 and 0.061 * J * T at stride 20 (T = 400)
        assert bound_curve(wsd(T, 0.2), stride=stride).noise_kernel == kernel

    @pytest.mark.parametrize(
        "sched",
        [
            wsd(LONG_T, 0.2),
            wsd(LONG_T, 0.2, CooldownShape.ONE_MINUS_SQRT),
            cosine(LONG_T),
        ],
        ids=["wsd-linear", "wsd-1-sqrt", "cosine"],
    )
    def test_moment_inflow_matches_direct_nodes(self, monkeypatch, sched):
        curve = bound_curve(sched)
        monkeypatch.setattr(expsum, "SMOOTH", 0.0)  # no node is smooth
        direct = bound_curve(sched)
        assert curve.noise_kernel == direct.noise_kernel == bounds.EXP_SUM
        assert np.max(np.abs(curve.values / direct.values - 1.0)) <= 1e-15  # measured 4.4e-16

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
        assert np.array_equal(expsum._moment_inflow(q, g, a, rows), _cumprod_moment_inflow(q, g, a))

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
            inflow, exact = expsum._moment_inflow(q, g, a, 4), exponential_sums(q, g, a)
            for b, j in np.ndindex(inflow.shape):
                assert rel_err(inflow[b, j], exact[b][j]) <= truncation + 8 * 2.0**-52, (b, j)

    @pytest.mark.parametrize("shape", [CooldownShape.LINEAR, CooldownShape.ONE_MINUS_SQRT])
    def test_long_wsd_rows_match_exact_oracle(self, shape):
        sched = wsd(LONG_T, 0.2, shape)
        curve = bound_curve(sched)
        assert curve.noise_kernel == bounds.EXP_SUM
        for row in (2, 1600, 1999):  # 1999 is the last row from the exp-sum kernel
            exact = single_sum_noise(sched.values, np.ones(sched.horizon), [int(curve.t[row])], digits=60)
            assert rel_err(curve.noise_terms[row], exact[0]) <= 8e-15, row  # measured 2.2e-15

    @given(
        nc=st.integers(2, 8),
        m=st.integers(1, 4),
        stride=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_exponentials_equal_per_group_ones(self, nc, m, stride, seed):
        # groups with equal steps take their exponentials from one row; broadcast
        # over the chunk they must be the per-group ones bit for bit
        rng = np.random.default_rng(seed)
        L, J = m * stride, int(rng.integers(1, 260))
        steps = rng.uniform(0.01, 1.0, size=(nc, 1, L)) * 10.0 ** rng.uniform(-3.0, 3.0)
        qs = rng.uniform(0.0, 1.0, size=(nc, 1, L)) * (rng.uniform(size=(nc, 1, L)) < 0.9)  # q >= 0, some 0
        neg_a = -np.sort(10.0 ** rng.uniform(-4.0, 3.0, size=J)) / L
        start, w = rng.uniform(0.0, 1.0, size=(nc, J)), rng.uniform(0.0, 1.0, size=J)
        same = np.repeat(steps[:1], nc, axis=0)
        shared = _chunk_exponentials(qs, steps[:1], m, neg_a, start, w)
        for got, want in zip(shared, _chunk_exponentials(qs, same, m, neg_a, start, w)):
            assert np.array_equal(got, want)
        # control, distinct steps: a group's own row gives its row of the chunk, and row 0 does not
        chunk = _chunk_exponentials(qs, steps, m, neg_a, start, w)
        for b in range(nc):
            alone = _chunk_exponentials(qs[b : b + 1], steps[b : b + 1], m, neg_a, start[b : b + 1], w)
            for got, want in zip(alone, chunk):
                assert np.array_equal(got[0], want[b])
        if -neg_a[0] * steps.sum(axis=2).max() < expsum.CLAMP:  # else every far-field exponential is clamped, equal in all groups
            assert not np.array_equal(_chunk_exponentials(qs, steps[:1], m, neg_a, start, w)[1], chunk[1])

    @given(
        nc=st.integers(2, 8),
        m=st.integers(1, 4),
        stride=st.integers(1, 80),
        J=st.integers(16, 260),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_sources_equal_per_group_ones(self, nc, m, stride, J, seed):
        # groups with equal steps and equal q take their near field, live inflow and moment
        # inflow from one row; broadcast over the chunk they must be the per-group ones bit for bit
        rng = np.random.default_rng(seed)
        L = m * stride
        steps = rng.uniform(0.01, 1.0, size=(1, 1, L)) * 10.0 ** rng.uniform(-3.0, 3.0)
        qs = rng.uniform(0.0, 1.0, size=(nc, 1, L)) * (rng.uniform(size=(nc, 1, L)) < 0.9)  # q >= 0, some 0
        own = np.arange(L) < stride * np.arange(1, m + 1)[:, None]
        gaps = np.cumsum((steps * own)[..., ::-1], axis=2)[..., ::-1]
        g = gaps[0, -1]
        # nodes from deep in the smooth class to past the dead edge: every class has some
        smooth_edge, dead_edge = expsum.SMOOTH / g[0], expsum.CLAMP / g.min()
        a = np.geomspace(1e-3 * smooth_edge, 1e3 * dead_edge, J)
        assert (a <= smooth_edge).any() and ((a > smooth_edge) & (a < dead_edge)).any() and (a >= dead_edge).any()

        def sums(q, gaps):
            inflow = np.zeros((nc, J))
            return np.broadcast_to(expsum._own_sums(q, gaps, own, a, inflow), (nc, m)), inflow

        per_group = np.repeat(gaps, nc, axis=0)
        shared = sums(qs[:1], gaps)
        for got, want in zip(shared, sums(np.repeat(qs[:1], nc, axis=0), per_group)):
            assert np.array_equal(got, want)
        # distinct q on shared gaps are the per-group sums too, and the first row's are not theirs
        chunk = sums(qs, gaps)
        for got, want in zip(chunk, sums(qs, per_group)):
            assert np.array_equal(got, want)
        if not (qs == qs[0]).all():
            assert not np.array_equal(shared[0], chunk[0])

    @pytest.mark.parametrize(
        "sched, alpha",
        [
            (constant(LONG_T), 0.0),
            (constant(LONG_T), -0.5),
            (cosine(LONG_T), 0.0),
            (wsd(LONG_T, 0.2), 0.0),
        ],
        ids=["constant", "constant-alpha", "cosine", "wsd"],
    )
    def test_groups_share_sources_only_when_steps_and_q_are_equal(self, monkeypatch, sched, alpha):
        chunks = []  # (rows of q, rows of gaps, groups) of every chunk
        own_sums = expsum._own_sums

        def spy(qs, gaps, own, a, inflow):
            chunks.append((len(qs), len(gaps), len(inflow)))
            return own_sums(qs, gaps, own, a, inflow)

        monkeypatch.setattr(expsum, "_own_sums", spy)
        grad = GradNormModel(alpha=alpha)
        curve = bound_curve(sched, grad)
        assert curve.noise_kernel == bounds.EXP_SUM
        rows = (1000, 1999)  # 1999 is the last row from the exp-sum kernel
        exact = single_sum_noise(sched.values, grad.values(sched.horizon), [int(curve.t[row]) for row in rows], digits=60)
        for row, value in zip(rows, exact):
            assert rel_err(curve.noise_terms[row], value) <= 8e-15, row  # measured at most 1.4e-15
        q = sched.values**2 * grad.values(sched.horizon) ** 2
        shared = [n for v, u, n in chunks if v == 1 < n]
        assert all(u == 1 for v, u, n in chunks if v == 1)
        if q.min() == q.max():  # constant at alpha 0: every chunk of more than one group shares
            assert len(shared) == sum(n > 1 for _, _, n in chunks) > 0
        elif sched.values.min() == sched.values.max():  # equal steps, but q = eta^2 G_t^2 is not
            assert shared == [] and all(u == 1 for _, u, n in chunks if n > 1)
        elif sched.values[0] > sched.values[1]:  # cosine: no two groups have equal steps
            assert shared == []
        else:  # wsd: the flat phase shares, the cooldown does not
            assert 0 < len(shared) < len(chunks)

    @pytest.mark.parametrize(
        "sched, stride",
        [
            (constant(LONG_T), None),
            (constant(LONG_T), 1),
            (cosine(LONG_T), None),
            (wsd(LONG_T, 0.2), None),
        ],
        ids=["constant", "constant-stride-1", "cosine", "wsd"],
    )
    def test_counts_say_what_ran(self, monkeypatch, sched, stride):
        shapes = []  # of every array curve_noise exponentiates
        clamped = expsum._clamped_exp
        monkeypatch.setattr(expsum, "_clamped_exp", lambda x: shapes.append(x.shape) or clamped(x))
        curve = bound_curve(sched, stride=stride)
        counts, T = curve.exp_sum, sched.horizon
        stride = stride or default_stride(T)
        assert curve.noise_kernel == bounds.EXP_SUM
        # the state's horizons are those after the first and before T, in groups of GROUP // stride
        assert counts.groups == -(-(len(curve.t) - 2) // max(1, expsum.GROUP // stride))
        decay_rows = [shape[0] for shape in shapes if shape[-1] == counts.nodes]  # (u, m, J) per chunk
        assert sum(decay_rows) == counts.groups - counts.shared
        if sched.values.min() == sched.values.max():
            # every block of stride ones sums to stride, and each chunk computes one set of exponentials
            assert counts.nodes == expsum.nodes(stride, T).size
            assert set(shape[0] for shape in shapes) == {1}
        elif sched.values[0] > sched.values[1]:  # cosine: no two groups have the same steps
            assert counts.shared == 0
        else:
            assert 0 < counts.shared < counts.groups

    def test_extended_rows_match_exact_oracle(self):
        # rho sets in at step 32000 and the cooldown at 80001; at the default stride (50)
        # rows 640-710 and 1563-1633 are chunks that straddle them, and the chunks on
        # either side share one set of exponentials
        sched = extended(40000, 0.2, LONG_T, 0.5)
        curve = bound_curve(sched)
        assert curve.noise_kernel == bounds.EXP_SUM and 0 < curve.exp_sum.shared < curve.exp_sum.groups
        rows = (639, 640, 641, 710, 711, 1562, 1563, 1600, 1601, 1633, 1634)
        exact = single_sum_noise(sched.values, np.ones(sched.horizon), [int(curve.t[row]) for row in rows], digits=60)
        for row, value in zip(rows, exact):
            assert rel_err(curve.noise_terms[row], value) <= 8e-15, row  # measured 3.7e-15 (3.4e-16 around step 32000)

    def test_curve_memory(self):
        T = LONG_T
        sched = wsd(T, 0.2)
        tracemalloc.start()
        try:
            bound_curve(sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * T * 8

    def test_best_iterate_curve_on_suffix_sum_path(self, no_horizon):
        T = LONG_T
        sched = wsd(T, 0.3, CooldownShape.ONE_MINUS_SQRT)
        assert_best_iterate_rows_exact(sched, GradNormModel(G=1.3, alpha=-0.5), None, 1e-15)

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEDULES))
    def test_best_iterate_curve_rows_match_exact_sums(self, no_horizon, name, alpha, stride):
        # measured at most 2.7e-16; prefix sums from np.cumsum were up to 5.8e-15 off
        assert_best_iterate_rows_exact(ORACLE_SCHEDULES[name], GradNormModel(G=1.3, alpha=alpha), stride, 1e-15)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, -1.0])
    def test_repro_curve_rows_match_fraction_oracle(self, alpha):
        # the curves of repro gradnorm-shapes and min-ablation: wsd(400, 0.2) at stride 1
        sched, grad = wsd(400, 0.2), GradNormModel(alpha=alpha)
        curve = bound_curve(sched, grad, stride=1)
        assert curve.noise_kernel == bounds.EXP_SUM
        exact = single_sum_terms(sched.values, grad.values(400), 1.0, range(1, 401))
        for t, dist, noise, (exact_dist, exact_noise) in zip(curve.t[:-1], curve.dist_terms, curve.noise_terms, exact):
            assert rel_err(dist, exact_dist) <= 5e-16, t  # measured 1.4e-16
            assert rel_err(noise, exact_noise) <= 2e-15, t  # measured 4.5e-16, 6.6e-16, 1.0e-15
        # the last row is bound_terms' own, from prefix differences (8.6e-13 off at alpha 0)
        assert (curve.dist_final, curve.noise_final) == bound_terms(sched, grad)
        assert rel_err(curve.noise_final, exact[-1][1]) <= 2e-12

    def test_repro_best_iterate_curve_matches_exact_sums(self, no_horizon):
        assert_best_iterate_rows_exact(wsd(400, 0.2), GradNormModel(), 1, 1e-15)


class TestMirror:
    def test_euclidean_specialization_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            T = int(rng.integers(2, 300))
            sched = random_schedule(rng, T)
            D = float(rng.uniform(0.3, 2.0))
            gamma = float(rng.uniform(0.05, 2.0))
            grad = GradNormModel(G=float(rng.uniform(0.3, 2.0)))
            lhs = mirror_bound(sched, gamma, bregman_init=D * D / 2.0, mu=1.0, dual_grad_norms=grad)
            rhs = bound_value(sched, gamma, grad, D=D)
            assert lhs == rhs  # bit-identical by construction

    def test_strong_convexity_scales_noise(self):
        sched = wsd(50, 0.3)
        b1 = mirror_bound(sched, 0.2, bregman_init=0.5, mu=1.0)
        b2 = mirror_bound(sched, 0.2, bregman_init=0.5, mu=2.0)
        dist, noise = bound_terms(sched)
        assert b1 - b2 == pytest.approx(0.2 * noise / 2.0, rel=1e-15)  # measured 0

    def test_validation(self):
        with pytest.raises(ValueError):
            mirror_bound(constant(4), 1.0, bregman_init=-1.0)
        with pytest.raises(ValueError):
            mirror_bound(constant(4), 1.0, bregman_init=0.5, mu=0.0)


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
    base = bound_value(Schedule(vals), gamma, GradNormModel(), 1.0)
    scaled = bound_value(Schedule(s * vals), gamma / s, GradNormModel(), 1.0)
    assert scaled == pytest.approx(base, rel=7.5e-14)  # measured 1.9e-14 over 200 draws
