import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from schedbound import schedules
from schedbound.schedules import (
    CooldownShape,
    Schedule,
    constant,
    cooldown_start,
    cosine,
    extended,
    inv_sqrt,
    linear_decay,
    one_minus_sqrt,
    parse_spec,
    polynomial_decay,
    with_cooldown,
    wsd,
)

horizons = st.integers(min_value=1, max_value=200)
fractions = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


def test_horizon_beyond_physical_memory_rejected(monkeypatch):
    # _ARRAYS_PER_STEP float64 values per step: 100 steps fit in this memory, 101 do not
    monkeypatch.setattr(schedules, "_physical_memory", lambda: 8 * schedules._ARRAYS_PER_STEP * 100)
    assert constant(100).horizon == 100
    builders = [constant, inv_sqrt, cosine, lambda T: wsd(T, 0.2), lambda T: polynomial_decay(T, 1.0)]
    for build in builders:
        with pytest.raises(ValueError, match="physical memory"):
            build(101)
    with pytest.raises(ValueError, match="physical memory"):
        extended(50, 0.2, 101, 0.5)


def test_horizon_arithmetic_needs_no_memory(monkeypatch):
    # cooldown_start and with_cooldown allocate nothing of a new length
    monkeypatch.setattr(schedules, "_physical_memory", lambda: 8 * schedules._ARRAYS_PER_STEP * 100)
    assert cooldown_start(10**15, 0.2) == 8 * 10**14
    base = schedules.Schedule(np.ones(101))
    assert with_cooldown(base, 0.5).horizon == 101


def test_horizon_unchecked_without_memory_size(monkeypatch):
    monkeypatch.setattr(schedules, "_physical_memory", lambda: None)
    assert constant(5).horizon == 5


def test_constant_values():
    s = constant(4)
    assert np.array_equal(s.values, np.ones(4))
    assert s.horizon == 4


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Schedule(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        Schedule(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Schedule(np.ones((2, 2)))
    with pytest.raises(ValueError):
        Schedule(np.array([]))


@pytest.mark.parametrize(
    "values, message",
    [
        ([1.0, np.nan], "must be finite"),
        ([np.inf, 1.0], "must be finite"),
        ([1.0, -np.inf], "must be finite"),
        ([-1.0, np.nan, 2.0], "must be finite"),
        ([1.0, 0.0], "must be strictly positive"),
        ([-2.0, 1.0], "must be strictly positive"),
        ([1.0, -0.0], "must be strictly positive"),
    ],
)
def test_schedule_rejects_with_message(values, message):
    with pytest.raises(ValueError, match=message):
        Schedule(np.array(values))


def test_schedule_copies_its_input():
    raw = np.ones(3)
    s = Schedule(raw)
    raw[0] = 5.0
    assert s.values[0] == 1.0


def test_schedule_values_read_only():
    s = constant(3)
    with pytest.raises(ValueError):
        s.values[0] = 2.0


def test_cooldown_start_rounding():
    assert cooldown_start(10, 0.2) == 8
    # .5 rounds up: 10 - round(2.5) = 7
    assert cooldown_start(10, 0.25) == 7
    assert cooldown_start(10, 1.0) == 1
    assert cooldown_start(1, 1.0) == 1
    assert cooldown_start(400, 0.2) == 320


def test_wsd_full_cooldown_oracle():
    s = wsd(5, 1.0)
    assert np.allclose(s.values, [1.0, 0.8, 0.6, 0.4, 0.2], rtol=0, atol=1e-15)


def test_wsd_partial_cooldown_oracle():
    s = wsd(10, 0.2)
    expect = [1.0] * 8 + [2.0 / 3.0, 1.0 / 3.0]
    assert np.allclose(s.values, expect, rtol=1e-15, atol=0)


def test_wsd_one_minus_sqrt_shape():
    s = wsd(10, 0.2, CooldownShape.ONE_MINUS_SQRT)
    # T0 = 8, u = (t - 8)/3 on the tail
    assert np.allclose(s.values[:8], 1.0, rtol=0, atol=0)
    assert s.values[8] == pytest.approx(1.0 - np.sqrt(1.0 / 3.0), rel=1e-15)
    assert s.values[9] == pytest.approx(1.0 - np.sqrt(2.0 / 3.0), rel=1e-15)


def test_linear_decay_equals_full_cooldown_wsd():
    for T in (1, 2, 5, 17, 400):
        assert np.array_equal(linear_decay(T).values, wsd(T, 1.0).values)


def test_one_minus_sqrt_values():
    s = one_minus_sqrt(4)
    u = np.arange(4) / 4.0
    assert np.allclose(s.values, 1.0 - np.sqrt(u), rtol=1e-15, atol=0.0)
    assert np.array_equal(s.values, wsd(4, 1.0, CooldownShape.ONE_MINUS_SQRT).values)


def test_inv_sqrt_values():
    s = inv_sqrt(4)
    assert np.allclose(s.values, 1.0 / np.sqrt([1.0, 2.0, 3.0, 4.0]), rtol=1e-15, atol=0.0)


def test_polynomial_decay_oracle():
    assert np.allclose(polynomial_decay(3, 1.0).values, [3.0, 2.0, 1.0], rtol=0, atol=0)
    assert np.allclose(
        polynomial_decay(4, 0.5).values,
        [2.0, np.sqrt(3.0), np.sqrt(2.0), 1.0],
        rtol=1e-15,
        atol=0.0,
    )


def test_cosine_full_cycle():
    s = cosine(4)
    expect = 0.5 * (1.0 + np.cos(np.pi * np.arange(4) / 4.0))
    assert np.allclose(s.values, expect, rtol=1e-15, atol=0.0)


def test_cosine_final_fraction():
    f = 0.1
    s = cosine(4, final_fraction=f)
    base = 0.5 * (1.0 + np.cos(np.pi * np.arange(4) / 4.0))
    assert np.allclose(s.values, f + (1.0 - f) * base, rtol=1e-15, atol=0.0)
    assert np.all(s.values >= f)


def test_cosine_half_cycle_restarts():
    s = cosine(4, cycle_length=0.5)
    expect = 0.5 * (1.0 + np.cos(np.pi * np.array([0, 1, 0, 1]) / 2.0))
    assert np.allclose(s.values, expect, rtol=1e-15, atol=0.0)
    # restart pattern is periodic
    assert s.values[0] == s.values[2]
    assert s.values[1] == s.values[3]


def test_cosine_monotone_full_cycle():
    s = cosine(50)
    assert np.all(np.diff(s.values) <= 0)


def test_extended_spec_oracle():
    s = extended(10, 0.2, 20, 0.5, 0.2)
    expect = [1.0] * 7 + [0.5] * 9 + [0.4, 0.3, 0.2, 0.1]
    assert np.allclose(s.values, expect, rtol=1e-15, atol=0)
    # c_long defaults to the short run's fraction
    assert np.array_equal(extended(10, 0.2, 20, 0.5).values, s.values)


def test_extended_rho_one_is_plain_wsd():
    s = extended(10, 0.2, 20, 1.0)
    assert np.array_equal(s.values, wsd(20, 0.2).values)


def test_extended_preserves_short_constant_phase():
    s = extended(10, 0.2, 20, 0.5)
    T0_short = cooldown_start(10, 0.2)
    assert np.array_equal(s.values[: T0_short - 1], np.ones(T0_short - 1))


def test_with_cooldown_leaves_head_untouched():
    base = inv_sqrt(10)
    s = with_cooldown(base, 0.2)
    T0 = cooldown_start(10, 0.2)
    assert np.array_equal(s.values[: T0 - 1], base.values[: T0 - 1])
    assert s.values[-1] < base.values[-1]


def test_validation_errors():
    with pytest.raises(ValueError):
        wsd(0, 0.2)
    with pytest.raises(ValueError):
        wsd(10, 0.0)
    with pytest.raises(ValueError):
        wsd(10, 1.5)
    with pytest.raises(ValueError):
        polynomial_decay(5, 0.0)
    with pytest.raises(ValueError):
        polynomial_decay(5, -1.0)
    with pytest.raises(ValueError):
        cosine(5, final_fraction=1.0)
    with pytest.raises(ValueError):
        cosine(5, final_fraction=-0.1)
    with pytest.raises(ValueError):
        cosine(5, cycle_length=0.0)
    with pytest.raises(ValueError):
        cosine(5, cycle_length=1.5)
    with pytest.raises(ValueError):
        extended(10, 0.2, 10, 0.5)
    with pytest.raises(ValueError):
        extended(10, 0.2, 5, 0.5)
    with pytest.raises(ValueError):
        extended(10, 0.2, 20, 0.0)
    with pytest.raises(ValueError):
        constant(-3)


def test_extended_infeasible_overlap():
    # long cooldown start must land strictly after the short one
    with pytest.raises(ValueError):
        extended(10, 0.2, 11, 0.5, c_long=0.95)


def test_cooldown_shape_parse():
    assert CooldownShape.parse("linear") is CooldownShape.LINEAR
    assert CooldownShape.parse("lin") is CooldownShape.LINEAR
    assert CooldownShape.parse("1-sqrt") is CooldownShape.ONE_MINUS_SQRT
    assert CooldownShape.parse("one-minus-sqrt") is CooldownShape.ONE_MINUS_SQRT
    assert CooldownShape.parse("sqrt") is CooldownShape.ONE_MINUS_SQRT
    with pytest.raises(ValueError):
        CooldownShape.parse("cubic")


class TestParseSpec:
    def test_wsd_round_trip(self):
        s = parse_spec("wsd:T=10,c=0.2")
        assert np.array_equal(s.values, wsd(10, 0.2).values)

    def test_wsd_shape(self):
        s = parse_spec("wsd:T=10,c=0.2,shape=1-sqrt")
        assert np.array_equal(s.values, wsd(10, 0.2, CooldownShape.ONE_MINUS_SQRT).values)

    def test_constant(self):
        assert np.array_equal(parse_spec("constant:T=5").values, constant(5).values)

    def test_linear_aliases(self):
        a = parse_spec("linear:T=6")
        b = parse_spec("linear-decay:T=6")
        assert np.array_equal(a.values, linear_decay(6).values)
        assert np.array_equal(b.values, a.values)

    def test_one_minus_sqrt_aliases(self):
        for name in ("onesqrt", "1-sqrt", "one-minus-sqrt"):
            s = parse_spec(f"{name}:T=6")
            assert np.array_equal(s.values, one_minus_sqrt(6).values)

    def test_inv_sqrt(self):
        for name in ("invsqrt", "inv-sqrt"):
            assert np.array_equal(parse_spec(f"{name}:T=8").values, inv_sqrt(8).values)

    def test_inv_sqrt_with_cooldown_tail(self):
        s = parse_spec("invsqrt:T=8,c=0.25")
        assert np.array_equal(s.values, with_cooldown(inv_sqrt(8), 0.25).values)

    def test_poly(self):
        s = parse_spec("poly:T=6,alpha=2")
        assert np.array_equal(s.values, polynomial_decay(6, 2.0).values)
        assert np.array_equal(parse_spec("polynomial:T=6,alpha=2").values, s.values)

    def test_cosine(self):
        s = parse_spec("cosine:T=8,final=0.1,cycle=0.5")
        assert np.array_equal(s.values, cosine(8, 0.1, 0.5).values)

    def test_extended(self):
        s = parse_spec("extended:T1=10,c=0.2,T2=20,rho=0.5")
        assert np.array_equal(s.values, extended(10, 0.2, 20, 0.5).values)

    @pytest.mark.parametrize(
        "bad",
        [
            "nosuch:T=5",
            "wsd",
            "wsd:T=10",
            "wsd:c=0.2",
            "wsd:T=10,c=0.2,bogus=1",
            "wsd:T=10,c=0.2,c=0.3",
            "wsd:T=ten,c=0.2",
            "wsd:T=10.5,c=0.2",
            "wsd:T=-4,c=0.2",
            "wsd:T=10,c",
            "constant:T=5,extra",
            "",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)


@given(T=horizons, c=fractions)
def test_wsd_properties(T, c):
    s = wsd(T, c)
    assert s.horizon == T
    assert np.all(s.values > 0)
    assert np.all(s.values <= 1.0)
    assert np.all(np.diff(s.values) <= 0.0)  # monotone non-increasing; never above 0 over 300 draws
    T0 = cooldown_start(T, c)
    assert 1 <= T0 <= T
    assert s.values[T0 - 1] == 1.0


@given(T=horizons, c=fractions)
def test_one_minus_sqrt_cooldown_below_linear(T, c):
    lin = wsd(T, c).values
    sq = wsd(T, c, CooldownShape.ONE_MINUS_SQRT).values
    assert np.all(sq <= lin + 1e-15)


@given(T=horizons)
def test_generators_positive(T):
    for s in (constant(T), linear_decay(T), one_minus_sqrt(T), inv_sqrt(T), cosine(T, 0.05), polynomial_decay(T, 0.7)):
        assert s.horizon == T
        assert np.all(s.values > 0)
        assert np.all(np.isfinite(s.values))


# --- the cooldown arithmetic as np.where over int index arrays -------------
# with_cooldown and extended write their legs in place; these oracles keep the
# whole-array form they replaced, and the two must agree bit for bit


def _where_cooldown(values: np.ndarray, c: float, shape: CooldownShape) -> np.ndarray:
    T = values.size
    T0 = cooldown_start(T, c)
    t = np.arange(1, T + 1)
    u = np.maximum((t - T0) / float(T + 1 - T0), 0.0)
    factor = 1.0 - u if shape is CooldownShape.LINEAR else 1.0 - np.sqrt(u)
    return np.where(t < T0, values, float(values[T0 - 1]) * factor)


def _where_extended(T_short, c_short, T_long, rho, c_long, shape) -> np.ndarray:
    t = np.arange(1, T_long + 1)
    flat = np.where(t < cooldown_start(T_short, c_short), 1.0, rho)
    return _where_cooldown(flat, c_long, shape)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


long_horizons = st.integers(min_value=1, max_value=5000)
cooldowns = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
shapes = st.sampled_from(list(CooldownShape))


def _base(kind: str, T: int, seed: int) -> np.ndarray:
    if kind == "constant":
        return constant(T).values
    if kind == "inv_sqrt":
        return inv_sqrt(T).values
    if kind == "random":
        return np.random.default_rng(seed).uniform(1e-3, 2.0, size=T)
    # extended: a flat phase, a continuation at rho and a cooldown; T_long = T
    T_short = max(1, T // 2)
    assume(T > T_short and cooldown_start(T, 0.1) > cooldown_start(T_short, 0.2))
    return extended(T_short, 0.2, T, 0.5, 0.1).values


@given(
    T=long_horizons,
    c=cooldowns,
    shape=shapes,
    kind=st.sampled_from(["constant", "inv_sqrt", "random", "extended"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_with_cooldown_matches_where_form(T, c, shape, kind, seed):
    values = _base(kind, T, seed)
    assert _same_bits(with_cooldown(Schedule(values), c, shape).values, _where_cooldown(values, c, shape))


@given(T=long_horizons, c=cooldowns, shape=shapes)
def test_wsd_matches_where_form(T, c, shape):
    assert _same_bits(wsd(T, c, shape).values, _where_cooldown(np.ones(T), c, shape))


@given(
    T_short=st.integers(min_value=1, max_value=2500),
    extra=st.integers(min_value=1, max_value=2500),
    c_short=cooldowns,
    c_long=cooldowns,
    rho=st.floats(min_value=1e-3, max_value=1.0),  # a subnormal rho cools down to 0
    shape=shapes,
)
def test_extended_matches_where_form(T_short, extra, c_short, c_long, rho, shape):
    T_long = T_short + extra
    assume(cooldown_start(T_long, c_long) > cooldown_start(T_short, c_short))
    got = extended(T_short, c_short, T_long, rho, c_long, shape).values
    assert _same_bits(got, _where_extended(T_short, c_short, T_long, rho, c_long, shape))
