import ast
import hashlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from schedbound import _checks, cli, schedules, tuning
from schedbound.schedules import (
    CooldownShape,
    Schedule,
    constant,
    cooldown_start,
    cosine,
    extended,
    inv_sqrt,
    parse_spec,
    polynomial_decay,
    with_cooldown,
    wsd,
)

# spellings of schedule kinds that no document names
REMOVED_KINDS = ("linear-decay", "1-sqrt", "one-minus-sqrt", "inv-sqrt", "polynomial")

horizons = st.integers(min_value=1, max_value=200)
fractions = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


def test_horizon_beyond_physical_memory_rejected(monkeypatch):
    # _ARRAYS_PER_STEP float64 values per step: 100 steps fit in this memory, 101 do not
    monkeypatch.setattr(_checks, "_physical_memory", lambda: 8 * schedules._ARRAYS_PER_STEP * 100)
    assert constant(100).horizon == 100
    builders = [constant, inv_sqrt, cosine, lambda T: wsd(T, 0.2), lambda T: polynomial_decay(T, 1.0)]
    for build in builders:
        with pytest.raises(ValueError, match="physical memory"):
            build(101)
    with pytest.raises(ValueError, match="physical memory"):
        extended(50, 0.2, 101, 0.5)


def test_horizon_arithmetic_needs_no_memory(monkeypatch):
    # cooldown_start and with_cooldown allocate nothing of a new length
    monkeypatch.setattr(_checks, "_physical_memory", lambda: 8 * schedules._ARRAYS_PER_STEP * 100)
    assert cooldown_start(10**15, 0.2) == 8 * 10**14
    base = schedules.Schedule(np.ones(101))
    assert with_cooldown(base, 0.5).horizon == 101


def test_horizon_unchecked_without_memory_size(monkeypatch):
    monkeypatch.setattr(_checks, "_physical_memory", lambda: None)
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


def test_schedule_keeps_a_read_only_array_it_owns():
    raw = np.ones(3)
    raw.flags.writeable = False
    assert Schedule(raw).values is raw


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_schedule_copies_a_read_only_view_or_other_dtype(dtype):
    base = np.ones(4, dtype=dtype)
    view = base[:3]
    view.flags.writeable = False
    s = Schedule(view)
    assert s.values is not view
    base[0] = 5.0
    assert s.values[0] == 1.0
    assert s.values.dtype == np.float64


@pytest.mark.parametrize(
    "build",
    [
        lambda: constant(5),
        lambda: wsd(9, 0.3),
        lambda: wsd(9, 0.3, CooldownShape.ONE_MINUS_SQRT),
        lambda: inv_sqrt(7),
        lambda: polynomial_decay(6, 1.5),
        lambda: cosine(8, 0.1, 0.5),
        lambda: extended(10, 0.2, 20, 0.5),
        lambda: with_cooldown(inv_sqrt(7), 0.4),
    ],
    ids=["constant", "wsd", "wsd 1-sqrt", "inv_sqrt", "poly", "cosine", "extended", "with_cooldown"],
)
def test_constructors_hand_over_their_fresh_array(build, monkeypatch):
    # each constructor builds its array once; Schedule keeps it instead of copying it
    kept = []

    class Recording(Schedule):
        def __post_init__(self):
            given = self.values
            super().__post_init__()
            kept.append(self.values is given)

    monkeypatch.setattr(schedules, "Schedule", Recording)
    s = build()
    assert kept and all(kept), kept
    assert not s.values.flags.writeable

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


def test_one_minus_sqrt_values():
    s = wsd(4, 1.0, CooldownShape.ONE_MINUS_SQRT)
    u = np.arange(4) / 4.0
    assert np.allclose(s.values, 1.0 - np.sqrt(u), rtol=1e-15, atol=0.0)


def test_repr_shows_the_horizon_and_four_values():
    assert repr(wsd(10, 0.2)) == "Schedule(T=10, values=[1, 1, 1, 1, ...])"
    assert repr(wsd(3, 1.0)) == "Schedule(T=3, values=[1, 0.666667, 0.333333])"


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


@pytest.mark.parametrize("shape", list(CooldownShape))
@pytest.mark.parametrize("T, c", [(1, 1.0), (10, 0.2), (401, 0.77), (16000, 0.02), (16000, 1.0)])
def test_cooldown_leg_is_the_formula_bit_for_bit(T, c, shape):
    # the leg is formed in place; it is peak * (1 - u) or peak * (1 - sqrt(u)) as three arrays
    T0 = cooldown_start(T, c)
    u = np.arange(T + 1 - T0) / float(T + 1 - T0)
    factor = 1.0 - u if shape is CooldownShape.LINEAR else 1.0 - np.sqrt(u)
    for base in (constant(T), inv_sqrt(T), cosine(T, 0.1, 0.5)):
        leg = with_cooldown(base, c, shape).values[T0 - 1 :]
        assert leg.tobytes() == (base.values[T0 - 1] * factor).tobytes()
    assert wsd(T, c, shape).values.tobytes() == with_cooldown(constant(T), c, shape).values.tobytes()


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
    assert CooldownShape.parse("1-sqrt") is CooldownShape.ONE_MINUS_SQRT
    for other in ("cubic", "lin", "one-minus-sqrt", "1sqrt", "sqrt"):
        with pytest.raises(ValueError, match=r"\(use linear or 1-sqrt\)"):
            CooldownShape.parse(other)


class TestParseSpec:
    def test_wsd_round_trip(self):
        s = parse_spec("wsd:T=10,c=0.2")
        assert np.array_equal(s.values, wsd(10, 0.2).values)

    def test_wsd_shape(self):
        s = parse_spec("wsd:T=10,c=0.2,shape=1-sqrt")
        assert np.array_equal(s.values, wsd(10, 0.2, CooldownShape.ONE_MINUS_SQRT).values)

    def test_constant(self):
        assert np.array_equal(parse_spec("constant:T=5").values, constant(5).values)

    def test_linear(self, monkeypatch):
        # the whole-run linear decay has one constructor: wsd, called through the module
        assert not hasattr(schedules, "linear_decay")
        calls = []
        monkeypatch.setattr(schedules, "wsd", lambda *args: calls.append(args) or wsd(*args))
        for T in (1, 2, 5, 17, 400):
            assert np.array_equal(parse_spec(f"linear:T={T}").values, wsd(T, 1.0).values)
        assert calls == [(T, 1.0, CooldownShape.LINEAR) for T in (1, 2, 5, 17, 400)]

    def test_one_minus_sqrt(self, monkeypatch):
        # the whole-run 1-sqrt decay has one constructor: wsd, called through the module
        assert not hasattr(schedules, "one_minus_sqrt")
        calls = []
        monkeypatch.setattr(schedules, "wsd", lambda *args: calls.append(args) or wsd(*args))
        assert np.array_equal(parse_spec("onesqrt:T=6").values, wsd(6, 1.0, CooldownShape.ONE_MINUS_SQRT).values)
        assert calls == [(6, 1.0, CooldownShape.ONE_MINUS_SQRT)]

    def test_inv_sqrt(self):
        assert np.array_equal(parse_spec("invsqrt:T=8").values, inv_sqrt(8).values)

    def test_inv_sqrt_with_cooldown_tail(self):
        s = parse_spec("invsqrt:T=8,c=0.25")
        assert np.array_equal(s.values, with_cooldown(inv_sqrt(8), 0.25).values)

    def test_poly(self):
        s = parse_spec("poly:T=6,alpha=2")
        assert np.array_equal(s.values, polynomial_decay(6, 2.0).values)

    def test_cosine(self):
        s = parse_spec("cosine:T=8,final=0.1,cycle=0.5")
        assert np.array_equal(s.values, cosine(8, 0.1, 0.5).values)

    def test_extended(self):
        s = parse_spec("extended:T1=10,c=0.2,T2=20,rho=0.5")
        assert np.array_equal(s.values, extended(10, 0.2, 20, 0.5).values)

    @pytest.mark.parametrize("kind", REMOVED_KINDS)
    def test_rejects_undocumented_kinds(self, kind):
        with pytest.raises(ValueError, match=r"unknown schedule type .*\(use constant, wsd, linear, onesqrt, cosine, invsqrt, poly or extended\)"):
            parse_spec(f"{kind}:T=6,alpha=2")


# every message parse_spec gives, pinned byte for byte: one per way a spec can be wrong
BAD_SPECS = [
    ("nosuch:T=5", "unknown schedule type 'nosuch' (use constant, wsd, linear, onesqrt, cosine, invsqrt, poly or extended)"),
    (" Foo :T=5", "unknown schedule type ' Foo ' (use constant, wsd, linear, onesqrt, cosine, invsqrt, poly or extended)"),
    ("", "unknown schedule type '' (use constant, wsd, linear, onesqrt, cosine, invsqrt, poly or extended)"),
    ("nosuch:T=x", "parameter 'T' must be an integer, got 'x'"),  # the params parse before the kind is looked up
    ("constant:T=5,c=0.2", "unknown parameter(s) ['c'] for schedule 'constant'"),
    ("wsd:T=5,c=0.2,alpha=1", "unknown parameter(s) ['alpha'] for schedule 'wsd'"),
    ("linear:T=5,c=0.2", "unknown parameter(s) ['c'] for schedule 'linear'"),
    ("onesqrt:T=5,final=0.1", "unknown parameter(s) ['final'] for schedule 'onesqrt'"),
    ("cosine:T=5,c=0.2", "unknown parameter(s) ['c'] for schedule 'cosine'"),
    ("invsqrt:T=5,rho=0.5", "unknown parameter(s) ['rho'] for schedule 'invsqrt'"),
    ("poly:T=5,alpha=1,c=0.2", "unknown parameter(s) ['c'] for schedule 'poly'"),
    ("extended:T1=10,c=0.2,T2=20,rho=0.5,T=5", "unknown parameter(s) ['T'] for schedule 'extended'"),
    ("constant:T=5,z=1,a=2", "unknown parameter(s) ['a', 'z'] for schedule 'constant'"),
    ("wsd:alpha=1", "unknown parameter(s) ['alpha'] for schedule 'wsd'"),  # unknown keys before missing ones
    ("wsd:T=5", "schedule 'wsd' requires parameter(s) ['c']"),
    ("wsd:c=0.2", "schedule 'wsd' requires parameter(s) ['T']"),
    ("wsd", "schedule 'wsd' requires parameter(s) ['T', 'c']"),
    ("extended:c=0.2", "schedule 'extended' requires parameter(s) ['T1', 'T2', 'rho']"),
    ("poly:alpha=2", "schedule 'poly' requires parameter(s) ['T']"),
    ("constant", "schedule 'constant' requires parameter(s) ['T']"),
    ("constant:", "schedule 'constant' requires parameter(s) ['T']"),
    ("wsd:T=5,c", "malformed schedule parameter 'c' (expected key=value)"),
    ("constant:T=5,extra", "malformed schedule parameter 'extra' (expected key=value)"),
    ("wsd:T=5,T=6,c=0.2", "duplicate schedule parameter 'T'"),
    ("constant:T=5.5", "parameter 'T' must be an integer, got '5.5'"),
    ("wsd:T=ten,c=0.2", "parameter 'T' must be an integer, got 'ten'"),
    ("wsd:T=-4,c=0.2", "horizon must be >= 1, got -4"),
    ("constant:T=5,foo=bar", "parameter 'foo' must be a number, got 'bar'"),
    ("wsd:T=5,c=0.2,shape=cubic", "unknown cooldown shape 'cubic' (use linear or 1-sqrt)"),
    ("invsqrt:T=10,shape=1-sqrt", "schedule 'invsqrt' takes parameter 'shape' only with 'c', the cooldown it shapes"),
    ("wsd:T=10,c=2", "cooldown fraction must be in (0, 1], got 2.0"),
    ("extended:T1=10,c=0.2,T2=5,rho=0.5", "extended horizon 5 must exceed the base horizon 10"),
]


@pytest.mark.parametrize("spec, message", BAD_SPECS)
def test_bad_spec_keeps_its_message(spec, message):
    with pytest.raises(ValueError) as info:
        parse_spec(spec)
    assert str(info.value) == message


@pytest.mark.parametrize("spec, message", BAD_SPECS)
def test_bad_spec_exit_2_before_any_file(spec, message, tmp_path, capsys):
    code = cli.main(["schedule", "--schedule", spec, "--outdir", str(tmp_path)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "spec, name",
    [
        ("constant:T=5", "constant"),
        ("wsd:T=5,c=0.2", "wsd"),
        ("linear:T=5", "wsd"),
        ("onesqrt:T=5", "wsd"),
        ("cosine:T=5", "cosine"),
        ("invsqrt:T=5,c=0.2", "inv_sqrt"),
        ("poly:T=5,alpha=2", "polynomial_decay"),
        ("extended:T1=10,c=0.2,T2=20,rho=0.5", "extended"),
    ],
)
def test_each_kind_calls_its_constructor_through_the_module(spec, name, monkeypatch):
    # perfbench/tracer.py traces a constructor by rebinding its module name
    calls = []
    constructor = getattr(schedules, name)
    monkeypatch.setattr(schedules, name, lambda *args: calls.append(args) or constructor(*args))
    parse_spec(spec)
    assert len(calls) == 1


def _spec_kinds(text: str) -> set[str]:
    """The kinds that text spells in backticked specs, each one as `kind:T=...` or `kind:T1=...`."""
    return set(re.findall(r"`+([a-z0-9-]+):T1?=", text))


def _misspellings(name: str) -> set[str]:
    """Spellings of name in other letter case or with padding; none of them names anything."""
    return {name.upper(), name.lower(), name.title(), name.swapcase(), f" {name}", f"{name} ", f"\t{name}"} - {name}


def _accepts_kind(kind: str) -> bool:
    try:
        parse_spec(f"{kind}:")
    except ValueError as exc:
        return "unknown schedule type" not in str(exc)
    return True


def test_spec_kinds_are_exactly_the_documented_ones():
    documented = _spec_kinds(parse_spec.__doc__)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = re.search(r"^Schedule spec strings are.*?\n\n", readme, re.M | re.S).group()
    # a kind parse_spec accepts is a key of its table, or else some string literal of the module
    literals = {n.value for n in ast.walk(ast.parse(inspect.getsource(schedules))) if isinstance(n, ast.Constant)}
    candidates = {
        c for c in literals | set(schedules._KINDS) | documented | set(REMOVED_KINDS) if isinstance(c, str) and re.fullmatch(r"[a-z0-9-]+", c)
    }
    candidates |= {m for kind in schedules._KINDS for m in _misspellings(kind)}
    accepted = {c for c in candidates if _accepts_kind(c)}
    assert accepted == set(schedules._KINDS) == documented == _spec_kinds(paragraph)
    assert len(accepted) == 8
    with pytest.raises(ValueError) as info:
        parse_spec("nosuch:T=5")
    assert set(re.split(", | or ", re.search(r"\(use (.*)\)", str(info.value)).group(1))) == accepted


# one spec per kind that spells every key of the kind, and both shapes between them
FULL_SPECS = (
    "constant:T=5",
    "wsd:T=10,c=0.2,shape=linear",
    "linear:T=5",
    "onesqrt:T=5",
    "cosine:T=8,final=0.1,cycle=0.5",
    "invsqrt:T=8,c=0.25,shape=1-sqrt",
    "poly:T=6,alpha=2",
    "extended:T1=10,c=0.2,T2=20,rho=0.5,c_long=0.2,shape=1-sqrt",
)


def _misspelled_specs():
    """Each full spec with one key, or one shape, spelled in other case or with padding; and that spelling."""
    for spec in FULL_SPECS:
        head, body = spec.split(":")
        items = body.split(",")
        for i, item in enumerate(items):
            key, value = item.split("=")
            names = [(m, value, m) for m in _misspellings(key)]
            if key == "shape":
                names += [(key, m, m) for m in _misspellings(value)]
            for k, v, wrong in names:
                yield f"{head}:{','.join([*items[:i], f'{k}={v}', *items[i + 1 :]])}", wrong


def test_full_specs_spell_every_key_and_shape():
    assert [spec.split(":")[0] for spec in FULL_SPECS] == list(schedules._KINDS)
    for spec in FULL_SPECS:
        kind, body = spec.split(":")
        required, optional, _ = schedules._KINDS[kind]
        assert [item.split("=")[0] for item in body.split(",")] == [*required, *optional]
        parse_spec(spec)
    assert {s.split("shape=")[1] for s in FULL_SPECS if "shape=" in s} == {m.value for m in CooldownShape}


@pytest.mark.parametrize("spec, wrong", list(_misspelled_specs()))
def test_keys_and_shapes_are_exact(spec, wrong):
    with pytest.raises(ValueError) as info:
        parse_spec(spec)
    assert repr(wrong) in str(info.value)


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
    one_minus_sqrt = wsd(T, 1.0, CooldownShape.ONE_MINUS_SQRT)
    for s in (constant(T), wsd(T, 1.0), one_minus_sqrt, inv_sqrt(T), cosine(T, 0.05), polynomial_decay(T, 0.7)):
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


# --- only the two CooldownShape members pick a cooldown leg -----------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: wsd(10, 0.3, "linear"),
        lambda: with_cooldown(constant(10), 0.3, "1-sqrt"),
        lambda: extended(40, 0.2, 80, 0.5, shape="linear"),
        lambda: tuning.sweep_cooldown(400, shape="linear"),
        lambda: wsd(10, 0.3, ["linear"]),  # unhashable
        lambda: wsd(10, 0.3, None),
    ],
    ids=["wsd", "with_cooldown", "extended", "sweep_cooldown", "unhashable", "None"],
)
def test_a_shape_that_is_no_member_is_a_named_error(build):
    with pytest.raises(ValueError, match="cooldown shape must be CooldownShape.LINEAR or CooldownShape.ONE_MINUS_SQRT, got"):
        build()


def test_a_shape_that_is_no_member_writes_no_step():
    values = np.ones(10)
    with pytest.raises(ValueError, match="cooldown shape"):
        schedules._cool(values, 0.3, "1-sqrt")
    assert np.array_equal(values, np.ones(10))


# sha256 of each family's values, concatenated over T in (3, 7, 100, 4001) and then c in (0.01, 0.2, 0.3, 0.5, 1.0)
LEG_HASHES = {
    ("wsd", CooldownShape.LINEAR): "ca1c24339eb36cfee28c0a0680d9778843121a4e673979a8d38fc40662816078",
    ("invsqrt", CooldownShape.LINEAR): "7fee1e0842210fca7f41370d3870424070b955b6fc90665fb6fbf2bcc30f89bd",
    ("extended", CooldownShape.LINEAR): "84fac27c80a59a412e4228faa4b3d332d58419d3211a8356f14dc5d3b812cb53",
    ("wsd", CooldownShape.ONE_MINUS_SQRT): "5331c2c53bc2166b0ee6a0f3016cb9ed7e7fab97a64f4a70eed6790c19fd4ea4",
    ("invsqrt", CooldownShape.ONE_MINUS_SQRT): "0dae95aa122f87f0a5426df0f2c2c246914fdae780be8041f8f98d571c577fe7",
    ("extended", CooldownShape.ONE_MINUS_SQRT): "d766c50ec06b638febd8774535392615944293522b644fac3437c1c5575c4bc0",
}


@pytest.mark.parametrize("family, shape", list(LEG_HASHES), ids=lambda v: getattr(v, "value", v))
def test_each_shape_member_keeps_its_bits(family, shape):
    build = {
        "wsd": lambda T, c: wsd(T, c, shape),
        "invsqrt": lambda T, c: with_cooldown(inv_sqrt(T), c, shape),
        "extended": lambda T, c: extended(T, c, 3 * T, 0.5, c / 2, shape),
    }[family]
    digest = hashlib.sha256()
    for T in (3, 7, 100, 4001):
        for c in (0.01, 0.2, 0.3, 0.5, 1.0):
            digest.update(build(T, c).values.tobytes())
    assert digest.hexdigest() == LEG_HASHES[family, shape]


# --- records that hold arrays compare by identity -----------------------------


def test_records_holding_arrays_compare_and_hash_by_identity():
    from schedbound import bounds, scaling, toy

    schedule = wsd(10, 0.3)
    problem = toy.generate_problem()
    records = [
        schedule,
        bounds.bound_curve(schedule),
        tuning.sweep_gamma(schedule),
        tuning.transfer_horizon_rho(400, 800),
        tuning.fit_inv_sqrt([(100.0, 0.1), (400.0, 0.05)]),
        problem,
        toy.run_sgd(problem, schedule, 0.02),
    ]
    assert [type(r).__name__ for r in records] == [
        "Schedule", "BoundCurve", "SweepResult", "TransferResult", "FitResult", "ToyProblem", "RunRecord"
    ]
    for record in records:
        assert record == record
        assert record != Schedule(np.ones(3))
        assert hash(record) == hash(record)
    assert wsd(10, 0.3) != wsd(10, 0.3)
    # the G-row cache and _accumulators compare models by value
    assert bounds.GradNormModel(2.0, -0.5) == bounds.GradNormModel(2.0, -0.5)
    assert hash(bounds.GradNormModel(2.0, -0.5)) == hash(bounds.GradNormModel(2.0, -0.5))
    assert scaling.ScalingLaw() == scaling.ScalingLaw()
