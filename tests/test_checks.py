"""Every argument goes through schedbound._checks: counts are integers, scales positive and finite."""

import math
import re

import numpy as np
import pytest

from schedbound import _checks
from schedbound.bounds import (
    GradNormModel,
    best_iterate_curve,
    bound_curve,
    bound_terms,
    mirror_bound,
    polynomial_bound_approx,
    wsd_bound_exact,
)
from schedbound.scaling import ScalingLaw, loss, params_for_delta, tokens_for_delta
from schedbound.schedules import Schedule, constant, cosine, polynomial_decay, wsd
from schedbound.toy import generate_problem
from schedbound.tuning import (
    default_gamma_grid,
    lr_transfer_curve,
    sweep_cooldown,
    sweep_gamma,
    transfer_horizon_cooldown,
    transfer_horizon_rho,
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("horizon t", lambda: bound_terms(wsd(10, 0.2), t=2.5), id="bound_terms t=2.5"),
        pytest.param("horizon t", lambda: bound_terms(wsd(10, 0.2), t=True), id="bound_terms t=True"),
        pytest.param("stride", lambda: bound_curve(wsd(10, 0.2), stride=2.7), id="bound_curve stride=2.7"),
        pytest.param("horizon", lambda: wsd_bound_exact(100.7, 50), id="wsd_bound_exact T=100.7"),
        pytest.param("cooldown start", lambda: wsd_bound_exact(100, np.float64(50)), id="wsd_bound_exact T0=50.0"),
        pytest.param("horizon", lambda: polynomial_bound_approx(math.inf, 1), id="polynomial_bound_approx T=inf"),
        pytest.param("horizon", lambda: polynomial_bound_approx(math.nan, 1), id="polynomial_bound_approx T=nan"),
        pytest.param("decay exponent", lambda: polynomial_bound_approx(10, math.inf), id="polynomial_bound_approx alpha=inf"),
        pytest.param("gamma grid center", lambda: default_gamma_grid(math.inf), id="default_gamma_grid inf"),
        pytest.param("row count m", lambda: generate_problem(2.5, 2), id="generate_problem m=2.5"),
        pytest.param("seed", lambda: generate_problem(20, 2, 2.5), id="generate_problem seed=2.5"),
        # scales that are not numbers
        pytest.param("cooldown fraction", lambda: transfer_horizon_cooldown(400, 400, None), id="transfer_horizon_cooldown c=None"),
        pytest.param("initial distance D", lambda: bound_curve(constant(4), D="abc"), id="bound_curve D='abc'"),
        pytest.param("gradient norm scale", lambda: GradNormModel(G="2", alpha=-0.5), id="GradNormModel G='2'"),
        pytest.param("gradient norm scale", lambda: GradNormModel(G=[1.0, 2.0]), id="GradNormModel G=list"),
        pytest.param("gradient norm exponent", lambda: GradNormModel(alpha="x"), id="GradNormModel alpha='x'"),
        pytest.param("gradient norm exponent", lambda: GradNormModel(alpha=None), id="GradNormModel alpha=None"),
        pytest.param("gradient norm exponent", lambda: GradNormModel(alpha=[0.0]), id="GradNormModel alpha=list"),
        pytest.param("final fraction", lambda: cosine(100, None), id="cosine final_fraction=None"),
        pytest.param("final fraction", lambda: cosine(100, "0.1"), id="cosine final_fraction='0.1'"),
        # horizons checked before they are compared
        pytest.param("extended horizon", lambda: transfer_horizon_cooldown(400, "800"), id="transfer_horizon_cooldown T_long='800'"),
        pytest.param("extended horizon", lambda: transfer_horizon_cooldown(400, None), id="transfer_horizon_cooldown T_long=None"),
        pytest.param("base horizon", lambda: transfer_horizon_cooldown("400", 800), id="transfer_horizon_cooldown T_short='400'"),
        pytest.param("extended horizon", lambda: transfer_horizon_rho(400, 400.0), id="transfer_horizon_rho T_long=400.0"),
        # terms that leave the float range, without a numpy warning
        pytest.param("decay exponent", lambda: polynomial_decay(10, 1000), id="polynomial_decay alpha=1000"),
        pytest.param("initial distance D", lambda: bound_terms(wsd(10, 0.2), D=1e200), id="bound_terms D=1e200"),
        pytest.param("initial distance D", lambda: bound_terms(wsd(10, 0.2), D=1e-200), id="bound_terms D=1e-200"),
        pytest.param("gradient norm scale", lambda: bound_terms(wsd(10, 0.2), GradNormModel(G=1e200)), id="bound_terms G=1e200"),
        pytest.param("gradient norm scale", lambda: bound_terms(wsd(10, 0.2), GradNormModel(G=1e-200)), id="bound_terms G=1e-200"),
        pytest.param("gradient norm scale", lambda: bound_curve(wsd(10, 0.2), GradNormModel(G=1e200)), id="bound_curve G=1e200"),
        pytest.param(
            "gradient norm scale",
            lambda: bound_curve(wsd(100_000, 0.2), GradNormModel(G=1e200)),
            id="bound_curve exp-sum G=1e200",
        ),
        pytest.param(
            "dual gradient norm scale",
            lambda: mirror_bound(constant(4), 1.0, 0.5, dual_grad_norms=GradNormModel(G=1e200)),
            id="mirror_bound G=1e200",
        ),
        pytest.param(
            "dual gradient norm scale",
            lambda: mirror_bound(constant(4), 1.0, 0.5, dual_grad_norms=GradNormModel(G=1e-200)),
            id="mirror_bound G=1e-200",
        ),
        pytest.param(
            "initial Bregman divergence",
            lambda: mirror_bound(Schedule(np.full(4, 1e-300)), 1.0, 1e300),
            id="mirror_bound bregman_init=1e300",
        ),
        pytest.param("base learning rate gamma", lambda: sweep_cooldown(100, [0.5]).at_gamma(-1.0), id="sweep_cooldown at_gamma(-1)"),
        pytest.param("base learning rate gamma", lambda: bound_curve(wsd(100, 0.2)).at_gamma(-1.0), id="bound_curve at_gamma(-1)"),
        pytest.param("base learning rate gamma", lambda: bound_curve(wsd(100, 0.2)).at_gamma(0.0), id="bound_curve at_gamma(0)"),
        pytest.param("base learning rate gamma", lambda: bound_curve(wsd(100, 0.2)).at_gamma(math.nan), id="bound_curve at_gamma(nan)"),
        # tuning grids that are empty or not 1-d
        pytest.param("cooldown grid", lambda: sweep_cooldown(400, c_grid=[]), id="sweep_cooldown c_grid=[]"),
        pytest.param("cooldown grid", lambda: sweep_cooldown(400, c_grid=0.5), id="sweep_cooldown c_grid=0.5"),
        pytest.param("cooldown grid", lambda: lr_transfer_curve(400, c_grid=[]), id="lr_transfer_curve c_grid=[]"),
        # tuning grids that are ragged or hold something other than numbers
        pytest.param("cooldown grid", lambda: sweep_cooldown(400, c_grid=[[0.1], [0.2, 0.3]]), id="sweep_cooldown ragged grid"),
        pytest.param("cooldown grid", lambda: sweep_cooldown(400, c_grid=["a"]), id="sweep_cooldown c_grid=['a']"),
        pytest.param("cooldown grid", lambda: sweep_cooldown(400, c_grid=["0.5"]), id="sweep_cooldown c_grid=['0.5']"),
        pytest.param("cooldown grid", lambda: lr_transfer_curve(400, c_grid=[True]), id="lr_transfer_curve c_grid=[True]"),
        # gamma grids: the same checks, and every value positive and finite
        pytest.param("gamma grid", lambda: sweep_gamma(wsd(400, 0.2), gamma_grid=[]), id="sweep_gamma gamma_grid=[]"),
        pytest.param("gamma grid", lambda: sweep_gamma(wsd(400, 0.2), gamma_grid=0.1), id="sweep_gamma gamma_grid=0.1"),
        pytest.param("gamma grid", lambda: sweep_gamma(wsd(400, 0.2), gamma_grid=[[0.1, 0.2]]), id="sweep_gamma 2-d grid"),
        pytest.param("gamma grid", lambda: sweep_gamma(wsd(400, 0.2), gamma_grid=[[0.1], [0.2, 0.3]]), id="sweep_gamma ragged grid"),
        pytest.param("gamma grid", lambda: sweep_gamma(wsd(400, 0.2), gamma_grid=["a"]), id="sweep_gamma gamma_grid=['a']"),
        pytest.param("gamma grid", lambda: sweep_gamma(wsd(400, 0.2), gamma_grid=[0.1, math.inf]), id="sweep_gamma inf in grid"),
        pytest.param("gamma grid", lambda: sweep_gamma(wsd(400, 0.2), gamma_grid=[0.1, math.nan]), id="sweep_gamma nan in grid"),
        pytest.param("gamma grid", lambda: sweep_gamma(wsd(400, 0.2), gamma_grid=[0.1, -1.0]), id="sweep_gamma -1 in grid"),
        pytest.param("gamma grid", lambda: sweep_gamma(wsd(400, 0.2), gamma_grid=[0.0]), id="sweep_gamma 0 in grid"),
        pytest.param("gradient norm scale", lambda: best_iterate_curve(wsd(10, 0.2), GradNormModel(G=1e-200)), id="best_iterate_curve G=1e-200"),
        pytest.param("exponent alpha", lambda: loss(ScalingLaw(alpha=1e200), 1e8, 1e9), id="loss alpha=1e200"),
        pytest.param("exponent beta", lambda: tokens_for_delta(ScalingLaw(beta=1e-200), 1e9, 0.01), id="tokens_for_delta beta=1e-200"),
        pytest.param("exponent alpha", lambda: params_for_delta(ScalingLaw(alpha=1e-200), 1e8, 0.01), id="params_for_delta alpha=1e-200"),
    ],
)
def test_rejected_with_the_argument_named(name, call):
    with pytest.raises(ValueError, match=re.escape(name)):
        call()


def test_physical_memory_unknown_checks_nothing(monkeypatch):
    def no_sysconf(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(_checks.os, "sysconf", no_sysconf)
    _checks._physical_memory.cache_clear()
    try:
        assert _checks._physical_memory() is None
        _checks.fits_in_memory(2**80, "an array")
    finally:
        _checks._physical_memory.cache_clear()


def test_integer_takes_numpy_integers_and_no_bools():
    for n in (np.int64(3), np.uint64(3)):
        assert _checks.integer(n, "n") == 3
        assert type(_checks.integer(n, "n")) is int
    for bad in (True, np.bool_(True), np.float64(3.0), 3.0, "3", None):
        with pytest.raises(ValueError, match="integer n"):
            _checks.integer(bad, "n")
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        _checks.integer(-1, "n", 0)


@pytest.mark.parametrize(
    "check, good, bad",
    [
        (_checks.positive, [1e-300, 2, np.float64(1e300)], [0.0, -1.0, math.nan, math.inf]),
        (_checks.non_negative, [0.0, 3], [-1e-300, math.nan, math.inf]),
        (_checks.finite, [-1.0, 0.0, 1e300], [math.nan, math.inf, -math.inf]),
        (_checks.fraction, [1e-300, 0.5, 1], [0.0, 1.5, math.nan, math.inf]),
    ],
    ids=["positive", "non_negative", "finite", "fraction"],
)
def test_scale_checks_coerce_to_float(check, good, bad):
    for x in good:
        assert check(x, "x") == x and type(check(x, "x")) is float
    for x in [*bad, None, "abc", "2", [1.0]]:
        with pytest.raises(ValueError, match="^x must be"):
            check(x, "x")
