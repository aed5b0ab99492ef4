import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedbound.scaling import (
    ScalingLaw,
    loss,
    params_for_delta,
    tokens_for_delta,
)


def test_default_constants():
    law = ScalingLaw()
    assert law.E == 1.8172
    assert law.A == 482.01
    assert law.B == 2085.43
    assert law.alpha == 0.3478
    assert law.beta == 0.3658
    assert law.loss_scale == 1.0


def test_loss_hand_computation():
    law = ScalingLaw(E=2.0, A=10.0, B=20.0, alpha=0.5, beta=0.5)
    assert loss(law, 100.0, 400.0) == pytest.approx(2.0 + 1.0 + 1.0, rel=1e-15)
    scaled = ScalingLaw(E=2.0, A=10.0, B=20.0, alpha=0.5, beta=0.5, loss_scale=0.959)
    assert loss(scaled, 100.0, 400.0) == pytest.approx(0.959 * 4.0, rel=1e-15)


def test_tokens_for_delta_oracles():
    law = ScalingLaw()
    # measured 0 on both
    assert tokens_for_delta(law, 10.24e9, 0.01) == pytest.approx(10882286390.623322, rel=1e-15)
    assert tokens_for_delta(law, 20.48e9, 0.01) == pytest.approx(22155702486.471443, rel=1e-15)


def test_params_for_delta_oracles():
    law = ScalingLaw()
    # measured 0 on both
    assert params_for_delta(law, 124e6, 0.01) == pytest.approx(128959409.98558573, rel=1e-15)
    assert params_for_delta(law, 210e6, 0.01) == pytest.approx(220142415.20856225, rel=1e-15)


def test_zero_delta_is_identity():
    law = ScalingLaw()
    assert tokens_for_delta(law, 10.24e9, 0.0) == 10.24e9
    assert params_for_delta(law, 124e6, 0.0) == 124e6


@given(
    delta=st.floats(min_value=1e-4, max_value=0.05),
    D1=st.floats(min_value=1e9, max_value=1e11),
)
def test_tokens_round_trip(delta, D1):
    law = ScalingLaw()
    D2 = tokens_for_delta(law, D1, delta)
    assert D2 > D1
    achieved = loss(law, 124e6, D1) - loss(law, 124e6, D2)
    assert achieved == pytest.approx(delta, rel=2.7e-11)  # measured 6.6e-12 over 300 draws


@given(
    delta=st.floats(min_value=1e-4, max_value=0.05),
    N1=st.floats(min_value=1e7, max_value=1e10),
)
def test_params_round_trip(delta, N1):
    law = ScalingLaw()
    N2 = params_for_delta(law, N1, delta)
    assert N2 > N1
    achieved = loss(law, N1, 10.24e9) - loss(law, N2, 10.24e9)
    assert achieved == pytest.approx(delta, rel=2.7e-11)  # measured 6.8e-12 over 300 draws


def test_loss_scale_divides_the_delta():
    plain = ScalingLaw()
    rescaled = ScalingLaw(loss_scale=0.959)
    d_plain = tokens_for_delta(plain, 10.24e9, 0.01 / 0.959)
    d_rescaled = tokens_for_delta(rescaled, 10.24e9, 0.01)
    assert d_rescaled == pytest.approx(d_plain, rel=1e-15)  # measured 0


def test_infeasible_target_raises():
    law = ScalingLaw()
    # the token term contributes at most B/D1^beta; ask for more
    with pytest.raises(ValueError, match=r"^a loss drop of 10.0 is unreachable by adding tokens from D1=10240000000.0$"):
        tokens_for_delta(law, 10.24e9, 10.0)
    with pytest.raises(ValueError, match=r"^a loss drop of 10.0 is unreachable by adding parameters from N1=124000000.0$"):
        params_for_delta(law, 124e6, 10.0)


def test_zero_coefficient_law_is_always_infeasible():
    flat = ScalingLaw(E=2.0, A=0.0, B=0.0, alpha=0.5, beta=0.5)
    assert loss(flat, 1e8, 1e9) == 2.0
    with pytest.raises(ValueError, match=r"^a loss drop of 0.01 is unreachable by adding tokens from D1=1000000000.0$"):
        tokens_for_delta(flat, 1e9, 0.01)


def test_validation():
    with pytest.raises(ValueError):
        ScalingLaw(E=0.0)
    with pytest.raises(ValueError):
        ScalingLaw(A=-1.0)
    with pytest.raises(ValueError):
        ScalingLaw(B=-1.0)
    with pytest.raises(ValueError):
        ScalingLaw(alpha=0.0)
    with pytest.raises(ValueError):
        ScalingLaw(beta=-0.5)
    with pytest.raises(ValueError):
        ScalingLaw(loss_scale=0.0)
    law = ScalingLaw()
    with pytest.raises(ValueError):
        loss(law, -1.0, 1e9)
    with pytest.raises(ValueError):
        tokens_for_delta(law, 0.0, 0.01)
    with pytest.raises(ValueError):
        tokens_for_delta(law, 1e9, -0.01)
    with pytest.raises(ValueError):
        loss(law, 1e8, -1e9)
    with pytest.raises(ValueError):
        params_for_delta(law, -1e8, 0.01)


def test_tokens_scale_sublinearly_in_delta():
    # pricing 2*delta costs more than twice the extra tokens of delta
    law = ScalingLaw()
    base = 10.24e9
    extra1 = tokens_for_delta(law, base, 0.005) - base
    extra2 = tokens_for_delta(law, base, 0.01) - base
    assert extra2 > 2.0 * extra1


def test_loss_monotone_in_n_and_d():
    law = ScalingLaw()
    assert loss(law, 2e8, 1e10) < loss(law, 1e8, 1e10)
    assert loss(law, 1e8, 2e10) < loss(law, 1e8, 1e10)
    assert loss(law, 1e8, 1e10) > law.E
    assert math.isfinite(loss(law, 1e12, 1e13))
