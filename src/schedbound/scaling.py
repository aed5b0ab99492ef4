"""Scaling-law arithmetic: convert loss deltas into extra tokens or parameters.

Uses the parametric form L(N, D) = E + A / N**alpha + B / D**beta with
N the parameter count and D the token count.  The default constants are
the re-fitted Chinchilla values commonly used for this form.  A small
improvement delta in loss can then be priced in data ("how many extra
tokens buy the same drop?") or in model size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import _check_positive

# Scaling the loss by ln(32000)/ln(50257) ~ 0.959 converts between the
# 50k-vocabulary fit and a 32k-vocabulary training setup; pass it as
# loss_scale when comparing against 32k-vocab runs.
VOCAB_RESCALE_50K_TO_32K = 0.959


class InfeasibleTargetError(ValueError):
    """The requested loss drop is unreachable by scaling one axis alone."""


@dataclass(frozen=True)
class ScalingLaw:
    """L(N, D) = loss_scale * (E + A / N**alpha + B / D**beta).

    A = B = 0 degenerates to the constant floor E, which is allowed;
    the exponents and E must be positive.  loss_scale is an optional
    multiplicative adjustment (e.g. vocabulary rescaling), default off.
    Every constant must be finite.
    """

    E: float = 1.8172
    A: float = 482.01
    B: float = 2085.43
    alpha: float = 0.3478
    beta: float = 0.3658
    loss_scale: float = 1.0

    def __post_init__(self):
        _check_positive(self.E, "irreducible loss E")
        _check_non_negative(self.A, "scaling prefactor A")
        _check_non_negative(self.B, "scaling prefactor B")
        _check_positive(self.alpha, "scaling exponent alpha")
        _check_positive(self.beta, "scaling exponent beta")
        _check_positive(self.loss_scale, "loss scale")


def _check_non_negative(value: float, name: str):
    """Raise ValueError naming the parameter unless value is non-negative and finite."""
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_counts(**counts: float):
    for name, value in counts.items():
        _check_positive(value, name)


def loss(law: ScalingLaw, N: float, D: float) -> float:
    """Predicted loss for N parameters trained on D tokens."""
    _check_counts(N=N, D=D)
    return law.loss_scale * (law.E + law.A / N**law.alpha + law.B / D**law.beta)


def tokens_for_delta(law: ScalingLaw, N: float, D1: float, delta: float) -> float:
    """Token count D2 with loss(N, D2) = loss(N, D1) - delta.

    N drops out of the difference; it is validated for interface
    symmetry only.  Inverting the data term gives
    D2 = (1/D1**beta - delta/B) ** (-1/beta).

    Raises InfeasibleTargetError when delta meets or exceeds the whole
    remaining data-limited loss B / D1**beta.
    """
    _check_counts(N=N, D1=D1)
    _check_non_negative(delta, "loss delta")
    if delta == 0.0:
        return float(D1)
    gap = delta / law.loss_scale
    if law.B == 0.0 or 1.0 / D1**law.beta <= gap / law.B:
        raise InfeasibleTargetError(
            f"a loss drop of {delta} is unreachable by adding tokens from D1={D1}"
        )
    return float((1.0 / D1**law.beta - gap / law.B) ** (-1.0 / law.beta))


def params_for_delta(law: ScalingLaw, N1: float, D: float, delta: float) -> float:
    """Parameter count N2 with loss(N2, D) = loss(N1, D) - delta.

    N2 = (1/N1**alpha - delta/A) ** (-1/alpha); raises
    InfeasibleTargetError when the drop exceeds the remaining
    model-limited loss A / N1**alpha.
    """
    _check_counts(N1=N1, D=D)
    _check_non_negative(delta, "loss delta")
    if delta == 0.0:
        return float(N1)
    gap = delta / law.loss_scale
    if law.A == 0.0 or 1.0 / N1**law.alpha <= gap / law.A:
        raise InfeasibleTargetError(
            f"a loss drop of {delta} is unreachable by adding parameters from N1={N1}"
        )
    return float((1.0 / N1**law.alpha - gap / law.A) ** (-1.0 / law.alpha))
