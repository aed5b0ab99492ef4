"""Scaling-law arithmetic: convert loss deltas into extra tokens or parameters.

Uses the parametric form L(N, D) = E + A / N**alpha + B / D**beta with
N the parameter count and D the token count.  The default constants are
the re-fitted Chinchilla values commonly used for this form.  A small
improvement delta in loss can then be priced in data ("how many extra
tokens buy the same drop?") or in model size.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._checks import non_negative, positive

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
        positive(self.E, "irreducible loss E")
        non_negative(self.A, "scaling prefactor A")
        non_negative(self.B, "scaling prefactor B")
        positive(self.alpha, "scaling exponent alpha")
        positive(self.beta, "scaling exponent beta")
        positive(self.loss_scale, "loss scale")


def _power(base: float, exponent: float, name: str) -> float:
    """base ** exponent, or a ValueError naming the exponent if the power over- or underflows."""
    try:
        return positive(base**exponent, f"scaling exponent {name}: {base} ** {exponent}")
    except OverflowError:
        raise ValueError(f"scaling exponent {name}: {base} ** {exponent} overflows") from None


def loss(law: ScalingLaw, N: float, D: float) -> float:
    """Predicted loss for N parameters trained on D tokens."""
    N, D = positive(N, "N"), positive(D, "D")
    return law.loss_scale * (law.E + law.A / _power(N, law.alpha, "alpha") + law.B / _power(D, law.beta, "beta"))


def _invert(loss_scale, prefactor, exponent, name, count, delta, added) -> float:
    """count2 with prefactor / count2**exponent = prefactor / count**exponent - delta / loss_scale.

    The InfeasibleTargetError names what is added.
    """
    delta = non_negative(delta, "loss delta")
    if delta == 0.0:
        return count
    gap = delta / loss_scale
    inverse = 1.0 / _power(count, exponent, name)
    if prefactor == 0.0 or inverse <= gap / prefactor:
        raise InfeasibleTargetError(f"a loss drop of {delta} is unreachable by adding {added}")
    return _power(inverse - gap / prefactor, -1.0 / exponent, name)


def tokens_for_delta(law: ScalingLaw, N: float, D1: float, delta: float) -> float:
    """Token count D2 with loss(N, D2) = loss(N, D1) - delta.

    N drops out of the difference; it is validated for interface
    symmetry only.  Inverting the data term gives
    D2 = (1/D1**beta - delta/B) ** (-1/beta).

    Raises InfeasibleTargetError when delta meets or exceeds the whole
    remaining data-limited loss B / D1**beta.
    """
    N, D1 = positive(N, "N"), positive(D1, "D1")
    return _invert(law.loss_scale, law.B, law.beta, "beta", D1, delta, f"tokens from D1={D1}")


def params_for_delta(law: ScalingLaw, N1: float, D: float, delta: float) -> float:
    """Parameter count N2 with loss(N2, D) = loss(N1, D) - delta.

    N2 = (1/N1**alpha - delta/A) ** (-1/alpha); raises
    InfeasibleTargetError when the drop exceeds the remaining
    model-limited loss A / N1**alpha.
    """
    N1, D = positive(N1, "N1"), positive(D, "D")
    return _invert(law.loss_scale, law.A, law.alpha, "alpha", N1, delta, f"parameters from N1={N1}")
