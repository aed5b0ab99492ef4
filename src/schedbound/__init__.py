"""Last-iterate suboptimality bounds for SGD learning-rate schedules.

The library evaluates a last-iterate convergence bound for arbitrary
step-size schedules, tunes base learning rates and cooldown fractions
from it, transfers tuned settings across horizons, demonstrates the
cooldown loss drop on a small non-smooth problem, and prices loss
deltas with scaling-law arithmetic.
"""

import importlib

# each public name, by the module that defines it; `import schedbound` loads
# none of them, and the first use of a name imports its module (PEP 562), so
# that a CLI subcommand pays only for the modules it runs
_EXPORTS = {
    "bounds": (
        "BoundCurve",
        "BoundSpec",
        "GradNormModel",
        "MirrorSpec",
        "Workspace",
        "best_iterate_bound",
        "best_iterate_curve",
        "best_iterate_optimal_gamma",
        "best_iterate_terms",
        "bound_curve",
        "bound_terms",
        "bound_value",
        "constant_bound_exact",
        "harmonic",
        "linear_decay_bound_exact",
        "mirror_bound",
        "optimal_gamma",
        "polynomial_bound_approx",
        "tuned_bound",
        "wsd_bound_exact",
    ),
    "scaling": ("InfeasibleTargetError", "ScalingLaw", "params_for_delta", "tokens_for_delta"),
    "schedules": ("CooldownShape", "Schedule", "cooldown_start", "parse_spec", "with_cooldown"),
    "toy": ("RunRecord", "ToyProblem", "comparison_runs", "generate_problem", "linf_subgradient", "run_sgd"),
    "tuning": (
        "FitResult",
        "SweepResult",
        "TransferResult",
        "fit_inv_gamma_linear",
        "fit_inv_sqrt",
        "fit_polynomial",
        "lr_transfer_curve",
        "minimizer",
        "sweep_cooldown",
        "sweep_gamma",
        "transfer_horizon_cooldown",
        "transfer_horizon_rho",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
