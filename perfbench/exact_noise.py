"""Exact-oracle check of the noise term behind the bound-wsd-1e5 output check.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/exact_noise.py

For wsd:T=100000,c=0.2 it prints, at t = 99,999 and t = 100,000, the
relative error against an exact sum of `schedbound.bound_terms` and of the
long-double suffix-sum recomputation that the benchmark's check uses.  The
oracle writes every eta as an integer multiple of 2^-E, so the suffix sums
S_t - S_k are exact integers and only the t divisions round, at 60 digits.
"""

from __future__ import annotations

from decimal import Decimal, getcontext

import numpy as np

from schedbound import bounds, schedules
from workloads import terms_longdouble, wsd_eta

getcontext().prec = 60


def exact_noise(eta: np.ndarray, t: int) -> Decimal:
    """1/2 [eta_t + sum_{k<t} eta_k^2 / (S_t - S_k)] for G = 1, to about 1e-50 relative."""
    ratios = [float(x).as_integer_ratio() for x in eta[:t]]
    scale = max(den for _, den in ratios)  # every den is a power of two
    nums = [num * (scale // den) for num, den in ratios]
    total = Decimal(0)
    tail = 0
    for k in range(t - 1, 0, -1):  # 0-based k pairs eta_k with S_t - S_k = sum of nums[k:]
        tail += nums[k]
        total += Decimal(nums[k - 1] ** 2) / Decimal(tail)
    total = total / Decimal(scale) + Decimal(nums[t - 1]) / Decimal(scale)
    return total / 2


def main():
    T, c = 100_000, 0.2
    sched = schedules.wsd(T, c)
    eta = wsd_eta(T, c, "linear")
    if not np.array_equal(eta, sched.values):
        raise SystemExit("written-out wsd differs from schedbound.schedules.wsd")
    for t in (T - 1, T):
        exact = exact_noise(eta, t)
        _, program = bounds.bound_terms(sched, t=t)
        _, check = terms_longdouble(eta, t)
        err = lambda x: float(abs(Decimal(x) - exact) / exact)  # noqa: E731
        print(f"t={t}: bound_terms {err(program):.2e}, long-double check {err(check):.2e} relative")


if __name__ == "__main__":
    main()
