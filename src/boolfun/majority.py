"""The majority family's profile and its linear-coefficient bound.

Maj_d is the sign of x_1 + ... + x_d with ties (even d, zero sum) sent to -1.
Its d linear coefficients are all equal by symmetry; M(d) denotes their sum,
with M(0) = 0 by convention.  M(d) also equals the expected absolute value
of the coordinate sum of d uniform signs, which gives an independent
binomial-sum route to the same number.

Profiles come from a closed form in a few big-integer operations; no
truth table or transform of Maj_d is built to compare against it.  The
table itself (majority) is built in core, beside the other named families.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import MAX_ARITY, _check_arity, _check_int
from .dyadic import ZERO, DyadicRational


@dataclass(frozen=True)
class MajorityProfile:
    """Exact summary of Maj_d used by the conjecture and equivalence checks."""

    d: int
    linear_coefficient: DyadicRational
    bound_M: DyadicRational
    total_influence: DyadicRational
    p_plus_per_coordinate: DyadicRational


@functools.cache
def majority_profile(d: int) -> MajorityProfile:
    """Maj_d's profile from the closed form (O'Donnell, Analysis of Boolean
    Functions, 2014, ch. 5).

    Coordinate i is pivotal exactly when the other d - 1 signs sum to 0 (odd
    d) or to +1 (even d, where ties go to -1): C(d-1, floor((d-1)/2)) of the
    2^(d-1) restrictions.  Maj_d is monotone, so its derivative is +1 exactly
    there and never -1, and Pr[+1] = Inf_i = fhat(i).  Summing over the d
    coordinates gives M(d) and the total influence.
    """
    _check_arity(d, "majority arity")
    coef = DyadicRational(math.comb(d - 1, (d - 1) // 2), d - 1)
    return MajorityProfile(
        d=d,
        linear_coefficient=coef,
        bound_M=d * coef,
        total_influence=d * coef,
        p_plus_per_coordinate=coef,
    )


def maj_linear_coefficient(d: int) -> DyadicRational:
    """The common value of the d singleton coefficients of Maj_d."""
    return majority_profile(d).linear_coefficient


def maj_bound(d: int) -> DyadicRational:
    """M(d): the sum of the linear coefficients of Maj_d, with M(0) = 0."""
    _check_int(d, 0, MAX_ARITY, "majority arity must be in {lo}..{hi}, got {value!r}")
    return majority_profile(d).bound_M if d else ZERO


def expected_abs_sum(n: int) -> DyadicRational:
    """E|x_1 + ... + x_n| for uniform signs, as an exact binomial sum."""
    _check_arity(n)
    total = sum(math.comb(n, k) * abs(n - 2 * k) for k in range(n + 1))
    return DyadicRational(total, n)
