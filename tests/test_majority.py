"""Majority family: tables, coefficients, the bound M, and its profile.

The profile is a closed form; the oracle here derives it the long way, from
Maj_d's truth table through the transform and counted derivatives.
"""

import math
from fractions import Fraction

import pytest

from boolfun import (
    InputError,
    conjunction,
    dictator,
    fourier_coefficient,
    fwht,
    linear_sum,
    to_hex,
    total_influence,
)
from boolfun.derivatives import derivative_value_counts
from boolfun.dyadic import ZERO, DyadicRational
from boolfun.majority import (
    expected_abs_sum,
    maj_bound,
    maj_linear_coefficient,
    majority,
    majority_profile,
)


def test_small_tables():
    assert to_hex(majority(1)) == "0x2"
    assert majority(1) == dictator(1, 1)
    # ties go to -1, so arity 2 collapses to conjunction
    assert majority(2) == conjunction(2)
    assert to_hex(majority(3)) == "0xe8"
    assert to_hex(majority(5)) == "0xfee8e880"


def test_tie_rule_even_arity():
    f = majority(4)
    # two coordinates at -1 balance the sum; the value must be -1
    assert f.value_at(0b0011) == -1
    assert f.value_at(0b0101) == -1
    assert f.value_at(0b0001) == 1
    assert f.value_at(0b0111) == -1


def test_odd_closed_form():
    # 2^(d-1) * (the common singleton coefficient) = C(d-1, (d-1)/2)
    for d in (1, 3, 5, 7, 9):
        coef = maj_linear_coefficient(d)
        assert coef.as_fraction() == Fraction(math.comb(d - 1, (d - 1) // 2), 1 << (d - 1))


def test_bound_fixtures():
    assert maj_bound(0) == ZERO
    assert maj_bound(1) == 1
    assert maj_bound(2) == 1
    assert maj_bound(3) == DyadicRational(3, 1)
    assert maj_bound(5) == DyadicRational(15, 3)


def test_bound_is_linear_sum_of_majority():
    for d in range(1, 10):
        assert maj_bound(d) == linear_sum(fwht(majority(d)))


def test_bound_matches_expected_abs_sum():
    for n in range(1, 10):
        assert maj_bound(n) == expected_abs_sum(n)


def test_expected_abs_sum_fixtures():
    assert expected_abs_sum(1) == 1
    assert expected_abs_sum(2) == 1
    assert expected_abs_sum(3) == DyadicRational(3, 1)
    assert expected_abs_sum(4) == DyadicRational(3, 1)


def test_bound_nondecreasing():
    values = [maj_bound(d) for d in range(11)]
    for a, b in zip(values, values[1:]):
        assert a <= b


def test_profile_invariants():
    for d in range(1, 10):
        prof = majority_profile(d)
        assert prof.bound_M == d * prof.linear_coefficient
        assert prof.total_influence == prof.bound_M
        for i in range(1, d + 1):
            zero, plus, minus = derivative_value_counts(majority(d), i)
            assert minus == 0
            assert DyadicRational(plus, d - 1) == prof.p_plus_per_coordinate


def transform_profile(d: int) -> tuple[DyadicRational, ...]:
    """The four profile fields of Maj_d from its 2^d-point transform."""
    maj = majority(d)
    spectrum = fwht(maj)
    (coef,) = {fourier_coefficient(spectrum, 1 << k) for k in range(d)}
    ((_, plus, minus),) = {derivative_value_counts(maj, i) for i in range(1, d + 1)}
    assert minus == 0
    return (coef, linear_sum(spectrum), total_influence(spectrum),
            DyadicRational(plus, d - 1))


def test_closed_form_profile_matches_transform_route():
    for d in range(1, 21):
        prof = majority_profile(d)
        got = (prof.linear_coefficient, prof.bound_M, prof.total_influence,
               prof.p_plus_per_coordinate)
        assert [(x.num, x.log2_den) for x in got] == \
            [(x.num, x.log2_den) for x in transform_profile(d)], d


def test_profile_memoized():
    assert majority_profile(6) is majority_profile(6)


def test_arity_validation():
    for bad in (0, -1, 25, 2.0):
        with pytest.raises(InputError):
            majority(bad)
        with pytest.raises(InputError):
            majority_profile(bad)
    with pytest.raises(InputError):
        expected_abs_sum(0)
