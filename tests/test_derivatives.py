"""Derivative tables, distributions, and influences.

The oracle builds each restriction point explicitly, evaluates the function
at both settings of the distinguished coordinate, and halves the difference;
everything else must match it bit for bit.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from boolfun import (
    BooleanFunction,
    InputError,
    InvariantError,
    conjunction,
    constant,
    dictator,
    disjunction,
    evaluate,
    fourier_coefficient,
    fwht,
    parity,
    singleton_masks,
)
from boolfun.core import _linear_sums, majority
from boolfun.derivatives import (
    DerivativeDistribution,
    DerivativeTable,
    _identity_breaks,
    _total_influences,
    derivative_distribution_counted,
    derivative_distribution_spectral,
    derivative_value_counts,
    discrete_derivative,
    expectation_of_derivative,
    influence,
    influence_profile,
    total_influence,
)
from boolfun.dyadic import HALF, ONE, ZERO, DyadicRational


def naive_derivative_values(f: BooleanFunction, i: int) -> list[int]:
    """Restriction-by-restriction differences, straight from evaluate()."""
    out = []
    for y in range(1 << (f.n - 1)):
        point = [0] * f.n
        for j in range(f.n - 1):
            coord = j if j < i - 1 else j + 1
            point[coord] = -1 if (y >> j) & 1 else 1
        point[i - 1] = 1
        up = evaluate(f, point)
        point[i - 1] = -1
        down = evaluate(f, point)
        out.append((up - down) // 2)
    return out


def random_function(rng, n):
    return BooleanFunction(n, rng.getrandbits(1 << n))


def test_derivative_matches_naive_exhaustive():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            for i in range(1, n + 1):
                assert list(discrete_derivative(f, i).values) == naive_derivative_values(f, i)


def test_derivative_matches_naive_random():
    rng = random.Random(271828)
    for n in (4, 5, 6, 8):
        for _ in range(8):
            f = random_function(rng, n)
            for i in range(1, n + 1):
                assert list(discrete_derivative(f, i).values) == naive_derivative_values(f, i)


def test_counts_match_table():
    rng = random.Random(13)
    for n in (1, 2, 4, 7):
        for _ in range(10):
            f = random_function(rng, n)
            for i in range(1, n + 1):
                vals = list(discrete_derivative(f, i).values)
                zero, plus, minus = derivative_value_counts(f, i)
                assert zero == vals.count(0)
                assert plus == vals.count(1)
                assert minus == vals.count(-1)


def test_counted_equals_spectral_exhaustive():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            spectrum = fwht(f)
            for i in range(1, n + 1):
                assert derivative_distribution_counted(f, i) == \
                    derivative_distribution_spectral(spectrum, i)


def test_counted_equals_spectral_random():
    rng = random.Random(5150)
    for n in (4, 6, 8, 10):
        for _ in range(10):
            f = random_function(rng, n)
            spectrum = fwht(f)
            for i in range(1, n + 1):
                assert derivative_distribution_counted(f, i) == \
                    derivative_distribution_spectral(spectrum, i)


def test_expectation_equals_singleton_coefficient():
    rng = random.Random(8888)
    for n in (1, 2, 5, 9):
        for _ in range(8):
            f = random_function(rng, n)
            spectrum = fwht(f)
            for i in range(1, n + 1):
                expect = expectation_of_derivative(discrete_derivative(f, i))
                assert expect == fourier_coefficient(spectrum, 1 << (i - 1))


def test_influence_identities():
    rng = random.Random(321)
    for n in (1, 3, 6):
        for _ in range(10):
            f = random_function(rng, n)
            spectrum = fwht(f)
            profile = influence_profile(spectrum)
            assert profile.total == total_influence(spectrum)
            for i in range(1, n + 1):
                dist = derivative_distribution_counted(f, i)
                # Pr[derivative != 0] is the influence
                assert ONE - dist.p_zero == influence(spectrum, i)
                assert dist.p_plus + dist.p_minus == profile.influences[i - 1]


def test_batch_identity_check_agrees_with_the_single_function_routes():
    # the counts summed over every coordinate, 2^n lin and 4^n inf of each
    # function, from the single-function routes, meet both identities in the
    # batch comparison; one more +1 value in row 0 breaks the first
    rng = random.Random(2929)
    for n in range(1, 9):
        fns = [random_function(rng, n) for _ in range(6)]
        counts = [[derivative_value_counts(f, i) for i in range(1, n + 1)] for f in fns]
        plus = np.array([sum(c[1] for c in row) for row in counts], dtype=np.int64)
        minus = np.array([sum(c[2] for c in row) for row in counts], dtype=np.int64)
        spectra = [fwht(f) for f in fns]
        lin = np.array([_linear_sums(s.coeffs, n) for s in spectra], dtype=np.int64)
        inf = np.array([_total_influences(s.squares, n) for s in spectra], dtype=np.int64)
        assert _identity_breaks(np.stack([plus, minus]), n, lin, inf).tolist() == [], n
        plus[0] += 1
        assert _identity_breaks(np.stack([plus, minus]), n, lin, inf).tolist() == [0], n


def test_total_influence_at_most_degree():
    from boolfun import degree
    rng = random.Random(2023)
    for n in (2, 4, 6, 8):
        for _ in range(15):
            spectrum = fwht(random_function(rng, n))
            assert total_influence(spectrum) <= degree(spectrum)


def test_named_function_derivatives():
    # dictator: derivative 1 along its coordinate, 0 elsewhere
    f = dictator(2, 3)
    assert set(discrete_derivative(f, 2).values) == {1}
    assert set(discrete_derivative(f, 1).values) == {0}
    assert set(discrete_derivative(f, 3).values) == {0}
    # parity at n >= 2: never zero, balanced signs
    dist = derivative_distribution_counted(parity(3), 1)
    assert dist.p_zero == ZERO and dist.p_plus == HALF and dist.p_minus == HALF
    # constants have identically zero derivatives
    for sign in (1, -1):
        zero, plus, minus = derivative_value_counts(constant(4, sign), 2)
        assert (plus, minus) == (0, 0) and zero == 8


def test_monotone_families_have_no_negative_derivative():
    for f in (conjunction(4), disjunction(4), majority(5), majority(6)):
        for i in range(1, f.n + 1):
            _, _, minus = derivative_value_counts(f, i)
            assert minus == 0


def test_distribution_triple_as_fractions():
    f = majority(3)
    dist = derivative_distribution_counted(f, 1)
    assert [p.as_fraction() for p in dist.as_triple()] == \
        [Fraction(1, 2), Fraction(1, 2), Fraction(0)]


def test_coordinate_range_errors():
    f = parity(3)
    spectrum = fwht(f)
    for bad in (0, 4, -1):
        with pytest.raises(InputError):
            discrete_derivative(f, bad)
        with pytest.raises(InputError):
            derivative_value_counts(f, bad)
        with pytest.raises(InputError):
            influence(spectrum, bad)


def test_distribution_invariants():
    with pytest.raises(InvariantError):
        DerivativeDistribution(HALF, HALF, HALF)
    with pytest.raises(InvariantError):
        DerivativeDistribution(DyadicRational(3, 1), ZERO, -HALF)


def test_derivative_table_validation():
    with pytest.raises(InvariantError):
        DerivativeTable(2, 1, [2, 0])
    with pytest.raises(InputError):
        DerivativeTable(2, 1, [0])
    with pytest.raises(InputError):
        DerivativeTable(2, 3, [0, 0])
    # the arity is checked before the coordinate: 1 <= 1 <= True would pass
    for n in (True, 0, 25, 2.0):
        with pytest.raises(InputError, match="arity"):
            DerivativeTable(n, 1, [0])
