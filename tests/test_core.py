"""Encoding, transform, and named-family behavior of the core module.

The transform oracle here is the direct O(4^n) summation over all points
and subsets, written from the definitions with no shared code beyond
evaluate(); the fast in-place transform must reproduce it exactly.
"""

import random

import numpy as np
import pytest

from boolfun import (
    MAX_ARITY,
    BooleanFunction,
    FourierSpectrum,
    InputError,
    InvariantError,
    builtin,
    conjunction,
    constant,
    degree,
    dictator,
    disjunction,
    evaluate,
    fourier_coefficient,
    from_hex,
    from_truth_table,
    function_from_spectrum,
    fwht,
    hex_digits,
    index_to_point,
    linear_sum,
    parity,
    point_to_index,
    singleton_masks,
    to_hex,
)
from boolfun.core import popcounts
from boolfun.dyadic import DyadicRational


def naive_spectrum(f: BooleanFunction) -> list[int]:
    """Scaled coefficients 2^n * fhat(S) straight from the definition."""
    out = []
    for mask in range(f.points):
        total = 0
        for idx in range(f.points):
            sign = 1
            for i in range(f.n):
                if (mask >> i) & 1 and (idx >> i) & 1:
                    sign = -sign
            total += f.value_at(idx) * sign
        out.append(total)
    return out


def random_function(rng: random.Random, n: int) -> BooleanFunction:
    return BooleanFunction(n, rng.getrandbits(1 << n))


# ---------------------------------------------------------------- encoding

def test_point_index_contract():
    # x_i = +1 stores bit 0; coordinate i occupies bit i-1
    assert point_to_index((1, 1, 1)) == 0
    assert point_to_index((-1, 1, 1)) == 1
    assert point_to_index((1, -1, 1)) == 2
    assert point_to_index((1, 1, -1)) == 4
    assert index_to_point(5, 3) == (-1, 1, -1)


def test_point_index_roundtrip():
    for n in range(1, 7):
        for idx in range(1 << n):
            assert point_to_index(index_to_point(idx, n)) == idx


def test_point_rejects_bad_coordinates():
    with pytest.raises(InputError):
        point_to_index((1, 0, 1))
    with pytest.raises(InputError):
        point_to_index((2,))


def test_evaluate_matches_table():
    rng = random.Random(11)
    for n in (1, 3, 5):
        f = random_function(rng, n)
        for idx in range(f.points):
            assert evaluate(f, index_to_point(idx, n)) == f.value_at(idx)
            assert f.value_at(idx) == 1 - 2 * f.bit(idx)
    with pytest.raises(InputError):
        evaluate(random_function(rng, 3), (1, 1))


def test_from_truth_table():
    f = from_truth_table([0, 1, 1, 0], 2)
    assert f.table == 0b0110
    with pytest.raises(InputError):
        from_truth_table([0, 1], 2)
    with pytest.raises(InputError):
        from_truth_table([0, 2, 0, 0], 2)


def test_function_validation():
    with pytest.raises(InputError):
        BooleanFunction(0, 0)
    with pytest.raises(InputError):
        BooleanFunction(MAX_ARITY + 1, 0)
    with pytest.raises(InputError):
        BooleanFunction(1, -1)
    with pytest.raises(InputError):
        BooleanFunction(1, 1 << 4)  # bits beyond the 2 table points


def test_values_read_only():
    vals = BooleanFunction(2, 0b0110).values()
    assert list(vals) == [1, -1, -1, 1]
    with pytest.raises(ValueError):
        vals[0] = 5


# ---------------------------------------------------------------- hex form

def test_hex_digit_counts():
    assert [hex_digits(n) for n in (1, 2, 3, 4, 5)] == [1, 1, 2, 4, 8]


def test_hex_roundtrip_exhaustive_small():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            text = to_hex(f)
            assert text.startswith("0x") and len(text) == 2 + hex_digits(n)
            assert text == text.lower()
            assert from_hex(text, n).table == table


def test_hex_roundtrip_random():
    rng = random.Random(23)
    for n in (4, 7, 10):
        for _ in range(20):
            f = random_function(rng, n)
            assert from_hex(to_hex(f), n) == f


def test_hex_accepts_uppercase_prefix_and_digits():
    assert from_hex("0XE8", 3).table == 0xE8
    assert from_hex("e8", 3).table == 0xE8


def test_hex_errors():
    with pytest.raises(InputError):
        from_hex("0xe8", 2)  # wrong width for the arity
    with pytest.raises(InputError):
        from_hex("0xg8", 3)
    with pytest.raises(InputError):
        from_hex("0x4", 1)  # set bit beyond the 2 points
    with pytest.raises(InputError):
        from_hex("0x", 1)
    # int(text, 16) would take each of these; none is a canonical table
    for text, n in [("+f", 3), (" f", 3), ("f ", 3), ("0x+f", 3), ("f_ff", 4),
                    ("-1", 3), ("0x0xff", 4), ("\u0663f", 3)]:
        with pytest.raises(InputError, match="invalid hex digit"):
            from_hex(text, n)


# ---------------------------------------------------------------- transform

def test_transform_matches_naive_exhaustive():
    for n in (1, 2):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            assert list(fwht(f).coeffs) == naive_spectrum(f)


def test_transform_matches_naive_random():
    rng = random.Random(314159)
    for n in (3, 4, 5, 6):
        for _ in range(12):
            f = random_function(rng, n)
            assert list(fwht(f).coeffs) == naive_spectrum(f)


def test_majority3_spectrum_values():
    spectrum = fwht(from_hex("0xe8", 3))
    coeffs = {mask: int(c) for mask, c in enumerate(spectrum.coeffs) if c}
    # scaled by 2^3: the three singletons at 1/2 and the full set at -1/2
    assert coeffs == {0b001: 4, 0b010: 4, 0b100: 4, 0b111: -4}


def test_parity_spectrum():
    for n in (1, 2, 5):
        spectrum = fwht(parity(n))
        assert int(spectrum.coeffs[(1 << n) - 1]) == 1 << n
        assert degree(spectrum) == n
        assert np.count_nonzero(spectrum.coeffs) == 1


def test_involution_reconstructs():
    rng = random.Random(77)
    for n in (1, 2, 4, 6, 8):
        for _ in range(10):
            f = random_function(rng, n)
            assert function_from_spectrum(fwht(f)) == f


def test_parseval_random():
    rng = random.Random(999)
    for n in (1, 3, 5, 7):
        for _ in range(10):
            c = fwht(random_function(rng, n)).coeffs
            assert int(np.dot(c, c)) == 1 << (2 * n)


def test_spectrum_invariant_rejections():
    with pytest.raises(InvariantError):
        FourierSpectrum(1, [1, 0])  # parity differs from 2^n
    with pytest.raises(InvariantError):
        FourierSpectrum(1, [2, 2])  # norm off
    with pytest.raises(InvariantError):
        FourierSpectrum(1, [4, 0])  # magnitude beyond 2^n
    with pytest.raises(InputError):
        FourierSpectrum(1, [2, 0, 0])


def test_function_from_spectrum_rejects_non_boolean():
    # norm and parity pass but the inverse transform is not +-1 valued
    spectrum = FourierSpectrum(2, [2, 2, 2, 2])
    with pytest.raises(InvariantError):
        function_from_spectrum(spectrum)


def test_fourier_coefficient_and_linear_sum():
    rng = random.Random(4242)
    for n in (1, 2, 4, 6):
        f = random_function(rng, n)
        spectrum = fwht(f)
        total = sum((fourier_coefficient(spectrum, m) for m in singleton_masks(n)),
                    DyadicRational(0))
        assert linear_sum(spectrum) == total
        assert fourier_coefficient(spectrum, 0).as_fraction() * (1 << n) == int(spectrum.coeffs[0])
    with pytest.raises(InputError):
        fourier_coefficient(spectrum, 1 << 6)
    with pytest.raises(InputError):
        fourier_coefficient(spectrum, -1)


def test_degree_fixtures():
    assert degree(fwht(constant(3, 1))) == 0
    assert degree(fwht(constant(3, -1))) == 0
    assert degree(fwht(dictator(2, 4))) == 1
    assert degree(fwht(from_hex("0xe8", 3))) == 3
    assert degree(fwht(conjunction(3))) == 3


def test_popcounts_values():
    assert list(popcounts(3)) == [0, 1, 1, 2, 1, 2, 2, 3]


# ---------------------------------------------------------------- families

def test_family_tables():
    assert to_hex(dictator(1, 1)) == "0x2"
    assert to_hex(dictator(1, 2)) == "0xa"
    assert to_hex(dictator(2, 2)) == "0xc"
    assert to_hex(parity(2)) == "0x6"
    assert to_hex(conjunction(2)) == "0xe"
    assert to_hex(disjunction(2)) == "0x8"
    assert to_hex(constant(2, 1)) == "0x0"
    assert to_hex(constant(2, -1)) == "0xf"


def test_family_semantics():
    rng = random.Random(60)
    for n in (1, 2, 5):
        for _ in range(15):
            x = tuple(rng.choice((1, -1)) for _ in range(n))
            i = rng.randint(1, n)
            assert evaluate(dictator(i, n), x) == x[i - 1]
            prod = 1
            for xi in x:
                prod *= xi
            assert evaluate(parity(n), x) == prod
            assert evaluate(conjunction(n), x) == (1 if min(x) == 1 else -1)
            assert evaluate(disjunction(n), x) == (1 if max(x) == 1 else -1)
            assert evaluate(constant(n, -1), x) == -1


def test_builtin_dispatch():
    assert builtin("parity", (3,)) == parity(3)
    assert builtin("and", (2,)) == conjunction(2)
    assert builtin("or", (2,)) == disjunction(2)
    assert builtin("dictator", (2, 3)) == dictator(2, 3)
    assert builtin("constant", ("+", 2)) == constant(2, 1)
    assert builtin("const", ("-", 2)) == constant(2, -1)
    assert builtin("constant", (1, 2)) == constant(2, 1)
    with pytest.raises(InputError):
        builtin("majority", (3,))  # lives in its own module, not here
    with pytest.raises(InputError):
        builtin("parity", ())
    with pytest.raises(InputError):
        builtin("constant", ("?", 2))
    with pytest.raises(InputError):
        builtin("dictator", (5, 3))
