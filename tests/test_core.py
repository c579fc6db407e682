"""Encoding, transform, and named-family behavior of the core module.

The transform oracle here is the direct O(4^n) summation over all points
and subsets, written from the definitions with no shared code beyond
evaluate(); the fast in-place transform must reproduce it exactly.
"""

import hashlib
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

import boolfun.core as core
from boolfun import (
    MAX_ARITY,
    BooleanFunction,
    FourierSpectrum,
    InputError,
    InvariantError,
    builtin,
    check_conjecture,
    conjunction,
    constant,
    degree,
    dictator,
    disjunction,
    equivalence_predicates,
    evaluate,
    fourier_coefficient,
    from_hex,
    from_truth_table,
    function_from_spectrum,
    fwht,
    hex_digits,
    index_to_point,
    influence_profile,
    linear_sum,
    majority,
    parity,
    point_to_index,
    singleton_masks,
    to_hex,
)
from boolfun.core import _check_int, _pack_bits, _parse_int, _unpack_bits, popcounts
from boolfun.derivatives import derivative_value_counts
from boolfun.dyadic import DyadicRational
from boolfun.majority import expected_abs_sum, majority_profile
from boolfun.scan import ScanConfig


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
    # only the ints +1 and -1: a bool or a float is refused, not read as a sign
    for x in ((True, -1, 1), (1, False, 1), (1.0, -1, 1), (1, -1.0, 1)):
        with pytest.raises(InputError, match="coordinate"):
            point_to_index(x)
        with pytest.raises(InputError):
            evaluate(majority(3), x)


def test_index_to_point_checks_index_and_arity():
    assert index_to_point(0, 3) == (1, 1, 1)
    assert index_to_point(7, 3) == (-1, -1, -1)
    for idx, n in ((-1, 3), (8, 3), (3, True), (True, 3), (1.0, 3), (0, 0), (0, 25), (2, 1.0)):
        with pytest.raises(InputError):
            index_to_point(idx, n)


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
    for bad in (2, None):
        with pytest.raises(InputError, match="index 1"):
            from_truth_table([0, bad, 0, 0], 2)


def test_from_truth_table_roundtrip():
    rng = random.Random(19)
    for n in range(1, 21):
        f = random_function(rng, n)
        assert from_truth_table([(1 - v) // 2 for v in f.values()], n) == f, n
    for n in (1, 5, 12):
        assert from_truth_table([0] * (1 << n), n) == constant(n, 1)
        assert from_truth_table([1] * (1 << n), n) == constant(n, -1)


def test_table_codec_roundtrip():
    rng = random.Random(16)
    for n in range(1, 17):
        tables = [0, (1 << (1 << n)) - 1, rng.getrandbits(1 << n)]
        bits = _unpack_bits(tables, n)
        assert bits.shape == (3, 1 << n)
        assert [_pack_bits(row) for row in bits] == tables, n


def test_function_validation():
    with pytest.raises(InputError):
        BooleanFunction(0, 0)
    with pytest.raises(InputError):
        BooleanFunction(MAX_ARITY + 1, 0)
    with pytest.raises(InputError):
        BooleanFunction(1, -1)
    with pytest.raises(InputError):
        BooleanFunction(1, 1 << 4)  # bits beyond the 2 table points


# neither a bool (though bool subclasses int) nor a non-int is an arity, a d
# or a coordinate
@pytest.mark.parametrize("call", [
    lambda: BooleanFunction(True, 1),
    lambda: majority(True),
    lambda: majority_profile(True),
    lambda: expected_abs_sum(True),
    lambda: equivalence_predicates(majority(3), True),
    lambda: ScanConfig(n=2, mode="exhaustive", equivalence_d_range=(True,)),
    lambda: derivative_value_counts(majority(3), True),
    lambda: dictator("2", 3),
    lambda: dictator(1.0, 3),
    lambda: constant(2, True),
    lambda: constant(2, 1.0),
    lambda: builtin("constant", (True, 2)),
])
def test_bools_and_non_ints_are_input_errors(call):
    with pytest.raises(InputError):
        call()


# a bool table or mask, and parameters that int() would coerce to another
# function than the one asked for
@pytest.mark.parametrize("call", [
    lambda: BooleanFunction(1, True),
    lambda: fourier_coefficient(fwht(majority(3)), True),
    lambda: builtin("maj", (3.5,)),
    lambda: builtin("maj", ("1_1",)),
    lambda: builtin("maj", (" +3",)),
    lambda: builtin("dictator", (1.9, 2.7)),
])
def test_inputs_are_checked_not_coerced(call):
    with pytest.raises(InputError):
        call()


def test_parse_int_is_strict():
    for text, value in (("0", 0), ("17", 17), ("-3", -3), ("007", 7), (5, 5)):
        assert _parse_int(text) == value
    for bad in ("+3", "1_0", " 2", "2 ", "", "-", "--1", "3.0", "\u0663", "\u00b2", 3.5, None):
        with pytest.raises(InputError, match="non-integer parameter"):
            _parse_int(bad)
    with pytest.raises(InputError):
        _parse_int("9" * 5000)  # past int()'s digit limit


def test_check_int_formats_only_on_failure():
    _check_int(3, 1, None, "{no_such_field}")
    with pytest.raises(InputError, match="^x 0 not in 1..2$"):
        _check_int(0, 1, 2, "x {value} not in {lo}..{hi}")


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


def sylvester(m: int) -> list[list[int]]:
    """The 2^m x 2^m Sylvester-Hadamard matrix, H_2a = [[H_a, H_a], [H_a, -H_a]]."""
    h = [[1]]
    for _ in range(m):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def test_butterfly_matches_sylvester_hadamard():
    # started at half, the butterfly applies H_(width/half) to the entries
    # q * half + r for each r; every stage count from 0 to 10 is covered, odd
    # and even, on batched rows and a single row of each integer type
    rng = random.Random(2718)
    for m in range(11):
        width = 1 << m
        for s in range(m + 1):
            half, h = 1 << s, sylvester(m - s)
            # every partial sum of these entries fits in int16
            bound = np.iinfo(np.int16).max >> (m - s)
            rows = [[rng.randint(-bound, bound) for _ in range(width)] for _ in range(3)]
            want = [[sum(hq[p] * row[p * half + r] for p in range(len(h)))
                     for hq in h for r in range(half)] for row in rows]
            for dtype in (np.int16, np.int32, np.int64):
                mat = np.array(rows, dtype=dtype)
                assert core._butterfly(mat, half) is mat
                assert mat.dtype == dtype and mat.tolist() == want, (m, s, dtype)
                row = np.array(rows[0], dtype=dtype)
                assert core._butterfly(row, half).tolist() == want[0], (m, s, dtype)


def test_spectrum_invariant_rejections():
    with pytest.raises(InvariantError):
        FourierSpectrum(1, [1, 0])  # parity differs from 2^n
    with pytest.raises(InvariantError):
        FourierSpectrum(1, [2, 2])  # norm off
    with pytest.raises(InvariantError):
        FourierSpectrum(1, [4, 0])  # magnitude beyond 2^n
    with pytest.raises(InputError):
        FourierSpectrum(1, [2, 0, 0])


@pytest.mark.parametrize("coeffs", [
    [2.7, 0.1],                                    # floats are not truncated
    np.array([2.0, 0.0]),                          # nor integral floats cast
    np.array([True, False]),
    np.array([2 + 0j, 0j]),
    np.array([Fraction(2), 0], dtype=object),
    np.array([2, 0], dtype=object),                # object arrays, even of ints
    np.array([2, 0], dtype=np.uint64),             # int64 does not hold uint64
    [2**70, 0],
])
def test_spectrum_refuses_non_integer_entries(coeffs):
    with pytest.raises(InputError):
        FourierSpectrum(1, coeffs)


def test_spectrum_takes_narrow_integer_types():
    for dtype in (np.int8, np.int16, np.int32, np.uint8, np.uint32):
        spectrum = FourierSpectrum(1, np.array([2, 0], dtype=dtype))
        assert spectrum.coeffs.dtype == np.int64
        assert function_from_spectrum(spectrum) == constant(1, 1)


def test_spectrum_checks_do_not_wrap():
    # abs(-2^63) is still -2^63 in int64, and (-2^63)^2 wraps to 0
    with pytest.raises(InvariantError):
        FourierSpectrum(1, [-(2**63), 2])
    # 2^20 + 1 entries of 2^22 square to 4^22 + 2^64, which an int64 sum
    # reads as 4^22
    n = 22
    coeffs = np.zeros(1 << n, dtype=np.int64)
    coeffs[: (1 << 20) + 1] = 1 << n
    with pytest.raises(InvariantError):
        FourierSpectrum(n, coeffs)


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
    # sha256 of the hex tables at arity 24, so a rebuilt family keeps its bytes
    digests = {
        parity: "1413c9ee8bddb46c2c44d55f721a4431722739a7806f6001e6b12f5893b1d22f",
        majority: "6e75d2f39afdd0a96f518fa2704102825f261b158c80fdae6ce7c69e30317ac4",
    }
    for family, digest in digests.items():
        assert hashlib.sha256(to_hex(family(24)).encode()).hexdigest() == digest


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
    assert builtin("maj", (5,)) == majority(5)
    assert builtin("MAJ", ("3",)) == majority(3)
    with pytest.raises(InputError):
        builtin("majority", (3,))  # the family is spelled maj, as in --fn
    with pytest.raises(InputError):
        builtin("parity", ())
    with pytest.raises(InputError):
        builtin("constant", ("?", 2))
    with pytest.raises(InputError):
        builtin("dictator", (5, 3))


# ---------------------------------------------------------------- spectrum cache

def test_one_butterfly_per_function(monkeypatch):
    runs = []
    butterfly = core._butterfly

    def counted(mat, *args):
        runs.append(mat.shape)
        return butterfly(mat, *args)

    monkeypatch.setattr(core, "_butterfly", counted)
    f = BooleanFunction(4, 0x6996 ^ 0x0180)
    spectrum = fwht(f)
    check_conjecture(f)
    equivalence_predicates(f, 3)
    influence_profile(spectrum)
    assert fwht(f) is spectrum
    assert runs == [(16,)]
    # an equal but distinct function has its own cache
    fwht(BooleanFunction(4, f.table))
    assert len(runs) == 2


def test_cache_is_invisible_to_equality_hash_and_repr():
    a, b = BooleanFunction(3, 0xE8), BooleanFunction(3, 0xE8)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    fwht(a)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert len({a, b}) == 1
    fwht(b)
    assert a == b and hash(a) == hash(b)
    assert a != BooleanFunction(3, 0xE9)


def test_cached_arrays_are_read_only():
    f = BooleanFunction(3, 0xE8)
    spectrum = fwht(f)
    with pytest.raises(ValueError):
        spectrum.coeffs[0] = 0
    assert spectrum.squares is spectrum.squares
    assert spectrum.squares.tolist() == [c * c for c in spectrum.coeffs.tolist()]
    with pytest.raises(ValueError):
        spectrum.squares[0] = 0


def test_pickle_drops_the_cache():
    f = BooleanFunction(5, 0x8E3A61F0)
    spectrum = fwht(f)
    spectrum.squares
    clone = pickle.loads(pickle.dumps(f))
    assert clone == f and hash(clone) == hash(f)
    assert "_spectrum" not in vars(clone)
    coeffs = fwht(clone).coeffs
    assert coeffs.tolist() == spectrum.coeffs.tolist()
    assert not coeffs.flags.writeable
    # a spectrum pickled on its own is rebuilt and checked, not restored
    copy = pickle.loads(pickle.dumps(spectrum))
    assert copy.coeffs.tolist() == spectrum.coeffs.tolist()
    assert not copy.coeffs.flags.writeable
    assert "squares" not in vars(copy)
