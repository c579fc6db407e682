"""DyadicRational against the stdlib Fraction as the reference arithmetic."""

import pickle
import random
from fractions import Fraction

import pytest

from boolfun.dyadic import HALF, ONE, ZERO, DyadicRational


def test_normalization_cases():
    assert (DyadicRational(6, 1).num, DyadicRational(6, 1).log2_den) == (3, 0)
    assert (DyadicRational(4, 2).num, DyadicRational(4, 2).log2_den) == (1, 0)
    assert (DyadicRational(0, 7).num, DyadicRational(0, 7).log2_den) == (0, 0)
    assert (DyadicRational(-12, 2).num, DyadicRational(-12, 2).log2_den) == (-3, 0)
    assert (DyadicRational(3, 4).num, DyadicRational(3, 4).log2_den) == (3, 4)


def test_construction_rejects_bad_types():
    with pytest.raises(TypeError):
        DyadicRational(1.5)
    with pytest.raises(TypeError):
        DyadicRational(1, "2")
    with pytest.raises(ValueError):
        DyadicRational(1, -1)


def test_immutability():
    d = DyadicRational(3, 1)
    with pytest.raises(AttributeError):
        d.num = 7


def test_display():
    assert DyadicRational(3, 1).display == "3/2"
    assert DyadicRational(4, 1).display == "2"
    assert DyadicRational(0, 3).display == "0"
    assert DyadicRational(-3, 2).display == "-3/4"
    assert str(HALF) == "1/2"


def test_constants():
    assert ZERO == 0 and ONE == 1 and HALF.as_fraction() == Fraction(1, 2)
    assert not ZERO and ONE and HALF


def _random_dyadic(rng):
    return DyadicRational(rng.randint(-500, 500), rng.randint(0, 10))


def test_arithmetic_matches_fraction():
    rng = random.Random(20240817)
    for _ in range(500):
        a, b = _random_dyadic(rng), _random_dyadic(rng)
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a + b).as_fraction() == fa + fb
        assert (a - b).as_fraction() == fa - fb
        assert (a * b).as_fraction() == fa * fb
        assert (-a).as_fraction() == -fa
        assert abs(a).as_fraction() == abs(fa)
        k = rng.randint(-9, 9)
        assert (a + k).as_fraction() == fa + k
        assert (k + a).as_fraction() == k + fa
        assert (a - k).as_fraction() == fa - k
        assert (k - a).as_fraction() == k - fa
        assert (a * k).as_fraction() == fa * k
        assert (k * a).as_fraction() == k * fa


def test_ordering_matches_fraction():
    rng = random.Random(97)
    for _ in range(500):
        a, b = _random_dyadic(rng), _random_dyadic(rng)
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a == b) == (fa == fb)
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)
        assert (a > b) == (fa > fb)
        assert (a >= b) == (fa >= fb)


def test_equality_with_ints():
    assert DyadicRational(4, 1) == 2
    assert DyadicRational(4, 1) != 3
    assert DyadicRational(1, 1) < 1
    assert 1 > DyadicRational(1, 1)


def test_hash_consistency():
    rng = random.Random(5)
    for _ in range(200):
        a = _random_dyadic(rng)
        b = DyadicRational(a.num * 4, a.log2_den + 2)
        assert a == b and hash(a) == hash(b)


def test_comparison_with_unrelated_type():
    assert DyadicRational(1) != "1"
    with pytest.raises(TypeError):
        _ = DyadicRational(1) < "1"


def test_pickle_roundtrip():
    for d in (ZERO, ONE, HALF, DyadicRational(-7, 5)):
        clone = pickle.loads(pickle.dumps(d))
        assert clone == d and clone.log2_den == d.log2_den


def test_bools_are_refused_as_operands():
    # a bool is no integer here, as at the package's integer gate: it builds
    # no value, and arithmetic and comparison with one are not implemented
    for args in ((False,), (True,), (1, False), (3, True)):
        with pytest.raises(TypeError):
            DyadicRational(*args)
    one = DyadicRational(1)
    for method in ("__eq__", "__lt__", "__add__", "__rsub__", "__mul__"):
        assert getattr(one, method)(True) is NotImplemented, method
    assert one != True and ZERO != False  # noqa: E712
    for op in (lambda: one + True, lambda: False - one, lambda: one * True, lambda: one < False):
        with pytest.raises(TypeError):
            op()
    # exact ints still take part
    assert one == 1 and one + 1 == 2 and DyadicRational(5, 1) < 3
