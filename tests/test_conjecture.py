"""The bound report and the four-way equivalence, against a Fraction oracle.

The oracle (tests/oracles.py) rebuilds every quantity with stdlib Fractions
from first principles and shares no arithmetic with the module under test.
"""

import random

import pytest

from boolfun import (
    BooleanFunction,
    InputError,
    check_conjecture,
    conjunction,
    constant,
    dictator,
    equivalence_predicates,
    assert_equivalence,
    parity,
)
from boolfun.dyadic import DyadicRational, ZERO
from boolfun.majority import majority
from oracles import oracle_predicates


# ------------------------------------------------------------------- tests

def test_report_fixtures():
    rep = check_conjecture(majority(3))
    assert (rep.n, rep.degree, rep.satisfied) == (3, 3, True)
    assert rep.linear_sum == DyadicRational(3, 1) == rep.bound and rep.gap == ZERO

    rep = check_conjecture(dictator(2, 4))
    assert (rep.degree, rep.linear_sum, rep.bound) == (1, 1, 1)

    rep = check_conjecture(parity(3))
    assert rep.degree == 3 and rep.linear_sum == ZERO
    assert rep.bound == DyadicRational(3, 1) and rep.satisfied

    rep = check_conjecture(constant(2, -1))
    assert rep.degree == 0 and rep.bound == ZERO and rep.satisfied

    rep = check_conjecture(conjunction(2))
    # equality case: both singleton coefficients are 1/2, and M(2) = 1
    assert rep.linear_sum == 1 == rep.bound and rep.gap == ZERO


def test_conjecture_holds_exhaustively_small():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            assert check_conjecture(BooleanFunction(n, table)).satisfied


def test_equivalence_fixture_majority3_low_d():
    preds = equivalence_predicates(majority(3), 1)
    assert not preds.original and not preds.ineq_a
    assert not preds.ineq_b and not preds.ineq_c
    assert preds.agreement
    lhs, rhs = preds.sides["original"]
    assert (lhs, rhs) == (DyadicRational(3, 1), DyadicRational(1))
    lhs, rhs = preds.sides["ineq_c"]
    assert (lhs, rhs) == (DyadicRational(3), DyadicRational(5, 1))


def test_equivalence_fixture_matched_degree():
    preds = equivalence_predicates(majority(3), 3)
    assert preds.original and preds.agreement
    lhs, rhs = preds.sides["original"]
    assert lhs == rhs == DyadicRational(3, 1)


def test_equivalence_embeds_when_d_exceeds_n():
    # the padded comparison agrees; the sums truncated at n would not
    f = dictator(1, 1)
    preds = assert_equivalence(f, 2)
    assert preds.original and preds.agreement
    lhs, rhs = preds.sides["ineq_b"]
    assert lhs == ZERO and rhs == ZERO
    # truncated at n = 1 the left side of ineq_b would read
    # Pr[d_1 f = 1] - Pr[d_1 Maj_2 = 1] = 1 - 1/2 > 0: disagreement
    assert DyadicRational(1) - DyadicRational(1, 1) > ZERO


def test_equivalence_agrees_with_oracle_exhaustive():
    for n in (1, 2):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            for d in range(1, 5):
                preds = equivalence_predicates(f, d)
                want = oracle_predicates(f, d)
                got = {name: lhs <= rhs for name, (lhs, rhs) in preds.sides.items()}
                assert got == want, (n, table, d)
                assert (preds.original, preds.ineq_a, preds.ineq_b, preds.ineq_c) == (
                    want["original"], want["ineq_a"], want["ineq_b"], want["ineq_c"])


def test_equivalence_agrees_with_oracle_random():
    rng = random.Random(160914)
    for n in (3, 4, 5):
        for _ in range(6):
            f = BooleanFunction(n, rng.getrandbits(1 << n))
            for d in (1, n, n + 2):
                preds = equivalence_predicates(f, d)
                assert {k: a <= b for k, (a, b) in preds.sides.items()} == \
                    oracle_predicates(f, d)


def test_all_functions_agree_small():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            for d in range(1, n + 2):
                assert_equivalence(f, d)


def test_side_identities():
    # with d = n the reported sides encode, for any f:
    #   lhs_a + rhs_c = 2 Inf[f],   2 sum_plus - 2 sum_minus = 2 linear_sum,
    #   2 sum_plus + 2 sum_minus = 2 Inf[f]
    rng = random.Random(31337)
    for n in (2, 4, 6):
        for _ in range(8):
            f = BooleanFunction(n, rng.getrandbits(1 << n))
            preds = equivalence_predicates(f, n)
            two_sum_plus = preds.sides["ineq_c"][0]
            two_sum_minus = preds.sides["ineq_a"][1]
            ls = preds.sides["original"][0]
            two_inf_f = preds.sides["ineq_a"][0] + preds.sides["ineq_c"][1]
            assert two_sum_plus - two_sum_minus == 2 * ls
            assert two_sum_plus + two_sum_minus == two_inf_f


def test_d_validation():
    f = parity(2)
    for bad in (0, -3, 25, 1.5):
        with pytest.raises(InputError):
            equivalence_predicates(f, bad)


def test_assert_equivalence_returns_predicates():
    preds = assert_equivalence(majority(3), 2)
    assert preds.agreement and preds.d == 2
