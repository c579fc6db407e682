"""Fraction oracles for the bound and the four-way equivalence.

Every quantity is rebuilt with stdlib Fractions from first principles:
coefficients by direct summation, derivative probabilities by explicit
restriction counting, and the majority side from the majority truth table
through the same slow code.  Past d = 8, where that table is too long to
sum over, the majority side is summed by weight class from the sign of the
coordinate sum instead (frac_symmetric_side); the two routes are compared
for d <= 8 in test_majority.py.  From the package only truth tables are
used (BooleanFunction, evaluate, majority); none of its transforms,
reductions or inequality formulas, so these stay independent of the code
under test.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from boolfun import BooleanFunction, evaluate
from boolfun.core import majority


def frac_coefficient(f: BooleanFunction, mask: int) -> Fraction:
    total = 0
    for idx in range(f.points):
        sign = -1 if bin(mask & idx).count("1") % 2 else 1
        total += f.value_at(idx) * sign
    return Fraction(total, f.points)


def frac_derivative_probs(f: BooleanFunction, i: int):
    plus = minus = 0
    for y in range(1 << (f.n - 1)):
        point = [0] * f.n
        for j in range(f.n - 1):
            coord = j if j < i - 1 else j + 1
            point[coord] = -1 if (y >> j) & 1 else 1
        point[i - 1] = 1
        up = evaluate(f, point)
        point[i - 1] = -1
        diff = (up - evaluate(f, point)) // 2
        plus += diff == 1
        minus += diff == -1
    denom = 1 << (f.n - 1)
    return Fraction(plus, denom), Fraction(minus, denom)


@dataclass(frozen=True)
class FracSide:
    """One function's side of every inequality, plus its degree."""

    degree: int
    linear_sum: Fraction
    total_influence: Fraction
    sum_plus: Fraction
    sum_minus: Fraction


def frac_side(f: BooleanFunction) -> FracSide:
    spectrum = [frac_coefficient(f, mask) for mask in range(f.points)]
    weights = [bin(mask).count("1") for mask in range(f.points)]
    probs = [frac_derivative_probs(f, i) for i in range(1, f.n + 1)]
    return FracSide(
        degree=max(w for w, c in zip(weights, spectrum) if c),
        linear_sum=sum(spectrum[1 << k] for k in range(f.n)),
        total_influence=sum(w * c * c for w, c in zip(weights, spectrum)),
        sum_plus=sum(p for p, _ in probs),
        sum_minus=sum(m for _, m in probs),
    )


def frac_symmetric_side(d: int, value) -> FracSide:
    """FracSide of a symmetric function of d coordinates, given value(k), its
    value at the points with k coordinates equal to -1, summed by weight class."""
    # a set S of size m holds j of a point's k minus coordinates in
    # comb(m, j) * comb(d - m, k - j) ways, and then x_S = (-1)^j
    spectrum = [Fraction(sum(value(k) * (-1) ** j * comb(m, j) * comb(d - m, k - j)
                             for k in range(d + 1) for j in range(min(m, k) + 1)), 1 << d)
                for m in range(d + 1)]
    # along one coordinate: comb(d - 1, j) restrictions with j other minus
    # coordinates, where the derivative is (value(j) - value(j + 1)) / 2
    diffs = [(comb(d - 1, j), (value(j) - value(j + 1)) // 2) for j in range(d)]
    per_coordinate = Fraction(d, 1 << (d - 1))
    return FracSide(
        degree=max(m for m in range(d + 1) if spectrum[m]),
        linear_sum=d * spectrum[1],
        total_influence=sum(m * comb(d, m) * c * c for m, c in enumerate(spectrum)),
        sum_plus=per_coordinate * sum(count for count, diff in diffs if diff == 1),
        sum_minus=per_coordinate * sum(count for count, diff in diffs if diff == -1),
    )


def frac_majority_value(d: int):
    """Maj_d at k coordinates equal to -1: the sign of d - 2k, ties to -1."""
    return lambda k: 1 if d - 2 * k > 0 else -1


@cache
def frac_majority_side(d: int) -> FracSide:
    if d <= 8:
        return frac_side(majority(d))
    return frac_symmetric_side(d, frac_majority_value(d))


def frac_bound(d: int) -> Fraction:
    """M(d) as the linear sum of Maj_d, with M(0) = 0."""
    return frac_majority_side(d).linear_sum if d else Fraction(0)


def oracle_predicates(f: BooleanFunction, d: int, side: FracSide | None = None) -> dict[str, bool]:
    side = side or frac_side(f)
    maj = frac_majority_side(d)
    return {
        "original": side.linear_sum <= maj.linear_sum,
        "ineq_a": side.total_influence - maj.total_influence <= 2 * side.sum_minus,
        "ineq_b": side.sum_plus - maj.sum_plus <= side.sum_minus,
        "ineq_c": 2 * side.sum_plus <= side.total_influence + maj.total_influence,
    }
