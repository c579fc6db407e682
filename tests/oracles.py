"""Fraction oracles for the bound and the four-way equivalence.

Every quantity is rebuilt with stdlib Fractions from first principles:
coefficients by direct summation, derivative probabilities by explicit
restriction counting, and the majority side from the majority truth table
through the same slow code.  From the package only truth tables are used
(BooleanFunction, evaluate, majority); none of its transforms, reductions
or inequality formulas, so these stay independent of the code under test.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from boolfun import BooleanFunction, evaluate
from boolfun.majority import majority


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


@cache
def frac_majority_side(d: int) -> FracSide:
    return frac_side(majority(d))


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
