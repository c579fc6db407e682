"""The linear-coefficient bound and its three equivalent derivative forms.

For f of total degree d, the claim under test is that the sum of the n
singleton coefficients of f is at most M(d), the same sum for Maj_d.  The
three derivative inequalities checked alongside it compare f against Maj_d
through derivative value probabilities and total influence; each of them
holds exactly when the original inequality does, for every f and every d.

When d differs from n the comparison embeds both functions in
D = max(n, d) coordinates.  Irrelevant coordinates have identically zero
derivatives, so they add nothing to either side, but truncating the sums at
n instead would break the equivalence (a dictator on one coordinate against
d = 2 already separates the truncated forms).

Every inequality is decided once, here, as a comparison of two integers at
the common scale 2 * 4^D (D = max(n, d); the bound test uses d = deg f, so
D = n there).  The same formulas run on Python ints for one function and
elementwise on int64 arrays for a scan batch.  Their int64 headroom: with
2^n * |linear sum| <= n * 2^n, 4^n * Inf <= n * 4^n and each summed
derivative count <= n * 2^(n-1), every side stays below 2^55 in magnitude
for n <= 16 and d <= 24.  DyadicRational only presents the sides.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    MAX_ARITY,
    BooleanFunction,
    InputError,
    InvariantError,
    _linear_sums,
    degree,
    fwht,
)
from .derivatives import _total_influences, derivative_value_counts
from .dyadic import DyadicRational
from .majority import maj_bound


class _Scale(NamedTuple):
    """Multipliers and the Maj_d term that put every side over 2^shift."""

    shift: int  # 2D + 1
    linear: int  # for 2^n times the linear sum
    influence: int  # for 4^n times the total influence
    prob: int  # for a derivative-value count over 2^(n-1) restrictions
    # M(d) = Inf(Maj_d) = d * p_plus(d) (see majority_profile), so this one
    # value is the Maj_d side of all four inequalities
    maj: int


@functools.cache
def _scale(n: int, d: int) -> _Scale:
    """The shared constants for arity n against Maj_d; d = 0 gives M = 0."""
    shift = 2 * max(n, d) + 1
    m = maj_bound(d)
    return _Scale(shift, 1 << (shift - n), 1 << (shift - 2 * n), 1 << (shift - n + 1),
                  m.num << (shift - m.log2_den))


def _bound_sides(s: _Scale, lin):
    """(lhs, rhs) of linear sum <= M(d), from 2^n times the linear sum."""
    return lin * s.linear, s.maj


def _sides(s: _Scale, lin, inf, plus, minus) -> dict:
    """(lhs, rhs) of all four inequalities.

    lin and inf are the linear sum and total influence scaled by 2^n and 4^n;
    plus and minus count derivative values +1 and -1 summed over coordinates.
    """
    inf_term = inf * s.influence
    return {
        "original": _bound_sides(s, lin),
        "ineq_a": (inf_term - s.maj, 2 * minus * s.prob),
        "ineq_b": (plus * s.prob - s.maj, minus * s.prob),
        "ineq_c": (2 * plus * s.prob, inf_term + s.maj),
    }


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of the bound check for one function."""

    n: int
    degree: int
    linear_sum: DyadicRational
    bound: DyadicRational
    gap: DyadicRational
    satisfied: bool


@dataclass(frozen=True)
class EquivalencePredicates:
    """Truth values and exact sides of the four inequalities at a chosen d."""

    n: int
    d: int
    original: bool
    ineq_a: bool
    ineq_b: bool
    ineq_c: bool
    sides: dict[str, tuple[DyadicRational, DyadicRational]]

    @property
    def agreement(self) -> bool:
        return self.original == self.ineq_a == self.ineq_b == self.ineq_c


def check_conjecture(f: BooleanFunction) -> ConjectureReport:
    """Compare the singleton-coefficient sum of f against M(deg f)."""
    spectrum = fwht(f)
    d = degree(spectrum)
    s = _scale(f.n, d)
    lhs, rhs = _bound_sides(s, int(_linear_sums(spectrum.coeffs, f.n)))
    return ConjectureReport(
        n=f.n,
        degree=d,
        linear_sum=DyadicRational(lhs, s.shift),
        bound=DyadicRational(rhs, s.shift),
        gap=DyadicRational(rhs - lhs, s.shift),
        satisfied=lhs <= rhs,
    )


def equivalence_predicates(f: BooleanFunction, d: int) -> EquivalencePredicates:
    """Evaluate all four inequalities for f against Maj_d, exactly.

    d is free: it does not have to equal deg(f).  The sums run over the
    D = max(n, d) embedding coordinates; only 1..n contribute for f and only
    1..d for Maj_d.
    """
    if not isinstance(d, int) or not 1 <= d <= MAX_ARITY:
        raise InputError(f"comparison arity must be in 1..{MAX_ARITY}, got {d!r}")
    coeffs = fwht(f).coeffs
    plus = minus = 0
    for i in range(1, f.n + 1):
        _, p, m = derivative_value_counts(f, i)
        plus += p
        minus += m
    s = _scale(f.n, d)
    sides = _sides(s, int(_linear_sums(coeffs, f.n)), int(_total_influences(coeffs, f.n)),
                   plus, minus)
    truth = {name: lhs <= rhs for name, (lhs, rhs) in sides.items()}
    return EquivalencePredicates(
        n=f.n,
        d=d,
        original=truth["original"],
        ineq_a=truth["ineq_a"],
        ineq_b=truth["ineq_b"],
        ineq_c=truth["ineq_c"],
        sides={name: (DyadicRational(lhs, s.shift), DyadicRational(rhs, s.shift))
               for name, (lhs, rhs) in sides.items()},
    )


def assert_equivalence(f: BooleanFunction, d: int) -> EquivalencePredicates:
    """equivalence_predicates, raising InvariantError unless all four agree."""
    preds = equivalence_predicates(f, d)
    if not preds.agreement:
        raise InvariantError(
            f"equivalence broken at n={f.n} d={d} table={f.table:#x}: "
            f"original={preds.original} a={preds.ineq_a} "
            f"b={preds.ineq_b} c={preds.ineq_c}"
        )
    return preds
