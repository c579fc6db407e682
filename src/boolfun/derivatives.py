"""Discrete derivatives, influences, and derivative value distributions.

The derivative of f along coordinate i is half the difference of f across
flipping x_i; for a Boolean-valued f it takes values in {-1, 0, +1} on the
2^(n-1) restrictions y obtained by deleting coordinate i.  Restrictions are
indexed by re-packing the remaining coordinates in ascending order under the
core encoding, so coordinates below i keep their bit positions and those
above i shift down by one.

The value distribution of a derivative is computed here by two deliberately
independent routes: direct counting over the truth table, and the spectral
formulas p_zero = 1 - Inf_i, p_plus = (Inf_i + fhat(i))/2,
p_minus = (Inf_i - fhat(i))/2.  Their exact agreement on every function is a
tested identity, not an assumption; neither route calls the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BooleanFunction,
    FourierSpectrum,
    InputError,
    InvariantError,
    _repeat_pattern,
    _unpack_bits,
    fourier_coefficient,
    popcounts,
)
from .dyadic import HALF, ONE, ZERO, DyadicRational


def _check_coordinate(i: int, n: int) -> None:
    if not isinstance(i, int) or not 1 <= i <= n:
        raise InputError(f"coordinate {i!r} out of range for arity {n}")


@dataclass(frozen=True, eq=False)
class DerivativeTable:
    """Values of the derivative along coordinate i on all 2^(n-1) restrictions."""

    n: int
    i: int
    values: np.ndarray

    def __post_init__(self):
        _check_coordinate(self.i, self.n)
        values = np.ascontiguousarray(self.values, dtype=np.int8)
        if values.shape != (1 << (self.n - 1),):
            raise InputError(f"derivative table must have 2^{self.n - 1} entries")
        if np.any(np.abs(values) > 1):
            raise InvariantError("derivative of a Boolean-valued function is in {-1,0,+1}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class DerivativeDistribution:
    """Exact probabilities of derivative value 0, +1, -1 under the uniform restriction."""

    p_zero: DyadicRational
    p_plus: DyadicRational
    p_minus: DyadicRational

    def __post_init__(self):
        if self.p_zero + self.p_plus + self.p_minus != ONE:
            raise InvariantError("derivative value probabilities must sum to 1")
        for p in (self.p_zero, self.p_plus, self.p_minus):
            if p < ZERO or p > ONE:
                raise InvariantError("derivative value probability outside [0, 1]")

    def as_triple(self) -> tuple[DyadicRational, DyadicRational, DyadicRational]:
        return (self.p_zero, self.p_plus, self.p_minus)


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate influences and their exact total."""

    influences: tuple[DyadicRational, ...]
    total: DyadicRational


def _derivatives(bits: np.ndarray, i: int) -> np.ndarray:
    """Derivative along coordinate i of int8 table bits indexed by point on axis 0.

    Each block of 2^i points holds x_i = +1 in its low half and x_i = -1 in
    its high half, and (f at x_i=+1 minus f at x_i=-1)/2 = t_minus - t_plus,
    so the derivative is high half minus low half.  The result has shape
    (2^(n-i), 2^(i-1), *rest); its first two axes, flattened, run over the
    restrictions in order.  Trailing axes, one per table, ride along.
    """
    blocks = bits.reshape(-1, 2, 1 << (i - 1), *bits.shape[1:])
    return blocks[:, 1] - blocks[:, 0]


def discrete_derivative(f: BooleanFunction, i: int) -> DerivativeTable:
    """The {-1,0,+1}-valued table of the derivative of f along coordinate i."""
    _check_coordinate(i, f.n)
    bits = _unpack_bits((f.table,), f.points)[0].astype(np.int8)
    return DerivativeTable(f.n, i, _derivatives(bits, i).reshape(-1))


def derivative_value_counts(f: BooleanFunction, i: int) -> tuple[int, int, int]:
    """Counts of derivative values (0, +1, -1) over the 2^(n-1) restrictions.

    Pure bit arithmetic on the packed table: with lo marking the indices where
    coordinate i is +1, the +1 side bits are table & lo and the -1 side bits
    are (table >> 2^(i-1)) & lo, aligned pairwise.
    """
    _check_coordinate(i, f.n)
    h = 1 << (i - 1)
    lo = _repeat_pattern((1 << h) - 1, 2 * h, f.points)
    t_plus = f.table & lo
    t_minus = (f.table >> h) & lo
    plus = (t_minus & ~t_plus).bit_count()
    minus = (t_plus & ~t_minus).bit_count()
    return (1 << (f.n - 1)) - plus - minus, plus, minus


def derivative_distribution_counted(f: BooleanFunction, i: int) -> DerivativeDistribution:
    """Distribution obtained by counting table entries; no spectrum involved."""
    zero, plus, minus = derivative_value_counts(f, i)
    k = f.n - 1
    return DerivativeDistribution(
        DyadicRational(zero, k), DyadicRational(plus, k), DyadicRational(minus, k)
    )


def derivative_distribution_spectral(
    spectrum: FourierSpectrum, i: int
) -> DerivativeDistribution:
    """Distribution from Inf_i and fhat(i) alone; no truth-table counting."""
    inf_i = influence(spectrum, i)
    coef = fourier_coefficient(spectrum, 1 << (i - 1))
    return DerivativeDistribution(
        ONE - inf_i, (inf_i + coef) * HALF, (inf_i - coef) * HALF
    )


def influence(spectrum: FourierSpectrum, i: int) -> DyadicRational:
    """Inf_i = sum of squared coefficients over subsets containing i."""
    _check_coordinate(i, spectrum.n)
    member = (np.arange(1 << spectrum.n, dtype=np.int64) >> (i - 1)) & 1
    return DyadicRational(int(np.dot(spectrum.coeffs * member, spectrum.coeffs)), 2 * spectrum.n)


def _total_influences(coeffs: np.ndarray, n: int) -> np.ndarray:
    """4^n times the total influence, over the last axis of 2^n-scaled spectra."""
    return (coeffs * coeffs) @ popcounts(n)


def total_influence(spectrum: FourierSpectrum) -> DyadicRational:
    """Sum over all subsets of |S| * fhat(S)^2; equals the sum of the Inf_i."""
    return DyadicRational(int(_total_influences(spectrum.coeffs, spectrum.n)), 2 * spectrum.n)


def influence_profile(spectrum: FourierSpectrum) -> InfluenceProfile:
    influences = tuple(influence(spectrum, i) for i in range(1, spectrum.n + 1))
    total = ZERO
    for inf_i in influences:
        total = total + inf_i
    return InfluenceProfile(influences, total)


def expectation_of_derivative(table: DerivativeTable) -> DyadicRational:
    """Mean derivative value; equals fhat(i) for the source function."""
    return DyadicRational(int(table.values.sum(dtype=np.int64)), table.n - 1)
