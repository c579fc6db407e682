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

As E[D_i f] = fhat(i) and Pr[D_i f != 0] = Inf_i (O'Donnell, Analysis of
Boolean Functions, 2014, 2.2), a table's derivative counts plus and minus,
summed over the coordinates, meet its spectrum in two identities:
2 (plus - minus) is 2^n times the linear sum, and 2^(n+1) (plus + minus) is
4^n times the total influence.  _identity_breaks compares both sides of
each for a batch of tables at once.

The influences read the spectrum's cached squares (``FourierSpectrum.squares``)
and never touch the truth table, so they stay on the spectral side.  Inf_i
sums the squares over the masks that contain i, while the total influence
weights every square by |S|; the profile's total is the sum of the Inf_i, so
the two totals are two different formulas and their agreement is tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BooleanFunction,
    FourierSpectrum,
    InputError,
    InvariantError,
    _check_arity,
    _check_int,
    _int_type,
    _repeat_pattern,
    _unpack_bits,
    popcounts,
)
from .dyadic import DyadicRational


_COORDINATE = "coordinate {value!r} out of range for arity {hi}"


@dataclass(frozen=True, eq=False)
class DerivativeTable:
    """Values of the derivative along coordinate i on all 2^(n-1) restrictions."""

    n: int
    i: int
    values: np.ndarray

    def __post_init__(self):
        _check_arity(self.n)
        _check_int(self.i, 1, self.n, _COORDINATE)
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
        # numerators over the common denominator 2^k
        k = max(p.log2_den for p in self.as_triple())
        nums = [p.num << (k - p.log2_den) for p in self.as_triple()]
        if sum(nums) != 1 << k:
            raise InvariantError("derivative value probabilities must sum to 1")
        if not all(0 <= num <= 1 << k for num in nums):
            raise InvariantError("derivative value probability outside [0, 1]")

    def as_triple(self) -> tuple[DyadicRational, DyadicRational, DyadicRational]:
        return (self.p_zero, self.p_plus, self.p_minus)


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate influences and their exact total."""

    influences: tuple[DyadicRational, ...]
    total: DyadicRational


def discrete_derivative(f: BooleanFunction, i: int) -> DerivativeTable:
    """The {-1,0,+1}-valued table of the derivative of f along coordinate i.

    Each block of 2^i points holds x_i = +1 in its low half and x_i = -1 in
    its high half, and (f at x_i=+1 minus f at x_i=-1)/2 = t_minus - t_plus,
    so the derivative is high half minus low half; flattened, the blocks run
    over the restrictions in order.
    """
    _check_int(i, 1, f.n, _COORDINATE)
    bits = _unpack_bits((f.table,), f.n)[0].astype(np.int8)
    blocks = bits.reshape(-1, 2, 1 << (i - 1))
    return DerivativeTable(f.n, i, (blocks[:, 1] - blocks[:, 0]).reshape(-1))


def derivative_value_counts(f: BooleanFunction, i: int) -> tuple[int, int, int]:
    """Counts of derivative values (0, +1, -1) over the 2^(n-1) restrictions.

    Pure bit arithmetic on the packed table: with lo marking the indices where
    coordinate i is +1, the +1 side bits are table & lo and the -1 side bits
    are (table >> 2^(i-1)) & lo, aligned pairwise.
    """
    _check_int(i, 1, f.n, _COORDINATE)
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
    """Distribution from Inf_i and fhat(i) alone; no truth-table counting.

    At the common scale 2^(2n+1), with 4^n Inf_i = inf and 2^n fhat(i) = coef,
    p_zero = 1 - Inf_i, p_plus = (Inf_i + fhat(i)) / 2 and
    p_minus = (Inf_i - fhat(i)) / 2 have the numerators below."""
    _check_int(i, 1, spectrum.n, _COORDINATE)
    n = spectrum.n
    inf = _influence_sum(spectrum.squares, i)
    coef = int(spectrum.coeffs[1 << (i - 1)]) << n
    k = 2 * n + 1
    return DerivativeDistribution(DyadicRational((2 << 2 * n) - 2 * inf, k),
                                  DyadicRational(inf + coef, k), DyadicRational(inf - coef, k))


def _influence_sum(squares: np.ndarray, i: int) -> int:
    """4^n * Inf_i: the squares in the high half of every block of 2^i masks,
    which are the masks that contain i."""
    return int(squares.reshape(-1, 2, 1 << (i - 1))[:, 1].sum())


def influence(spectrum: FourierSpectrum, i: int) -> DyadicRational:
    """Inf_i = sum of squared coefficients over subsets containing i."""
    _check_int(i, 1, spectrum.n, _COORDINATE)
    return DyadicRational(_influence_sum(spectrum.squares, i), 2 * spectrum.n)


def _total_influences(squares: np.ndarray, n: int) -> np.ndarray:
    """4^n times the total influence, from the squared entries of 2^n-scaled
    spectra along the last axis.  The squares of a spectrum sum to 4^n, so
    every weighted square |S| * 4^n * fhat(S)^2 and every partial sum of them
    is at most n * 4^n; they are taken in a type that holds that bound."""
    acc = np.promote_types(squares.dtype, _int_type(n << 2 * n))
    return np.einsum("...j,j->...", squares, popcounts(n, acc))


def _identity_breaks(plus: np.ndarray, minus: np.ndarray, n: int, lin: np.ndarray,
                     inf: np.ndarray) -> np.ndarray:
    """The rows of arity-n tables that break one of the two identities of the
    module docstring, ascending, from both sides of each per row: the
    derivative counts plus and minus, in a type that holds 2^(n+1) times
    their sum, against 2^n lin and 4^n inf."""
    return np.flatnonzero((2 * (plus - minus) != lin) | ((plus + minus) << (n + 1) != inf))


def total_influence(spectrum: FourierSpectrum) -> DyadicRational:
    """Sum over all subsets of |S| * fhat(S)^2; equals the sum of the Inf_i."""
    return DyadicRational(int(_total_influences(spectrum.squares, spectrum.n)), 2 * spectrum.n)


def influence_profile(spectrum: FourierSpectrum) -> InfluenceProfile:
    """Every Inf_i, and their sum as the total (not total_influence's formula)."""
    scaled = [_influence_sum(spectrum.squares, i) for i in range(1, spectrum.n + 1)]
    k = 2 * spectrum.n
    return InfluenceProfile(tuple(DyadicRational(v, k) for v in scaled),
                            DyadicRational(sum(scaled), k))


def expectation_of_derivative(table: DerivativeTable) -> DyadicRational:
    """Mean derivative value; equals fhat(i) for the source function."""
    return DyadicRational(int(table.values.sum(dtype=np.int64)), table.n - 1)
