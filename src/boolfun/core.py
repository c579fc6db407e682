"""Bit-packed Boolean-valued functions and their exact Fourier spectra.

Encoding contract (bit-exact, shared by every module, the hex format and all
fixtures):

* A point x in {-1,1}^n maps to the table index
  ``idx = sum(b_i * 2**(i-1))`` with ``b_i = (1 - x_i) / 2``; coordinate i
  lives at bit i-1, and ``x_i = +1`` encodes as bit 0.
* The stored table bit is ``t_idx = (1 - f(x)) / 2``, so an all-zero table is
  the constant +1 function.
* A subset S of coordinates is the mask with bit i-1 set iff i is in S.

Spectra are stored as the 2^n integers ``2**n * fhat(S)``; with that scaling
every quantity in the package is an exact integer or dyadic rational, and the
norm identity reads ``sum of squared entries == 4**n``.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dyadic import DyadicRational

MAX_ARITY = 24


class BoolfunError(Exception):
    """Base class for errors raised by this package."""


class InputError(BoolfunError, ValueError):
    """A caller-supplied value violates an operation's contract."""


class InvariantError(BoolfunError):
    """An internal consistency check failed; always a bug, never user error."""


def _check_arity(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_ARITY:
        raise InputError(f"arity must be an integer in [1, {MAX_ARITY}], got {n!r}")


@dataclass(frozen=True)
class BooleanFunction:
    """A function {-1,1}^n -> {-1,1} as a bit-packed truth table.

    ``table`` is the integer whose bit idx equals t_idx under the encoding
    contract above.  Immutable; instances hash and compare by value.
    """

    n: int
    table: int

    def __post_init__(self):
        _check_arity(self.n)
        if not isinstance(self.table, int) or self.table < 0:
            raise InputError("truth table must be a non-negative integer")
        if self.table >> self.points:
            raise InputError(f"truth table has set bits beyond 2^{self.n} points")

    @property
    def points(self) -> int:
        return 1 << self.n

    def bit(self, idx: int) -> int:
        return (self.table >> idx) & 1

    def value_at(self, idx: int) -> int:
        """f at the point encoded by idx, as +1 or -1."""
        return 1 - 2 * self.bit(idx)

    def values(self) -> np.ndarray:
        """The full +-1 value table as a read-only int64 array of length 2^n."""
        vals = 1 - 2 * _unpack_bits((self.table,), self.points)[0].astype(np.int64)
        vals.setflags(write=False)
        return vals


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """All 2^n integer-scaled coefficients ``2**n * fhat(S)``, indexed by mask.

    Construction checks the three structural invariants of a spectrum that
    came from a Boolean-valued function: entry parity matches 2^n, entries are
    bounded by 2^n, and the squared entries sum to exactly 4^n.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_arity(self.n)
        coeffs = np.ascontiguousarray(self.coeffs, dtype=np.int64)
        if coeffs.shape != (1 << self.n,):
            raise InputError(f"spectrum must have exactly 2^{self.n} entries")
        scale = 1 << self.n
        if np.any((coeffs - scale) & 1):
            raise InvariantError("spectrum entry parity differs from 2^n")
        if np.any(np.abs(coeffs) > scale):
            raise InvariantError("spectrum entry exceeds 2^n in magnitude")
        if int(np.dot(coeffs, coeffs)) != scale * scale:
            raise InvariantError("squared spectrum entries do not sum to 4^n")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


@lru_cache(maxsize=None)
def popcounts(n: int) -> np.ndarray:
    """Read-only array of popcount(mask) for every mask below 2^n."""
    pc = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.int64)
    pc.setflags(write=False)
    return pc


def _unpack_bits(tables: Sequence[int], points: int) -> np.ndarray:
    """uint8 matrix whose row r holds the first `points` table bits of tables[r]."""
    nbytes = (points + 7) // 8
    buf = b"".join(t.to_bytes(nbytes, "little") for t in tables)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(tables), nbytes)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :points]


# -- construction and encoding ------------------------------------------------


def from_truth_table(bits: Sequence[int], n: int) -> BooleanFunction:
    """Build a function from its table bits, bit idx = (1 - f(x_idx)) / 2."""
    _check_arity(n)
    if len(bits) != 1 << n:
        raise InputError(f"expected 2^{n} = {1 << n} table bits, got {len(bits)}")
    table = 0
    for idx, b in enumerate(bits):
        if b not in (0, 1):
            raise InputError(f"table bit at index {idx} is {b!r}, expected 0 or 1")
        table |= b << idx
    return BooleanFunction(n, table)


def hex_digits(n: int) -> int:
    """Number of hex digits in the canonical table encoding for arity n."""
    return ((1 << n) + 3) // 4


def from_hex(text: str, n: int) -> BooleanFunction:
    """Parse the canonical hex truth-table form: exactly ceil(2^n / 4) hex
    digits of either case, most significant first, after an optional 0x or
    0X prefix, and nothing else."""
    _check_arity(n)
    body = text[2:] if text[:2].lower() == "0x" else text
    want = hex_digits(n)
    if len(body) != want:
        raise InputError(
            f"hex table for arity {n} needs exactly {want} digit(s), got {len(body)}"
        )
    # int(body, 16) alone would also take a sign, underscores and whitespace
    if not set(body) <= set(string.hexdigits):
        raise InputError(f"invalid hex digit in truth table {text!r}")
    table = int(body, 16)
    if table >> (1 << n):
        raise InputError(f"hex table {text!r} has set bits beyond 2^{n} points")
    return BooleanFunction(n, table)


def to_hex(f: BooleanFunction) -> str:
    """Canonical lowercase hex form; inverse of from_hex."""
    return f"0x{f.table:0{hex_digits(f.n)}x}"


def point_to_index(x: Sequence[int]) -> int:
    idx = 0
    for i, xi in enumerate(x):
        if xi == -1:
            idx |= 1 << i
        elif xi != 1:
            raise InputError(f"coordinate {i + 1} is {xi!r}, expected +1 or -1")
    return idx


def index_to_point(idx: int, n: int) -> tuple[int, ...]:
    return tuple(1 - 2 * ((idx >> i) & 1) for i in range(n))


def evaluate(f: BooleanFunction, x: Sequence[int]) -> int:
    """f(x) for a point of {-1,1}^n."""
    if len(x) != f.n:
        raise InputError(f"point has {len(x)} coordinates, function has {f.n}")
    return f.value_at(point_to_index(x))


# -- transform and spectrum operations ----------------------------------------


def _butterfly(mat: np.ndarray, half: int = 1) -> np.ndarray:
    """In-place Walsh-Hadamard butterfly along the last axis of a C-contiguous
    integer array, so one call transforms every row of a batch.

    The stages start at the one that pairs entries half apart: with half = 2^k
    only the stages for coordinates k+1..n run, which completes the transform
    of a row whose blocks of 2^k entries are already transformed.  The dtype
    must hold every partial sum (|entries| <= 2^n for a +-1 row)."""
    *lead, width = mat.shape
    while half < width:
        view = mat.reshape(*lead, width // (2 * half), 2, half)
        low = view[..., 0, :].copy()
        high = view[..., 1, :]
        view[..., 0, :] = low + high
        view[..., 1, :] = low - high
        half <<= 1
    return mat


def fwht(f: BooleanFunction) -> FourierSpectrum:
    """Exact integer spectrum of f: entry at mask m is sum_x f(x)*prod_{i in S_m} x_i.

    The butterfly runs on a private copy in O(n * 2^n) integer additions; with
    the encoding contract, prod_{i in S} x_i = (-1)^popcount(mask & idx), so
    this is the plain Walsh-Hadamard transform of the value table.
    """
    return FourierSpectrum(f.n, _butterfly(f.values().copy()))


def function_from_spectrum(spectrum: FourierSpectrum) -> BooleanFunction:
    """Rebuild the truth table from a spectrum; exact inverse of fwht.

    Applying the butterfly to the scaled coefficients returns 2^n times the
    value table, so the division below is exact for any spectrum of a
    Boolean-valued function.
    """
    scaled = _butterfly(np.array(spectrum.coeffs, dtype=np.int64))
    values, rem = np.divmod(scaled, 1 << spectrum.n)
    if np.any(rem) or not np.all(np.abs(values) == 1):
        raise InvariantError("spectrum does not reconstruct to a +-1 value table")
    bits = (1 - values) // 2
    table = int.from_bytes(
        np.packbits(bits.astype(np.uint8), bitorder="little").tobytes(), "little"
    )
    return BooleanFunction(spectrum.n, table)


def fourier_coefficient(spectrum: FourierSpectrum, mask: int) -> DyadicRational:
    """The exact coefficient fhat(S_mask) = coeffs[mask] / 2^n."""
    if not isinstance(mask, int) or not 0 <= mask < (1 << spectrum.n):
        raise InputError(f"subset mask {mask!r} out of range for arity {spectrum.n}")
    return DyadicRational(int(spectrum.coeffs[mask]), spectrum.n)


# The reductions below run over the last axis, so they serve one spectrum and
# a matrix of spectra (one per row) alike.


def _degrees(coeffs: np.ndarray, n: int) -> np.ndarray:
    return ((coeffs != 0) * popcounts(n).astype(np.int8)).max(axis=-1)


def _linear_sums(coeffs: np.ndarray, n: int) -> np.ndarray:
    """2^n times the sum of the singleton coefficients."""
    return coeffs[..., singleton_masks(n)].sum(axis=-1)


def degree(spectrum: FourierSpectrum) -> int:
    """Largest |S| with a nonzero coefficient; 0 for constant functions."""
    return int(_degrees(spectrum.coeffs, spectrum.n))


def singleton_masks(n: int) -> list[int]:
    return [1 << k for k in range(n)]


def linear_sum(spectrum: FourierSpectrum) -> DyadicRational:
    """Exact sum of the n singleton coefficients fhat(1) + ... + fhat(n)."""
    return DyadicRational(int(_linear_sums(spectrum.coeffs, spectrum.n)), spectrum.n)


# -- named function families ---------------------------------------------------


def _repeat_pattern(block: int, width: int, total: int) -> int:
    # tile a width-bit block across total bits by doubling
    while width < total:
        block |= block << width
        width <<= 1
    return block


def constant(n: int, sign: int) -> BooleanFunction:
    _check_arity(n)
    if sign not in (1, -1):
        raise InputError(f"constant sign must be +1 or -1, got {sign!r}")
    table = 0 if sign == 1 else (1 << (1 << n)) - 1
    return BooleanFunction(n, table)


def dictator(i: int, n: int) -> BooleanFunction:
    """f(x) = x_i."""
    _check_arity(n)
    if not 1 <= i <= n:
        raise InputError(f"dictator coordinate {i} out of range for arity {n}")
    h = 1 << (i - 1)
    return BooleanFunction(n, _repeat_pattern(((1 << h) - 1) << h, 2 * h, 1 << n))


def parity(n: int) -> BooleanFunction:
    """f(x) = x_1 * x_2 * ... * x_n."""
    _check_arity(n)
    pattern, width = 0b10, 2
    while width < (1 << n):
        pattern |= (pattern ^ ((1 << width) - 1)) << width
        width <<= 1
    return BooleanFunction(n, pattern)


def conjunction(n: int) -> BooleanFunction:
    """+1 exactly at the all-+1 point (index 0)."""
    _check_arity(n)
    return BooleanFunction(n, (1 << (1 << n)) - 2)


def disjunction(n: int) -> BooleanFunction:
    """-1 exactly at the all--1 point (the top index)."""
    _check_arity(n)
    return BooleanFunction(n, 1 << ((1 << n) - 1))


def builtin(family: str, params: Sequence[int | str]) -> BooleanFunction:
    """Dispatch on a family name: constant/const, dictator, parity, and, or.

    Majority is intentionally not handled here; it lives in the majority
    module with its tie rule.
    """

    def ints(count: int) -> list[int]:
        if len(params) != count:
            raise InputError(
                f"family {family!r} takes {count} parameter(s), got {len(params)}"
            )
        try:
            return [int(p) for p in params]
        except (TypeError, ValueError):
            raise InputError(f"parameters for {family!r} must be integers") from None

    name = family.lower()
    if name in ("constant", "const"):
        if len(params) != 2:
            raise InputError("constant takes a sign and an arity")
        sign_raw, n_raw = params
        sign = {"+": 1, "-": -1, 1: 1, -1: -1, "+1": 1, "-1": -1}.get(sign_raw)
        if sign is None:
            raise InputError(f"constant sign must be '+' or '-', got {sign_raw!r}")
        try:
            return constant(int(n_raw), sign)
        except (TypeError, ValueError):
            raise InputError("constant arity must be an integer") from None
    if name == "dictator":
        i, n = ints(2)
        return dictator(i, n)
    if name == "parity":
        return parity(ints(1)[0])
    if name == "and":
        return conjunction(ints(1)[0])
    if name == "or":
        return disjunction(ints(1)[0])
    raise InputError(f"unknown function family {family!r}")
