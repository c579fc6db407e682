"""Bit-packed Boolean-valued functions and their exact Fourier spectra.

Encoding contract (bit-exact, shared by every module, the hex format and all
fixtures):

* A point x in {-1,1}^n maps to the table index
  ``idx = sum(b_i * 2**(i-1))`` with ``b_i = (1 - x_i) / 2``; coordinate i
  lives at bit i-1, and ``x_i = +1`` encodes as bit 0.
* The stored table bit is ``t_idx = (1 - f(x)) / 2``, so an all-zero table is
  the constant +1 function.
* A subset S of coordinates is the mask with bit i-1 set iff i is in S.
* As bytes, table bit idx is bit idx % 8 of byte idx // 8 (little-endian).
  Only the codec here (_table_bytes, _unpack_bits, _pack_bits) converts
  between a table integer and its bits.

Spectra are stored as the 2^n integers ``2**n * fhat(S)``; with that scaling
every quantity in the package is an exact integer or dyadic rational, and the
norm identity reads ``sum of squared entries == 4**n``.

A function's spectrum is built and validated once, on first use, and ``fwht``
returns that same read-only object on every later call; a spectrum likewise
squares its entries once.  The caches are invisible: equality, hashing, repr
and pickling see only ``(n, table)`` and ``(n, coeffs)``.
"""

from __future__ import annotations

import operator
import string
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
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


def _check_int(value, lo: int, hi: int | None, what: str) -> None:
    """The one integer gate: value must be an int but not a bool (though bool
    subclasses int), in lo..hi, with no upper limit if hi is None.

    what is the error message, a str.format template that may name value, lo
    and hi.  It is formatted only when the check fails, since the check runs
    on every single-function request."""
    if isinstance(value, bool) or not isinstance(value, int) or value < lo or (
            hi is not None and value > hi):
        raise InputError(what.format(value=value, lo=lo, hi=hi))


def _check_arity(value, what: str = "arity") -> None:
    """The range check for an arity, a majority d or a comparison d."""
    _check_int(value, 1, MAX_ARITY, what + " must be in {lo}..{hi}, got {value!r}")


def _parse_int(value) -> int:
    """An int unchanged, or the int a str spells in ASCII digits with an
    optional leading '-'; int() alone would also take '+', '_', whitespace
    and non-ASCII digits.  The range is the caller's to check."""
    if isinstance(value, int):
        return value
    digits = value.removeprefix("-") if isinstance(value, str) else ""
    if digits.isascii() and digits.isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise InputError(f"non-integer parameter {value!r}")


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
        _check_int(self.table, 0, None, "truth table must be a non-negative integer")
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
        vals = self._signs()
        vals.setflags(write=False)
        return vals

    def _signs(self) -> np.ndarray:
        """A fresh, writable +-1 value table."""
        vals = _unpack_bits((self.table,), self.n)[0].astype(np.int64)
        vals *= -2
        vals += 1
        return vals

    @cached_property
    def _spectrum(self) -> FourierSpectrum:
        # not a dataclass field, so eq, hash and repr never see it
        return FourierSpectrum(self.n, _butterfly(self._signs()))

    def __reduce__(self):
        # a pickle carries (n, table) only; the spectrum is rebuilt on demand
        return type(self), (self.n, self.table)


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """All 2^n integer-scaled coefficients ``2**n * fhat(S)``, indexed by mask.

    Construction checks the three structural invariants of a spectrum that
    came from a Boolean-valued function: entry parity matches 2^n, entries are
    bounded by 2^n, and the squared entries sum to exactly 4^n.  Entries must
    come in an integer type that int64 holds; nothing is cast or rounded.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_arity(self.n)
        coeffs = np.asarray(self.coeffs)
        if coeffs.dtype.kind not in "iu" or not np.can_cast(coeffs.dtype, np.int64):
            raise InputError(f"spectrum entries must be integers, got dtype {coeffs.dtype}")
        coeffs = np.ascontiguousarray(coeffs, dtype=np.int64)
        if coeffs.shape != (1 << self.n,):
            raise InputError(f"spectrum must have exactly 2^{self.n} entries")
        scale = 1 << self.n
        if np.any((coeffs - scale) & 1):
            raise InvariantError("spectrum entry parity differs from 2^n")
        # not abs(), which leaves -2^63 negative
        if np.any((coeffs < -scale) | (coeffs > scale)):
            raise InvariantError("spectrum entry exceeds 2^n in magnitude")
        # each part's squares sum to at most 2^62, so no int64 dot wraps
        parts = coeffs.reshape(-1, 1 << min(self.n, 62 - 2 * self.n))
        if sum(int(np.dot(c, c)) for c in parts) != scale * scale:
            raise InvariantError("squared spectrum entries do not sum to 4^n")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @cached_property
    def squares(self) -> np.ndarray:
        """The read-only squared entries 4^n * fhat(S)^2, built on first use."""
        squares = self.coeffs * self.coeffs
        squares.setflags(write=False)
        return squares

    def __reduce__(self):
        # rebuilt through __post_init__, so the entries come back read-only
        return type(self), (self.n, self.coeffs)


@lru_cache(maxsize=None)
def popcounts(n: int, dtype=np.int64) -> np.ndarray:
    """Read-only array of popcount(mask) for every mask below 2^n."""
    pc = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(dtype)
    pc.setflags(write=False)
    return pc


def _int_type(bound: int) -> type:
    """The narrowest of int16, int32 and int64 that holds bound."""
    for dtype in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise InvariantError(f"{bound} overflows int64")


# -- table codec --------------------------------------------------------------


def _table_bytes(tables: Sequence[int], n: int, dtype=np.uint8) -> np.ndarray:
    """Matrix whose row r holds the arity-n table tables[r] as little-endian
    words of dtype, low word first; a table under 8 bits takes one byte."""
    nbytes = ((1 << n) + 7) // 8
    buf = b"".join(t.to_bytes(nbytes, "little") for t in tables)
    return np.frombuffer(buf, dtype=dtype).reshape(len(tables), -1)


def _unpack_bits(tables: Sequence[int], n: int) -> np.ndarray:
    """uint8 matrix whose row r holds the 2^n table bits of tables[r]."""
    bits = np.unpackbits(_table_bytes(tables, n), axis=1, bitorder="little")
    return bits[:, : 1 << n]


def _pack_bits(bits) -> int:
    """The table integer whose bit idx is bits[idx]; inverse of _unpack_bits."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# -- construction and encoding ------------------------------------------------


def from_truth_table(bits: Sequence[int], n: int) -> BooleanFunction:
    """Build a function from its table bits, bit idx = (1 - f(x_idx)) / 2."""
    _check_arity(n)
    if len(bits) != 1 << n:
        raise InputError(f"expected 2^{n} = {1 << n} table bits, got {len(bits)}")
    for idx, b in enumerate(bits):
        if b not in (0, 1):
            raise InputError(f"table bit at index {idx} is {b!r}, expected 0 or 1")
    return BooleanFunction(n, _pack_bits(bits))


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
    return _table_hex(f.n, f.table)


def _table_hex(n: int, table: int) -> str:
    """to_hex of the arity-n table integer table, which the caller has made
    valid, so no BooleanFunction is built to check it."""
    return f"0x{table:0{hex_digits(n)}x}"


def point_to_index(x: Sequence[int]) -> int:
    idx = 0
    for i, xi in enumerate(x):
        if xi == -1 and isinstance(xi, int):
            idx |= 1 << i
        else:  # the int +1, not True or 1.0
            _check_int(xi, 1, 1, f"coordinate {i + 1} is {{value!r}}, expected +1 or -1")
    return idx


def index_to_point(idx: int, n: int) -> tuple[int, ...]:
    _check_arity(n)
    _check_int(idx, 0, (1 << n) - 1, "point index must be in {lo}..{hi}, got {value!r}")
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
    must hold every partial sum (|entries| <= 2^n for a +-1 row).

    Stages run two per pass over memory while two remain: the quarters a, b,
    c, d of each group of 4 * half entries become (a+b)+(c+d), (a-b)+(c-d),
    (a+b)-(c+d) and (a-b)-(c-d), exactly what the stages at half and 2 * half
    give, with the same partial sums.  A lone last stage pairs low and high
    halves."""
    *lead, width = mat.shape
    while 4 * half <= width:
        view = mat.reshape(*lead, width // (4 * half), 4, half)
        a, b, c, d = (view[..., j, :] for j in range(4))
        s, t, u, v = a + b, a - b, c + d, c - d
        view[..., 0, :] = s + u
        view[..., 1, :] = t + v
        view[..., 2, :] = s - u
        view[..., 3, :] = t - v
        half <<= 2
    if half < width:
        view = mat.reshape(*lead, width // (2 * half), 2, half)
        low = view[..., 0, :].copy()
        high = view[..., 1, :]
        view[..., 0, :] = low + high
        view[..., 1, :] = low - high
    return mat


def fwht(f: BooleanFunction) -> FourierSpectrum:
    """Exact integer spectrum of f: entry at mask m is sum_x f(x)*prod_{i in S_m} x_i.

    The butterfly runs on a private copy of the value table in O(n * 2^n)
    integer additions; with the encoding contract,
    prod_{i in S} x_i = (-1)^popcount(mask & idx), so this is the plain
    Walsh-Hadamard transform of the value table.  It runs once per function:
    every call returns the same spectrum object.
    """
    return f._spectrum


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
    return BooleanFunction(spectrum.n, _pack_bits(values < 0))


def fourier_coefficient(spectrum: FourierSpectrum, mask: int) -> DyadicRational:
    """The exact coefficient fhat(S_mask) = coeffs[mask] / 2^n."""
    _check_int(mask, 0, (1 << spectrum.n) - 1, "subset mask {value!r} out of range 0..{hi}")
    return DyadicRational(int(spectrum.coeffs[mask]), spectrum.n)


# The reductions below run along the last axis, 2^n entries indexed by mask,
# so they serve one spectrum and a block of spectra, one per row, alike.


def _degrees(coeffs: np.ndarray, n: int) -> np.ndarray:
    return ((coeffs != 0) * popcounts(n, np.int8)).max(axis=-1)


def _linear_sums(coeffs: np.ndarray, n: int) -> np.ndarray:
    """2^n times the sum of the singleton coefficients."""
    return np.take(coeffs, singleton_masks(n), axis=-1).sum(axis=-1)


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


_SIGN = "constant sign must be +1 or -1, got {value!r}"


def constant(n: int, sign: int) -> BooleanFunction:
    _check_arity(n)
    # the gate refuses bools and non-ints, which "in (1, -1)" alone lets by
    _check_int(sign, -1, 1, _SIGN)
    if sign == 0:
        raise InputError(_SIGN.format(value=sign))
    table = 0 if sign == 1 else (1 << (1 << n)) - 1
    return BooleanFunction(n, table)


def dictator(i: int, n: int) -> BooleanFunction:
    """f(x) = x_i."""
    _check_arity(n)
    _check_int(i, 1, n, "dictator coordinate {value!r} out of range for arity {hi}")
    h = 1 << (i - 1)
    return BooleanFunction(n, _repeat_pattern(((1 << h) - 1) << h, 2 * h, 1 << n))


def parity(n: int) -> BooleanFunction:
    """f(x) = x_1 * x_2 * ... * x_n: table bits add mod 2 under the product."""
    _check_arity(n)
    tables = (dictator(i, n).table for i in range(1, n + 1))
    return BooleanFunction(n, reduce(operator.xor, tables))


def conjunction(n: int) -> BooleanFunction:
    """+1 exactly at the all-+1 point (index 0)."""
    _check_arity(n)
    return BooleanFunction(n, (1 << (1 << n)) - 2)


def disjunction(n: int) -> BooleanFunction:
    """-1 exactly at the all--1 point (the top index)."""
    _check_arity(n)
    return BooleanFunction(n, 1 << ((1 << n) - 1))


def majority(d: int) -> BooleanFunction:
    """Maj_d, the sign of x_1 + ... + x_d; ties on even d evaluate to -1."""
    _check_arity(d, "majority arity")
    # index bit 1 means x = -1, so the sign sum is d - 2 * popcount
    return BooleanFunction(d, _pack_bits(2 * popcounts(d, np.int8) >= d))


# --fn families: name -> (constructor, parameter count).  Every parameter is
# an integer, but for a constant's sign, which comes first.
_FAMILIES = {
    "constant": (constant, 2),
    "const": (constant, 2),
    "dictator": (dictator, 2),
    "parity": (parity, 1),
    "and": (conjunction, 1),
    "or": (disjunction, 1),
    "maj": (majority, 1),
}
_SIGNS = {"+": 1, "-": -1, "+1": 1, "-1": -1}


def builtin(family: str, params: Sequence[int | str]) -> BooleanFunction:
    """Dispatch on a family name, as in the CLI's --fn family:params specs:
    constant/const, dictator, parity, and, or, maj.  Parameters are ints or
    strict decimal strings (_parse_int); a constant's sign is +, -, +1 or -1."""
    if family.lower() not in _FAMILIES:
        raise InputError(f"unknown function family {family!r}")
    make, count = _FAMILIES[family.lower()]
    if len(params) != count:
        raise InputError(f"family {family!r} takes {count} parameter(s), got {len(params)}")
    if make is constant:
        sign, n = params
        return constant(_parse_int(n), _SIGNS.get(sign, sign))
    return make(*map(_parse_int, params))
