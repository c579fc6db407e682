"""Exact rationals with power-of-two denominators.

Every probability, Fourier coefficient, and influence in this package is a
dyadic rational (denominator dividing some 2^k), so a numerator plus a
log2-denominator represents all of them exactly.  Addition, subtraction and
multiplication stay inside the dyadics; no float ever enters or leaves.
"""

from __future__ import annotations

from fractions import Fraction


def _trailing_zeros(value: int) -> int:
    # value != 0; works for negatives because Python ints are two's-complement-like
    return ((value & -value)).bit_length() - 1


class DyadicRational:
    """An exact value num / 2**log2_den, kept in lowest terms.

    Normalization: zero is stored as (0, 0); otherwise the numerator is odd
    whenever log2_den > 0.  Instances are immutable values; share them freely.
    """

    __slots__ = ("num", "log2_den")

    def __init__(self, num: int, log2_den: int = 0):
        # exact ints only: a bool is refused, as by core._check_int, and so is
        # any other int subclass
        if type(num) is not int or type(log2_den) is not int:
            raise TypeError("numerator and log2 denominator must be ints")
        if log2_den < 0:
            raise ValueError("log2 denominator must be non-negative")
        if num == 0:
            log2_den = 0
        else:
            shift = min(_trailing_zeros(num), log2_den)
            num >>= shift
            log2_den -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "log2_den", log2_den)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicRational is immutable")

    # -- conversions ---------------------------------------------------------

    @property
    def display(self) -> str:
        """Human-readable form, e.g. "3/2", "-1/4", "2", "0"."""
        if self.log2_den == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.log2_den}"

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.log2_den)

    def __str__(self) -> str:
        return self.display

    def __repr__(self) -> str:
        return f"DyadicRational({self.num}, {self.log2_den})"

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "DyadicRational | None":
        if isinstance(other, DyadicRational):
            return other
        if type(other) is int:
            return DyadicRational(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        k = max(self.log2_den, rhs.log2_den)
        return DyadicRational(
            (self.num << (k - self.log2_den)) + (rhs.num << (k - rhs.log2_den)), k
        )

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __neg__(self):
        return DyadicRational(-self.num, self.log2_den)

    def __abs__(self):
        return DyadicRational(abs(self.num), self.log2_den)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return DyadicRational(self.num * rhs.num, self.log2_den + rhs.log2_den)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.num != 0

    # -- total order ---------------------------------------------------------

    def _cmp(self, other) -> int | None:
        rhs = self._coerce(other)
        if rhs is None:
            return None
        diff = (self.num << rhs.log2_den) - (rhs.num << self.log2_den)
        return (diff > 0) - (diff < 0)

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        return hash((self.num, self.log2_den))

    def __reduce__(self):
        # frozen __setattr__ defeats the default slot-state protocol
        return (DyadicRational, (self.num, self.log2_den))


ZERO = DyadicRational(0)
ONE = DyadicRational(1)
HALF = DyadicRational(1, 1)
