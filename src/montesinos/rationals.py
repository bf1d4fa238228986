"""Exact rational scalars, including the projective value 1/0.

Everything this package computes (coordinates, weights, twists, slopes) is
an exact rational number; there is no floating point anywhere in the core.
``Frac`` is a small immutable fraction type over Python's arbitrary-precision
integers with one extra value, infinity = 1/0, which the diagram machinery
uses as an ordinary vertex label. Infinity takes part in numerator/denominator
determinant tests but not in field arithmetic.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from math import gcd


def parse_int(text: str) -> int:
    """An optional sign and ASCII decimal digits, read as an integer;
    ``int`` alone also reads "1_0", non-ASCII digits and whitespace."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class Frac:
    """An irreducible fraction num/den with den >= 1, or infinity as 1/0.

    Normalized on construction: the sign lives on the numerator,
    gcd(|num|, den) == 1, and any n/0 with n != 0 collapses to 1/0.
    0/0 is rejected. Instances are immutable by convention and hashable;
    integers hash consistently with the built-in ``int``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if not isinstance(num, int) or not isinstance(den, int):
            raise TypeError(f"Frac requires integers, got {num!r}/{den!r}")
        if den == 0:
            if num == 0:
                raise ValueError("0/0 is not a value")
            num, den = 1, 0
        else:
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            if g > 1:
                num //= g
                den //= g
        self.num = num
        self.den = den

    # -- predicates ------------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    # -- parsing / rendering ---------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Frac":
        """Parse "p/q", "p", "-p/q" or "inf", in ASCII decimal digits."""
        s = text.strip()
        if s in ("inf", "+inf", "-inf"):
            return cls(1, 0)
        try:
            return cls(*(parse_int(term.strip()) for term in s.split("/", 1)))
        except ValueError as exc:
            raise ValueError(f"not a fraction: {text!r}") from exc

    def __str__(self) -> str:
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Frac({self.num}, {self.den})"

    # -- arithmetic (finite values only) -----------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Frac):
            return other
        if isinstance(other, int):
            return Frac(other)
        return None

    def _finite_pair(self, other):
        o = Frac._coerce(other)
        if o is None:
            return None
        if self.den == 0 or o.den == 0:
            raise ValueError("arithmetic with the infinite value")
        return o

    def __add__(self, other):
        o = self._finite_pair(other)
        if o is None:
            return NotImplemented
        return Frac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._finite_pair(other)
        if o is None:
            return NotImplemented
        return Frac(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._finite_pair(other)
        if o is None:
            return NotImplemented
        return Frac(o.num * self.den - self.num * o.den, self.den * o.den)

    def __mul__(self, other):
        o = self._finite_pair(other)
        if o is None:
            return NotImplemented
        return Frac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._finite_pair(other)
        if o is None:
            return NotImplemented
        if o.num == 0:
            raise ZeroDivisionError("division by zero")
        return Frac(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._finite_pair(other)
        if o is None:
            return NotImplemented
        if self.num == 0:
            raise ZeroDivisionError("division by zero")
        return Frac(o.num * self.den, o.den * self.num)

    def __neg__(self):
        return Frac(-self.num, self.den)

    def __abs__(self):
        return Frac(abs(self.num), self.den)

    def __bool__(self) -> bool:
        return self.num != 0

    # -- total order (infinity compares above every finite value) ---------

    def _cmp(self, other):
        o = Frac._coerce(other)
        if o is None:
            return None
        # cross-multiplication is sign-safe because den >= 0 always
        return (self.num * o.den) - (o.num * self.den)

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
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))


#: The single infinite value 1/0.
INF = Frac(1, 0)


def decimal_str(value: Frac, digits: int = 12) -> str:
    """Decimal rendering at ``digits`` significant digits, display only."""
    if value.is_infinite:
        return "inf"
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.num) / Decimal(value.den))
