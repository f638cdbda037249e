"""Exact dyadic rationals: integers divided by a power of two.

Every clause weight 2**-k and every coefficient derived from such weights is
dyadic, so all bookkeeping here is exact integer arithmetic.  Canonical form
keeps the numerator odd whenever the exponent is positive (and exponent 0 for
zero), which makes the common-denominator scaling used by the polynomial
serializer trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

__all__ = ["Dyadic", "ZERO", "ONE"]


@total_ordering
@dataclass(frozen=True, slots=True)
class Dyadic:
    """Value num / 2**exp with num an integer and exp >= 0."""

    num: int
    exp: int = 0

    def __post_init__(self):
        num, exp = self.num, self.exp
        if exp < 0:
            raise ValueError("exponent must be nonnegative")
        if num == 0:
            exp = 0
        else:
            while num % 2 == 0 and exp > 0:
                num //= 2
                exp -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    @classmethod
    def half_pow(cls, k: int) -> "Dyadic":
        """2**-k for k >= 0."""
        return cls(1, k)

    def __add__(self, other: "Dyadic | int") -> "Dyadic":
        other = _coerce(other)
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    __radd__ = __add__

    def __sub__(self, other: "Dyadic | int") -> "Dyadic":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Dyadic | int") -> "Dyadic":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Dyadic | int") -> "Dyadic":
        other = _coerce(other)
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Dyadic(other)
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other: "Dyadic | int") -> bool:
        other = _coerce(other)
        return (self.num << other.exp) < (other.num << self.exp)

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    def scaled(self, exp: int) -> int:
        """self * 2**exp as an exact integer; exp must be >= self.exp."""
        if exp < self.exp:
            raise ValueError(f"cannot scale exponent-{self.exp} value by 2**{exp} exactly")
        return self.num << (exp - self.exp)

    def as_int(self) -> int:
        if self.exp != 0:
            raise ValueError(f"{self} is not an integer")
        return self.num

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"


def _coerce(v: "Dyadic | int") -> Dyadic:
    if isinstance(v, Dyadic):
        return v
    if isinstance(v, int):
        return Dyadic(v)
    raise TypeError(f"cannot mix Dyadic with {type(v).__name__}")


ZERO = Dyadic(0)
ONE = Dyadic(1)
