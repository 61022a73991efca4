"""Exact coefficient domains: rationals and prime fields Z_q.

A :class:`Domain` is its characteristic: 0 for Q, a prime q for Z_q.
Values are plain Python objects (``Fraction`` over Q, ``int`` over Z_q);
the domain carries the arithmetic.  Residues mod q are kept in ``[0, q)``
and all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_MAX_WORD = 1 << 63


class DomainError(ArithmeticError):
    """An operation is undefined in the coefficient domain."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for word-sized integers."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Domain:
    """Coefficient domain of characteristic ``char``: Q at 0, Z_q at a word-sized prime q."""

    char: int = 0

    def __post_init__(self):
        if self.char:
            if self.char >= _MAX_WORD:
                raise DomainError(f"{self.char} is not below the word limit 2^63")
            if not is_prime(self.char):
                raise DomainError(f"{self.char} is not prime")

    def __repr__(self):
        return f"GF({self.char})" if self.char else "rat"

    @property
    def zero(self):
        return 0 if self.char else Fraction(0)

    @property
    def one(self):
        return 1 if self.char else Fraction(1)

    def convert(self, value):
        """Coerce an int or Fraction into a canonical domain value."""
        if not self.char:
            # a Fraction is immutable and already canonical; a subclass is not kept
            return value if type(value) is Fraction else Fraction(value)
        q = self.char
        if isinstance(value, Fraction):
            if value.denominator % q == 0:
                raise DomainError(f"denominator of {value} vanishes mod {q}")
            return value.numerator * pow(value.denominator, -1, q) % q
        return int(value) % q

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def sub(self, a, b):
        return (a - b) % self.char if self.char else a - b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def div(self, a, b):
        """Exact division; raises DomainError when undefined (e.g. by zero)."""
        if self.is_zero(b):
            raise DomainError("division by zero")
        if self.char:
            return a * pow(b, -1, self.char) % self.char
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        return a == 1


QQ = Domain(0)


def GF(q: int) -> Domain:
    """The prime field with q elements."""
    if q == 0:
        raise DomainError("0 is not prime")
    return Domain(q)


def balanced(c: int, n: int) -> int:
    """Representative of c mod n with least absolute value, ties to +n/2."""
    c %= n
    return c if 2 * c <= n else c - n
