"""Arithmetic in F[x] for F = F_q, Z or Q; a modulus q = 0 means exact, over Z or Q.

A coefficient map is a dict {exponent: coefficient} that holds no zero, with
coefficients in 0 .. q-1 over F_q.  A packed int holds residues mod q, one
per w-byte slot, slot i at bits 8*w*i and up, so one int product is a whole
F_q[x] product or dot product (Kronecker substitution); slots are reduced
mod q only when read, or all at once by ``reduce_slots``.  ``slot_bytes(q,
terms)`` sizes a slot for a sum of ``terms`` products of residues, at most
terms*(q-1)^2, so that no slot carries into the next (Dumas, Fousse & Salvy,
JSC 2011).  ``reduce_slots`` needs one bit more: its slots hold sums below
2^b, b = 8*w - 1, so that a sum times its reciprocal, below 2^(2b+1), fits
in a slot pair; ``slot_bytes(q, 2 * terms)`` sizes a slot with that bit spare.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache

_SLOT_TYPES = {array(c).itemsize: c for c in "BHILQ"}   # slot bytes -> array typecode


def sub_dot(a: dict, pairs, q: int = 0) -> dict:
    """a minus the sum of x*y over the pairs (x, y) of coefficient maps, zeros
    dropped: reduced mod q, or exact when q = 0.  A remainder step a - s*b is
    ``sub_dot(a, ((s, b),), q)``."""
    acc = dict(a)
    for x, y in pairs:
        if len(x) > len(y):            # the shorter factor outside: fewer inner loops
            x, y = y, x
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) - c1 * c2
    if q:
        return {e: r for e, c in acc.items() if (r := c % q)}
    return {e: c for e, c in acc.items() if c}


def mul_scalar(a: dict, u, q: int = 0) -> dict:
    """u*a for u nonzero (mod q), so no coefficient becomes zero: mod q, or
    exact when q = 0."""
    return {e: c * u % q for e, c in a.items()} if q else {e: c * u for e, c in a.items()}


def quo_rem(a: dict, m: dict, q: int, n: int | None = None) -> tuple:
    """(quotient, remainder) of a by m != 0 in F_q[x], n = deg m if given; the
    remainder is a itself when deg a < deg m, and a truncation when m = c*x^n."""
    n, top = max(m) if n is None else n, max(a, default=-1)
    if top < n:
        return {}, a
    inv = pow(m[n], -1, q)
    if len(m) == 1:                    # m = c*x^n: a shift and a truncation
        return ({e - n: c * inv % q for e, c in a.items() if e >= n},
                {e: c for e, c in a.items() if e < n})
    buf = [0] * (top + 1)
    for e, c in a.items():
        buf[e] = c
    quot = {}
    for e in range(len(buf) - 1, n - 1, -1):
        s = buf[e] * inv % q
        if s:
            quot[e - n] = s
            for e2, c2 in m.items():
                buf[e - n + e2] -= s * c2
    return quot, {e: r for e, c in enumerate(buf[:n]) if (r := c % q)}


def monic(a: dict, q: int = 0) -> dict:
    """a != 0 over its leading coefficient: mod q, or in Q[x] when q = 0."""
    return mul_scalar(a, pow(a[max(a)], -1, q) if q else Fraction(1, a[max(a)]), q)


def monic_gcd(a: dict, b: dict, q: int) -> dict:
    """Monic gcd of a and b in F_q[x], by Euclid's algorithm; {} when both are zero."""
    while b:
        a, b = b, quo_rem(a, b, q)[1]
    return monic(a, q) if a else a


def mod_q(a: dict, q: int) -> dict:
    """A map of ints or rationals taken mod q, each a/b as a*b^-1, zeros
    dropped; a denominator that q divides raises ValueError."""
    return {e: r for e, c in a.items() if (r := c.numerator * pow(c.denominator, -1, q) % q)}


@lru_cache(maxsize=256)               # asked by every kernel and every prime's images
def slot_bytes(q: int, terms: int) -> int:
    """Bytes per slot for a sum of ``terms`` products of residues mod q."""
    need = -(-(2 * (q - 1).bit_length() + terms.bit_length()) // 8)
    return next((s for s in sorted(_SLOT_TYPES) if s >= need), need)


def pack(v: list, w: int) -> int:
    """The packed int of the nonnegative ints v, one per w-byte slot."""
    if not (code := _SLOT_TYPES.get(w)):
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in v), "little")
    a = array(code, v)
    if sys.byteorder == "big":         # array bytes are in the host's order
        a.byteswap()
    return int.from_bytes(a.tobytes(), "little")


def unpack(n: int, w: int) -> list:
    """The w-byte slots of n >= 0 up to its highest nonzero one: ``pack`` undone."""
    raw = n.to_bytes(-(-n.bit_length() // (8 * w)) * w, "little")
    if not (code := _SLOT_TYPES.get(w)):
        return [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)]
    a = array(code, raw)
    if sys.byteorder == "big":
        a.byteswap()
    return a.tolist()


@lru_cache(maxsize=256)               # one per slot width, q and size class
def _reciprocal(w: int, q: int, pairs: int) -> tuple:
    """(slot mask, quotient mask, m, s) of ``reduce_slots`` for ints of up to
    ``pairs`` pairs of w-byte slots, each mask set in the low slot of every pair."""
    bits = 8 * w
    s = bits - 1 + q.bit_length()
    ones = (1 << 2 * bits * pairs) // ((1 << 2 * bits) - 1)     # bit 0 of every pair
    return ones * ((1 << bits) - 1), ones * ((1 << 2 * bits - s) - 1), (1 << s) // q + 1, s


def reduce_slots(n: int, w: int, q: int) -> int:
    """n >= 0 with each w-byte slot, all below 2^b for b = 8*w - 1, taken mod q.

    Division by an invariant integer using multiplication (Granlund &
    Montgomery, PLDI 1994), on every slot at once: with s = b + bitlen(q)
    and m = floor(2^s/q) + 1, floor(v*m / 2^s) = floor(v/q) for all v < 2^b,
    and v*m < 2^(2b+1) fits in the 16*w bits of a slot pair.  So the even
    slots, each alone in its pair, are taken with one multiply by m, one
    shift by s and one mask to the quotients' 16*w - s bits, then v - q*quotient;
    and the odd slots likewise, shifted down one slot.
    """
    bits = 8 * w
    lo, quot, m, s = _reciprocal(w, q, 1 << (n.bit_length() // (2 * bits)).bit_length())
    even, odd = n & lo, n >> bits & lo
    even -= q * (even * m >> s & quot)
    odd -= q * (odd * m >> s & quot)
    return even | odd << bits
