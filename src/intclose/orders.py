"""Matrix-defined monomial orders and exponent-vector helpers.

Monomials are bare exponent tuples (dependent variables first, then
independent ones).  An order is an integer matrix: its base rows (weights,
or a grevlex block) followed by its tie rows.  Monomials compare
lexicographically on matrix * exponents.

The rows are kept as built, with no rank completion.  A row that depends
linearly on the rows above it ties wherever those rows tie, so it never
decides a comparison (Robbiano, "Term orderings on the polynomial ring",
EUROCAL '85): pruning such rows down to a square nonsingular matrix orders
every pair of monomials the same way.  Every order ends with a full set of
block-grevlex rows, which alone tell distinct monomials apart, so distinct
monomials never compare equal.  The matrix may have more rows than there
are variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

Monomial = tuple  # exponent vector


class OrderError(ValueError):
    """Raised when an order matrix cannot be constructed or applied."""


def mono_one(nvars: int) -> Monomial:
    return (0,) * nvars

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))

def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Componentwise quotient a / b; defined only when b divides a."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise OrderError(f"{b} does not divide {a}")
    return out

def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))

def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _block_grevlex_rows(lo: int, hi: int, nvars: int) -> list[tuple[int, ...]]:
    """Grevlex rows for the variable block [lo, hi), padded to nvars columns.

    Total degree first, then negated unit vectors from the block's last variable.
    """
    rows = [tuple(1 if lo <= i < hi else 0 for i in range(nvars))]
    for k in range(hi - 1, lo, -1):
        rows.append(tuple(-1 if i == k else 0 for i in range(nvars)))
    return rows


def _weight_rows(weights: Sequence[Sequence[int]], nvars: int) -> list[tuple[int, ...]]:
    w = [tuple(r) for r in weights]
    if any(len(r) != nvars for r in w):
        raise OrderError("weight row length does not match variable count")
    return w


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order given by an integer matrix (compared row by row)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "_key_cache", {})

    @property
    def nvars(self) -> int:
        return len(self.rows[0])

    def key(self, mono: Monomial):
        cache = self._key_cache
        k = cache.get(mono)
        if k is None:
            if len(mono) != self.nvars:
                raise OrderError(f"monomial has {len(mono)} exponents, order wants {self.nvars}")
            k = tuple([sum(map(mul, row, mono)) for row in self.rows])
            cache[mono] = k
        return k


def weight_over_grevlex(weights: Sequence[Sequence[int]], nvars: int) -> MonomialOrder:
    """Weight rows on top, grevlex tie-break rows (units first, degree last) below.

    The unit tie rows keep the dependent power y^d ahead of the equal-weight
    pure-independent monomial of a defining relation, which the fixpoint
    machinery relies on.
    """
    g = _block_grevlex_rows(0, nvars, nvars)
    return MonomialOrder(tuple(_weight_rows(weights, nvars) + g[1:] + g[:1]))


def grevlex_over_weight(weights: Sequence[Sequence[int]], ndep: int,
                        nvars: int) -> MonomialOrder:
    """Dependent-block grevlex on top, weight rows, then independent tie rows."""
    w = _weight_rows(weights, nvars)
    tail = _block_grevlex_rows(ndep, nvars, nvars)
    return MonomialOrder(tuple(_block_grevlex_rows(0, ndep, nvars) + w
                               + tail[1:] + tail[:1]))

