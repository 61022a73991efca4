"""Matrix-defined monomial orders and exponent-vector helpers.

Monomials are bare exponent tuples (dependent variables first, then
independent ones).  An order is a full-column-rank integer matrix; monomials
compare lexicographically on matrix * exponents, so distinct monomials never
compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

GREVLEX = "GREVLEX"
WEIGHT_OVER_GREVLEX = "WEIGHT_OVER_GREVLEX"
GREVLEX_OVER_WEIGHT = "GREVLEX_OVER_WEIGHT"
POSITION_UP_BLOCK = "POSITION_UP_BLOCK"

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


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank, ncols = 0, (len(m[0]) if m else 0)
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _grevlex_rows(nvars: int) -> list[tuple[int, ...]]:
    # total degree, then negated reversed unit vectors
    rows = [tuple([1] * nvars)]
    for k in range(nvars - 1, 0, -1):
        rows.append(tuple(-1 if i == k else 0 for i in range(nvars)))
    return rows


def _block_grevlex_rows(lo: int, hi: int, nvars: int) -> list[tuple[int, ...]]:
    """Grevlex rows for the variable block [lo, hi), padded to nvars columns."""
    rows = [tuple(1 if lo <= i < hi else 0 for i in range(nvars))]
    for k in range(hi - 1, lo, -1):
        rows.append(tuple(-1 if i == k else 0 for i in range(nvars)))
    return rows


def _complete(base: list[tuple[int, ...]], candidates: Iterable[tuple[int, ...]],
              nvars: int, kind: str) -> tuple[tuple[int, ...], ...]:
    """Greedily append candidate rows that raise the rank, up to full rank.

    Rows linearly dependent on earlier ones never affect a lexicographic
    comparison, so dropping them is safe.
    """
    rows = [tuple(r) for r in base]
    rows = [r for i, r in enumerate(rows) if _rank(rows[: i + 1]) > _rank(rows[:i])]
    for cand in candidates:
        if len(rows) == nvars:
            break
        if _rank(rows + [tuple(cand)]) > len(rows):
            rows.append(tuple(cand))
    if len(rows) != nvars or _rank(rows) != nvars:
        raise OrderError(f"cannot complete {kind} matrix to full rank {nvars}")
    return tuple(rows)


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order given by an integer matrix (compared row by row)."""

    kind: str
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
            k = tuple(sum(r * e for r, e in zip(row, mono)) for row in self.rows)
            cache[mono] = k
        return k

    def cmp(self, a: Monomial, b: Monomial) -> int:
        """-1, 0, or 1; 0 only for equal monomials."""
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


def grevlex(nvars: int) -> MonomialOrder:
    return MonomialOrder(GREVLEX, tuple(_grevlex_rows(nvars)))


def weight_over_grevlex(weights: Sequence[Sequence[int]], nvars: int) -> MonomialOrder:
    """Weight rows on top, grevlex tie-break rows (units first, degree last) below.

    The unit tie rows keep the dependent power y^d ahead of the equal-weight
    pure-independent monomial of a defining relation, which the fixpoint
    machinery relies on.
    """
    w = [tuple(r) for r in weights]
    if any(len(r) != nvars for r in w):
        raise OrderError("weight row length does not match variable count")
    g = _grevlex_rows(nvars)
    return MonomialOrder(WEIGHT_OVER_GREVLEX, _complete(w, g[1:] + g[:1], nvars,
                                                        WEIGHT_OVER_GREVLEX))


def grevlex_over_weight(weights: Sequence[Sequence[int]], ndep: int,
                        nvars: int) -> MonomialOrder:
    """Dependent-block grevlex on top, weight rows, then independent tie rows."""
    w = [tuple(r) for r in weights]
    if any(len(r) != nvars for r in w):
        raise OrderError("weight row length does not match variable count")
    base = _block_grevlex_rows(0, ndep, nvars) + w
    tail = _block_grevlex_rows(ndep, nvars, nvars)
    return MonomialOrder(GREVLEX_OVER_WEIGHT,
                         _complete(base, tail[1:] + tail[:1], nvars,
                                   GREVLEX_OVER_WEIGHT))


def dep_block(ndep: int, nvars: int) -> MonomialOrder:
    """Block order: grevlex on dependent variables, then grevlex on the rest.

    It eliminates dependent variables: the conductor reads its element of P
    off a module basis reduced under this order.
    """
    rows = _block_grevlex_rows(0, ndep, nvars) + _block_grevlex_rows(ndep, nvars, nvars)
    return MonomialOrder(POSITION_UP_BLOCK, _complete(rows, [], nvars, POSITION_UP_BLOCK))
