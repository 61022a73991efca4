"""Canonical monic conductor elements of S = F[y; x]/(f), f = y^d + its tail.

The conductor element Delta is the monic generator of the ideal
(f, f_y, f_x) intersected with P = F[x].  An element of P lies in that ideal
exactly when its image lies in (f_y, f_x)*S, the P-module M spanned by
y^k*f_y and y^k*f_x mod f for k < d = deg_y f.  So Delta generates M's
intersection with P*y^0.

It is read off by triangularization over Q and GF(q) alike (Mulders &
Storjohann, "On lattice reduction for polynomial matrices", JSC 2003).  The
2d generators are the rows of a matrix over F[x], one column per y^k.  For
c = d-1 .. 0, Euclid on column c (the pivot is the row of least degree
there; every other row becomes its remainder by the pivot) leaves one row
with a nonzero entry in column c, the pivot, which is set aside.  Row
operations are unimodular, so the pivots span M.  Written as a combination
of the pivots, an element of M inside P has first multiplier zero, as only
the first pivot is nonzero in column d-1 (F[x] is a domain), and so on down
to column 1.  So Delta is the last pivot's y^0 entry, made monic.

Over GF(q) a remainder is r - s*p, s the quotient of the column-c entries.
Over Q the rows stay primitive in Z[x]^d, with no fractions: a remainder
repeats r <- (lc p/g)*r - (lc r/g)*x^(m-n)*p, g = gcd(lc p, lc r), on
column-c entries of degrees m >= n, and divides the row by its content.
Nonzero rationals are units of Q[x], so these steps are unimodular too.

Lucky primes (Brown, "On Euclid's algorithm and the computation of
polynomial greatest common divisors", JACM 1971).  Over Q the sweep also
returns B, the product of every integer it scales a row by: the lcm of f's
denominators, each content it divides out, each factor lc p/g of a
pseudo-remainder step, and each column's last pivot lead, Delta's among
them.  If q does not divide B, these are units mod q, so the sweep read mod q
is unimodular over F_q[x] on the generators for f mod q and ends in a
triangular basis whose leads survive: Delta_q = Delta mod q.  Over GF(q), B = 1.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .closure import xpoly_divmod, xpoly_sub_mul
from .rings import Ring


class ConductorError(ValueError):
    pass


def canonical_conductor(tail: list, ring: Ring) -> tuple:
    """(Delta, B) for f = y^d + sum_i tail[i](x)*y^i over ring = F[y; x]: the
    canonical monic conductor element of P as an F[x] dict, and B (above)."""
    if ring.ndep != 1 or ring.nindep != 1:
        raise ConductorError("conductor supports rings F[y; x] only")
    dom, d = ring.domain, len(tail)
    q, scale = dom.char, lcm(*(c.denominator for a in tail for c in a.values()))
    scalars = [scale]                  # B's factors; the column leads join over Q only
    if q:
        sub_mul = lambda a, s, b: xpoly_sub_mul(a, s, b, q)
        tidy = lambda r: r
        rem = lambda r, p, c: _euclid_rem(r, p, c, q)
    else:                              # rows of Q[x]^d scaled into Z[x]^d
        sub_mul = lambda a, s, b: _zx_sub_mul(scale, a, s, b)
        tidy = lambda r: _primitive(r, scalars)
        rem = lambda r, p, c: _pseudo_rem(r, p, c, scalars)
    scaled = lambda v: [{e: r for e, c in a.items() if (r := c % q if q else int(c * scale))}
                        for a in v]
    low = scaled(tail)                 # scale*f = scale*y^d + sum_i low[i](x) * y^i
    f_y = [{e: k * c for e, c in a.items()} for k, a in enumerate(tail) if k] + [{0: d}]
    f_x = [{e - 1: e * c for e, c in a.items() if e} for a in tail]
    rows, live = [], []
    for g in (f_y, f_x):
        g = tidy(scaled(g))
        for _ in range(d):
            rows.append(g)
            top = g[-1]                # scale * y*g mod f
            g = tidy([sub_mul(a, top, b) for a, b in zip([{}] + g[:-1], low)])
    for c in range(d - 1, -1, -1):
        live = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(live) > 1:
            # ties go to the smallest leading coefficient, which grows the rest least in Z[x]
            pivot = min(live, key=lambda r: (max(r[c]), abs(r[c][max(r[c])]).bit_length()))
            rest = [rem(r, pivot, c) for r in live if r is not pivot]
            rows += [r for r in rest if not r[c]]
            live = [pivot] + [r for r in rest if r[c]]
        if live and not q:
            scalars.append(live[0][c][max(live[0][c])])
    if not live:
        raise ConductorError("degenerate extension: no conductor entries in P")
    delta = live[0][0]
    lead = dom.convert(delta[max(delta)])
    return {e: dom.div(dom.convert(c), lead) for e, c in delta.items()}, prod(scalars)


def _euclid_rem(r: list, p: list, c: int, q: int) -> list:
    """r - s*p over F_q[x], s the quotient of r[c] by p[c]; columns 0 .. c."""
    s, rem = xpoly_divmod(r[c], p[c], q)
    return [xpoly_sub_mul(a, s, b, q) for a, b in zip(r[:c], p)] + [rem]


def _pseudo_rem(r: list, p: list, c: int, scalars: list) -> list:
    """The primitive part of r reduced by p over Z[x] until deg r[c] < deg p[c];
    each factor r is multiplied by, and its content, go to scalars."""
    n = max(p[c])
    while r[c] and (m := max(r[c])) >= n:
        g = gcd(p[c][n], r[c][m])
        scalars.append(p[c][n] // g)
        r = [_zx_sub_mul(p[c][n] // g, a, {m - n: r[c][m] // g}, b)
             for a, b in zip(r[:c + 1], p)]
    return _primitive(r, scalars)


def _zx_sub_mul(u: int, a: dict, s: dict, b: dict) -> dict:
    """u*a - s*b in Z[x]."""
    out = {e: u * v for e, v in a.items()}
    for e1, c1 in s.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) - c1 * c2
    return {e: v for e, v in out.items() if v}


def _primitive(row: list, scalars: list) -> list:
    """A row of Z[x]^d divided by the gcd of its coefficients, which goes to scalars."""
    scalars.append(g := gcd(*(v for a in row for v in a.values())) or 1)
    return row if g == 1 else [{e: v // g for e, v in a.items()} for a in row]
