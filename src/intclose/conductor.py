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

A prime that divides B resumes the sweep.  Over Q it keeps a checkpoint at
the start of each column c: its rows then, which are zero above column c, and
b, the product of B's factors before them.  If q does not divide b, every step
before is unimodular over F_q[x], as each factor is a unit mod q, and each
finished pivot keeps its lead mod q, as the leads are factors too.  So the
rows mod q span the part of M_q that is zero above column c, and Euclid over
GF(q) from column c down on them gives Delta_q, or the degenerate
ConductorError, as the sweep on f mod q does: both depend on M_q alone.  The
GF(q) sweep starts at the last such checkpoint, or from f mod q if q divides
every b (a factor of the first one: a denominator or a generator's content).
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .rings import Ring
from .xpoly import monic, mul_scalar, quo_rem, sub_dot


class ConductorError(ValueError):
    pass


def canonical_conductor(tail: list, ring: Ring, checkpoints: tuple = ()) -> tuple:
    """(Delta, B, checkpoints) for f = y^d + sum_i tail[i](x)*y^i over ring = F[y; x]:
    the canonical monic conductor element of P as an F[x] dict, B, and the sweep's
    checkpoints (c, rows, b), one per column c, all as above; over GF(q) B = 1 and
    there are none.  Over GF(q), given the rational sweep's checkpoints for an f
    whose tail mod q is tail, the sweep resumes at the last whose b q does not divide."""
    if ring.ndep != 1 or ring.nindep != 1:
        raise ConductorError("conductor supports rings F[y; x] only")
    d, q = len(tail), ring.domain.char
    scale = lcm(*(c.denominator for a in tail for c in a.values()))
    scalars = [scale]                  # B's factors; the column leads join over Q only
    scaled = lambda v: [{e: r for e, c in a.items() if (r := c % q if q else int(c * scale))}
                        for a in v]            # rows of Q[x]^d scaled into Z[x]^d, or mod q
    start, rows, live, marks = d - 1, [], [], []
    for c, marked, b in reversed(checkpoints):
        if b % q:
            start, rows = c, [scaled(r) for r in marked]
            break
    else:
        low = scaled(tail)             # scale*f = scale*y^d + sum_i low[i](x) * y^i
        f_y = [{e: k * c for e, c in a.items()} for k, a in enumerate(tail) if k] + [{0: d}]
        f_x = [{e - 1: e * c for e, c in a.items() if e} for a in tail]
        for g in (f_y, f_x):
            rows.append(g := _primitive(scaled(g), scalars, q))
            for _ in range(d - 1):     # scale * y*g mod f, up to y^(d-1)*g
                top, up = g[-1], g[:-1] if scale == 1 else [mul_scalar(a, scale) for a in g[:-1]]
                rows.append(g := _primitive([sub_dot(a, ((top, b),), q) if top and b else a
                                             for a, b in zip([{}] + up, low)], scalars, q))
    b, counted = 1, 0                  # b = prod(scalars[:counted]), extended as they grow
    for c in range(start, -1, -1):
        if not q:
            b, counted = b * prod(scalars[counted:]), len(scalars)
            marks.append((c, rows, b))
        live = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(live) > 1:
            # ties go to the smallest leading coefficient, which grows the rest least in Z[x]
            pivot = min(live, key=lambda r: (max(r[c]), abs(r[c][max(r[c])]).bit_length()))
            rest = [_euclid_rem(r, pivot, c, q) if q else _pseudo_rem(r, pivot, c, scalars)
                    for r in live if r is not pivot]
            rows += [r for r in rest if not r[c]]
            live = [pivot] + [r for r in rest if r[c]]
        if live and not q:
            scalars.append(live[0][c][max(live[0][c])])
    if not live:
        raise ConductorError("degenerate extension: no conductor entries in P")
    return monic(live[0][0], q), b * prod(scalars[counted:]), tuple(marks)


def _euclid_rem(r: list, p: list, c: int, q: int) -> list:
    """r - s*p over F_q[x], s the quotient of r[c] by p[c]; columns 0 .. c."""
    s, rem = quo_rem(r[c], p[c], q)
    return [sub_dot(a, ((s, b),), q) if b else a for a, b in zip(r[:c], p)] + [rem]


def _pseudo_rem(r: list, p: list, c: int, scalars: list) -> list:
    """The primitive part of r reduced by p over Z[x] until deg r[c] < deg p[c];
    each factor r is multiplied by, and its content, go to scalars."""
    n = max(p[c])
    while r[c] and (m := max(r[c])) >= n:
        g = gcd(p[c][n], r[c][m])
        u, s = p[c][n] // g, {m - n: r[c][m] // g}
        scalars.append(u)
        r = [sub_dot(mul_scalar(a, u), ((s, b),)) for a, b in zip(r[:c + 1], p)]
    return _primitive(r, scalars, 0)


def _primitive(row: list, scalars: list, q: int) -> list:
    """Over Z (q = 0), row over the gcd of its coefficients, which joins scalars; else row."""
    if q:
        return row
    scalars.append(g := gcd(*(v for a in row for v in a.values())) or 1)
    return row if g == 1 else [{e: v // g for e, v in a.items()} for a in row]
