"""Canonical monic conductor elements of S = F[y; x]/(f), f monic in y.

The conductor element Delta is the monic generator of the ideal
(f, f_y, f_x) intersected with P = F[x].  An element a of P lies in
(f, f_y, f_x) exactly when its image lies in the ideal (f_y, f_x)*S, the
P-module M spanned by y^k*f_y and y^k*f_x mod f for k < d = deg_y f.  So
Delta generates M's intersection with P = P*y^0.  Two routes read it off.

* Over Q, by a module basis.  Under the y-eliminating block order an
  interreduced P-module basis of M is in echelon form, so its one element
  inside P generates the intersection.
* Over GF(q), by triangularization (Mulders & Storjohann, "On lattice
  reduction for polynomial matrices", JSC 2003).  The 2d generators are the
  rows of a matrix over F_q[x], one column per y^k.  For c = d-1 .. 1, Euclid
  on column c (the row with the least-degree entry there is the pivot, every
  other row becomes row - quotient*pivot) leaves one row, the pivot, with a
  nonzero entry in column c; it is set aside.  Row operations are
  unimodular, so the pivots set aside and the rows left span M, and the rows
  left are zero in columns 1 .. d-1.  Write an element of M inside P as a
  combination of the pivots and the rows left.  In column d-1 only the first
  pivot is nonzero, so its multiplier is zero (F_q[x] is a domain), and so
  on down to column 1.  So the rows left span M's intersection with P*y^0,
  and Delta is the monic gcd of their y^0 entries.  Over Q the same
  elimination lets the coefficients grow; it was 4-5 times slower than the
  module basis on the sextic.
"""

from __future__ import annotations

from .closure import by_y, canonical_generators, xpoly_divmod, xpoly_gcd, xpoly_sub_mul
from .domains import MODP
from .groebner import normal_form
from .orders import dep_block
from .rings import Polynomial, Ring


class ConductorError(ValueError):
    pass


def partial_derivative(p: Polynomial, var_index: int) -> Polynomial:
    dom = p.ring.domain
    acc: dict = {}
    for m, c in p.terms:
        e = m[var_index]
        if e == 0:
            continue
        mono = tuple(x - 1 if i == var_index else x for i, x in enumerate(m))
        acc[mono] = dom.add(acc.get(mono, dom.zero), dom.mul(c, dom.convert(e)))
    return p.ring.poly(acc)


# ---------------------------------------------------------------------------
# the conductor


def canonical_conductor(f: Polynomial, ring: Ring) -> Polynomial:
    """The canonical monic conductor element Delta of P for the relation f."""
    if ring.ndep != 1 or ring.nindep != 1:
        raise ConductorError("conductor supports rings F[y; x] only")
    d = f.degree_in(0)
    if [(m[1], c) for m, c in f.terms if m[0] == d] != [(0, ring.domain.one)]:
        raise ConductorError("relation must be monic in the dependent variable")
    if ring.domain.kind == MODP:
        return _conductor_by_triangularization(f, ring)
    return _conductor_by_module_basis(f, ring)


def _conductor_by_module_basis(f: Polynomial, ring: Ring) -> Polynomial:
    """Delta read off the reduced P-module basis of M under ``dep_block``."""
    cring = Ring(ring.names, 1, ring.domain, dep_block(1, 2), ring.weights)
    f = cring.poly(dict(f.terms))
    module = []
    for g in (partial_derivative(f, 0), partial_derivative(f, 1)):
        for _ in range(f.degree_in(0)):
            module.append(g)
            g = normal_form(g.mul_term((1, 0)), [f])
    in_p = [g for g in canonical_generators(module, cring) if g.in_subring(1)]
    if not in_p:
        raise ConductorError("degenerate extension: no conductor entries in P")
    return ring.poly(dict(in_p[0].terms))


def _conductor_by_triangularization(f: Polynomial, ring: Ring) -> Polynomial:
    """Delta over GF(q), by Euclid on the columns y^(d-1) .. y^1 of M's rows.

    A row is the list of its d y-coefficients, each an F_q[x] dict.
    """
    q, d = ring.domain.char, f.degree_in(0)
    low = by_y(f, d)                   # f = y^d + sum_i low[i](x) * y^i
    rows = []
    for g in (partial_derivative(f, 0), partial_derivative(f, 1)):
        g = by_y(g, d)
        for _ in range(d):
            rows.append(g)
            top = g[-1]                # y * g, with y^d = -sum_i low[i] * y^i
            g = [xpoly_sub_mul(a, top, b, q) for a, b in zip([{}] + g[:-1], low)]
    for c in range(d - 1, 0, -1):
        live = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(live) > 1:
            pivot = min(live, key=lambda r: max(r[c]))
            kept = [pivot]
            for r in live:
                if r is not pivot:
                    s, rem = xpoly_divmod(r[c], pivot[c], q)
                    r = [xpoly_sub_mul(a, s, b, q) for a, b in zip(r[:c], pivot)] + [rem]
                    (kept if r[c] else rows).append(r)
            live = kept
    delta: dict = {}
    for r in rows:
        delta = xpoly_gcd(delta, r[0], q)
    if not delta:
        raise ConductorError("degenerate extension: no conductor entries in P")
    return ring.poly({(0, e): c for e, c in delta.items()})
