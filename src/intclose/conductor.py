"""Canonical monic conductor elements from the column-reduced extended Jacobian.

The extended Jacobian of a generator list (b_1..b_K) has one row per
generator: its columns are the derivative columns (d b_k / d v over rows k)
for every variable v, followed by the K^2 columns b_j * e_k.  Column-reducing
it under a dependent-eliminating block order and sweeping the matrix from the
bottom right collects per-row gcds of the entries lying in the independent
subring P; their monic product is the conductor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import ModuleVector, module_gb, reduce_terms
from .orders import dep_block
from .rings import Polynomial, Ring, RingError


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
# gcd in P (polynomials with no dependent variables), over a field


def exact_divide(p: Polynomial, d: Polynomial) -> Polynomial:
    """Quotient p / d when d divides p exactly; RingError otherwise."""
    if d.is_zero():
        raise RingError("division by the zero polynomial")
    ring = p.ring
    quot: dict = {}
    rem = reduce_terms(dict(p.terms), [(d.lm, d.lc, d.terms)], ring.domain,
                       ring.order.key, full=False, quotients=[quot])
    if rem:
        raise RingError("inexact polynomial division")
    return ring.poly(quot)


def _active_vars(a: Polynomial, b: Polynomial, start: int) -> list[int]:
    n = a.ring.nvars
    return [i for i in range(start, n)
            if a.degree_in(i) > 0 or b.degree_in(i) > 0]


def _univar_gcd(a: Polynomial, b: Polynomial, v: int) -> Polynomial:
    dom = a.ring.domain
    nvars = a.ring.nvars
    top = lambda p, d: p.coeff_of(tuple(d if i == v else 0 for i in range(nvars)))
    while not b.is_zero():
        # a mod b in the single variable v
        r = a
        db = b.degree_in(v)
        lcb = top(b, db)
        while not r.is_zero() and r.degree_in(v) >= db:
            dr = r.degree_in(v)
            shift = tuple(dr - db if i == v else 0 for i in range(nvars))
            r = r - b.mul_term(shift, dom.div(top(r, dr), lcb))
        a, b = b, r
    return a.monic()


def _coeffs_in(p: Polynomial, v: int) -> dict[int, Polynomial]:
    """p as a univariate in v: degree -> coefficient polynomial (v cleared)."""
    acc: dict[int, dict] = {}
    for m, c in p.terms:
        e = m[v]
        mono = tuple(0 if i == v else x for i, x in enumerate(m))
        acc.setdefault(e, {})[mono] = c
    return {e: p.ring.poly(d) for e, d in acc.items()}


def _rebuild(coeffs: dict[int, Polynomial], v: int, ring: Ring) -> Polynomial:
    acc: dict = {}
    for e, poly in coeffs.items():
        for m, c in poly.terms:
            mono = tuple(e if i == v else x for i, x in enumerate(m))
            acc[mono] = c
    return ring.poly(acc)


def _content(p: Polynomial, v: int) -> Polynomial:
    g = None
    for coeff in _coeffs_in(p, v).values():
        g = coeff.monic() if g is None else gcd_in_p(g, coeff)
    return g


def _pseudo_rem(a: Polynomial, b: Polynomial, v: int) -> Polynomial:
    ring = a.ring
    ca, cb = _coeffs_in(a, v), _coeffs_in(b, v)
    db = max(cb)
    lead_b = cb[db]
    r = dict(ca)
    while r and max(r) >= db:
        dr = max(r)
        lead_r = r[dr]
        # r := lead_b * r - lead_r * v^(dr-db) * b
        new: dict[int, Polynomial] = {}
        for e, c in r.items():
            new[e] = c * lead_b
        for e, c in cb.items():
            shifted = e + dr - db
            prod = lead_r * c
            new[shifted] = new[shifted] - prod if shifted in new else -prod
        r = {e: c for e, c in new.items() if not c.is_zero()}
    return _rebuild(r, v, ring)


def gcd_in_p(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials of the independent subring P.

    Univariate Euclid when a single variable is active, primitive
    pseudo-remainder sequences otherwise.
    """
    ring = a.ring
    ndep = ring.ndep
    if not a.in_subring(ndep) or not b.in_subring(ndep):
        raise ConductorError("gcd arguments must lie in the independent subring")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    active = _active_vars(a, b, ndep)
    if not active:
        return ring.one()
    if len(active) == 1:
        return _univar_gcd(a, b, active[0])
    v = active[0]
    if a.degree_in(v) == 0 or b.degree_in(v) == 0:
        small, big = (a, b) if a.degree_in(v) == 0 else (b, a)
        return gcd_in_p(small, _content(big, v))
    cont_a, cont_b = _content(a, v), _content(b, v)
    g_cont = gcd_in_p(cont_a, cont_b)
    pa, pb = exact_divide(a, cont_a), exact_divide(b, cont_b)
    if pa.degree_in(v) < pb.degree_in(v):
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _pseudo_rem(pa, pb, v)
        if r.is_zero():
            pa = pb
            break
        pa, pb = pb, exact_divide(r, _content(r, v))
    return (g_cont * exact_divide(pa, _content(pa, v))).monic()


# ---------------------------------------------------------------------------
# extended Jacobian and the conductor sweep


@dataclass(frozen=True)
class ConductorResult:
    delta: Polynomial
    row_gcds: tuple


def extended_jacobian(gens, ring: Ring) -> list[ModuleVector]:
    """Columns of the extended Jacobian matrix (one row per generator)."""
    gens = list(gens)
    if not gens:
        raise ConductorError("empty generator list")
    K = len(gens)
    cols = []
    for v in range(ring.nvars):
        cols.append(ModuleVector(tuple(partial_derivative(g, v) for g in gens)))
    zero = ring.zero()
    for j in range(K):
        for k in range(K):
            cols.append(ModuleVector(tuple(gens[j] if r == k else zero
                                           for r in range(K))))
    return cols


def canonical_conductor(gens, ring: Ring) -> ConductorResult:
    """The canonical monic conductor element of P computed from the Jacobian."""
    block = dep_block(ring.ndep, ring.nvars)
    cring = Ring(ring.names, ring.ndep, ring.domain, block, ring.weights)
    cgens = [g.map_coeffs(lambda c: c, cring) for g in gens]
    gb = module_gb(extended_jacobian(cgens, cring))
    if not gb:
        raise ConductorError("degenerate extension: zero Jacobian module")
    K = len(cgens)
    ncols = len(gb)
    entry = lambda i, j: gb[j].coords[i]
    in_p = lambda p: (not p.is_zero()) and p.in_subring(cring.ndep)
    row_gcds = []
    delta = cring.one()
    i, j = K - 1, ncols - 1
    while i >= 0 and j >= 0:
        while i >= 0 and j >= 0 and not in_p(entry(i, j)):
            j -= 1
        row = None
        while i >= 0 and j >= 0 and in_p(entry(i, j)):
            row = entry(i, j).monic() if row is None else gcd_in_p(row, entry(i, j))
            j -= 1
        if row is not None:
            row_gcds.append(row)
            delta = delta * row
        i -= 1
    if not row_gcds:
        raise ConductorError("degenerate extension: no conductor entries in P")
    delta = delta.monic().map_coeffs(lambda c: c, ring)
    return ConductorResult(delta, tuple(g.map_coeffs(lambda c: c, ring)
                                        for g in row_gcds))
