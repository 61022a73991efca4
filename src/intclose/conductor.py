"""Canonical monic conductor elements of S = F[y; x]/(f), f monic in y.

The conductor element Delta is the monic generator of the ideal
(f, f_y, f_x) intersected with P = F[x].  An element a of P lies in
(f, f_y, f_x) exactly when its image lies in the ideal (f_y, f_x)*S, the
P-module spanned by y^k*f_y and y^k*f_x mod f for k < deg_y f.  Under the
y-eliminating block order an interreduced P-module basis of it is in echelon
form, so its one element inside P generates the module's intersection with P.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import canonical_generators
from .groebner import normal_form, reduce_terms
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
# arithmetic in P = F[x] (polynomials with no dependent variables)


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


def gcd_in_p(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials of P = F[x], by Euclid's algorithm."""
    ring = a.ring
    if ring.nindep != 1:
        raise ConductorError("gcd in P supports one independent variable,"
                             f" the ring has {ring.nindep}")
    if not a.in_subring(ring.ndep) or not b.in_subring(ring.ndep):
        raise ConductorError("gcd arguments must lie in the independent subring")
    while not b.is_zero():
        a, b = b, normal_form(a, [b])
    return a.monic()


# ---------------------------------------------------------------------------
# the conductor


@dataclass(frozen=True)
class ConductorResult:
    delta: Polynomial


def canonical_conductor(gens, ring: Ring) -> ConductorResult:
    """The canonical monic conductor element of P for the one relation in gens."""
    gens = list(gens)
    if len(gens) != 1:
        raise ConductorError(f"one relation expected, got {len(gens)}")
    if ring.ndep != 1 or ring.nindep != 1:
        raise ConductorError("conductor supports rings F[y; x] only")
    cring = Ring(ring.names, 1, ring.domain, dep_block(1, 2), ring.weights)
    f = gens[0].map_coeffs(lambda c: c, cring)
    d = f.degree_in(0)
    if f.lm != (d, 0) or not f.is_monic():
        raise ConductorError("relation must be monic in the dependent variable")
    module = []
    for g in (partial_derivative(f, 0), partial_derivative(f, 1)):
        for _ in range(d):
            module.append(g)
            g = normal_form(g.mul_term((1, 0)), [f])
    in_p = [g for g in canonical_generators(module, cring) if g.in_subring(1)]
    if not in_p:
        raise ConductorError("degenerate extension: no conductor entries in P")
    delta = in_p[0].map_coeffs(lambda c: c, ring)
    return ConductorResult(delta)
