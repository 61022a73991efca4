"""Canonical monic conductor elements of S = F[y; x]/(f), f monic in y.

The conductor element Delta is the monic generator of the ideal
(f, f_y, f_x) intersected with P = F[x].  An element a of P lies in
(f, f_y, f_x) exactly when its image lies in the ideal (f_y, f_x)*S, the
P-module spanned by y^k*f_y and y^k*f_x mod f for k < deg_y f.  Under the
y-eliminating block order an interreduced P-module basis of it is in echelon
form, so its one element inside P generates the module's intersection with P.
"""

from __future__ import annotations

from .closure import canonical_generators
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
    cring = Ring(ring.names, 1, ring.domain, dep_block(1, 2), ring.weights)
    f = cring.poly(dict(f.terms))
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
    return ring.poly(dict(in_p[0].terms))
