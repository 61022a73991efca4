"""Independent brute-force oracles used by the tests.

Everything here recomputes results through plain linear algebra, or through
the plain division loop, so that the engine's reduction and kernel machinery
is checked against a second path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count
from typing import NamedTuple

from intclose import (GF, QQ, ClosureError, ClosurePresentation,
                      ConductorError, DomainError, LiftError, LiftState, MonomialOrder,
                      Ring, RingError, SignatureError, balanced, buchberger,
                      canonical_conductor, grevlex_over_weight, is_minimal_reduced_gb,
                      is_prime, mono_weight, module_reduce, normal_form,
                      Polynomial, s_poly)
from intclose.closure import (NotARingError, _lead, _step_columns, by_y, canonical_generators,
                              fraction_names, fraction_weights, from_y)
from intclose.groebner import reduce_terms
from intclose.linalg import nullspace_mod
from intclose.orders import _block_grevlex_rows, mono_divides, mono_mul


def grevlex(nvars: int) -> MonomialOrder:
    """Plain grevlex on all variables, one block."""
    return MonomialOrder(tuple(_block_grevlex_rows(0, nvars, nvars)))


def dep_block(ndep: int, nvars: int) -> MonomialOrder:
    """Block order: grevlex on dependent variables, then grevlex on the rest.

    It eliminates dependent variables: ``conductor_oracle`` and
    ``conductor_by_module_basis`` read their element of P off a basis
    reduced under this order.
    """
    return MonomialOrder(tuple(_block_grevlex_rows(0, ndep, nvars)
                               + _block_grevlex_rows(ndep, nvars, nvars)))


def mod_n(value, n: int) -> int:
    """Balanced residue c with c*beta = alpha (mod n), |c| minimal (ties +n/2)."""
    frac = Fraction(value)
    if math.gcd(frac.denominator, n) != 1:
        raise LiftError(f"denominator of {frac} is not invertible mod {n}")
    c = frac.numerator * pow(frac.denominator, -1, n) % n
    return balanced(c, n)


def reduce_terms_scan(work: dict, leads, dom, key, fixed: int = 0,
                      full: bool = True, quotients=None) -> dict:
    """Reference division: scan ``work`` for its largest term on every step.

    Same contract as ``intclose.groebner.reduce_terms``: leads are
    (lm, lc, terms); ``lm`` cancels ``m`` when their first ``fixed``
    exponents agree and ``lm`` divides ``m``; the first matching lead in list
    order is used; ``full=False`` stops at the first irreducible term and
    keeps the tail; ``quotients`` collects multipliers per lead.
    """
    rem: dict = {}
    while work:
        m = max(work, key=key)
        for j, (lm, lc, gterms) in enumerate(leads):
            if lm[:fixed] == m[:fixed] and all(a <= b for a, b in zip(lm, m)):
                quot = tuple(a - b for a, b in zip(m, lm))
                factor = dom.div(work[m], lc)
                for m2, c2 in gterms:  # the lead itself cancels m
                    mm = tuple(a + b for a, b in zip(quot, m2))
                    s = dom.sub(work.get(mm, 0), dom.mul(factor, c2))
                    if dom.is_zero(s):
                        work.pop(mm, None)
                    else:
                        work[mm] = s
                if quotients is not None:
                    s = dom.add(quotients[j].get(quot, 0), factor)
                    if dom.is_zero(s):
                        quotients[j].pop(quot, None)
                    else:
                        quotients[j][quot] = s
                break
        else:
            if not full:
                rem.update(work)
                break
            rem[m] = work.pop(m)
    return rem


def canonical_generators_poly(gens, ring) -> tuple:
    """Monic, fully interreduced, order-descending P-module generators, on
    Polynomials over any field and order.

    Same insertion as ``intclose.closure.canonical_generators``, which works
    on the y-coefficient vectors of F_q[y; x]: generators are inserted
    smallest lead first, each reduced by the basis (``module_reduce``); one
    whose lead divides a basis lead sends that element back to the pending
    list, and a last ascending pass reduces each tail by the smaller
    elements.  Needs one independent variable, so that leads with distinct
    dependent parts never divide one another.
    """
    if ring.nindep != 1:
        raise ClosureError("canonical generators need one independent variable")
    key, tick = ring.order.key, count()
    pending = [(key(g.lm), next(tick), g) for g in gens if not g.is_zero()]
    heapify(pending)
    basis: dict = {}                   # dependent part of the lead -> element
    while pending:
        g, _ = module_reduce(heappop(pending)[2], basis.values())
        if not g.is_zero():
            old = basis.get(g.lm[:ring.ndep])
            if old is not None:
                heappush(pending, (key(old.lm), next(tick), old))
            basis[g.lm[:ring.ndep]] = g.monic()
    out: list = []
    for g in sorted(basis.values(), key=lambda g: key(g.lm)):
        out.append(module_reduce(g, out)[0])
    return tuple(reversed(out))


def canonical_generators_restart(gens, ring) -> tuple:
    """Reference interreduction: restart the scan after every change.

    Sort descending, reduce each generator by all the others, and start over
    as soon as one changes (is dropped at zero, else made monic); stop when a
    whole scan changes nothing.  Same contract as ``canonical_generators_poly``
    and, on the y-coefficients of F_q[y; x], as
    ``intclose.closure.canonical_generators``.
    """
    work = [g.monic() for g in gens if not g.is_zero()]
    key = ring.order.key
    changed = True
    while changed:
        changed = False
        work.sort(key=lambda g: key(g.lm), reverse=True)
        for i in range(len(work)):
            others = work[:i] + work[i + 1:]
            if not others:
                continue
            r, _ = module_reduce(work[i], others)
            if r != work[i]:
                changed = True
                if r.is_zero():
                    del work[i]
                else:
                    work[i] = r.monic()
                break
    return tuple(work)


def combination(coeffs, out_ring: Ring):
    """sum c_k*ybar_k in the output ring, c_k in P; the trivial fraction's ybar is 1."""
    nbar = out_ring.ndep
    acc = out_ring.zero()
    for k, ck in enumerate(coeffs):
        if not ck.is_zero():
            moved = out_ring.poly({(0,) * nbar + m[ck.ring.ndep:]: c for m, c in ck.terms})
            acc = acc + (moved * out_ring.var(out_ring.names[k]) if k < nbar else moved)
    return acc


def psi_combination(psi: Polynomial, input_ring: Ring) -> tuple:
    """The c_k in P with psi = sum c_k*ybar_k, the trivial fraction's ybar being 1:
    psi(y)'s coordinates read back off the Polynomial, as input-ring Polynomials."""
    nbar = psi.ring.ndep
    combos: list[dict] = [{} for _ in range(nbar + 1)]
    for m, c in psi.terms:
        dep = m[:nbar]
        if sum(dep) > 1:
            raise ClosureError("inclusion image is not linear in the fraction variables")
        k = dep.index(1) if any(dep) else nbar
        combos[k][(0,) * input_ring.ndep + m[nbar:]] = c
    return tuple(input_ring.poly(d) for d in combos)


def induce_presentation_poly(nums, f) -> ClosurePresentation:
    """Reference presentation of numerators g_J .. g_0 on Polynomials, any field.

    Same contract and error texts as ``intclose.closure.induce_presentation``,
    which takes the numerators' y-coefficients over F_q: each product of
    numerators is reduced modulo f by ``normal_form`` and divided by the
    targets delta*g_j with ``module_reduce``, and psi(y) divides y*delta by
    the g_j.  The record's coordinates are read back off the Polynomials:
    each relation's tail by ``psi_combination``, after its lead ybar_a*ybar_b.
    """
    ring = f.ring
    if ring.nindep != 1:
        raise ClosureError("presentation needs one independent variable")
    J, d = len(nums) - 1, f.degree_in(0)
    ybar_names = fraction_names(J, ring)
    targets = [nums[-1] * g for g in nums]
    products = []                      # each product's coefficients over the targets
    for a in range(J):
        for b in range(a, J):
            rem, coeffs = module_reduce(normal_form(nums[a] * nums[b], [f]), targets)
            if not rem.is_zero():
                raise NotARingError(
                    f"fraction product {a},{b} leaves the module: not a fixpoint")
            products.append(coeffs)
    y_delta = ring.var(ring.names[0]) * nums[-1]
    rem, psi_coeffs = module_reduce(normal_form(y_delta, [f]), nums)
    if not rem.is_zero():
        raise ClosureError("inclusion image of y is not in the module")
    fw = fraction_weights([by_y(g, d) for g in nums], ring.weights)[:-1]
    wbar = tuple(tuple(w[r] for w in fw) + tuple(row[ring.ndep:])
                 for r, row in enumerate(ring.weights))
    if any(x < 0 for row in wbar for x in row):
        raise ClosureError("negative induced weight: not an integral fraction set")
    out_ring = Ring(ybar_names + ring.names[ring.ndep:], J, ring.domain,
                    grevlex_over_weight(wbar, J, J + ring.nindep), wbar)

    def coords(p: Polynomial) -> list:
        """A P-linear combination of the ybar and 1 as its J+1 F[x] dicts."""
        return [{m[1]: c for m, c in ck.terms} for ck in psi_combination(p, ring)]

    tails = [a for coeffs in products for a in coords(-combination(coeffs, out_ring))]
    vectors = [a for g in nums for a in by_y(g, d)]
    return ClosurePresentation(tuple(vectors + tails + coords(combination(psi_coeffs, out_ring))),
                               ring, out_ring)


def frobenius_images_poly(f, conductor=None) -> tuple:
    """Reference images (NF(y^0), NF(y^q), ..., NF(y^(q(d-1)))) modulo f, as
    Polynomials over F_q[y; x], stepping y^k = y * y^(k-1) through all
    q(d-1) powers; with a conductor D, every y-coefficient is also reduced
    modulo D^q, D made monic, at every step (``quo_rem_reference``), so the
    x-degrees stay below q*deg D.

    Same contract as ``intclose.frobenius_images``, which returns each image
    on y-coefficients, and reduces modulo D^q = D(x^q) always.
    """
    ring = f.ring
    dom = ring.domain
    if not dom.char or ring.ndep != 1 or ring.nindep != 1:
        raise ClosureError("Frobenius images need a ring F_q[y; x]")
    q, d = dom.char, f.degree_in(0)
    if f.coeff_of((d, 0)) != dom.one:
        raise ClosureError("relation must be monic in the dependent variable")
    tail = [{} for _ in range(d)]      # y^d = sum_i tail[i](x) * y^i
    for (i, e), c in f.terms:
        if i == d and e:
            raise ClosureError("relation has extra terms of top dependent degree")
        if i < d:
            tail[i][e] = dom.neg(c)
    mq = None if conductor is None else {e: c for (_, e), c in (conductor.monic() ** q).terms}
    coeffs = [{0: dom.one}] + [{} for _ in range(d - 1)]
    images = []
    for k in range(q * (d - 1) + 1):
        if k:
            top = coeffs.pop()
            coeffs.insert(0, {})
            for row, t in zip(coeffs, tail):
                for e2, c2 in t.items():
                    for e1, c1 in top.items():
                        s = (row.get(e1 + e2, 0) + c1 * c2) % q
                        if s:
                            row[e1 + e2] = s
                        else:
                            row.pop(e1 + e2, None)
        if mq is not None:
            coeffs = [quo_rem_reference(row, mq, q)[1] for row in coeffs]
        if k % q == 0:
            images.append(ring.poly({(i, e): c for i, row in enumerate(coeffs)
                                     for e, c in row.items()}))
    return tuple(images)


def frobenius_nf_poly(g, q: int, images: tuple):
    """Reference NF(g^q, f) as a Polynomial, from ``frobenius_images_poly(f)``.

    Same contract as ``intclose.frobenius_nf``, which takes and returns its
    element on y-coefficients.
    """
    ring = g.ring
    if ring.domain.char != q:
        raise ClosureError(f"ring characteristic is not {q}")
    dom = ring.domain
    acc: dict = {}
    for m, c in g.terms:
        shift = (0,) + tuple(q * e for e in m[1:])
        for m2, c2 in images[m[0]].terms:
            mono = mono_mul(shift, m2)
            s = dom.add(acc.get(mono, 0), dom.mul(c, c2))
            if dom.is_zero(s):
                acc.pop(mono, None)
            else:
                acc[mono] = s
    return ring.poly(acc)


def gcd_in_p(a, b):
    """Reference monic gcd of two polynomials of P = F[x], by Euclid's
    algorithm on Polynomials; ``intclose.xpoly.monic_gcd`` is the F_q[x]
    version on coefficient dicts."""
    ring = a.ring
    if ring.nindep != 1:
        raise ClosureError("gcd in P supports one independent variable,"
                           f" the ring has {ring.nindep}")
    if not a.in_subring(ring.ndep) or not b.in_subring(ring.ndep):
        raise ClosureError("gcd arguments must lie in the independent subring")
    while not b.is_zero():
        a, b = b, normal_form(a, [b])
    return a.monic()


def exact_divide(p, d):
    """Reference quotient p / d when d divides p exactly; RingError otherwise."""
    if d.is_zero():
        raise RingError("division by the zero polynomial")
    ring = p.ring
    quot: dict = {}
    rem = reduce_terms(dict(p.terms), [(d.lm, d.lc, d.terms)], ring.domain,
                       ring.order.key, full=False, quotients=[quot])
    if rem:
        raise RingError("inexact polynomial division")
    return ring.poly(quot)


def y_coefficients(p, d: int) -> list:
    """The y^0 .. y^(d-1) coefficients of p over F[y; x], as x-exponent ->
    coefficient dicts: the form of ``frobenius_images`` and ``frobenius_nf``."""
    out = [{} for _ in range(d)]
    for (k, e), c in p.terms:
        out[k][e] = c
    return out


def to_module(vectors, ring) -> dict:
    """The walk's form {k: (e, g)} of vectors g given in descending lead order,
    each led by y^k*x^e (``_lead``); ``from_module`` turns it back."""
    out = {}
    for g in vectors:
        k, e = _lead(g, ring.order.key)
        out[k] = e, g
    return out


def from_module(module: dict) -> tuple:
    """The vectors g of a module {k: (e, g)}, in its order: ``to_module`` undone."""
    return tuple(g for _, g in module.values())


def qth_power_step_scratch(numerators: tuple, q: int, images, conductor) -> tuple:
    """Reference contraction step: divide every x^(q*alpha)*phi_j from scratch.

    Same contract as ``intclose.closure.qth_power_step``, which instead
    reduces x^q times the previous column's remainder, except that
    ``images`` is ``frobenius_images_poly(f)``.  The kernel is the dense
    ``nullspace_rref``, not the library's ``nullspace_mod``.
    """
    ring = conductor.ring
    xdeg = conductor.degree_in(1)
    if xdeg == 0:
        return numerators
    scale = conductor ** (q - 1)
    targets = [scale * g for g in numerators]
    phis = [frobenius_nf_poly(g, q, images) for g in numerators]
    rows: dict = {}  # monomial -> sparse row {column index: coefficient}
    col_ids = []
    for j, g in enumerate(numerators):
        for alpha in range(xdeg):
            shifted = phis[j].mul_term((0, q * alpha))
            rem, _ = module_reduce(shifted, targets)
            for m, c in rem.terms:
                rows.setdefault(m, {})[len(col_ids)] = int(c)
            col_ids.append((j, alpha))
    if not rows:
        return numerators
    dense = [[row.get(c, 0) for c in range(len(col_ids))] for row in rows.values()]
    kernel = nullspace_rref(dense, len(col_ids), q)
    new_gens = [conductor * g for g in numerators]
    for vec in kernel:
        acc = ring.zero()
        for cidx, coeff in enumerate(vec):
            if coeff:
                j, alpha = col_ids[cidx]
                acc = acc + numerators[j].mul_term((0, alpha), coeff)
        if not acc.is_zero():
            new_gens.append(acc)
    return canonical_generators_poly(new_gens, ring)


def qth_power_step_full(module: dict, ring, images: tuple, delta: dict, scale: dict) -> dict:
    """Reference step that sums every kernel member and inserts them all.

    Same contract as ``intclose.closure.qth_power_step``, on modules
    {k: (e, g)}, with its columns and kernel, but with no dimension stop:
    every member coeff*x^alpha*g summed over its columns (k, alpha), and all
    of them and the D*y^k given to ``canonical_generators`` as vectors, which
    then reduces each one in turn, smallest lead first.
    """
    q, xdeg, d = ring.domain.char, max(delta), len(images)
    rows = _step_columns(module, q, images, delta, scale)
    if not rows:
        return module
    cols = [(k, alpha) for k, (e, _) in module.items() for alpha in range(xdeg - e)]
    new_gens = [[delta if i == k else {} for i in range(d)] for k in range(d)]   # D*y^k
    for vec in nullspace_mod(list(rows.values()), len(cols), q):
        acc = [{} for _ in range(d)]
        for (k, alpha), coeff in zip(cols, vec):
            if coeff:
                for r, a in zip(acc, module[k][1]):
                    for e, c in a.items():
                        r[e + alpha] = r.get(e + alpha, 0) + coeff * c
        new_gens.append([{e: r for e, c in row.items() if (r := c % q)} for row in acc])
    return canonical_generators(new_gens, ring)


def is_minimal_reduced_gb_full(gens) -> bool:
    """Reference Groebner check: monic, interreduced, and every S-polynomial
    reduces to zero, coprime leads included.

    Same contract as ``intclose.is_minimal_reduced_gb``, which skips the
    pairs with coprime leading monomials.
    """
    gens = list(gens)
    if not gens or any(g.is_zero() for g in gens):
        return False
    if any(not g.is_monic() for g in gens):
        return False
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if i != j and any(mono_divides(h.lm, m) for m, _ in g.terms):
                return False
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not normal_form(s_poly(gens[i], gens[j]), gens).is_zero():
                return False
    return True


def rank_mod_conductor(elements, conductor, d: int, q: int) -> int:
    """dim over F_q of the span of elements in S/(conductor*S), S = F_q[y; x]/(f).

    Each element of S (y-degree below d) becomes a dense vector of the
    coefficients of y^k*x^e, e < deg conductor, after each y-coefficient is
    reduced modulo the conductor by the plain division loop; the rank is
    read off ``rref_mod``.
    """
    ring = conductor.ring
    xdeg = conductor.degree_in(1)
    rows = []
    for g in elements:
        row = [0] * (d * xdeg)
        for k in range(d):
            coeff = ring.poly({(0, e): c for (i, e), c in g.terms if i == k})
            for (_, e), c in normal_form(coeff, [conductor]).terms:
                row[k * xdeg + e] = c
        rows.append(row)
    return len(rref_mod(rows, q)[1]) if rows else 0


def codim_in_s(gens, conductor, d: int, q: int) -> int:
    """dim over F_q of S/N, N the P-module spanned by gens, conductor*S inside N.

    N/(conductor*S) is spanned by the x^alpha*g, alpha < deg conductor, and
    S/(conductor*S) has dimension d * deg conductor.
    """
    xdeg = conductor.degree_in(1)
    shifted = [g.mul_term((0, alpha)) for g in gens for alpha in range(xdeg)]
    return d * xdeg - rank_mod_conductor(shifted, conductor, d, q)


def step_columns_unreduced(numerators, q: int, images, conductor, prefix) -> dict:
    """Columns (j, alpha), alpha < prefix[j], of the contraction step, as
    sparse rows by monomial: x^(q*alpha) * NF(g_j^q, f) from the full images
    ``frobenius_images_poly(f)`` and the unreduced numerators, each divided
    by the targets from scratch.
    """
    targets = [conductor ** (q - 1) * g for g in numerators]
    rows: dict = {}
    col = 0
    for g, a in zip(numerators, prefix):
        phi = frobenius_nf_poly(g, q, images)
        for alpha in range(a):
            rem, _ = module_reduce(phi.mul_term((0, q * alpha)), targets)
            for m, c in rem.terms:
                rows.setdefault(m, {})[col] = c
            col += 1
    return rows


def partial_derivative(p: Polynomial, var_index: int) -> Polynomial:
    """d p / d (variable var_index), term by term, over p's ring."""
    dom = p.ring.domain
    acc: dict = {}
    for m, c in p.terms:
        e = m[var_index]
        if e == 0:
            continue
        mono = tuple(x - 1 if i == var_index else x for i, x in enumerate(m))
        acc[mono] = dom.add(acc.get(mono, dom.zero), dom.mul(c, dom.convert(e)))
    return p.ring.poly(acc)


def conductor_oracle(f):
    """Delta computed from the ideal (f_y, f_x, f) in F[y; x] directly.

    Buchberger of ``[f_y, f_x, f]`` under the y-eliminating block order; the
    reduced basis element that lies in P = F[x], made monic.  Raises
    ``ConductorError`` when the ideal meets P only in zero.
    """
    ring = f.ring
    cring = Ring(ring.names, ring.ndep, ring.domain,
                 dep_block(ring.ndep, ring.nvars), ring.weights)
    fc = cring.poly(dict(f.terms))
    gb = buchberger([partial_derivative(fc, v) for v in range(ring.nvars)] + [fc])
    in_p = [g for g in gb if g.in_subring(ring.ndep)]
    if not in_p:
        raise ConductorError("degenerate extension: no conductor entries in P")
    return ring.poly(dict(in_p[0].monic().terms))


def conductor_by_module_basis(f, ring):
    """Delta read off an interreduced P-module basis of M = (f_y, f_x)*S.

    M is spanned by y^k*f_y and y^k*f_x mod f for k < deg_y f.  Under
    ``dep_block`` an interreduced basis of M (``canonical_generators_poly``) is in
    echelon form, so its one element inside P generates M's intersection
    with P.  Same contract as ``intclose.canonical_conductor``'s Delta on
    rings F[y; x] with f monic in y, and the same ``ConductorError`` text when
    M meets P only in zero.
    """
    cring = Ring(ring.names, 1, ring.domain, dep_block(1, 2), ring.weights)
    f = cring.poly(dict(f.terms))
    module = []
    for g in (partial_derivative(f, 0), partial_derivative(f, 1)):
        for _ in range(f.degree_in(0)):
            module.append(g)
            g = normal_form(g.mul_term((1, 0)), [f])
    in_p = [g for g in canonical_generators_poly(module, cring) if g.in_subring(1)]
    if not in_p:
        raise ConductorError("degenerate extension: no conductor entries in P")
    return ring.poly(dict(in_p[0].terms))


def mu_poly(p: Polynomial, target: Ring) -> Polynomial:
    """Reduce a rational polynomial mod q through ``Ring.poly`` (undefined
    denominators raise): the reference for ``xpoly.mod_q`` on a run's input."""
    try:
        return target.poly(dict(p.terms))
    except DomainError as exc:
        raise LiftError(str(exc)) from None


def is_prime_usable_reference(q: int, f, delta0):
    """``lifting.is_prime_usable`` with no lucky-prime shortcut: every prime
    that passes the denominator and numerator checks runs the conductor over
    GF(q) and compares it with delta0 mod q."""
    if not is_prime(q):
        return "skipped", f"{q} is not prime"
    for p in (f, delta0):
        for _, c in p.terms:
            if Fraction(c).denominator % q == 0:
                return "skipped", "divides a coefficient denominator"
    for _, c in f.terms:
        if Fraction(c).numerator % q == 0:
            return "skipped", "divides a coefficient numerator"
    ring_q = f.ring.with_domain(GF(q))
    f_q = mu_poly(f, ring_q)
    try:
        delta_q = from_y([[canonical_conductor(by_y(f_q, f_q.degree_in(0)), ring_q)[0]]],
                         ring_q)[0]
    except ConductorError as exc:
        return "skipped", f"degenerate mod {q}: {exc}"
    if delta_q != mu_poly(delta0, ring_q):
        return "skipped", "conductor disagrees with the rational one"
    return "usable", (f_q, delta_q)


def crt(values, x: int = 0, n: int = 1) -> tuple[int, int]:
    """Balanced residue mod n times the (distinct-prime) moduli, from x mod n,
    by Garner's step (TAOCP 4.3.2) x + n*((a - x)/n mod q) per prime q: the
    step that ``reconcile_and_lift`` runs inline on every coefficient."""
    for a, q in values:
        if n % q == 0:
            raise LiftError("duplicate primes in CRT input")
        x, n = balanced(x + n * ((a - x) * pow(n, -1, q) % q), n * q), n * q
    return x, n


def crt_sum_reference(maps, primes) -> dict:
    """The CRT record of one coefficient map's residues (a Polynomial's terms,
    or an F[x] dict), all at once: every coefficient is the balanced sum of
    a_i*M_i*(M_i^-1 mod q_i), M_i = N/q_i, over the union of the supports; a
    coefficient that vanishes mod N is dropped."""
    modulus = math.prod(primes)
    units = [(modulus // q) * pow(modulus // q, -1, q) for q in primes]
    coeffs = [m if isinstance(m, dict) else dict(m.terms) for m in maps]
    sums = {m: balanced(sum(int(c.get(m, 0)) * u for c, u in zip(coeffs, units)), modulus)
            for m in set().union(*coeffs)}
    return {m: c for m, c in sums.items() if c}


def rat_recon_reference(c: int, n: int) -> Fraction:
    """``lifting.rat_recon`` through the whole candidate list: every pair
    (r_i, u_i) of the remainder sequence, sorted by (r^2 + u^2, i), and the
    first whose reduced fraction (-1)^i r/u satisfies c*beta = alpha (mod n)."""
    if n <= 1:
        raise LiftError("modulus must exceed 1")
    c %= n
    cands = [(c * c + 1, 0, c, 1)]
    r_prev, r = n, c
    u_prev, u = 0, 1
    i = 0
    while r != 0:
        quot = r_prev // r
        r_prev, r = r, r_prev - quot * r
        u_prev, u = u, quot * u + u_prev
        i += 1
        cands.append((r * r + u * u, i, r, u))
    for _, i, r, u in sorted(cands):
        frac = Fraction(r if i % 2 == 0 else -r, u)
        if (c * frac.denominator - frac.numerator) % n == 0:
            return frac


def reconcile_and_lift_reference(runs) -> LiftState:
    """``lifting.reconcile_and_lift`` over all the usable runs at once, not one
    fold per stage: each coordinate's ``crt_sum_reference``, lifted by
    ``rat_recon_reference``.  The signature is every Polynomial's leading
    monomial, numerators, relations and psi(y), the same for all runs; the
    state keeps the record's own ``leads``.  The state's presentation holds,
    in its caches, the lifted Polynomials built here by ``lifted_views``, so
    reading them runs none of the record's own build."""
    runs = [r for r in runs if r.usable]
    if not runs:
        raise LiftError("no usable runs to reconcile")
    pres = [r.presentation for r in runs]
    if len({tuple(p.lm for p in x.numerators + x.relations + (x.inclusion_image,))
            for x in pres}) != 1:
        raise SignatureError("runs have incompatible closure signatures")
    primes = tuple(r.q for r in runs)
    if len(set(primes)) != len(primes):
        raise LiftError("duplicate primes in CRT input")
    modulus = math.prod(primes)
    qq = (pres[0].input_ring.with_domain(QQ), pres[0].ring.with_domain(QQ))
    record = tuple(crt_sum_reference(slot, primes) for slot in zip(*(x.coords for x in pres)))
    lift = tuple({e: rat_recon_reference(c, modulus) for e, c in rec.items()} for rec in record)
    state = LiftState(primes, modulus, record, lift, qq, pres[0].leads)
    state.__dict__["presentation"] = ClosurePresentation(lift, *qq)
    state.presentation.__dict__.update(zip(("numerators", "relations", "inclusion_image"),
                                           lifted_views(lift, *qq)))
    return state


def lifted_views(coords, input_ring: Ring, out_ring: Ring) -> tuple:
    """(numerators, relations, psi(y)) of a flat record as Polynomials, each
    built by ``Ring.poly`` from its own slice of the coordinates: J+1 maps per
    numerator, then per relation ybar_a*ybar_b, a <= b, in row order, then
    psi(y); the relations descending by lead, as ``ClosurePresentation`` has them."""
    J = out_ring.ndep
    chunks = [coords[i:i + J + 1] for i in range(0, len(coords), J + 1)]

    def linear(v, terms: dict):        # terms plus sum v_k*ybar_k, ybar_J being 1
        for k, a in enumerate(v):
            terms.update({tuple(int(i == k) for i in range(J)) + (e,): c for e, c in a.items()})
        return out_ring.poly(terms)

    nums = tuple(input_ring.poly({(k, e): c for k, a in enumerate(v) for e, c in a.items()})
                 for v in chunks[:J + 1])
    pairs = [(a, b) for a in range(J) for b in range(a, J)]
    rels = [linear(t, {tuple(int(i == a) + int(i == b) for i in range(J)) + (0,): 1})
            for (a, b), t in zip(pairs, chunks[J + 1:-1], strict=True)]
    rels.sort(key=lambda r: out_ring.order.key(r.lm), reverse=True)
    return nums, tuple(rels), linear(chunks[-1], {})


def psi_substitute(f: Polynomial, psi: Polynomial, out_ring: Ring,
                   psi_pows: list | None = None) -> Polynomial:
    """Image of f under y -> psi, x_i -> x_i inside the output ring, by
    Polynomial powers of psi.

    ``psi_pows`` is a list [1, psi, psi^2, ...] that is extended as needed,
    so calls that pass the same list build each power of psi once.
    """
    src = f.ring
    pad = out_ring.ndep
    image = out_ring.zero()
    if psi_pows is None:
        psi_pows = [out_ring.one()]
    for m, c in f.terms:
        ydeg = m[0]
        while len(psi_pows) <= ydeg:
            psi_pows.append(psi_pows[-1] * psi)
        xmono = (0,) * pad + m[src.ndep:]
        image = image + psi_pows[ydeg].mul_term(xmono, c)
    return image


class ReferenceCertificate(NamedTuple):
    gb_ok: bool
    containment_ok: bool
    numerators_ok: bool
    residual: object             # psi(f) mod the relations; None when zero

    @property
    def accepted(self) -> bool:
        return self.gb_ok and self.containment_ok and self.numerators_ok


def verify_candidate_reference(state, f) -> ReferenceCertificate:
    """``lifting.verify_candidate`` computing every bit eagerly: the Groebner
    property by S-pairs, then containment and numerator consistency by
    ``psi_substitute`` and ``normal_form`` on the lifted record's Polynomials,
    none of which the certificate itself runs."""
    nums = state.presentation.numerators
    rels = list(state.presentation.relations)
    psi = state.presentation.inclusion_image
    out_ring = state.presentation.ring
    gb_ok = is_minimal_reduced_gb(rels) if rels else True
    psi_pows = [out_ring.one()]
    residual = normal_form(psi_substitute(f, psi, out_ring, psi_pows), rels)
    containment_ok = residual.is_zero()
    delta_out = psi_substitute(nums[-1], psi, out_ring, psi_pows)
    numerators_ok = True
    for k in range(out_ring.ndep):
        image = psi_substitute(nums[k], psi, out_ring, psi_pows)
        ybar = out_ring.var(out_ring.names[k])
        if not normal_form(image - ybar * delta_out, rels).is_zero():
            numerators_ok = False
            break
    return ReferenceCertificate(gb_ok, containment_ok, numerators_ok,
                                None if containment_ok else residual)


def nullspace_rref(rows: list[list[int]], ncols: int, q: int) -> list[list[int]]:
    """Right nullspace basis over Z_q read off ``rref_mod`` in plain Python.

    One vector per free column: 1 there, 0 at the other free columns, and
    minus the reduced matrix entry at each pivot column.
    """
    a, pivots = rref_mod(rows, q)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc] % q
        basis.append(v)
    return basis


def rref_mod(rows: list[list[int]], q: int):
    """Row-reduce a matrix over Z_q; returns (matrix, pivot column list)."""
    a = [[x % q for x in row] for row in rows]
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] % q), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, q)
        a[r] = [x * inv % q for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def membership_oracle(f, gens, max_mult_deg: int, q: int) -> bool:
    """Is f in <gens> with multiplier degrees bounded by max_mult_deg?

    Solves the linear system f = sum(m_i * g_i) over all multiplier monomials
    of total degree <= max_mult_deg, entirely by Gaussian elimination.
    """
    ring = f.ring
    mons = [(i, j) for i in range(max_mult_deg + 1)
            for j in range(max_mult_deg + 1) if i + j <= max_mult_deg]
    columns = []
    support = {}
    for g in gens:
        for m in mons:
            col = {}
            for mg, cg in g.terms:
                mono = (m[0] + mg[0], m[1] + mg[1])
                col[mono] = (col.get(mono, 0) + int(cg)) % q
                support.setdefault(mono, len(support))
            columns.append(col)
    for m, _ in f.terms:
        support.setdefault(m, len(support))
    nrows = len(support)
    mat = [[0] * (len(columns) + 1) for _ in range(nrows)]
    for cidx, col in enumerate(columns):
        for mono, c in col.items():
            mat[support[mono]][cidx] = c
    for mono, c in f.terms:
        mat[support[mono]][len(columns)] = int(c) % q
    _, piv_with = rref_mod(mat, q)
    _, piv_without = rref_mod([row[:-1] for row in mat], q)
    return len(piv_with) == len(piv_without)


def staircase_oracle(gens, f, q: int, bound: int):
    """Leading-term staircase {(y-power, min x-degree)} of the P-module
    spanned by gens inside S = F_q[y, x]/(f), by plain row reduction.

    Spanning vectors are x^b * g reduced mod f for every generator and every
    shift up to ``bound``; coordinates are the monomials y^i x^e sorted
    descending under the ring order.
    """
    ring = gens[0].ring
    d = f.degree_in(0)
    coords = [(i, e) for i in range(d) for e in range(bound + 1)]
    coords.sort(key=ring.order.key, reverse=True)
    index = {m: k for k, m in enumerate(coords)}
    vectors = []
    for g in gens:
        for b in range(bound + 1):
            h = normal_form(g.mul_term((0, b)), [f])
            if any(m[1] > bound for m, _ in h.terms):
                continue
            row = [0] * len(coords)
            for m, c in h.terms:
                row[index[m]] = int(c)
            vectors.append(row)
    reduced, pivots = rref_mod(vectors, q)
    leads = {}
    for p in pivots:
        i, e = coords[p]
        leads[i] = min(leads.get(i, e), e)
    return leads


def kernel_step_oracle(numerators, f, conductor, q: int):
    """One contraction step computed purely with linear algebra.

    Returns the staircase {(y-power, min x-degree)} of the next module.
    Independent path: Frobenius images via plain powering and division, the
    membership condition via row reduction against the span of the scaled
    module, and the staircase via ``staircase_oracle``.
    """
    ring = numerators[0].ring
    d = f.degree_in(0)
    xdeg = conductor.degree_in(1)
    scale = conductor ** (q - 1)
    targets = [scale * g for g in numerators]
    phis = [normal_form(g ** q, [f]) for g in numerators]
    bound = max([p.degree_in(1) + q * xdeg for p in phis]
                + [t.degree_in(1) + 1 for t in targets]) + 1
    coords = [(i, e) for i in range(d) for e in range(bound + 1)]
    index = {m: k for k, m in enumerate(coords)}

    def vec(p):
        row = [0] * len(coords)
        for m, c in p.terms:
            row[index[m]] = int(c)
        return row

    span_rows = []
    for t in targets:
        for b in range(bound + 1 - t.degree_in(1)):
            span_rows.append(vec(t.mul_term((0, b))))
    # eliminate the span from the candidate images, then read the kernel
    reduced, pivots = rref_mod(span_rows, q)
    cand = []
    ids = []
    for j, g in enumerate(numerators):
        for alpha in range(xdeg):
            ids.append((j, alpha))
            cand.append(vec(phis[j].mul_term((0, q * alpha))))
    for row in cand:
        for prow, p in zip(reduced, pivots):
            if row[p]:
                fct = row[p]
                row[:] = [(x - fct * y) % q for x, y in zip(row, prow)]
    # kernel of the matrix whose columns are the residual candidate images
    mat = [[cand[k][r] for k in range(len(cand))] for r in range(len(coords))]
    kernel = nullspace_rref([row for row in mat if any(row)], len(cand), q)
    new_gens = [conductor * g for g in numerators]
    for v in kernel:
        acc = ring.zero()
        for k, coeff in enumerate(v):
            if coeff:
                j, alpha = ids[k]
                acc = acc + numerators[j].mul_term((0, alpha), coeff)
        if not acc.is_zero():
            new_gens.append(acc)
    return staircase_oracle(new_gens, f, q, bound)


def numerators_interreduced(nums) -> bool:
    """No numerator has a term that another numerator's lead divides with the
    same dependent part: a closure's numerators are fully interreduced.

    The full check, O(n^2) in the numerators' terms, that ``ClosurePresentation``
    leaves out of its shape check."""
    ndep = nums[0].ring.ndep
    return not any(h.lm[:ndep] == m[:ndep] and mono_divides(h.lm, m)
                   for i, g in enumerate(nums) for h in nums[:i] + nums[i + 1:]
                   for m, _ in g.terms)


def ideal_contains(basis, f) -> bool:
    """Membership of f in the ideal with Groebner basis ``basis``."""
    return normal_form(f, list(basis)).is_zero()


def strict_shape_ok(presentation) -> bool:
    """Dependent degree <= 2 everywhere; quadratic leads have linear tails."""
    nd = presentation.ring.ndep
    for rel in presentation.relations:
        lead_deg = sum(rel.lm[:nd])
        tail_degs = [sum(m[:nd]) for m, _ in rel.terms[1:]]
        if lead_deg == 2:
            if any(dg > 1 for dg in tail_degs):
                return False
        elif lead_deg != 1:
            return False
    return True


def weight_balance_ok(presentation) -> bool:
    """Leading-term weight equals the maximal trailing-term weight, per relation."""
    w = presentation.ring.weights
    for rel in presentation.relations:
        if len(rel.terms) < 2:
            continue
        lead = mono_weight(rel.lm, w)
        tail = max(mono_weight(m, w) for m, _ in rel.terms[1:])
        if lead != tail:
            return False
    return True


def _rank(rows) -> int:
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


def completed_rows(base, candidates, nvars: int) -> tuple:
    """Reference order matrix: square and nonsingular, pruned by rank.

    Keeps each base row that raises the rank of the rows above it, then
    appends candidate rows while they raise the rank, until there are
    ``nvars`` independent rows.  Asserts that full rank is reached.
    """
    rows = [tuple(r) for r in base]
    rows = [r for i, r in enumerate(rows) if _rank(rows[: i + 1]) > _rank(rows[:i])]
    for cand in candidates:
        if len(rows) == nvars:
            break
        if _rank(rows + [tuple(cand)]) > len(rows):
            rows.append(tuple(cand))
    assert len(rows) == nvars and _rank(rows) == nvars, "matrix is not of full rank"
    return tuple(rows)


def key_sign(key, a, b) -> int:
    """-1, 0 or 1 as monomial a sorts below, level with or above b under ``key``."""
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


# ---------------------------------------------------------------------------
# F[x] on dense coefficient lists, lowest degree first: the references for
# ``intclose.xpoly``, which works on sparse {exponent: coefficient} maps


def dense(a: dict) -> list:
    """The coefficients of a map up to its degree, zeros included."""
    return [a.get(e, 0) for e in range(max(a, default=-1) + 1)]


def sparse(v: list, q: int = 0) -> dict:
    """The map of a dense list, each coefficient mod q (kept when q = 0), zeros dropped."""
    return {e: c % q if q else c for e, c in enumerate(v) if (c % q if q else c) != 0}


def dense_product(u: list, v: list) -> list:
    """Schoolbook product of two dense lists."""
    out = [0] * max(len(u) + len(v) - 1, 0)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def sub_dot_reference(a: dict, pairs, q: int = 0) -> dict:
    """a - sum x*y over the pairs, on dense lists, reduced once at the end."""
    acc = dense(a)
    for x, y in pairs:
        prod = dense_product(dense(x), dense(y))
        acc += [0] * (len(prod) - len(acc))
        acc = [c - (prod[i] if i < len(prod) else 0) for i, c in enumerate(acc)]
    return sparse(acc, q)


def inverse_mod(c: int, q: int) -> int:
    """c^-1 mod the prime q, by Fermat's little theorem; ValueError when q divides c."""
    if c % q == 0:
        raise ValueError(f"{c} is not invertible mod {q}")
    return pow(c, q - 2, q)


def quo_rem_reference(a: dict, m: dict, q: int) -> tuple:
    """Long division in F_q[x] on dense lists, one quotient coefficient per degree."""
    r, n = [c % q for c in dense(a)], max(m)
    mv, inv = dense(m), inverse_mod(m[n], q)
    quot = [0] * max(len(r) - n, 0)
    for e in range(len(r) - 1, n - 1, -1):
        quot[e - n] = s = r[e] * inv % q
        r[e - n:e + 1] = [(c - s * b) % q for c, b in zip(r[e - n:e + 1], mv)]
    return sparse(quot, q), sparse(r[:n], q)


def monic_reference(a: dict, q: int = 0) -> dict:
    """a over its leading coefficient, mod q, or over Q when q = 0."""
    lead = a[max(a)]
    if q:
        return sparse([c * inverse_mod(lead, q) for c in dense(a)], q)
    return sparse([Fraction(c, lead) for c in dense(a)])


def monic_gcd_reference(a: dict, b: dict, q: int) -> dict:
    """Monic gcd in F_q[x] by Euclid's algorithm on dense lists; {} for two zeros."""
    while b:
        a, b = b, quo_rem_reference(a, b, q)[1]
    return monic_reference(a, q) if a else {}


def mod_q_reference(a: dict, q: int) -> dict:
    """Each int or rational a/b of a map taken to a*b^-1 mod q, zeros dropped;
    ValueError when q divides a denominator."""
    out = {}
    for e, c in a.items():
        c = Fraction(c)
        if r := c.numerator * inverse_mod(c.denominator, q) % q:
            out[e] = r
    return out


def pack_reference(v: list, w: int) -> int:
    """The ints of v, each at bits 8*w*i and up."""
    return sum(c << 8 * w * i for i, c in enumerate(v))


def unpack_reference(n: int, w: int) -> list:
    """The w-byte slots of n up to its highest nonzero one."""
    slots = -(-n.bit_length() // (8 * w))
    return [n >> 8 * w * i & (1 << 8 * w) - 1 for i in range(slots)]
