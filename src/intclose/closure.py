"""Integral closure in characteristic q by Frobenius fixpoint iteration.

A module of fractions between S = P[y]/(f) and (1/D)S (D a conductor
element) has one form from the walk's start to the presentation, its shifted
Popov basis as a dict {k: (e, g)}: one monic g per y-degree k, led by
y^k*x^e and held as its d y-coefficients in F_q[x], entries in descending
lead order.  That dict is also the targets ``_rem_by_targets`` reads.  One
iteration keeps the sub-module whose members g satisfy NF(g^q, f) in
D^(q-1) * (current module); the chain stabilizes on the integral closure.
The fixpoint is turned into a quadratic presentation over new variables, one
per non-trivial fraction, kept as plain data in one record,
``ClosurePresentation``, which builds Polynomials only when read.
The relation f = y^d + sum_i tail[i](x) * y^i comes in as its tail,
``by_y(f, d)``, and D as an F_q[x] dict; no Polynomial goes in.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from heapq import heapify, heappop, heappush
from itertools import chain, combinations_with_replacement, compress, count

from .groebner import reduce_terms
from .linalg import nullspace_mod
from .orders import grevlex_over_weight
from .rings import Polynomial, Ring
from .weights import mono_weight
from .xpoly import (monic, monic_gcd, mul_scalar, pack, quo_rem, reduce_slots, slot_bytes,
                    sub_dot, unpack)


# what the dense layers can hold: a step's columns d*deg D (``nullspace_mod`` starts
# from a packed identity of about bits*columns^2/2 bits), and the images' slots per
# y-coefficient q*deg D (``frobenius_images`` masks one int of that many slots)
MAX_COLUMNS, MAX_SLOTS = 1 << 13, 1 << 24


class ClosureError(ValueError):
    pass


class NotARingError(ClosureError):
    """A product of a module's fractions leaves it (``induce_presentation``)."""


def module_reduce(h: Polynomial, gens):
    """P-module division: (remainder, c_j in P) with h = sum(c_j * g_j) + remainder.
    No library code calls it; perfbench/tracing.py wraps it by name."""
    ring, quotients = h.ring, [{} for _ in gens]
    if any(g.is_zero() for g in gens):
        raise ClosureError("zero generator in module reduction")
    rem = reduce_terms(dict(h.terms), [(g.lm, g.lc, g.terms) for g in gens], ring.domain,
                       ring.order.key, fixed=ring.ndep, quotients=quotients)
    return ring._sorted(rem), [ring._sorted(c) for c in quotients]


def canonical_generators(vectors, ring: Ring, members=(), start=()) -> dict:
    """The P-module the generators span, as its monic, fully interreduced basis {k: (e, g)}.

    Each generator is a vector of F_q[x]^d, the y-coefficients of an element
    of F_q[y; x] (``by_y``), led by its ``_lead``.  With one independent
    variable x, two leads divide one another exactly when their y-degrees
    agree, so a set whose leads have distinct y-degrees has no S-pairs: it is
    a Groebner basis of the module it spans, and its monic, fully
    interreduced form is unique, the module's shifted Popov basis
    (Beckermann, Labahn & Villard, "Normal forms for general polynomial
    matrices", JSC 2006), the shift coming from the weight of y.  Generators
    are inserted smallest lead first, each reduced by the basis with
    ``_rem_by_targets``; one whose lead has the y-degree of a basis element
    sends that element back to the pending list.  A last pass, ascending,
    reduces each tail by the smaller elements only, as no larger lead
    divides a smaller term.  It is not a y-triangular Hermite basis: at
    q = 7 the octic numerator y^6*x^8 + y^7*x^5 + x^11 - y*x^8 has a y^7 term
    under its y^6 lead, so a Hermite-form representation would need a
    conversion back to this basis to keep the output the same.

    ``start``, empty by default, is a basis {k: (e, g)} to insert into.
    ``members`` are generators given lazily, each as a pair (lead, make):
    its lead y^k*x^e as (k, e), and a function that returns the vector,
    called only when the insertion pops it; the vectors go on the heap in
    the same form, so every pop calls its make.

    Dimension stop.  With members, start is D*S's basis
    {k: (deg D, D*y^k)}, k < d, and the members, independent modulo D*S,
    span with it a module N' between D*S and S: dim N'/DS = len(members).
    The basis holds every y-degree from the start, so each remainder by it
    has every y^k-coefficient of degree below e_k, and each insertion lowers
    the e_k of its lead's y-degree.  The insertion stops once the basis
    leads y^k*x^(e_k) have sum_k (deg D - e_k) = dim N'/DS; the last pass
    then returns what inserting every member would.  Proof: a basis element
    lies in N', and e_k <= deg D.  Every lead of D*S is some y^k*x^e with
    e >= deg D, so the x^alpha*b_k with alpha < deg D - e_k, whose leads are
    distinct and below those, are independent modulo D*S: the sum never
    exceeds dim N'/DS, and each insertion raises it.  At equality they span
    N' modulo D*S, and the leads, one per y-degree, leave
    sum_k e_k = d*deg D - dim N'/DS = dim S/N' monomials outside.  The
    leads of N' contain them and leave dim S/N' outside too, so they are
    N''s leads: the set is a Groebner basis of N', and the last pass gives
    N''s unique monic, fully interreduced one.
    """
    if not ring.domain.char or ring.ndep != 1 or ring.nindep != 1:
        raise ClosureError("canonical generators need a ring F_q[y; x]")
    q, key, tick = ring.domain.char, ring.order.key, count()
    pending = [(key(lead), next(tick), make) for lead, make in
               chain(((_lead(v, key), partial(list, v)) for v in vectors if any(v)), members)]
    heapify(pending)
    basis = dict(start)                # y-degree k of the lead y^k*x^e -> (e, element)
    room = len(members) if members else None    # dim N'/DS - sum_k (deg D - e_k)
    while pending and room != 0:
        v = _rem_by_targets(heappop(pending)[2](), basis, q)
        if any(v):
            k, e = _lead(v, key)
            if k in basis:
                heappush(pending, (key((k, basis[k][0])), next(tick), partial(list, basis[k][1])))
                if room is not None:
                    room -= basis[k][0] - e
            inv = pow(v[k][e], -1, q)
            basis[k] = e, [mul_scalar(a, inv, q) for a in v]
    out: dict = {}                     # the last pass keeps every lead
    for k, (e, v) in sorted(basis.items(), key=lambda item: key((item[0], item[1][0]))):
        out[k] = e, _rem_by_targets(v, out, q)
    return dict(reversed(out.items()))


def frobenius_images(tail: list, delta: dict, q: int) -> tuple:
    """(y^0, y^q, ..., y^(q(d-1))) modulo f and D^q over F_q[y; x], on y-coefficients.

    All that ``frobenius_nf`` reads, which a step needs only modulo
    D^q = D(x^q), for f's tail and D as the module says; each is the list of
    its d y-coefficients, dicts from x-exponent to nonzero coefficient.  y^q
    comes by square-and-multiply, and y^(qk) = y^(q(k-1)) * y^q.  An element
    is held as d packed ints, one per y-coefficient reduced modulo q and D^q,
    so each F_q[x] product is one int product (Kronecker substitution); a
    product's y^s-coefficients, s < 2d - 1, fold down through y^d = -tail.
    A product is reduced modulo D^q = x^top - low by packed operations: the
    slots at x^top and above are cut off, taken mod q (``reduce_slots``) and
    multiplied by low, until none is left, each cut lowering the degree by
    at least q, as low's exponents are multiples of q; then every slot is
    taken mod q.  A monomial D has low = 0, and the cut is a truncation.
    That is about log(q) + d products of d^2 coefficient pairs of q * deg D slots.
    """
    d = len(tail)
    mod = monic({q * e: c for e, c in delta.items()}, q)    # D^q = D(x^q), monic
    top = max(mod)
    tlen = 1 + max((e for t in tail for e in t), default=0)
    # a slot sums at most d*top products of residues, its folds d*tlen more,
    # and the cuts at most top + tlen times as many as low has terms; twice
    # that leaves the bit that ``reduce_slots`` needs spare
    w = slot_bytes(q, 2 * (d + len(mod) - 1) * (top + tlen))
    cut, keep = 8 * w * top, (1 << 8 * w * top) - 1
    low = pack([-mod.get(e, 0) % q for e in range(top)], w)   # x^top = low mod D^q
    packed_tail = [pack([-t.get(e, 0) % q for e in range(tlen)], w) for t in tail]   # -tail

    def reduce(n: int) -> int:
        while low and (high := n >> cut):
            n = (n & keep) + reduce_slots(high, w, q) * low
        return reduce_slots(n & keep, w, q)

    def fold(prods: list) -> list:
        for s in range(len(prods) - 1, d - 1, -1):
            if c := reduce(prods.pop()):
                for i, t in enumerate(packed_tail):
                    prods[s - d + i] += c * t
        return [reduce(p) for p in prods]

    def mul(a: list, b: list) -> list:
        prods = [0] * (2 * d - 1)
        for i, ai in enumerate(a):     # a square sums each pair i < j once, doubled
            for j in range(i if a is b else 0, d) if ai else ():
                prods[i + j] += ai * b[j] << (a is b and i != j)
        return fold(prods)

    power = fold([0, 1] + [0] * (d - 2))
    for bit in bin(q)[3:]:
        power = mul(power, power)
        if bit == "1":
            power = fold([0] + power)
    images = [fold([1] + [0] * (d - 1)), power]
    while len(images) < d:
        images.append(mul(images[-1], power))
    return tuple([{e: c for e, c in enumerate(unpack(p, w)) if c} for p in img]
                 for img in images[:d])


def frobenius_nf(g: list, q: int, images: tuple) -> list:
    """NF(g^q, f) using termwise Frobenius: (sum t_i)^q = sum t_i^q.

    ``images`` is ``frobenius_images(tail, D, q)``, and g, an element of S given by
    its y-coefficients (``by_y``), is returned as g^q in the same form: the
    term c*y^k*x^e adds c*x^(q*e) times image k into each y-coefficient.
    With images whose y-coefficients are reduced modulo m_k in F_q[x], the
    y^k-coefficient of the result is NF(g^q, f)'s modulo m_k, unreduced.
    """
    return _shifted_sum(((c, q * e, images[k]) for k, a in enumerate(g) for e, c in a.items()),
                        len(images), q)


def _shifted_sum(terms, d: int, q: int) -> list:
    """The sum of c*x^shift*v over the (c, shift, v) in terms, v and the result
    on d y-coefficients, reduced mod q once: a Frobenius image or a kernel member."""
    acc = [{} for _ in range(d)]
    for c, shift, v in terms:
        for row, a in zip(acc, v):
            for e, c2 in a.items():
                row[shift + e] = row.get(shift + e, 0) + c * c2
    return [{e: r for e, c in row.items() if (r := c % q)} for row in acc]


def frobenius_scale(delta: dict, q: int) -> dict:
    """D^(q-1) over F_q, D and the result F_q[x] dicts: D(x^q) / D, as c^q = c on F_q."""
    return quo_rem({q * e: c for e, c in delta.items()}, delta, q)[0]


def by_y(p: Polynomial, d: int) -> list:
    """The y^0 .. y^(d-1) coefficients of p over F[y; x], as F[x] dicts.

    A term of y-degree d, such as the leading y^d of a relation f, is dropped.
    The driver reads f through it once per run: f's tail, ``by_y(f, d)``.
    """
    out: list = [{} for _ in range(d + 1)]
    for (k, e), c in p.terms:
        out[k][e] = c
    return out[:d]


def from_y(vectors, ring: Ring) -> tuple:
    """The Polynomials of ring with the given canonical, nonzero y-coefficients:
    ``by_y`` undone."""
    return tuple(ring._sorted({(k, e): c for k, a in enumerate(v) for e, c in a.items()})
                 for v in vectors)


def _lead(v: list, key) -> tuple:
    """(k, e) of v's lead y^k*x^e: of the y^k*x^deg(v[k]), the largest under key."""
    return max(((k, max(a)) for k, a in enumerate(v) if a), key=key)


def _rem_by_targets(v: list, targets: dict, q: int, quotients: dict | None = None) -> list:
    """Remainder of v by the targets, both on y-coefficients: the normal form
    modulo a Popov basis (Mulders & Storjohann, JSC 2003); v is left as it is.

    ``targets`` maps y-degree k to (n, t), t the target that leads in y^k at
    x-degree n = deg t[k].  Each y^k-coefficient of v that reaches n is
    divided by t[k] in F_q[x], and the quotient times t's other entries is
    taken from v's other coefficients, until none does; only a coefficient a
    division changed is looked at again.  Each division is a run of reduction
    steps, each replacing a term by strictly smaller ones, so they end, in
    any order, at the one member of v plus the targets' span whose
    y^k-coefficients all have degree below n; targets each in one y-degree
    take one division apiece.  quotients[k], if given, sums the quotients by t.
    A target may carry a third field, (n, t, True), if t is one term
    c*x^n*y^k (``_scaled_targets`` marks them); with no quotients asked for,
    the division by it is a truncation, and no quotient is built.
    """
    v, todo = list(v), [k for k, (n, *_) in targets.items() if max(v[k], default=-1) >= n]
    while todo:                        # a division here has a nonzero quotient
        k = todo.pop()
        n, t, *alone = targets[k]
        if alone and quotients is None:
            v[k] = {e: c for e, c in v[k].items() if e < n}
            continue
        quot, v[k] = quo_rem(v[k], t[k], q, n)
        if quotients is not None:      # quotients[k] - (-1)*quot
            quotients[k] = sub_dot(quotients.get(k, {}), (({0: q - 1}, quot),), q)
        for j, b in enumerate(t):
            if j != k and b:
                v[j] = sub_dot(v[j], ((quot, b),), q)
                if j in targets and j not in todo and max(v[j], default=-1) >= targets[j][0]:
                    todo.append(j)
    return v


def _scaled_targets(module: dict, s: dict, q: int) -> dict:
    """{k: (e + deg s, s*g)} of a module {k: (e, g)}: ``_rem_by_targets``' targets
    s*g, each marked (e + deg s, s*g, True) here, once, if it is one term."""
    minus, out = mul_scalar(s, -1, q), {}                    # 0 - c*(-s) = s*c
    for k, (e, g) in module.items():
        t = [sub_dot({}, ((c, minus),), q) if c else c for c in g]
        out[k] = (e + max(s), t, True) if sum(map(len, t)) == 1 else (e + max(s), t)
    return out


def _step_columns(module: dict, q: int, images: tuple, delta: dict, scale: dict) -> dict:
    """The step's columns, as ``qth_power_step`` says: sparse rows by monomial.

    Column (k, alpha), for each entry k: (e, g) of the module in its order and
    alpha < deg D - e, is R(x^(q*alpha) * gbar^q), R the remainder by the
    targets scale*g and gbar g with its y-coefficients reduced mod D.
    Split by linearity ("Chaining"): a term c*y^k*x^e of G = R(gbar^q) is
    copied into column alpha at x^(e + q*alpha) while that is below n_k, the
    x-degree of target k's lead; the terms that first reach n_k at alpha
    form the spill C_alpha, and S_alpha = R(x^q*S_(alpha-1) + C_alpha),
    S_0 = 0, is added into column alpha, zeros dropped.  R truncates a term
    whose target is one term to nothing, so such a term joins no spill.
    """
    xdeg, targets, d = max(delta), _scaled_targets(module, scale, q), len(images)
    by_k = [defaultdict(dict) for _ in range(d)]     # k -> e -> row of y^k*x^e
    col, zero = 0, [{}] * d
    cross = defaultdict(lambda: [{} for _ in range(d)])     # column -> its spill C_alpha
    for e, g in module.values():
        if e == xdeg:
            continue
        gbar = [quo_rem(c, delta, q, xdeg)[1] for c in g]
        unit = sum(map(len, gbar)) == 1 and {0: 1} in gbar     # gbar = y^k: image k
        image = images[gbar.index({0: 1})] if unit else frobenius_nf(gbar, q, images)
        width = xdeg - e                               # g's columns
        for k, coeff in enumerate(_rem_by_targets(image, targets, q)):   # G
            rows, (n, _, *alone) = by_k[k], targets[k]
            for e2, c in coeff.items():
                rows[e2][col] = c
                if width > 1:
                    stop = e2 + q * width
                    if stop - q >= n:          # it first reaches n_k at x^stop
                        stop = n + (e2 - n) % q
                        if not alone:          # R truncates it to nothing
                            cross[col + (stop - e2) // q][k][stop] = c
                    for alpha, e3 in enumerate(range(e2 + q, stop, q), col + 1):
                        rows[e3][alpha] = c
        spill = zero                                   # S_(alpha-1)
        for alpha in range(col + 1, col + width):
            add = cross.pop(alpha, zero)
            if any(spill):                             # add + x^q*spill
                add = [sub_dot(a, ((b, {q: q - 1}),), q) for a, b in zip(add, spill)]
            if add is not zero:
                spill = _rem_by_targets(add, targets, q)
                for rows, coeff in zip(by_k, spill):
                    for e2, c in coeff.items():
                        if r := (rows[e2].pop(alpha, 0) + c) % q:
                            rows[e2][alpha] = r
        col += width
    return {(k, e): row for k, rows in enumerate(by_k) for e, row in rows.items() if row}


def qth_power_step(module: dict, ring: Ring, images: tuple, delta: dict, scale: dict) -> dict:
    """One contraction: members whose Frobenius image stays in D^(q-1)*module.

    ``module`` is a module N between D*S and S as {k: (e, g)}, its canonical
    generators (``canonical_generators``), and the step returns the next
    module in the same form.  ``delta`` is D, and ``scale`` is
    ``frobenius_scale(delta, q)`` = D^(q-1).
    ``images`` is ``frobenius_images(tail, delta, q)``, reduced modulo D^q as
    ``qth_closure`` builds them once per prime; images reduced modulo a
    multiple of D^q, or not at all, give the same columns (second bullet).
    The next module is the g in N with g^q in T = D^(q-1)*N, the span of
    the targets scale*g.  The targets lead in distinct y-degrees, so
    they are a Groebner basis of T, and the remainder of any h by them is
    unique, zero exactly on T.

    * Columns only for N/DS.  N contains D*S, and g -> g^q mod T is
      F_q-linear (c^q = c on F_q) and zero there: (D*s)^q = D^q*s^q lies
      in D^(q-1)*D*S.  So the next module is D*S plus the kernel of that
      map on an F_q-basis of N/DS: it is generated by D*y^k (k < d) and the
      kernel elements.  As the g are a Groebner basis of N with leads
      y^k*x^e, the x^alpha*g with e + alpha < deg D are such a
      basis: reducing them modulo D*S keeps those distinct leads, and there
      are d*deg D - sum(e) = dim N/DS of them.  So each g keeps the prefix
      alpha < deg D - e; at S that is every alpha < deg D.
    * Reduce before dividing.  S has characteristic q, so
      (g + D*s)^q = g^q + D^q*s^q, and D^q*S lies in T.  So the column of
      g depends only on g mod D*S, and its Frobenius image only modulo D^q:
      each numerator's y-coefficients are reduced modulo D before its image
      is taken, and the images may be reduced modulo D^q = D(x^q).
      ``frobenius_images`` builds them so, squaring modulo f and D^q.
    * Chaining.  x^q*(h - R(h)) lies in T for any h, R the remainder by the
      targets, so column (k, alpha) is R of x^q times column (k, alpha-1);
      as R is F_q-linear and keeps each term below its target's lead, only
      the terms that cross it are carried and divided (``_step_columns``).
    * One remainder.  ``_rem_by_targets`` gives it, and
      ``canonical_generators`` interreduces the next generators with it.
    * Lazy members.  The x^alpha*g lead at distinct monomials
      y^k*x^(e+alpha), so a kernel vector's member, the sum of
      coeff*x^alpha*g over its columns (k, alpha), leads at the largest of
      them over its nonzero columns, with coefficient coeff, as the g are
      monic.  Each member goes to ``canonical_generators`` as that lead and
      a function that sums it (``_shifted_sum``), called only when the
      insertion pops it.
    * Dimension stop.  The insertion starts from D*S's basis
      {k: (deg D, D*y^k)}, none of it on the heap.  The kernel vectors are
      independent, and so are their members modulo D*S, as the columns are a
      basis of N/DS: there are dim N'/DS of them, N' the next module, and the
      insertion stops once its basis reaches that dimension, so members
      popped after that are never summed.
    """
    q, xdeg, d, key = ring.domain.char, max(delta), len(images), ring.order.key
    if module.keys() != set(range(d)) or any(e > xdeg for e, _ in module.values()):
        raise ClosureError("numerators must generate a module between D*S and S")
    rows = _step_columns(module, q, images, delta, scale)
    if not rows:
        return module
    # column (k, alpha) by its lead y^k*x^n, n = e + alpha
    cols = [(k, n) for k, (e, _) in module.items() for n in range(e, xdeg)]
    kernel = nullspace_mod(list(rows.values()), len(cols), q)
    col_leads = [(key(lead), lead) for lead in cols]

    def member(vec: list) -> list:     # sum of c*x^alpha*g over vec's columns
        return _shifted_sum(((c, n - module[k][0], module[k][1])
                             for (k, n), c in zip(cols, vec) if c), d, q)

    members = [(max(compress(col_leads, vec))[1], partial(member, vec)) for vec in kernel]
    ds = {k: (xdeg, [delta if i == k else {} for i in range(d)]) for k in range(d)}   # D*y^k
    return canonical_generators((), ring, members, ds)


def qth_closure(ring: Ring, tail: list, delta: dict) -> ClosurePresentation:
    """The contraction's walk from all of (1/D)S to its first ring, as that
    ring's presentation over ring = F_q[y; x], with f's tail and D, monic.

    An iterate N/D whose g_0 is D holds 1, and if it is a ring its step keeps
    each u in it (u^q is in it): it is the fixpoint.  So after each such step
    the walk tries the presentation, walking on past ``NotARingError``.  A step
    short of a fixpoint shrinks the module, dim S/DS = d*deg D and S is a ring:
    the walk returns within max(1, d*deg D) steps, or a fixpoint that is no ring
    fails a step later.  The images modulo D^q are built once, after a walk
    too large for ``MAX_COLUMNS`` or ``MAX_SLOTS`` is refused.
    """
    if not ring.domain.char or ring.ndep != 1 or ring.nindep != 1:
        raise ClosureError("closure iteration supports rings F_q[y; x] only")
    q, d = ring.domain.char, len(tail)
    for what, size, limit in (("step columns d*deg D", d * max(delta), MAX_COLUMNS),
                              ("image slots q*deg D", q * max(delta), MAX_SLOTS)):
        if size > limit:
            raise ClosureError(f"{size} {what} exceed the limit {limit}")
    images, scale = frobenius_images(tail, delta, q), frobenius_scale(delta, q)
    nums = {k: (0, [{0: 1} if i == k else {} for i in range(d)]) for k in range(d - 1, -1, -1)}
    bound = d * max(delta) + 1
    for _ in range(bound):
        nxt = qth_power_step(nums, ring, images, delta, scale)
        if next(reversed(nxt.values()))[1] == [delta] + [{}] * (d - 1):   # the last is D
            try:
                return induce_presentation(minimize_denominator(nxt, q), tail, ring)
            except NotARingError:
                if nxt == nums:
                    raise
        elif nxt == nums:
            raise ClosureError("fixpoint does not contain the conductor fraction")
        nums = nxt
    raise ClosureError(f"no fixpoint within {bound} iterations")


def minimize_denominator(module: dict, q: int) -> dict:
    """Divide the common P-content c of a module {k: (e, g)}, the monic gcd in F_q[x]
    of all y-coefficients of all g, out of each g: its e drops by deg c."""
    c: dict = {}
    for _, g in module.values():
        for a in g:
            c = monic_gcd(c, a, q)
    if c == {0: 1}:
        return module
    return {k: (e - max(c), [quo_rem(a, c, q)[0] for a in g]) for k, (e, g) in module.items()}


YBAR = "ybar"                        # stem of the fraction variable names
# induced weights repeat across primes and problems: one output order per (weights, J)
_output_order = lru_cache(maxsize=64)(grevlex_over_weight)


def fraction_names(count: int, ring: Ring) -> tuple:
    """Names ybar, or ybarJ .. ybar1, of the count = deg_y(f) - 1 fraction variables."""
    names = (YBAR,) if count == 1 else tuple(f"{YBAR}{j}" for j in range(count, 0, -1))
    clash = sorted(set(names) & set(ring.names))
    if clash:
        raise ClosureError("fraction variable names collide with ring variables:"
                           f" {', '.join(clash)}")
    return names


@dataclass(frozen=True)
class ClosurePresentation:
    """The closure at one prime, or lifted: numerators g_J, .., g_0 over the
    denominator g_0, and their quadratic presentation over fraction variables
    ybar_j = g_j / g_0, as one flat tuple of F[x] dicts, J+1 to a vector: the
    numerators' y-coefficients, one relation tail per pair a <= b
    (``combinations_with_replacement`` order), then psi(y).  A tail and psi(y)
    hold the coefficients of ybar_J .. ybar_1 and 1; a relation is
    ybar_a*ybar_b plus its tail.  ``numerators``, ``relations`` and
    ``inclusion_image`` are Polynomials built when first read.  Only the shape
    is checked: the layout, psi(y) != 0, monic numerators, g_0 in P, and leads
    descending one per y-degree (``tests/oracles.numerators_interreduced``
    checks that a closure's numerators are also interreduced).
    """

    coords: tuple                    # the flat tuple of F[x] dicts above
    input_ring: Ring                 # the ring of f and of the numerators
    ring: Ring                       # output ring: ybar block then x block

    def __post_init__(self):
        J = self.ring.ndep
        if len(self.coords) != (J + 1) * (J + 2 + J * (J + 1) // 2) or not any(self.psi):
            raise ClosureError("record does not hold (J+1)-vectors in its layout, or psi(y) = 0")
        vectors = self.vectors
        leads = self.leads[:-1] if all(map(any, vectors)) else ()
        if len(leads) < len(vectors) or any(v[k][e] != 1 for v, (k, e) in zip(vectors, leads)):
            raise ClosureError("numerators must be monic and nonzero")
        if any(vectors[-1][1:]):
            raise ClosureError("g_0 must lie in the independent subring")
        keys = [self.input_ring.order.key(m) for m in leads]
        if any(a <= b for a, b in zip(keys, keys[1:])) or len({k for k, _ in leads}) < len(leads):
            raise ClosureError("numerator leads must descend, one per y-degree")

    @cached_property
    def parts(self) -> tuple:
        """``split_record`` of the coordinates: (vectors, {(a, b): tail}, psi)."""
        return split_record(self.coords, self.ring.ndep + 1)

    vectors = property(lambda self: self.parts[0])     # g_J .. g_0's y-coefficients
    psi = property(lambda self: self.parts[2])         # psi(y)'s ybar_J .. ybar_1, 1 coordinates

    @cached_property
    def leads(self) -> tuple:
        """The signature: the numerators' leads, then psi(y)'s under the output
        order; J, the numerator count less one, fixes the relations' leads."""
        J, key = self.ring.ndep, self.ring.order.key
        psi = max((_ybar(J, k) + (max(a),) for k, a in enumerate(self.psi) if a), key=key)
        return tuple(_lead(v, self.input_ring.order.key) for v in self.vectors) + (psi,)

    @cached_property
    def numerators(self) -> tuple:
        return from_y(self.vectors, self.input_ring)

    @property
    def denominator(self) -> Polynomial:
        """g_0, the common denominator of the fractions."""
        return self.numerators[-1]

    @cached_property
    def relation_leads(self) -> tuple:
        """((a, b), ybar_a*ybar_b) per relation, descending by lead: print and log order."""
        J, key = self.ring.ndep, self.ring.order.key
        return tuple(sorted(((pair, _ybar(J, *pair) + (0,)) for pair in self.parts[1]),
                            key=lambda item: key(item[1]), reverse=True))

    @cached_property
    def relations(self) -> tuple:
        """ybar_a*ybar_b plus its tail for each pair a <= b, in ``relation_leads``' order."""
        return tuple(from_ybar(self.parts[1][pair], self.ring, {lead: self.ring.domain.one})
                     for pair, lead in self.relation_leads)

    @cached_property
    def inclusion_image(self) -> Polynomial:
        """psi(y) inside the output ring."""
        return from_ybar(self.psi, self.ring, {})


def from_ybar(v, ring: Ring, terms: dict) -> Polynomial:
    """terms plus sum v_k*ybar_k in the output ring, the last ybar being 1."""
    terms.update((_ybar(ring.ndep, k) + (e,), c) for k, a in enumerate(v) for e, c in a.items())
    return ring._sorted(terms)


def split_record(coords: tuple, d: int) -> tuple:
    """(numerator vectors, {(a, b): tail}, psi(y)) of a flat record, d = J+1 to a vector."""
    vecs = [coords[i:i + d] for i in range(0, len(coords), d)]
    return vecs[:d], dict(zip(combinations_with_replacement(range(d - 1), 2), vecs[d:-1])), vecs[-1]


@lru_cache(maxsize=None)
def _ybar(J: int, *ks) -> tuple:
    """The ybar exponents of the product of the ybar at positions ks; position J is 1."""
    return tuple(map(ks.count, range(J)))


def fraction_weights(vectors, weights) -> list[tuple]:
    """wt(g_j) - wt(g_0), wt the largest weight over the support, for each
    numerator g_j given by its y-coefficients, the denominator g_0 last."""
    wt = [max(mono_weight((k, e), weights) for k, a in enumerate(v) for e in a) for v in vectors]
    return [tuple(a - b for a, b in zip(w, wt[-1])) for w in wt]


def induce_presentation(module: dict, tail: list, ring: Ring) -> ClosurePresentation:
    """Presentation of the fixpoint module {k: (e, g)} as a quadratic P-algebra.

    Every product of fraction generators reduces to a P-linear combination of
    them; these rules, descending by lead, are the relation basis, and psi(y)
    is y's own expression over the fractions.  They are already the minimal
    reduced Groebner basis.  The output order puts dependent-block grevlex on
    top, so each lead is ybar_a*ybar_b with coefficient 1 and each tail has
    ybar-degree <= 1: the set is monic and interreduced.  The standard
    monomials x^e, x^e*ybar_k map onto the free P-basis g_k/delta of the
    fixpoint ring, so no nonzero combination of them lies in the ideal: the
    set is a Groebner basis, and as that basis is unique, it is what
    Buchberger plus ``minimal_reduced`` returns.  On the numerators'
    y-coefficient vectors (``by_y``), a product g_a*g_b is d^2 F_q[x]
    products, its y^s-coefficients, s >= d, folded through y^d = y^d - f;
    its coefficients over the targets delta*g (a relation's tail), and
    psi(y)'s, those of y*delta over the module, which is its own targets,
    are ``_rem_by_targets``' quotients.  The targets lead in distinct
    y-degrees, so they are a free P-basis of their span: remainder 0 leaves
    one combination, and any other a product off the module.  ring =
    F_q[y; x] is f's, and tail is f's.  A module that is no ring raises
    ``NotARingError`` before any weight is read.
    """
    if not ring.domain.char or ring.ndep != 1 or ring.nindep != 1:
        raise ClosureError("presentation needs a ring F_q[y; x]")
    vectors = [g for _, g in module.values()]
    J = len(vectors) - 1
    ybar_names = fraction_names(J, ring)
    q, d = ring.domain.char, len(tail)

    def fold(prods: list) -> list:     # y^s = y^(s-d) * (y^d - f), s >= d
        for s in range(len(prods) - 1, d - 1, -1):
            for i, t in enumerate(tail) if (c := prods.pop()) else ():
                if t:
                    prods[s - d + i] = sub_dot(prods[s - d + i], ((c, t),), q)
        return prods + [{} for _ in range(d - len(prods))]

    def combination(v: list, targets: dict, off_span: str, error=ClosureError) -> list:
        """The c_k, in module order, with v = sum c_k*target_k, else error(off_span)."""
        if any(_rem_by_targets(v, targets, q, quots := {})):
            raise error(off_span)
        return [quots.get(k, {}) for k in module]

    delta = vectors[-1][0]
    scaled = _scaled_targets(module, delta, q)      # delta*g
    tails = []
    for a, b in combinations_with_replacement(range(J), 2):   # position a <-> vectors[a]
        prods = [{} for _ in range(2 * d - 1)]     # -g_a*g_b
        for i, ai in enumerate(vectors[a]):
            for j, bj in enumerate(vectors[b]) if ai else ():
                if bj:
                    prods[i + j] = sub_dot(prods[i + j], ((ai, bj),), q)
        tails.append(combination(fold(prods), scaled,
                                 f"fraction product {a},{b} leaves the module: not a fixpoint",
                                 NotARingError))
    psi = combination(fold([{}, delta]), module, "inclusion image of y is not in the module")
    fw = fraction_weights(vectors, ring.weights)[:-1]
    wbar = tuple(tuple(w[r] for w in fw) + tuple(row[ring.ndep:])
                 for r, row in enumerate(ring.weights))
    if any(x < 0 for row in wbar for x in row):
        raise ClosureError("negative induced weight: not an integral fraction set")
    out_ring = Ring(ybar_names + ring.names[ring.ndep:], J, ring.domain,
                    _output_order(wbar, J, J + ring.nindep), wbar)
    return ClosurePresentation(tuple(chain(*vectors, *tails, psi)), ring, out_ring)
