"""Integral closure in characteristic q by Frobenius fixpoint iteration.

The module of fractions between S = P[y]/(f) and (1/D)S (D a conductor
element) is represented by its canonical ordered set of monic numerators.
One iteration keeps the sub-module whose members g satisfy
NF(g^q, f) in D^(q-1) * (current module); the chain stabilizes on the
integral closure.  The fixpoint is turned into a quadratic presentation over
new variables, one per non-trivial fraction.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count

from .domains import MODP
from .groebner import normal_form, reduce_terms
from .linalg import nullspace_mod
from .orders import grevlex_over_weight, mono_divides
from .rings import Polynomial, Ring
from .weights import weight_of


class ClosureError(ValueError):
    pass


def module_reduce(h: Polynomial, gens, want_combination: bool = False):
    """P-module division of h by gens.

    Reduction only cancels leading monomials through independent-variable
    multiples, i.e. a term reduces against g when the dependent parts
    agree and the independent part of LM(g) divides it.  Returns
    ``(remainder, coefficients)``; coefficients (in P) satisfy
    h = sum(c_j * g_j) + remainder when requested, else None.
    """
    ring = h.ring
    leads = []
    for g in gens:
        if g.is_zero():
            raise ClosureError("zero generator in module reduction")
        leads.append((g.lm, g.lc, g.terms))
    quotients = [{} for _ in leads] if want_combination else None
    rem = reduce_terms(dict(h.terms), leads, ring.domain, ring.order.key,
                       fixed=ring.ndep, quotients=quotients)
    coeffs = None if quotients is None else [ring._sorted(c) for c in quotients]
    return ring._sorted(rem), coeffs


def canonical_generators(gens, ring: Ring) -> tuple:
    """Monic, fully interreduced, order-descending generating set (P-module).

    With one independent variable x, two leads divide one another exactly
    when their dependent parts agree, so a set whose leads have distinct
    dependent parts has no S-pairs: it is a Groebner basis of the P-module it
    spans, and its monic, fully interreduced form is unique.  Generators are
    inserted smallest lead first, each reduced by the basis; one whose
    lead divides a basis lead sends that element back to the pending list.
    A last pass, ascending, reduces each tail by the smaller elements only,
    as no larger lead divides a smaller term.

    Read as a basis of an F_q[x]-submodule of F_q[x]^d (the coefficients of
    y^0 .. y^(d-1)), the result is its shifted Popov basis (Beckermann,
    Labahn & Villard, "Normal forms for general polynomial matrices", JSC
    2006), the shift coming from the weight of y.  It is not a y-triangular
    Hermite basis: at q = 7 the octic numerator
    y^6*x^8 + y^7*x^5 + x^11 - y*x^8 has a y^7 term under its y^6 lead.  A
    Hermite-form representation would need a conversion back to this basis
    to keep the output the same.
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


@dataclass(frozen=True)
class FractionSet:
    """Canonical numerators (g_J, ..., g_1, g_0) over the denominator g_0.

    The represented P-module is spanned by the fractions g_j / g_0; g_0 is
    the unique pure-P generator, so the module contains 1 and, at a fixpoint
    of the iteration, is a ring.
    """

    ring: Ring
    numerators: tuple

    def __post_init__(self):
        if not self.numerators:
            raise ClosureError("empty fraction set")
        ndep = self.ring.ndep
        for g in self.numerators:
            if g.is_zero() or not g.is_monic():
                raise ClosureError("numerators must be monic and nonzero")
        if not self.denominator.in_subring(ndep):
            raise ClosureError("g_0 must lie in the independent subring")
        key = self.ring.order.key
        keys = [key(g.lm) for g in self.numerators]
        if keys != sorted(keys, reverse=True):
            raise ClosureError("numerators must descend under the ring order")
        for i, g in enumerate(self.numerators):
            for j, h in enumerate(self.numerators):
                if i == j:
                    continue
                for m, _ in g.terms:
                    if h.lm[:ndep] == m[:ndep] and mono_divides(h.lm, m):
                        raise ClosureError("numerators are not interreduced")

    @property
    def denominator(self) -> Polynomial:
        """g_0, the common denominator of the fractions."""
        return self.numerators[-1]

    def fraction_weights(self) -> list[tuple]:
        wd = weight_of(self.denominator)
        out = []
        for g in self.numerators:
            wg = weight_of(g)
            out.append(tuple(a - b for a, b in zip(wg, wd)))
        return out


def frobenius_images(f: Polynomial, conductor: Polynomial) -> tuple:
    """(y^0, y^q, ..., y^(q(d-1))) modulo f and D^q over F_q[y; x], on y-coefficients.

    All that ``frobenius_nf`` reads, which a step needs only modulo
    D^q = D(x^q), D the conductor; each is the list of its d y-coefficients,
    dicts from x-exponent to nonzero coefficient.  y^q comes by
    square-and-multiply, and y^(qk) = y^(q(k-1)) * y^q.  An element is held
    as d packed ints, one per y-coefficient reduced modulo q and D^q, so each
    F_q[x] product is one int product (Kronecker substitution); a product's
    y^s-coefficients, s < 2d - 1, fold down through y^d = tail.  That is
    about log(q) + d products of d^2 coefficient pairs of q * deg D slots.
    """
    ring = f.ring
    dom = ring.domain
    if dom.kind != MODP or ring.ndep != 1 or ring.nindep != 1:
        raise ClosureError("Frobenius images need a ring F_q[y; x]")
    q, d = dom.char, f.degree_in(0)
    if f.coeff_of((d, 0)) != dom.one:
        raise ClosureError("relation must be monic in the dependent variable")
    tail = [{} for _ in range(d)]      # y^d = sum_i tail[i](x) * y^i
    for (i, e), c in f.terms:
        if i == d and e:
            raise ClosureError("relation has extra terms of top dependent degree")
        if i < d:
            tail[i][e] = q - c
    inv = pow(conductor.lc, -1, q)
    mod = {q * m[1]: c * inv % q for m, c in conductor.terms}    # D^q = D(x^q), monic
    top = max(mod)
    low = [(e, q - c) for e, c in mod.items() if e < top]    # x^top = sum c*x^e
    tlen = 1 + max((e for t in tail for e in t), default=0)
    # a slot sums at most d*top products of residues, and its folds d*tlen more
    w = _slot_bytes(q, d * (top + tlen))
    packed_tail = [_pack([t.get(e, 0) for e in range(tlen)], w) for t in tail]

    def reduce(n: int) -> int:
        v = _unpack(n, w)
        for i in range(len(v) - 1, top - 1, -1) if low else ():
            if t := v[i] % q:
                for e, c in low:
                    v[i - top + e] += t * c
        return _pack([c % q for c in v[:top]], w)

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
    return tuple([{e: c for e, c in enumerate(_unpack(p, w)) if c} for p in img]
                 for img in images[:d])


# Kronecker substitution: F_q[x] elements as ints, one coefficient per w-byte
# slot, slot i at bits 8*w*i and up
_SLOT_TYPES = {array(c).itemsize: c for c in "BHILQ"}   # slot bytes -> array typecode


def _slot_bytes(q: int, terms: int) -> int:
    """Bytes per slot for a sum of ``terms`` products of residues mod q."""
    need = -(-(2 * (q - 1).bit_length() + terms.bit_length()) // 8)
    return next((s for s in sorted(_SLOT_TYPES) if s >= need), need)


def _pack(v: list, w: int) -> int:
    if not (code := _SLOT_TYPES.get(w)):
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in v), "little")
    a = array(code, v)
    if sys.byteorder == "big":         # array bytes are in the host's order
        a.byteswap()
    return int.from_bytes(a.tobytes(), "little")


def _unpack(n: int, w: int) -> list:      # the slots up to n's highest nonzero one
    raw = n.to_bytes(-(-n.bit_length() // (8 * w)) * w, "little")
    if not (code := _SLOT_TYPES.get(w)):
        return [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)]
    a = array(code, raw)
    if sys.byteorder == "big":
        a.byteswap()
    return a.tolist()


def frobenius_nf(g: list, q: int, images: tuple) -> list:
    """NF(g^q, f) using termwise Frobenius: (sum t_i)^q = sum t_i^q.

    ``images`` is ``frobenius_images(f, D)``, and g, an element of S given by
    its y-coefficients (``by_y``), is returned as g^q in the same form: the
    term c*y^k*x^e adds c*x^(q*e) times image k into each y-coefficient.
    With images whose y-coefficients are reduced modulo m_k in F_q[x], the
    y^k-coefficient of the result is NF(g^q, f)'s modulo m_k, unreduced.
    """
    acc = [{} for _ in images]
    for k, coeff in enumerate(g):
        for e, c in coeff.items():
            shift = q * e
            for row, a in zip(acc, images[k]):
                for e2, c2 in a.items():
                    row[shift + e2] = row.get(shift + e2, 0) + c * c2
    return [{e: r for e, c in row.items() if (r := c % q)} for row in acc]


def frobenius_scale(conductor: Polynomial, q: int) -> dict:
    """D^(q-1) over F_q as an F_q[x] dict: D(x^q) / D, as c^q = c on F_q."""
    delta = {m[1]: c for m, c in conductor.terms}
    return xpoly_divmod({q * e: c for e, c in delta.items()}, delta, q)[0]


# F_q[x] on x-exponent -> coefficient dicts with coefficients in 0 .. q-1


def xpoly_divmod(a: dict, m: dict, q: int) -> tuple:
    """(quotient, remainder) of a by m != 0 in F_q[x].

    The remainder is a itself when a's degree is below m's, and a truncation
    when m is a monomial.
    """
    n, top = max(m), max(a, default=-1)
    if top < n:
        return {}, a
    inv = pow(m[n], -1, q)
    if len(m) == 1:                    # m = c*x^n: a shift and a truncation
        return ({e - n: c * inv % q for e, c in a.items() if e >= n},
                {e: c for e, c in a.items() if e < n})
    buf = [0] * (top + 1)
    for e, c in a.items():
        buf[e] = c
    quot = {}
    for e in range(len(buf) - 1, n - 1, -1):
        s = buf[e] * inv % q
        if s:
            quot[e - n] = s
            for e2, c2 in m.items():
                buf[e - n + e2] -= s * c2
    return quot, {e: r for e, c in enumerate(buf[:n]) if (r := c % q)}


def xpoly_sub_mul(a: dict, s: dict, b: dict, q: int) -> dict:
    """a - s*b in F_q[x]; a itself when s or b is zero."""
    if not s or not b:
        return a
    out = dict(a)
    for e1, c1 in s.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) - c1 * c2
    return {e: r for e, c in out.items() if (r := c % q)}


def xpoly_gcd(a: dict, b: dict, q: int) -> dict:
    """Monic gcd of a and b in F_q[x], by Euclid's algorithm; {} when both are zero."""
    while b:
        a, b = b, xpoly_divmod(a, b, q)[1]
    if not a:
        return a
    inv = pow(a[max(a)], -1, q)
    return {e: c * inv % q for e, c in a.items()}


def by_y(p: Polynomial, d: int) -> list:
    """The y^0 .. y^(d-1) coefficients of p over F_q[y; x], as F_q[x] dicts.

    A term of y-degree d, such as the leading y^d of a relation f, is dropped.
    """
    out: list = [{} for _ in range(d + 1)]
    for (k, e), c in p.terms:
        out[k][e] = c
    return out[:d]


def _basis_prefix(numerators: tuple, xdeg: int) -> list:
    """a_j = deg D - e_j, e_j the x-degree of LM(g_j): the x^alpha*g_j with
    alpha < a_j are an F_q-basis of N/DS, as ``qth_power_step`` says."""
    return [xdeg - g.lm[1] for g in numerators]


def _rem_by_targets(v: list, targets: dict, q: int) -> list:
    """Remainder of v by the targets, both on y-coefficients.

    ``targets`` maps y-degree k to the target that leads in y^k, so that its
    lead's x-degree is the degree of its y^k-entry t[k].  A y^k-coefficient
    of v that reaches that degree is divided by t[k], and the quotient times
    t's other entries is taken from v's other coefficients; sweeps repeat
    until no coefficient reaches its lead's degree (``qth_power_step``).
    """
    leads = {k: max(t[k]) for k, t in targets.items()}
    v = list(v)
    while reducible := [k for k, n in leads.items() if max(v[k], default=-1) >= n]:
        for k in reducible:
            t = targets[k]
            quot, v[k] = xpoly_divmod(v[k], t[k], q)
            for j, b in enumerate(t):
                if j != k:
                    v[j] = xpoly_sub_mul(v[j], quot, b, q)
    return v


def _step_columns(numerators: tuple, q: int, images: tuple, conductor: Polynomial,
                  scale: dict, prefix: list) -> dict:
    """The step's columns, as ``qth_power_step`` says: sparse rows by monomial.

    Column (j, alpha), for alpha < prefix[j] and numbered in that order, is
    the remainder of x^(q*alpha) * gbar_j^q by the targets scale*g, where
    gbar_j is g_j with its y-coefficients reduced modulo D.  Columns are
    chained; they and the targets are on y-coefficients.
    """
    d = len(images)
    delta = {m[1]: c for m, c in conductor.terms}
    neg_scale = {e: q - c for e, c in scale.items()}    # 0 - (-scale)*c = scale*c
    targets = {g.lm[0]: [xpoly_sub_mul({}, neg_scale, c, q) for c in by_y(g, d)]
               for g in numerators}
    rows: dict = {}  # monomial -> sparse row {column index: coefficient}
    col = 0
    for g, a in zip(numerators, prefix):
        if not a:
            continue
        column = frobenius_nf([xpoly_divmod(c, delta, q)[1] for c in by_y(g, d)], q, images)
        for alpha in range(a):
            if alpha:
                column = [{e + q: c for e, c in coeff.items()} for coeff in column]
            column = _rem_by_targets(column, targets, q)
            for k, coeff in enumerate(column):
                for e, c in coeff.items():
                    rows.setdefault((k, e), {})[col] = c
            col += 1
    return rows


def qth_power_step(numerators: tuple, q: int, images: tuple,
                   conductor: Polynomial, scale: dict) -> tuple:
    """One contraction: members whose Frobenius image stays in D^(q-1)*module.

    ``numerators`` are the canonical generators g_j of a module N between
    D*S and S, and ``scale`` is ``frobenius_scale(conductor, q)`` = D^(q-1).
    ``images`` is ``frobenius_images(f, conductor)``, reduced modulo D^q as
    ``qth_closure`` builds them once per prime; images reduced modulo a
    multiple of D^q, or not at all, give the same columns (second bullet).
    The next module is the g in N with g^q in T = D^(q-1)*N, the span of
    the targets scale*g_j.  The targets lead in distinct dependent parts, so
    they are a Groebner basis of T, and the remainder of any h by them is
    unique, zero exactly on T.

    * Columns only for N/DS.  N contains D*S, and g -> g^q mod T is
      F_q-linear (c^q = c on F_q) and zero there: (D*s)^q = D^q*s^q lies
      in D^(q-1)*D*S.  So the next module is D*S plus the kernel of that
      map on an F_q-basis of N/DS: it is generated by D*y^k (k < d) and the
      kernel elements.  As the g_j are a Groebner basis of N with leads
      y^(i_j)*x^(e_j), the x^alpha*g_j with e_j + alpha < deg D are such a
      basis: reducing them modulo D*S keeps those distinct leads, and there
      are d*deg D - sum(e_j) = dim N/DS of them.  So g_j keeps the prefix
      alpha < deg D - e_j; at S that is every alpha < deg D.
    * Reduce before dividing.  S has characteristic q, so
      (g + D*s)^q = g^q + D^q*s^q, and D^q*S lies in T.  So the column of
      g depends only on g mod D*S, and its Frobenius image only modulo D^q:
      each numerator's y-coefficients are reduced modulo D before its image
      is taken, and the images may be reduced modulo D^q = D(x^q).
      ``frobenius_images`` builds them so, squaring modulo f and D^q.
    * Chaining.  Column (j, alpha) is the remainder of x^q times column
      (j, alpha-1): the two dividends differ by x^q times a member of T,
      which is again a member, so they share their remainder.
    * One remainder.  The target leading in y^k cancels the terms of
      y-degree k and x-degree at least that of its y^k-entry, so the
      remainder of h is the one member of h + T whose y^k-coefficient has
      degree below that entry's for every k: the normal form modulo a Popov
      basis (Mulders & Storjohann, JSC 2003).  ``_rem_by_targets`` divides
      each y-coefficient that reaches that degree by the entry in F_q[x] and
      subtracts the quotient times the target's other entries.  Each such
      division is a run of reduction steps, each replacing a term by
      strictly smaller ones under the ring order, so the sweeps end in any
      order, at that remainder.  When every numerator is p_k(x)*y^k (always
      at the start S), every target lies in one y-degree, and one division
      per coefficient suffices: a truncation when its x-part is a monomial,
      as at the start when D = x^n.
    """
    ring = conductor.ring
    if ring.nindep != 1:
        raise ClosureError("closure iteration supports one independent variable")
    if ring.domain.kind != MODP or ring.domain.char != q:
        raise ClosureError(f"ring characteristic is not {q}")
    xdeg = conductor.degree_in(1)
    if xdeg == 0:
        return numerators
    prefix = _basis_prefix(numerators, xdeg)
    if ({g.lm[0] for g in numerators} != set(range(len(images)))
            or len(numerators) != len(images) or min(prefix) < 0):
        raise ClosureError("numerators must generate a module between D*S and S")
    rows = _step_columns(numerators, q, images, conductor, scale, prefix)
    if not rows:
        return numerators
    cols = [(j, alpha) for j, a in enumerate(prefix) for alpha in range(a)]
    kernel = nullspace_mod(list(rows.values()), len(cols), q)
    new_gens = [conductor.mul_term((k, 0)) for k in range(len(images))]
    for vec in kernel:
        acc: dict = {}
        for (j, alpha), coeff in zip(cols, vec):
            if coeff:
                for (k, e), c in numerators[j].terms:
                    acc[k, e + alpha] = (acc.get((k, e + alpha), 0) + coeff * c) % q
        new_gens.append(ring.poly(acc))
    return canonical_generators(new_gens, ring)


def qth_closure(ring: Ring, f: Polynomial, conductor: Polynomial, q: int) -> FractionSet:
    """Fixpoint of the contraction, started from all of (1/D)S.

    A step that is not a fixpoint returns a strictly smaller module between
    D*S and S (canonical generators are unique, so an equal module returns
    the same numerators), and S/DS has dimension d*deg D over F_q: the walk
    ends within d*deg D + 1 steps.  The images modulo D^q are built once.
    """
    if ring.domain.kind != MODP or ring.domain.char != q:
        raise ClosureError(f"expected a ring of characteristic {q}")
    if ring.ndep != 1 or ring.nindep != 1:
        raise ClosureError("closure iteration supports rings F_q[y; x] only")
    images = frobenius_images(f, conductor)
    scale = frobenius_scale(conductor, q)
    nums = tuple(ring.monomial((k, 0)) for k in range(len(images) - 1, -1, -1))
    bound = len(images) * conductor.degree_in(1) + 1
    for _ in range(bound):
        nxt = qth_power_step(nums, q, images, conductor, scale)
        if list(nxt) == list(nums):
            if nums[-1] != conductor.monic():
                raise ClosureError("fixpoint does not contain the conductor fraction")
            return FractionSet(ring, nums)
        nums = nxt
    raise ClosureError(f"no fixpoint within {bound} iterations")


def minimize_denominator(fs: FractionSet) -> FractionSet:
    """Divide out the common P-content of the denominator and all numerators:
    the monic gcd in F_q[x] of all their y-coefficients."""
    ring = fs.ring
    q, d = ring.domain.char, 1 + max(g.degree_in(0) for g in fs.numerators)
    coeffs = [by_y(g, d) for g in fs.numerators]
    c: dict = {}
    for row in coeffs:
        for a in row:
            c = xpoly_gcd(c, a, q)
    if c == {0: 1}:
        return fs
    quotients = ([xpoly_divmod(a, c, q)[0] for a in row] for row in coeffs)
    return FractionSet(ring, tuple(ring.poly({(k, e): v for k, a in enumerate(row)
                                              for e, v in a.items()}) for row in quotients))


YBAR = "ybar"                        # stem of the fraction variable names


def fraction_names(count: int, ring: Ring) -> tuple:
    """Names ybar, or ybarJ .. ybar1, of the count = deg_y(f) - 1 fraction variables."""
    names = (YBAR,) if count == 1 else tuple(f"{YBAR}{j}" for j in range(count, 0, -1))
    clash = sorted(set(names) & set(ring.names[ring.ndep:]))
    if clash:
        raise ClosureError("fraction variable names collide with ring variables:"
                           f" {', '.join(clash)}")
    return names


@dataclass(frozen=True)
class ClosurePresentation:
    """Quadratic presentation of the closure over new fraction variables."""

    ring: Ring                       # output ring: ybar block then x block
    relations: tuple                 # minimal reduced basis of induced relations
    inclusion_image: Polynomial      # psi(y) inside the output ring


def combination(coeffs, out_ring: Ring) -> Polynomial:
    """sum c_k*ybar_k in the output ring, c_k in P; the trivial fraction's ybar is 1."""
    nbar = out_ring.ndep
    acc = out_ring.zero()
    for k, ck in enumerate(coeffs):
        if not ck.is_zero():
            moved = out_ring.poly({(0,) * nbar + m[ck.ring.ndep:]: c for m, c in ck.terms})
            acc = acc + (moved * out_ring.var(out_ring.names[k]) if k < nbar else moved)
    return acc


def psi_combination(psi: Polynomial, input_ring: Ring) -> tuple:
    """The coefficients c_k in P of ``combination``: its inverse on linear psi."""
    nbar = psi.ring.ndep
    combos: list[dict] = [{} for _ in range(nbar + 1)]
    for m, c in psi.terms:
        dep = m[:nbar]
        if sum(dep) > 1:
            raise ClosureError("inclusion image is not linear in the fraction variables")
        k = dep.index(1) if any(dep) else nbar
        combos[k][(0,) * input_ring.ndep + m[nbar:]] = c
    return tuple(input_ring.poly(d) for d in combos)


def induce_presentation(fs: FractionSet, f: Polynomial) -> ClosurePresentation:
    """Presentation of the fixpoint module as a quadratic P-algebra.

    Every product of fraction generators reduces to a P-linear combination of
    them; these rules, descending by lead, are the relation basis, and psi(y)
    is y's own expression over the fractions.  They are already the minimal
    reduced Groebner basis.  The output order puts dependent-block grevlex on
    top, so each lead is ybar_a*ybar_b with coefficient 1 and each tail has
    ybar-degree <= 1: the set is monic and interreduced.  The standard
    monomials x^e, x^e*ybar_k map onto the free P-basis g_k/delta of the
    fixpoint ring, so no nonzero combination of them lies in the ideal: the
    set is a Groebner basis, and as that basis is unique, it is what
    Buchberger plus ``minimal_reduced`` returns.
    """
    ring = fs.ring
    if ring.nindep != 1:
        raise ClosureError("presentation needs one independent variable")
    nums = fs.numerators
    J = len(nums) - 1
    ybar_names = fraction_names(J, ring)
    fw = fs.fraction_weights()[:-1]
    wbar = tuple(tuple(w[r] for w in fw) + tuple(row[ring.ndep:])
                 for r, row in enumerate(ring.weights))
    if any(x < 0 for row in wbar for x in row):
        raise ClosureError("negative induced weight: not an integral fraction set")
    out_ring = Ring(ybar_names + ring.names[ring.ndep:], J, ring.domain,
                    grevlex_over_weight(wbar, J, J + ring.nindep), wbar)

    ybar = [out_ring.var(name) for name in ybar_names]
    targets = [fs.denominator * g for g in nums]
    relations = []
    for a in range(J):          # position a <-> numerator nums[a]
        for b in range(a, J):
            prod = normal_form(nums[a] * nums[b], [f])
            rem, coeffs = module_reduce(prod, targets, want_combination=True)
            if not rem.is_zero():
                raise ClosureError(
                    f"fraction product {a},{b} leaves the module: not a fixpoint")
            relations.append(ybar[a] * ybar[b] - combination(coeffs, out_ring))
    key = out_ring.order.key
    relations.sort(key=lambda r: key(r.lm), reverse=True)

    y_delta = ring.var(ring.names[0]) * fs.denominator
    rem, coeffs = module_reduce(normal_form(y_delta, [f]), nums, want_combination=True)
    if not rem.is_zero():
        raise ClosureError("inclusion image of y is not in the module")
    return ClosurePresentation(out_ring, tuple(relations), combination(coeffs, out_ring))
