"""Integral closure in characteristic q by Frobenius fixpoint iteration.

The module of fractions between S = P[y]/(f) and (1/D)S (D a conductor
element) is represented by its canonical ordered set of monic numerators.
One iteration keeps the sub-module whose members g satisfy
NF(g^q, f) in D^(q-1) * (current module); the chain stabilizes on the
integral closure.  The fixpoint is turned into a quadratic presentation over
new variables, one per non-trivial fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count

from .domains import MODP
from .groebner import normal_form, reduce_terms
from .linalg import nullspace_mod
from .orders import grevlex_over_weight, mono_divides, mono_mul
from .rings import Polynomial, Ring, RingError
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
    coeffs = None if quotients is None else [ring.poly(c) for c in quotients]
    return ring.poly(rem), coeffs


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
        raise ClosureError("gcd in P supports one independent variable,"
                           f" the ring has {ring.nindep}")
    if not a.in_subring(ring.ndep) or not b.in_subring(ring.ndep):
        raise ClosureError("gcd arguments must lie in the independent subring")
    while not b.is_zero():
        a, b = b, normal_form(a, [b])
    return a.monic()


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


def frobenius_images(f: Polynomial) -> tuple:
    """(NF(y^0), NF(y^q), ..., NF(y^(q(d-1)))) modulo f over F_q[y; x].

    These d images are all that ``frobenius_nf`` reads.  y^i mod f is held as
    its d coefficients in F_q[x], each a dict from x-exponent to coefficient;
    multiplying by y shifts them up one place and folds the top coefficient
    back through y^d = tail.  Only every q-th power becomes a Polynomial.
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
            tail[i][e] = dom.neg(c)
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
        if k % q == 0:
            images.append(ring.poly({(i, e): c for i, row in enumerate(coeffs)
                                     for e, c in row.items()}))
    return tuple(images)


def frobenius_nf(g: Polynomial, q: int, images: tuple) -> Polynomial:
    """NF(g^q, f) using termwise Frobenius: (sum t_i)^q = sum t_i^q.

    ``images`` is ``frobenius_images(f)``; g must be reduced modulo f.
    """
    ring = g.ring
    if ring.domain.kind != MODP or ring.domain.char != q:
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


def frobenius_scale(conductor: Polynomial, q: int) -> Polynomial:
    """D^(q-1) over F_q, as D(x^q) / D: D^q = D(x^q), since c^q = c on F_q."""
    ring = conductor.ring
    frobenius_d = ring.poly({tuple(q * e for e in m): c for m, c in conductor.terms})
    return exact_divide(frobenius_d, conductor)


def xpoly_rem(a: dict, m: dict, q: int) -> dict:
    """Remainder of a modulo m != 0 in F_q[x], each a dict x-exponent -> coefficient.

    Returns a itself when its degree is below m's.
    """
    n = max(m)
    top = max(a, default=-1)
    if top < n:
        return a
    inv = pow(m[n], -1, q)
    tail = [(e - n, c * inv % q) for e, c in m.items() if e != n]
    if not tail:                       # m = c*x^n: a truncation
        return {e: c for e, c in a.items() if e < n}
    buf = [0] * (top + 1)
    for e, c in a.items():
        buf[e] = c
    for e in range(top, n - 1, -1):    # cancel x^e with (c / lc(m)) * x^(e-n) * m
        c = buf[e] % q
        if c:
            for off, t in tail:
                buf[e + off] -= c * t
    return {e: c for e in range(n) if (c := buf[e] % q)}


def _columns_by_y_degree(numerators: tuple, q: int, images: tuple,
                         scale: Polynomial, xdeg: int):
    """The step's columns by remainders in F_q[x], as ``qth_power_step`` says.

    None unless every numerator is p_k(x)*y^(i_k), with distinct i_k.  The
    y-coefficient of degree i_k is reduced modulo scale*p_k; one of a
    y-degree no target lies in is kept.  The Frobenius image of y^i is
    images[i] itself, so the start S needs no ``frobenius_nf``.
    """
    moduli: dict = {}              # y-degree -> x-part of its target
    for g in numerators:
        i = g.lm[0]
        if i in moduli or any(m[0] != i for m, _ in g.terms):
            return None
        moduli[i] = {m[1]: c for m, c in (scale * g).terms}
    rows: dict = {}  # monomial -> sparse row {column index: coefficient}
    for j, g in enumerate(numerators):
        i = g.lm[0]
        phi = images[i] if g.terms == (((i, 0), 1),) else frobenius_nf(g, q, images)
        column: dict = {}          # y-degree -> x-coefficient dict
        for (k, e), c in phi.terms:
            column.setdefault(k, {})[e] = c
        for alpha in range(xdeg):
            for k, coeff in column.items():
                if alpha:
                    coeff = {e + q: c for e, c in coeff.items()}
                if k in moduli:
                    coeff = xpoly_rem(coeff, moduli[k], q)
                column[k] = coeff
                for e, c in coeff.items():
                    rows.setdefault((k, e), {})[j * xdeg + alpha] = c
    return rows


def _columns_by_division(numerators: tuple, q: int, images: tuple,
                         scale: Polynomial, xdeg: int) -> dict:
    """The step's columns by P-module division by the targets scale*g."""
    targets = [scale * g for g in numerators]
    rows: dict = {}  # monomial -> sparse row {column index: coefficient}
    for j, g in enumerate(numerators):
        rem = frobenius_nf(g, q, images)
        for alpha in range(xdeg):
            rem, _ = module_reduce(rem if alpha == 0 else rem.mul_term((0, q)), targets)
            for m, c in rem.terms:
                rows.setdefault(m, {})[j * xdeg + alpha] = c
    return rows


def qth_power_step(numerators: tuple, q: int, images: tuple,
                   conductor: Polynomial, scale: Polynomial) -> tuple:
    """One contraction: members whose Frobenius image stays in D^(q-1)*module.

    ``scale`` is ``frobenius_scale(conductor, q)`` = D^(q-1), and the
    targets are scale*g over the numerators g.  Works on the finite quotient
    module/(D*module); D*module always survives the step, so the kernel
    there plus D*module generates the next module.  Column (j, alpha) holds
    the remainder of x^(q*alpha) * NF(g_j^q, f) by the targets.

    The targets lead in distinct dependent parts, so they have no S-pairs:
    they are a Groebner basis of the P-module they span, and the remainder
    of any h is unique, zero exactly on that module.  Two consequences:

    * Chaining.  Column (j, alpha) is the remainder of x^q times column
      (j, alpha-1): the two dividends differ by x^q times a member of the
      module, which is again a member, so they share their remainder.
    * Coefficientwise remainders.  When every numerator is p_k(x)*y^(i_k)
      with distinct i_k (always at the start S, sometimes later), target k
      lies in y-degree i_k alone: its lead cancels only terms of that
      y-degree, and its multiples change no other.  So the unique remainder
      is that of each y-coefficient modulo its target's x-part in F_q[x]
      (``_columns_by_y_degree``; a truncation when that x-part is a
      monomial, as at the start when D = x^k).  Other steps divide in the
      P-module (``_columns_by_division``).  Both give the same columns.
    """
    ring = conductor.ring
    if ring.nindep != 1:
        raise ClosureError("closure iteration supports one independent variable")
    if ring.domain.kind != MODP or ring.domain.char != q:
        raise ClosureError(f"ring characteristic is not {q}")
    xdeg = conductor.degree_in(1)
    if xdeg == 0:
        return numerators
    rows = _columns_by_y_degree(numerators, q, images, scale, xdeg)
    if rows is None:
        rows = _columns_by_division(numerators, q, images, scale, xdeg)
    if not rows:
        return numerators
    kernel = nullspace_mod(list(rows.values()), len(numerators) * xdeg, q)
    new_gens = [conductor * g for g in numerators]
    for vec in kernel:
        acc = ring.zero()
        for cidx, coeff in enumerate(vec):
            if coeff:
                j, alpha = divmod(cidx, xdeg)
                acc = acc + numerators[j].mul_term((0, alpha), coeff)
        if not acc.is_zero():
            new_gens.append(acc)
    return canonical_generators(new_gens, ring)


def qth_closure(ring: Ring, f: Polynomial, conductor: Polynomial, q: int,
                max_iter: int = 64) -> FractionSet:
    """Fixpoint of the contraction, started from all of (1/D)S."""
    if ring.domain.kind != MODP or ring.domain.char != q:
        raise ClosureError(f"expected a ring of characteristic {q}")
    if ring.ndep != 1 or ring.nindep != 1:
        raise ClosureError("closure iteration supports rings F_q[y; x] only")
    images = frobenius_images(f)
    scale = frobenius_scale(conductor, q)
    nums = tuple(ring.monomial((k, 0)) for k in range(len(images) - 1, -1, -1))
    for _ in range(max_iter):
        nxt = qth_power_step(nums, q, images, conductor, scale)
        if list(nxt) == list(nums):
            if nums[-1] != conductor.monic():
                raise ClosureError("fixpoint does not contain the conductor fraction")
            return FractionSet(ring, nums)
        nums = nxt
    raise ClosureError(f"no fixpoint within {max_iter} iterations")


def _y_contents(g: Polynomial) -> list[Polynomial]:
    """Coefficient polynomials of g grouped by dependent part (all lie in P)."""
    ring = g.ring
    ndep = ring.ndep
    groups: dict = {}
    for m, c in g.terms:
        groups.setdefault(m[:ndep], {})[(0,) * ndep + m[ndep:]] = c
    return [ring.poly(d) for d in groups.values()]


def minimize_denominator(fs: FractionSet) -> FractionSet:
    """Divide out the common P-content of the denominator and all numerators."""
    ring = fs.ring
    c = fs.denominator
    for g in fs.numerators[:-1]:
        for coeff in _y_contents(g):
            c = gcd_in_p(c, coeff)
    if c == ring.one():
        return fs
    return FractionSet(ring, tuple(exact_divide(g, c).monic() for g in fs.numerators))


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
