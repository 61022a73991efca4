"""Division, Buchberger's algorithm, reduced bases, and module column reduction.

Everything is deterministic: reduction always cancels the leading reducible
monomial using the first matching generator in list order, and reduced bases
are sorted descending by leading monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import neg

from .orders import mono_div, mono_divides, mono_lcm, mono_mul
from .rings import Polynomial, Ring


class GroebnerError(ValueError):
    pass


def reduce_terms(work: dict, leads, dom, key, fixed: int = 0, full: bool = True,
                 quotients=None) -> dict:
    """Divide the term dict ``work`` by ``leads`` = [(lm, lc, terms)]; remainder dict.

    A lead ``lm`` cancels a term ``m`` when their first ``fixed`` exponents
    agree and ``lm`` divides ``m``.  Always cancels the largest reducible term
    under ``key``, using the first matching lead in list order.  With
    ``full=False`` the division stops at the first irreducible term, which is
    returned together with the unreduced tail (head reduction).  When
    ``quotients`` is a list of dicts, one per lead, the multiplier monomials
    and coefficients of each lead are recorded there.  Mutates ``work``.

    Terms come off a heap of negated keys.  Every subtraction only creates
    terms below the one just taken, and distinct monomials have distinct
    keys, so terms are taken in the same order as by a scan for the largest
    remaining one.
    """
    heap = [(tuple(map(neg, key(m))), m) for m in work]
    heapify(heap)
    rem: dict = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:  # cancelled, or a second entry of a term already taken
            continue
        for j, (lm, lc, gterms) in enumerate(leads):
            if lm[:fixed] == m[:fixed] and mono_divides(lm, m):
                quot = mono_div(m, lm)
                factor = dom.div(c, lc)
                for m2, c2 in gterms:
                    if m2 == lm:
                        continue
                    mm = mono_mul(quot, m2)
                    old = work.get(mm)
                    s = dom.sub(0 if old is None else old, dom.mul(factor, c2))
                    if dom.is_zero(s):
                        work.pop(mm, None)
                    else:
                        if old is None:
                            heappush(heap, (tuple(map(neg, key(mm))), mm))
                        work[mm] = s
                if quotients is not None:
                    quotients[j][quot] = factor
                break
        else:
            rem[m] = c
            if not full:
                rem.update(work)
                break
    return rem


def _leads(gens):
    return [(g.lm, g.lc, g.terms) for g in gens if not g.is_zero()]


def normal_form(f: Polynomial, gens) -> Polynomial:
    """Remainder of f under division by gens; reduce_terms fills it in order."""
    leads = _leads(gens)
    if not leads:
        return f
    rem = reduce_terms(dict(f.terms), leads, f.ring.domain, f.ring.order.key)
    return Polynomial(f.ring, tuple(rem.items()))


def head_reduce(f: Polynomial, gens) -> Polynomial:
    """Reduce f only while its leading monomial stays reducible."""
    ring = f.ring
    return ring.poly(reduce_terms(dict(f.terms), _leads(gens), ring.domain,
                                  ring.order.key, full=False))


def s_poly(f: Polynomial, g: Polynomial) -> Polynomial:
    dom = f.ring.domain
    lcm = mono_lcm(f.lm, g.lm)
    return (f.mul_term(mono_div(lcm, f.lm), dom.div(dom.one, f.lc))
            - g.mul_term(mono_div(lcm, g.lm), dom.div(dom.one, g.lc)))


def buchberger(gens) -> list[Polynomial]:
    """A Groebner basis of <gens>, normal pair selection with both classic criteria."""
    basis = [g.monic() for g in gens if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    key = ring.order.key
    lcm_key = lambda p: (key(mono_lcm(basis[p[0]].lm, basis[p[1]].lm)), p[1], p[0])
    pairs = {(i, j): lcm_key((i, j))
             for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        i, j = min(pairs, key=pairs.get)
        del pairs[(i, j)]
        lmi, lmj = basis[i].lm, basis[j].lm
        lcm = mono_lcm(lmi, lmj)
        if lcm == mono_mul(lmi, lmj):  # coprime leading monomials
            continue
        chain = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (mono_divides(basis[k].lm, lcm)
                    and (min(i, k), max(i, k)) not in pairs
                    and (min(j, k), max(j, k)) not in pairs):
                chain = True
                break
        if chain:
            continue
        r = head_reduce(s_poly(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r.monic())
            n = len(basis) - 1
            for m in range(n):
                pairs[(m, n)] = lcm_key((m, n))
    return minimal_reduced(basis)


def minimal_reduced(basis) -> list[Polynomial]:
    """The unique minimal reduced basis of <basis>, descending by leading monomial."""
    gens = [g.monic() for g in basis if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    key = ring.order.key
    gens.sort(key=lambda g: key(g.lm))
    minimal = []
    for g in gens:  # ascending: keep only minimal leading monomials
        if not any(mono_divides(h.lm, g.lm) for h in minimal):
            minimal.append(g)
    reduced = list(minimal)
    for i, g in enumerate(reduced):
        others = reduced[:i] + reduced[i + 1:]
        reduced[i] = normal_form(g, others).monic()
    reduced.sort(key=lambda g: key(g.lm), reverse=True)
    return reduced


def is_minimal_reduced_gb(gens) -> bool:
    """Monic, interreduced, and every S-polynomial reduces to zero.

    Pairs whose leading monomials are coprime are skipped: by Buchberger's
    first criterion their S-polynomial reduces to zero against the pair
    itself, so it has a standard representation over gens.  The other pairs
    decide whether gens is a Groebner basis, so the answer is that of the
    check over all pairs.
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
            lmi, lmj = gens[i].lm, gens[j].lm
            if mono_lcm(lmi, lmj) == mono_mul(lmi, lmj):
                continue
            if not normal_form(s_poly(gens[i], gens[j]), gens).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# submodules of free modules (position-up over the ring order)


@dataclass(frozen=True)
class ModuleVector:
    """A column vector of polynomials; lead position is the highest nonzero index."""

    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise GroebnerError("empty module vector")
        object.__setattr__(self, "_lead", None)

    @property
    def ring(self) -> Ring:
        return self.coords[0].ring

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coords)

    def lead(self):
        """(position, monomial, coefficient) of the position-up leading term."""
        if self._lead is None:
            for pos in range(len(self.coords) - 1, -1, -1):
                if not self.coords[pos].is_zero():
                    p = self.coords[pos]
                    object.__setattr__(self, "_lead", (pos, p.lm, p.lc))
                    break
            else:
                raise GroebnerError("zero vector has no lead")
        return self._lead

    def add_scaled(self, other: "ModuleVector", mono, c) -> "ModuleVector":
        return ModuleVector(tuple(a + b.mul_term(mono, c)
                                  for a, b in zip(self.coords, other.coords)))

    def monic(self) -> "ModuleVector":
        _, _, lc = self.lead()
        return ModuleVector(tuple(p.divide_scalar(lc) for p in self.coords))

    def key(self):
        pos, m, _ = self.lead()
        return (pos,) + self.ring.order.key(m)


def _flat_terms(v: ModuleVector) -> dict:
    """The terms of v as one dict keyed by (position,) + monomial."""
    return {(pos,) + m: c for pos, p in enumerate(v.coords) for m, c in p.terms}


def _module_reduce(v: ModuleVector, gens, full: bool) -> ModuleVector:
    """Position-up division: same position (fixed=1) and the monomial divides."""
    ring = v.ring
    key = ring.order.key
    leads = []
    for g in gens:
        if not g.is_zero():
            pos, lm, lc = g.lead()
            leads.append(((pos,) + lm, lc, tuple(_flat_terms(g).items())))
    rem = reduce_terms(_flat_terms(v), leads, ring.domain,
                       lambda pm: (pm[0],) + key(pm[1:]), fixed=1, full=full)
    coords = [{} for _ in v.coords]
    for pm, c in rem.items():
        coords[pm[0]][pm[1:]] = c
    return ModuleVector(tuple(ring.poly(d) for d in coords))


def module_normal_form(v: ModuleVector, gens) -> ModuleVector:
    """Reduce every position of v against the leads of gens (full reduction)."""
    return _module_reduce(v, gens, full=True)


def module_gb(columns) -> list[ModuleVector]:
    """Interreduced Groebner basis of the column module, ascending by lead.

    Position-up: the component of highest index dominates; within a component
    the ring order applies.  The coprime criterion is only valid on rank-1
    modules (plain ideals), so it is applied just there.
    """
    basis = [c.monic() for c in columns if not c.is_zero()]
    if not basis:
        return []
    ncomp = len(basis[0].coords)
    if ncomp == 1:  # a plain ideal: use the ideal engine with its pair criteria
        gb = buchberger([v.coords[0] for v in basis])
        out = [ModuleVector((g,)) for g in gb]
        out.sort(key=ModuleVector.key)
        return out
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))
             if basis[i].lead()[0] == basis[j].lead()[0]}
    while pairs:
        i, j = min(pairs, key=lambda p: (basis[p[0]].ring.order.key(
            mono_lcm(basis[p[0]].lead()[1], basis[p[1]].lead()[1])), p[1], p[0]))
        pairs.discard((i, j))
        _, mi, _ = basis[i].lead()
        _, mj, _ = basis[j].lead()
        lcm = mono_lcm(mi, mj)
        dom = basis[i].ring.domain
        s = ModuleVector(tuple(p.mul_term(mono_div(lcm, mi)) for p in basis[i].coords)
                         ).add_scaled(basis[j], mono_div(lcm, mj), dom.neg(dom.one))
        r = _module_reduce(s, basis, full=False)
        if not r.is_zero():
            basis.append(r.monic())
            n = len(basis) - 1
            pairs.update((m, n) for m in range(n)
                         if basis[m].lead()[0] == basis[n].lead()[0])
    # interreduce and drop redundant leads
    basis.sort(key=ModuleVector.key)
    kept: list[ModuleVector] = []
    for v in basis:
        pos, m, _ = v.lead()
        if not any(k.lead()[0] == pos and mono_divides(k.lead()[1], m) for k in kept):
            kept.append(v)
    out = []
    for i, v in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        out.append(module_normal_form(v, others).monic())
    out.sort(key=ModuleVector.key)
    return out
