"""Characteristic-0 reconstruction: mod-q runs, CRT, rational lifting, certification.

Per-prime closures are reconciled coefficientwise by the Chinese remainder
map into data mod N, lifted to small rationals by extended-Euclidean
reconstruction, and the lifted candidate is accepted exactly when its
relation set is a Groebner basis and the inclusion image of the input ideal
reduces to zero against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .closure import (ClosurePresentation, ClosureError, FractionSet,
                      induce_presentation, minimize_denominator, qth_closure)
from .conductor import ConductorError, canonical_conductor
from .domains import GF, QQ, ZZ, DomainError, balanced, is_prime
from .groebner import is_minimal_reduced_gb, normal_form
from .rings import Polynomial, Ring


class LiftError(ArithmeticError):
    """A coefficient map (mod N or its rational inverse) is undefined."""


# ---------------------------------------------------------------------------
# scalar maps


def rat_recon(c: int, n: int) -> Fraction:
    """Extended-Euclidean rational reconstruction of c mod n.

    Minimizes r^2 + u^2 along the remainder sequence (earliest index on
    ties); the result is (-1)^i r/u in lowest terms, positive denominator.
    A candidate is only eligible while its reduced fraction alpha/beta still
    satisfies the defining congruence c*beta = alpha (mod n); the i = 0 pair
    (c, 1) always does, so the choice is well defined.
    """
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
            if math.gcd(frac.denominator, n) != 1:
                raise LiftError(
                    f"reconstruction of {c} mod {n} has denominator {frac.denominator}")
            return frac
    raise LiftError(f"no reconstruction of {c} mod {n}")  # unreachable


def crt(values) -> tuple[int, int]:
    """Balanced residue mod the product of the (distinct-prime) moduli."""
    values = list(values)
    primes = [q for _, q in values]
    if len(set(primes)) != len(primes):
        raise LiftError("duplicate primes in CRT input")
    n = math.prod(primes)
    x = 0
    for a, q in values:
        m = n // q
        x += a * pow(m, -1, q) * m
    return balanced(x % n, n), n


# ---------------------------------------------------------------------------
# polynomial maps (coefficientwise, variables identified by position)


def mu_poly(p: Polynomial, target: Ring) -> Polynomial:
    """Reduce a rational polynomial mod q (undefined denominators raise)."""
    try:
        return target.poly(dict(p.terms))
    except DomainError as exc:
        raise LiftError(str(exc)) from None


def crt_poly(polys, target: Ring) -> Polynomial:
    """CRT over the union of supports; inputs must share their leading monomial."""
    polys = list(polys)
    lms = {p.lm for p, _ in polys}
    if len(lms) != 1:
        raise LiftError(f"leading monomials disagree: {sorted(lms)}")
    primes = [q for _, q in polys]
    support = set()
    for p, _ in polys:
        support.update(m for m, _ in p.terms)
    acc = {}
    for m in support:
        residues = [(balanced(int(p.coeff_of(m)), q), q) for p, q in polys]
        acc[m], _ = crt(residues)
    out = target.poly(acc)
    if out.is_zero() or out.lm != next(iter(lms)):
        raise LiftError("CRT collapsed the leading monomial")
    return out


def lift_poly(p: Polynomial, n: int, target: Ring) -> Polynomial:
    """Rational reconstruction of every coefficient of a mod-n polynomial."""
    out = target.poly({m: rat_recon(int(c) % n, n) for m, c in p.terms})
    if out.is_zero() or out.lm != p.lm:
        raise LiftError("lift changed the leading monomial")
    return out


# ---------------------------------------------------------------------------
# per-prime runs


@dataclass(frozen=True)
class PrimeRun:
    """One prime's closure, or the reason the prime was skipped."""

    q: int
    reason: str | None = None        # None exactly when the run is usable
    delta_q: Polynomial | None = None
    fractions: FractionSet | None = None
    presentation: ClosurePresentation | None = None

    @property
    def usable(self) -> bool:
        return self.reason is None


def is_prime_usable(q: int, f: Polynomial, delta0: Polynomial):
    """Algorithm step-3/4 filter; returns ("usable", delta_q) or ("skipped", why)."""
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
        delta_q = canonical_conductor(f_q, ring_q)
    except ConductorError as exc:
        return "skipped", f"degenerate mod {q}: {exc}"
    if delta_q != mu_poly(delta0, ring_q):
        return "skipped", "conductor disagrees with the rational one"
    return "usable", delta_q


def closure_run(q: int, f_q: Polynomial, delta_q: Polynomial,
                max_iter: int = 64) -> PrimeRun:
    """The characteristic-q closure of f_q over its conductor, as a usable run."""
    fractions = minimize_denominator(qth_closure(f_q.ring, f_q, delta_q, q,
                                                 max_iter=max_iter))
    return PrimeRun(q, delta_q=delta_q, fractions=fractions,
                    presentation=induce_presentation(fractions, f_q))


def run_prime(q: int, f: Polynomial, delta0: Polynomial,
              max_iter: int = 64) -> PrimeRun:
    """Usability filter plus the full characteristic-q pipeline."""
    status, info = is_prime_usable(q, f, delta0)
    if status == "skipped":
        return PrimeRun(q, reason=info)
    try:
        return closure_run(q, mu_poly(f, info.ring), info, max_iter=max_iter)
    except ClosureError as exc:
        return PrimeRun(q, reason=f"closure failed: {exc}")


def compatibility_check(runs) -> bool:
    """Counts and leading-monomial signatures agree across all usable runs."""
    runs = [r for r in runs if r.usable]
    if not runs:
        return False
    first = runs[0]
    sig = _signature(first)
    return all(_signature(r) == sig for r in runs[1:])


def _signature(run: PrimeRun):
    nums = run.fractions.numerators
    rels = run.presentation.relations
    return (len(nums), tuple(g.lm for g in nums),
            len(rels), tuple(b.lm for b in rels),
            run.presentation.inclusion_image.lm)


# ---------------------------------------------------------------------------
# reconciliation and verification


@dataclass(frozen=True)
class LiftState:
    primes: tuple
    modulus: int
    crt_numerators: tuple            # over ZZ, balanced mod modulus
    crt_relations: tuple
    crt_psi: Polynomial
    numerators: tuple | None         # lifted, over QQ (None when lifting failed)
    relations: tuple | None
    psi: Polynomial | None
    psi_combo: tuple | None
    lift_error: str | None = None

    @property
    def lifted(self) -> bool:
        return self.numerators is not None


@dataclass(frozen=True)
class Certificate:
    gb_ok: bool
    containment_ok: bool
    numerators_ok: bool              # psi(g_j) = ybar_j * delta mod relations
    per_prime: tuple                 # ((q, bool), ...)
    residual: Polynomial | None

    @property
    def accepted(self) -> bool:
        return self.gb_ok and self.containment_ok and self.numerators_ok


def reconcile_and_lift(runs, input_ring: Ring) -> LiftState:
    """CRT the usable runs into data mod N, then lift coefficientwise to Q."""
    runs = [r for r in runs if r.usable]
    if not runs:
        raise LiftError("no usable runs to reconcile")
    if not compatibility_check(runs):
        raise LiftError("runs have incompatible closure signatures")
    primes = tuple(r.q for r in runs)
    modulus = math.prod(primes)
    out_ring_q = runs[0].presentation.ring
    in_zz = input_ring.with_domain(ZZ)
    in_qq = input_ring.with_domain(QQ)
    out_zz = out_ring_q.with_domain(ZZ)
    out_qq = out_ring_q.with_domain(QQ)

    nnum = len(runs[0].fractions.numerators)
    crt_nums = tuple(crt_poly([(r.fractions.numerators[i], r.q) for r in runs], in_zz)
                     for i in range(nnum))
    nrel = len(runs[0].presentation.relations)
    crt_rels = tuple(crt_poly([(r.presentation.relations[i], r.q) for r in runs], out_zz)
                     for i in range(nrel))
    crt_psi = crt_poly([(r.presentation.inclusion_image, r.q) for r in runs], out_zz)
    try:
        nums = tuple(lift_poly(p, modulus, in_qq) for p in crt_nums)
        rels = tuple(lift_poly(p, modulus, out_qq) for p in crt_rels)
        psi = lift_poly(crt_psi, modulus, out_qq)
        combo = psi_combination(psi, in_qq)
        err = None
    except LiftError as exc:
        nums = rels = psi = combo = None
        err = str(exc)
    return LiftState(primes, modulus, crt_nums, crt_rels, crt_psi,
                     nums, rels, psi, combo, lift_error=err)


def psi_combination(psi: Polynomial, input_ring: Ring) -> tuple:
    """Coefficients (c_0.., c_last) with psi = sum c_k * ybar_k + c_last."""
    out = psi.ring
    nbar = out.ndep
    combos: list[dict] = [{} for _ in range(nbar + 1)]
    for m, c in psi.terms:
        dep = m[:nbar]
        deg = sum(dep)
        if deg == 0:
            k = nbar
        elif deg == 1:
            k = dep.index(1)
        else:
            raise LiftError("inclusion image is not linear in the fraction variables")
        combos[k][(0,) * input_ring.ndep + m[nbar:]] = c
    return tuple(input_ring.poly(d) for d in combos)


def psi_substitute(f: Polynomial, psi: Polynomial, out_ring: Ring) -> Polynomial:
    """Image of f under y -> psi, x_i -> x_i inside the output ring."""
    src = f.ring
    pad = out_ring.ndep
    image = out_ring.zero()
    psi_pows = [out_ring.one()]
    for m, c in f.terms:
        ydeg = m[0]
        while len(psi_pows) <= ydeg:
            psi_pows.append(psi_pows[-1] * psi)
        xmono = (0,) * pad + m[src.ndep:]
        image = image + psi_pows[ydeg].mul_term(xmono, c)
    return image


def verify_candidate(state: LiftState, f: Polynomial, runs) -> Certificate:
    """Certificate checks on a lifted candidate.

    Groebner property of the relations, containment of the input ideal under
    the inclusion image, and consistency of the lifted numerators (the
    fraction named ybar_j must actually be g_j / delta, i.e. psi(g_j) must
    reduce to ybar_j * delta; an undersized modulus can mangle a numerator
    coefficient without disturbing the other two checks).
    """
    if not state.lifted:
        return Certificate(False, False, False, (), None)
    rels = list(state.relations)
    out_ring = rels[0].ring if rels else state.psi.ring
    gb_ok = is_minimal_reduced_gb(rels) if rels else True
    residual = normal_form(psi_substitute(f, state.psi, out_ring), rels)
    containment_ok = residual.is_zero()
    delta_out = psi_substitute(state.numerators[-1], state.psi, out_ring)
    numerators_ok = True
    for k in range(out_ring.ndep):
        image = psi_substitute(state.numerators[k], state.psi, out_ring)
        ybar = out_ring.monomial(tuple(1 if i == k else 0
                                       for i in range(out_ring.nvars)))
        if not normal_form(image - ybar * delta_out, rels).is_zero():
            numerators_ok = False
            break
    per_prime = []
    for run in runs:
        if not run.usable or run.q not in state.primes:
            continue
        ok = _specializes(state, run)
        per_prime.append((run.q, ok))
    return Certificate(gb_ok, containment_ok, numerators_ok, tuple(per_prime),
                       None if containment_ok else residual)


def _specializes(state: LiftState, run: PrimeRun) -> bool:
    ring_q = run.fractions.ring
    out_q = run.presentation.ring
    try:
        if any(mu_poly(p, ring_q) != g
               for p, g in zip(state.numerators, run.fractions.numerators)):
            return False
        if any(mu_poly(p, out_q) != b
               for p, b in zip(state.relations, run.presentation.relations)):
            return False
        return mu_poly(state.psi, out_q) == run.presentation.inclusion_image
    except LiftError:
        return False
