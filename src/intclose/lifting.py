"""Characteristic-0 reconstruction: mod-q runs, CRT, rational lifting, certification.

Each stage folds one per-prime closure coefficientwise into the previous
stage's record mod N, a plain tuple of polynomials over ZZ, by the Chinese
remainder map (Garner's step, ``crt``), lifts it to small rationals by
extended-Euclidean reconstruction, which cannot fail on a CRT record
(``rat_recon``), and accepts the lifted candidate exactly when the inclusion
image of the input ideal reduces to zero against its relations, its numerators
are consistent with them, and the relations are a Groebner basis.  The
decision runs those checks in that order and stops at the first that fails; a
bit it did not need is computed when first read (the audit log, or the printed
certificate of a stage that was not accepted).  The lift implies per-prime
specialization; it is evaluated for the printed stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    (c, 1) always does, so a result is always returned.  It has
    gcd(beta, n) = 1, as a prime of n that divides beta divides alpha too,
    and alpha != 0 when c != 0 (mod n), as then c*beta != 0 (mod n) (Wang,
    Guy & Davenport, "P-adic reconstruction of rational numbers", 1982).
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
            return frac


def crt(values, x: int = 0, n: int = 1) -> tuple[int, int]:
    """Balanced residue mod n times the (distinct-prime) moduli, from x mod n,
    by Garner's step (TAOCP 4.3.2) x + n*((a - x)/n mod q) per prime q."""
    for a, q in values:
        if n % q == 0:
            raise LiftError("duplicate primes in CRT input")
        x, n = balanced(x + n * ((a - x) * pow(n, -1, q) % q), n * q), n * q
    return x, n


# ---------------------------------------------------------------------------
# polynomial maps (coefficientwise, variables identified by position)


def mu_poly(p: Polynomial, target: Ring) -> Polynomial:
    """Reduce a rational polynomial mod q (undefined denominators raise)."""
    try:
        return target.poly(dict(p.terms))
    except DomainError as exc:
        raise LiftError(str(exc)) from None


def crt_poly(polys, target: Ring, acc: Polynomial | None = None, n: int = 1) -> Polynomial:
    """CRT over the union of supports, folded one prime at a time by Garner's step
    (as in ``crt``, with 1/n mod q taken once per fold) into the record acc mod n
    (by default zero mod 1); all share one leading monomial."""
    acc = target.zero() if acc is None else acc
    for p, q in polys:
        if acc and acc.lm != p.lm:
            raise LiftError(f"leading monomials disagree: {sorted((acc.lm, p.lm))}")
        if n % q == 0:
            raise LiftError("duplicate primes in CRT input")
        inv, nq = pow(n, -1, q), n * q
        old, new = dict(acc.terms), dict(p.terms)
        acc = target._sorted({m: c for m in old.keys() | new.keys()
                              if (c := balanced((x := old.get(m, 0))
                                                + n * ((new.get(m, 0) - x) * inv % q), nq))})
        n = nq
    return acc


def lift_poly(p: Polynomial, n: int, target: Ring) -> Polynomial:
    """Rational reconstruction of every coefficient of a mod-n polynomial.

    ``target`` has p's variables and order, so the lifted terms keep p's
    order; a coefficient that vanishes mod n is dropped."""
    terms = tuple((m, a) for m, c in p.terms if (a := rat_recon(int(c) % n, n)))
    if not terms or terms[0][0] != p.lm:
        raise LiftError("lift changed the leading monomial")
    return Polynomial(target, terms)


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


def is_prime_usable(q: int, f: Polynomial, delta0: Polynomial, B: int):
    """Algorithm step-3/4 filter: ("usable", (f_q, delta_q)) or ("skipped", why).
    B is ``canonical_conductor(f, ring)[1]``: when q does not divide it, delta_q is
    delta0 mod q (``conductor``'s lucky primes), with no conductor over GF(q)."""
    if not is_prime(q):
        return "skipped", f"{q} is not prime"
    if any(c.denominator % q == 0 for p in (f, delta0) for _, c in p.terms):
        return "skipped", "divides a coefficient denominator"
    if any(c.numerator % q == 0 for _, c in f.terms):
        return "skipped", "divides a coefficient numerator"
    ring_q = f.ring.with_domain(GF(q))
    f_q = mu_poly(f, ring_q)
    if B % q:
        return "usable", (f_q, mu_poly(delta0, ring_q))
    try:
        delta_q = canonical_conductor(f_q, ring_q)[0]
    except ConductorError as exc:
        return "skipped", f"degenerate mod {q}: {exc}"
    if delta_q != mu_poly(delta0, ring_q):
        return "skipped", "conductor disagrees with the rational one"
    return "usable", (f_q, delta_q)


def closure_run(q: int, f_q: Polynomial, delta_q: Polynomial) -> PrimeRun:
    """The characteristic-q closure of f_q over its conductor, as a usable run."""
    fractions = minimize_denominator(qth_closure(f_q.ring, f_q, delta_q, q))
    return PrimeRun(q, delta_q=delta_q, fractions=fractions,
                    presentation=induce_presentation(fractions, f_q))


def run_prime(q: int, f: Polynomial, delta0: Polynomial, B: int) -> PrimeRun:
    """Usability filter plus the full characteristic-q pipeline."""
    status, info = is_prime_usable(q, f, delta0, B)
    if status == "skipped":
        return PrimeRun(q, reason=info)
    try:
        return closure_run(q, *info)
    except ClosureError as exc:
        return PrimeRun(q, reason=f"closure failed: {exc}")


# ---------------------------------------------------------------------------
# reconciliation and verification


def _polys(fractions: FractionSet, presentation: ClosurePresentation) -> tuple:
    """The closure's polynomials: numerators, relations, then psi(y)."""
    return fractions.numerators + presentation.relations + (presentation.inclusion_image,)


def compatibility_check(runs) -> bool:
    """Counts and leading-monomial signatures agree across all usable runs."""
    return len({(len(r.fractions.numerators),
                 tuple(p.lm for p in _polys(r.fractions, r.presentation)))
                for r in runs if r.usable}) == 1


@dataclass(frozen=True)
class LiftState:
    """The usable runs' closure by CRT over ZZ, and its lift over QQ."""

    primes: tuple
    modulus: int
    crt: tuple                       # ``_polys`` over ZZ, balanced mod modulus
    fractions: FractionSet           # lifted over QQ
    presentation: ClosurePresentation

    @property
    def lifted(self) -> bool:
        """Always true: ``crt_poly`` keeps only coefficients that are nonzero mod
        N, and ``rat_recon`` lifts each to a nonzero alpha/beta with
        gcd(beta, N) = 1.  Kept because the benchmark's lift counter reads it."""
        return True


def reconcile_and_lift(run: PrimeRun, input_ring: Ring, prev: LiftState | None = None) -> LiftState:
    """Fold one usable run into ``prev``'s CRT record (the zero record mod 1 at
    the first stage), then lift coefficientwise to Q.

    The ZZ and QQ copies of the input and output rings are built at the first
    stage; later stages read them off ``prev``'s polynomials."""
    if not run.usable:
        raise LiftError(f"run at q={run.q} is not usable")
    polys = _polys(run.fractions, run.presentation)
    if prev is None:
        out_ring = run.presentation.ring
        zz_in, zz_out, qq_in, qq_out = (input_ring.with_domain(ZZ), out_ring.with_domain(ZZ),
                                        input_ring.with_domain(QQ), out_ring.with_domain(QQ))
        primes, n, acc = (), 1, (None,) * len(polys)
    else:
        if tuple(p.lm for p in polys) != tuple(p.lm for p in prev.crt):
            raise LiftError("runs have incompatible closure signatures")
        zz_in, zz_out, qq_in, qq_out = (prev.crt[0].ring, prev.crt[-1].ring,
                                        prev.fractions.ring, prev.presentation.ring)
        primes, n, acc = prev.primes, prev.modulus, prev.crt
    nnum, modulus = len(run.fractions.numerators), n * run.q
    record = tuple(crt_poly([(p, run.q)], zz_in if i < nnum else zz_out, a, n)
                   for i, (p, a) in enumerate(zip(polys, acc)))
    lifted = [lift_poly(c, modulus, qq_in if i < nnum else qq_out)
              for i, c in enumerate(record)]
    return LiftState(primes + (run.q,), modulus, record,
                     FractionSet(qq_in, tuple(lifted[:nnum])),
                     ClosurePresentation(qq_out, tuple(lifted[nnum:-1]), lifted[-1]))


def psi_substitute(f: Polynomial, psi: Polynomial, out_ring: Ring,
                   psi_pows: list | None = None) -> Polynomial:
    """Image of f under y -> psi, x_i -> x_i inside the output ring.

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


class Certificate:
    """A lifted candidate's certificate (``verify_candidate``): ``accepted`` is
    decided on construction, and each bit is computed, and kept, when first read."""

    def __init__(self, state: LiftState, f: Polynomial):
        self._state, self._f = state, f
        self._psi_pows = [state.presentation.ring.one()]
        self.per_prime: tuple = ()   # ((q, bool), ...) over the runs checked
        self.accepted = self.containment_ok and self.numerators_ok and self.gb_ok

    def _image(self, p: Polynomial) -> Polynomial:
        """p under y -> psi, each power of psi built once per certificate."""
        pres = self._state.presentation
        return psi_substitute(p, pres.inclusion_image, pres.ring, self._psi_pows)

    @cached_property
    def gb_ok(self) -> bool:
        rels = list(self._state.presentation.relations)
        return is_minimal_reduced_gb(rels) if rels else True

    @cached_property
    def residual(self) -> Polynomial | None:
        """psi(f) reduced by the relations; None when it vanishes."""
        nf = normal_form(self._image(self._f), list(self._state.presentation.relations))
        return None if nf.is_zero() else nf

    @property
    def containment_ok(self) -> bool:
        return self.residual is None

    @cached_property
    def numerators_ok(self) -> bool:
        """psi(g_j) = ybar_j * delta mod the relations, for every j."""
        nums = self._state.fractions.numerators
        ring = self._state.presentation.ring
        rels = list(self._state.presentation.relations)
        delta_out = self._image(nums[-1])

        def ybar(k):
            return ring.monomial(tuple(int(i == k) for i in range(ring.nvars)))

        return all(normal_form(self._image(nums[k]) - ybar(k) * delta_out, rels).is_zero()
                   for k in range(ring.ndep))


def verify_candidate(state: LiftState, f: Polynomial) -> Certificate:
    """Certificate checks on a lifted candidate, decided in the order that
    rejects soonest: containment of the input ideal under the inclusion image,
    then consistency of the lifted numerators (the fraction named ybar_j must
    actually be g_j / delta, i.e. psi(g_j) must reduce to ybar_j * delta; an
    undersized modulus can mangle a numerator coefficient without disturbing
    the other two checks), then the Groebner property of the relations, the
    costliest.  The decision stops at the first check that fails; the bits it
    skipped are computed when first read, by the audit log or the printed
    certificate.  ``per_prime`` is left empty: it holds on every stage
    (``specializations``)."""
    return Certificate(state, f)


def specializations(state: LiftState, runs) -> tuple:
    """((q, ok), ...): whether the lifted candidate reduces mod q to q's run; true on
    every stage, as ``rat_recon`` returns alpha/beta with gcd(beta, N) = 1
    and c*beta = alpha (mod N), and ``lift_poly`` keeps the leading monomial."""
    return tuple((run.q, _specializes(state, run)) for run in runs
                 if run.usable and run.q in state.primes)


def _specializes(state: LiftState, run: PrimeRun) -> bool:
    return all(mu_poly(p, g.ring) == g
               for p, g in zip(_polys(state.fractions, state.presentation),
                               _polys(run.fractions, run.presentation)))
