"""Characteristic-0 reconstruction: mod-q runs, CRT, rational lifting, certification.

Each prime's closure is one ``ClosurePresentation``, a flat tuple of F_q[x]
dicts.  Each stage folds them into the previous stage's record mod N, a tuple
of {x-exponent: int} maps, by the Chinese remainder map (Garner's step), and
lifts that to small rationals by extended-Euclidean reconstruction, which
cannot fail on a CRT record (``rat_recon``).  The lift stays maps of
rationals; the lifted record, one ``ClosurePresentation`` over QQ, is built
only to print it.  A stage is one ``Certificate``, which holds its lift, a
``LiftState``.  It is accepted exactly when the inclusion image of the input
ideal reduces to zero in its multiplication table, its numerators are
consistent with the table, and its multiplication matrices commute, which
makes the relations a Groebner basis (``matrices_commute``).

The first two are one Horner pass in the table (``table_residuals``), run on
the lift's maps over Q[x] and, first, at one point mod a 61-bit prime
(``rejects_at_point``): a nonzero value there is the image of a nonzero
residual, so it rejects the stage.  Else the exact checks run in the order
above and stop at the first that fails; a bit they did not need is computed
when first read (the audit log, or the printed certificate of a stage that
was not accepted).  The lift implies per-prime specialization; it is
evaluated for the printed stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import starmap
from math import gcd, lcm
from operator import mul

from .closure import (ClosurePresentation, ClosureError, from_y, from_ybar, qth_closure,
                      split_record)
from .conductor import ConductorError, canonical_conductor
from .domains import GF, QQ, DomainError, balanced
from .rings import Polynomial, Ring
from .xpoly import mod_q, sub_dot


class LiftError(ArithmeticError):
    """A coefficient map (mod N or its rational inverse) is undefined."""


class SignatureError(LiftError):
    """A run's leading monomials differ from those of the record it joins."""


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

    One pass keeps the least eligible (r^2 + u^2, i) so far, testing only a
    candidate that beats it; the walk stops once u^2 alone reaches the best,
    as u never falls along the sequence.  Every candidate's r = (-1)^i u*c
    (mod n), so one with gcd(r, u) = 1 is eligible without a test.
    """
    if n <= 1:
        raise LiftError("modulus must exceed 1")
    c %= n
    best, alpha, beta = c * c + 1, c, 1
    r_prev, r = n, c
    u_prev, u = 0, 1
    sign = 1
    while r != 0 and u * u < best:
        quot = r_prev // r
        r_prev, r = r, r_prev - quot * r
        u_prev, u = u, quot * u + u_prev
        sign = -sign
        if (norm := r * r + u * u) < best:
            g = gcd(r, u)
            a, b = sign * r // g, u // g
            if g == 1 or (c * b - a) % n == 0:
                best, alpha, beta = norm, a, b
    return Fraction(alpha, beta)


# ---------------------------------------------------------------------------
# per-prime runs


@dataclass(frozen=True)
class PrimeRun:
    """One prime's closure as one record, or the reason the prime was skipped;
    ``delta``, Delta_q as the walk read it, a monic F_q[x] dict, is built as a
    Polynomial only when ``delta_q`` is read (the audit log, the charq printer)."""

    q: int
    reason: str | None = None        # None exactly when the run is usable
    delta: dict | None = None
    presentation: ClosurePresentation | None = None

    @property
    def usable(self) -> bool:
        return self.reason is None

    @property
    def delta_q(self) -> Polynomial:
        return from_y([[self.delta]], self.presentation.input_ring)[0]


def is_prime_usable(q: int, ring: Ring, tail: list, delta0: dict, B: int, checkpoints: tuple):
    """Algorithm step-3/4 filter: ("usable", (ring_q, tail_q, delta)) or ("skipped", why).
    A q with no GF(q), not prime or not below 2^63, is skipped with ``GF``'s text.
    f's tail and delta0 are reduced mod q once (``mod_q``): a ValueError means q divides
    a denominator, a dropped zero that q divides a numerator of f.  Only a q past both
    gets its GF(q) ring.  If q does not divide B, Delta_q is delta0 mod q (lucky primes);
    else the GF(q) conductor runs on tail_q, resuming the rational sweep from its
    ``checkpoints`` where it can."""
    try:
        field = GF(q)
    except DomainError as exc:
        return "skipped", str(exc)
    try:
        tail_q, delta = [mod_q(a, q) for a in tail], mod_q(delta0, q)
    except ValueError:
        return "skipped", "divides a coefficient denominator"
    if sum(map(len, tail_q)) < sum(map(len, tail)):
        return "skipped", "divides a coefficient numerator"
    ring_q = ring.with_domain(field)
    if B % q == 0:
        try:
            if canonical_conductor(tail_q, ring_q, checkpoints)[0] != delta:
                return "skipped", "conductor disagrees with the rational one"
        except ConductorError as exc:
            return "skipped", f"degenerate mod {q}: {exc}"
    return "usable", (ring_q, tail_q, delta)


def closure_run(ring: Ring, tail: list, delta: dict, dim: int = 0) -> PrimeRun:
    """The closure of f's tail over its conductor delta in ring = F_q[y; x], as a usable
    run; ``dim`` is ``qth_closure``'s."""
    return PrimeRun(ring.domain.char, delta=delta, presentation=qth_closure(ring, tail, delta, dim))


def run_prime(q: int, ring: Ring, tail: list, delta0: dict, B: int,
              checkpoints: tuple, dim: int = 0) -> PrimeRun:
    """Usability filter plus the full characteristic-q pipeline, ``dim`` as in ``closure_run``."""
    status, info = is_prime_usable(q, ring, tail, delta0, B, checkpoints)
    if status == "skipped":
        return PrimeRun(q, reason=info)
    try:
        return closure_run(*info, dim)
    except ClosureError as exc:
        return PrimeRun(q, reason=f"closure failed: {exc}")


# ---------------------------------------------------------------------------
# reconciliation and verification


@dataclass(frozen=True)
class LiftState:
    """The usable runs' closure by CRT, and its lift over QQ.

    The lift is kept as maps, one per coordinate, which the certificate reads;
    ``presentation``, the lifted record, is built from them only to print it."""

    primes: tuple
    modulus: int
    crt: tuple                       # {x-exponent: int} maps, balanced mod N
    lift: tuple                      # their ``rat_recon`` values, {x-exponent: Fraction}
    rings: tuple                     # (input ring, output ring) over QQ
    leads: tuple                     # the runs' signature, ``ClosurePresentation.leads``

    @cached_property
    def presentation(self) -> ClosurePresentation:
        """The lifted record: numerators, multiplication table and psi(y) over
        QQ, read by the printer (``Algorithm1Result.presentation``)."""
        return ClosurePresentation(self.lift, *self.rings)

    @property
    def lifted(self) -> bool:
        """Always true: a CRT record's coefficients are nonzero mod N, and
        ``rat_recon`` lifts each to a nonzero alpha/beta with gcd(beta, N) = 1.
        Kept because the benchmark's lift counter reads it."""
        return True


def reconcile_and_lift(run: PrimeRun, prev: LiftState | None = None) -> LiftState:
    """Fold one usable run into ``prev``'s CRT record (the zero record mod 1 at
    the first stage), then lift coefficientwise to Q.

    The fold takes the run's ``presentation.coords`` against ``prev``'s, and
    is Garner's step (TAOCP 4.3.2), x + N*((a - x)/N mod q), over the union
    of each map's support and its coordinate's, with 1/N mod q taken once;
    every exponent there has a nonzero residue mod N or mod q, so the record
    holds no zero.  The run's ``leads`` must be ``prev``'s, which the lift
    keeps, as it keeps its record's support (``SignatureError`` otherwise).
    The QQ copies of the run's input and output rings are built at the first
    stage, and read off ``prev`` after it.  The lift is one ``rat_recon`` per
    coefficient, kept as maps; no Polynomial is built here."""
    if not run.usable:
        raise LiftError(f"run at q={run.q} is not usable")
    pres, q, leads = run.presentation, run.q, run.presentation.leads
    if prev is None:
        rings = (pres.input_ring.with_domain(QQ), pres.ring.with_domain(QQ))
        primes, n, acc = (), 1, ({},) * len(pres.coords)
    else:
        if leads != prev.leads:
            raise SignatureError("runs have incompatible closure signatures")
        rings, primes, n, acc = prev.rings, prev.primes, prev.modulus, prev.crt
    if n % q == 0:
        raise LiftError("duplicate primes in CRT input")
    inv, nq = pow(n, -1, q), n * q
    record = tuple({e: balanced((x := old.get(e, 0)) + n * ((new.get(e, 0) - x) * inv % q), nq)
                    for e in old.keys() | new.keys()}
                   for old, new in zip(acc, pres.coords))
    lift = tuple({e: rat_recon(c, nq) for e, c in r.items()} for r in record)
    return LiftState(primes + (q,), nq, record, lift, rings, leads)


# the point test's prime, 2^61 - 1, and its fixed value of x
POINT_PRIME = (1 << 61) - 1
POINT_X = 1234567890123456789


def table_residuals(state: LiftState, tail: list, coord, sub_dot):
    """psi(f), then psi(g_k) - ybar_k*delta for k < J (delta = g_0), reduced by
    the lifted table to coordinates on ybar_J .. ybar_1, 1, f given by its tail;
    the numerators are read only when their residuals are.

    Each F[x] map of the lift is taken by ``coord``, each a - sum x*y by
    ``sub_dot(a, pairs)``: values at a point (``point_residuals``), or
    ``dict`` and ``xpoly.sub_dot`` for the exact bits over Q[x].  With
    ybar_a*ybar_b = -tail_ab, multiplying by -psi(y) is one matrix on that
    basis, and psi(p) is one Horner pass over p's y-coefficients, value =
    p_k - value*(-psi), f's last p_k the monic 1.  A residual has
    ybar-degree <= 1: a normal form, unique when the relations are a Groebner basis."""
    J = state.rings[1].ndep
    vectors, tails, psi = split_record(state.lift, J + 1)
    zero, one = coord({}), coord({0: 1})
    minus_psi = [sub_dot(zero, ((one, coord(a)),)) for a in psi]
    tails = {pair: [coord(a) for a in t] for pair, t in tails.items()}
    cols = [[sub_dot(minus_psi[J] if i == a else zero,
                     zip(minus_psi, [tails[min(a, b), max(a, b)][i] for b in range(J)]))
             for i in range(J + 1)]
            for a in range(J)] + [minus_psi]  # column a: -ybar_a*psi(y), ybar_J being 1
    rows = list(zip(*cols))

    def image(ys: list) -> list:       # psi(sum_k ys[k]*y^k)
        value = [zero] * J + [ys[-1]]
        for y in reversed(ys[:-1]):
            value = [sub_dot(y if i == J else zero, zip(row, value)) for i, row in enumerate(rows)]
        return value

    yield image([coord(a) for a in tail] + [one])
    nums = [[coord(a) for a in v] for v in vectors]     # g_J .. g_0, and g_0 = delta
    for k, v in enumerate(nums[:J]):
        r = image(v)
        r[k] = sub_dot(r[k], ((one, nums[-1][0]),))
        yield r


def point_residuals(state: LiftState, tail: list):
    """``table_residuals`` at x = POINT_X mod POINT_PRIME, each a/b taken as
    a*b^-1 (ValueError when the prime divides b): the exact residuals' values,
    and a nonzero residual vanishes at few points (Schwartz, JACM 1980)."""
    p = POINT_PRIME
    return table_residuals(
        state, tail, lambda a: sum(c.numerator * pow(c.denominator, -1, p) * pow(POINT_X, e, p)
                                   for e, c in a.items()) % p,
        lambda a, pairs: (a - sum(starmap(mul, pairs))) % p)


def rejects_at_point(state: LiftState, tail: list) -> bool:
    """Whether a ``point_residuals`` value is nonzero; False on a denominator the prime divides."""
    try:
        return any(map(any, point_residuals(state, tail)))
    except ValueError:
        return False


def matrices_commute(state: LiftState) -> bool:
    """Whether M_a*M_b*e_c = M_b*M_a*e_c for a < b and c < J, M_a multiplying
    by ybar_a on the basis ybar_J .. ybar_1, 1: the Groebner property of the
    relations over Q[x], whose monic leads ybar_a*ybar_b the layout keeps
    minimal and reduced (Mourrain, AAECC 1999; Kehrein, Kreuzer & Robbiano,
    2005).  Each M_a is scaled by the lcm L of the tails' denominators."""
    J = state.rings[1].ndep
    _, tails, _ = split_record(state.lift, J + 1)
    L = lcm(*(c.denominator for t in tails.values() for a in t for c in a.values()))
    col = {(a, J): [{0: L} if i == a else {} for i in range(J + 1)] for a in range(J)}
    for (a, b), t in tails.items():             # L*ybar_a*ybar_b = -L*tail_ab
        col[a, b] = col[b, a] = [{e: -c.numerator * (L // c.denominator)
                                  for e, c in x.items()} for x in t]
    rows = [list(zip(*(col[a, k] for k in range(J + 1)))) for a in range(J)]

    def times(a: int, v: list) -> list:         # -L*M_a*v
        return [sub_dot({}, zip(row, v)) for row in rows[a]]

    return all(times(a, col[b, c]) == times(b, col[a, c])
               for b in range(J) for a in range(b) for c in range(J))


class Certificate:
    """A char-0 stage: its lift, ``state``, and the lift's certificate
    (``verify_candidate``).  ``accepted`` is decided on construction, and a
    bit it did not need is computed when first read.  ``containment_ok``
    reads psi(f)'s exact residual and ``numerators_ok`` the others, from one
    exact pass in the table, kept; ``gb_ok`` is ``matrices_commute``.  No bit
    builds the lifted record."""

    def __init__(self, state: LiftState, tail: list):
        self.state, self._tail = state, tail
        self.per_prime: tuple = ()   # ((q, bool), ...) over the runs checked
        self.accepted = (not rejects_at_point(state, tail) and self.containment_ok
                         and self.numerators_ok and self.gb_ok)

    gb_ok = cached_property(lambda self: matrices_commute(self.state))

    @cached_property
    def _residuals(self) -> list:
        """``table_residuals`` over Q[x], psi(f)'s first."""
        return list(table_residuals(self.state, self._tail, dict, sub_dot))

    @property
    def containment_ok(self) -> bool:
        return not any(self._residuals[0])

    @property
    def numerators_ok(self) -> bool:
        """psi(g_j) = ybar_j * delta in the table, for every j."""
        return not any(map(any, self._residuals[1:]))

    @cached_property
    def residual(self) -> Polynomial | None:
        """psi(f)'s residual as a Polynomial of the output ring; None when it
        vanishes.  Where the relations are not a Groebner basis it is one
        remainder of several, the table's."""
        psi_f = self._residuals[0]
        return from_ybar(psi_f, self.state.rings[1], {}) if any(psi_f) else None


def verify_candidate(state: LiftState, tail: list) -> Certificate:
    """Certificate checks on a lifted candidate, for f given by its tail.  A
    stage whose psi(f) or numerators fail at the point (``rejects_at_point``)
    is rejected there, with no exact check; the point pass is the exact one's
    image mod the prime, so that changes no decision, and every bit is still
    computed exactly when read.

    The exact checks run in this order: containment of the input ideal under
    the inclusion image, then consistency of the lifted numerators (the
    fraction named ybar_j must actually be g_j / delta, i.e. psi(g_j) must
    reduce to ybar_j * delta; an undersized modulus can mangle a numerator
    coefficient without disturbing the other two checks), both read off one
    Horner pass over Q[x] (``table_residuals``), then the Groebner property of
    the relations: commuting matrices in Z[x].  Where the relations are not a
    Groebner basis a remainder is not unique, and the first two bits are
    those of the table's order of reduction; gb fails there, so the decision
    does not hang on that order.  The decision stops at the first check that
    fails; the bits it skipped are computed when first read, by the audit
    log or the printed certificate (the numerators' residuals come with
    containment's, from the same pass).
    ``per_prime`` is left empty: it holds on every stage (``specializations``)."""
    return Certificate(state, tail)


def specializations(state: LiftState, runs) -> tuple:
    """((q, ok), ...): whether the lifted candidate reduces mod q to q's run; true on
    every stage, as ``rat_recon`` returns alpha/beta with gcd(beta, N) = 1
    and c*beta = alpha (mod N), on the record's whole support."""
    return tuple((run.q, _specializes(state, run)) for run in runs
                 if run.usable and run.q in state.primes)


def _specializes(state: LiftState, run: PrimeRun) -> bool:
    """Each lifted coefficient taken mod q (``mod_q``; a denominator that q
    divides raises) against the run's coordinates; read off the lift's maps,
    so no lifted record is built."""
    q = run.q
    try:
        return all(mod_q(a, q) == b for a, b in zip(state.lift, run.presentation.coords))
    except ValueError:
        raise LiftError(f"a lifted denominator vanishes mod {q}") from None
