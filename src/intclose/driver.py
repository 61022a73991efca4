"""End-to-end drivers, given the relation f alone: the char-0 pipeline and single-prime runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from .closure import ClosureError, ClosurePresentation, by_y, fraction_names, from_y
from .conductor import canonical_conductor
from .domains import GF, DomainError, is_prime
from .lifting import (Certificate, PrimeRun, SignatureError, closure_run,
                      reconcile_and_lift, run_prime, specializations, verify_candidate)
from .rings import Polynomial, mono_str
from .weights import WeightError, validate_weight_function


class DriverError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    primes: tuple | None = None      # explicit schedule; otherwise ascending
    start_prime: int = 5
    max_primes: int = 12             # max usable primes incorporated

    def __post_init__(self):
        if self.max_primes < 1:
            raise DriverError("max primes must be at least 1")
        if self.primes is not None and len(set(self.primes)) != len(self.primes):
            raise DriverError("prime schedule contains duplicates")
        # every explicit prime, or the first one of the ascending schedule
        checked = self.primes if self.primes is not None else (next(_prime_schedule(self)),)
        for q in checked:
            try:
                GF(q)
            except DomainError as exc:
                raise DriverError(f"prime schedule: {exc}") from None


@dataclass
class Algorithm1Result:
    conductor: Polynomial
    runs: list = field(default_factory=list)
    stages: list = field(default_factory=list)     # one Certificate per usable run

    @property
    def audit(self) -> list:
        """The audit log's lines, rendered from the runs and stages (one
        certificate per usable run); reading it computes every certificate
        bit.  A run's leads are read off its record; only Delta_q is built
        over GF(q)."""
        lines = [f"conductor: {self.conductor}"]
        stages = iter(self.stages)
        for run in self.runs:
            if not run.usable:
                lines.append(f"q={run.q} skipped: {run.reason}")
                continue
            pres = run.presentation
            lm_b = [lead for _, lead in pres.relation_leads]
            lines.append(
                f"q={run.q} usable delta={run.delta_q} J={pres.ring.ndep}"
                f" lm_g={_lm_names(pres.leads[:-1], pres.input_ring)} K={len(lm_b)}"
                f" lm_b={_lm_names(lm_b, pres.ring)}")
            cert = next(stages)
            lines.append(
                f"N={cert.state.modulus} primes={','.join(map(str, cert.state.primes))} lift=ok"
                f" gb={cert.gb_ok} containment={cert.containment_ok}"
                f" numerators={cert.numerators_ok} accepted={cert.accepted}")
        if not self.accepted:
            lines.append("prime budget exhausted without an accepted certificate")
        return lines

    @property
    def certificate(self) -> Certificate | None:
        """The last stage's certificate (None when no prime was usable)."""
        return self.stages[-1] if self.stages else None

    @property
    def accepted(self) -> bool:
        return self.certificate is not None and self.certificate.accepted

    @property
    def presentation(self) -> ClosurePresentation | None:
        """The accepted closure (the accepted stage is the last)."""
        return self.certificate.state.presentation if self.accepted else None

    @property
    def primes_used(self) -> tuple:
        return tuple(r.q for r in self.runs if r.usable)


def _prime_schedule(config: RunConfig):
    if config.primes is not None:
        for q in config.primes:
            yield q
        return
    q = max(2, config.start_prime)
    budget = max(60, 12 * config.max_primes)
    while budget:
        if is_prime(q):
            yield q
            budget -= 1
        q += 1


def _lm_names(monos, ring):
    return "[" + ",".join(mono_str(m, ring.names) or "1" for m in monos) + "]"


def validate_problem(f: Polynomial) -> list:
    """f's tail ``by_y(f, d)``, the one form of f below, once f is y^d plus lower terms."""
    ring = f.ring
    if ring.nindep != 1:
        raise DriverError("closure iteration supports one independent variable,"
                          f" the problem has {ring.nindep}")
    try:
        ok, offending = validate_weight_function(f)
    except WeightError as exc:
        raise DriverError(str(exc)) from None
    if not ok:
        bad = ", ".join(mono_str(m, ring.names) or "1" for m in offending)
        raise DriverError(f"no weight function: maximal-weight monomials {{{bad}}}")
    try:
        fraction_names(f.degree_in(0) - 1, ring)
    except ClosureError as exc:
        raise DriverError(str(exc)) from None
    return by_y(f, f.degree_in(0))


def run_algorithm1(f: Polynomial, config: RunConfig | None = None) -> Algorithm1Result:
    """Steps of the multi-modular pipeline for f over Q, stopping at the first certificate.

    Each usable prime adds one stage, a ``Certificate`` whose ``state`` is
    the run folded into the previous stage's CRT record and lifted.  A run
    whose signature differs from the first usable run's, which every stage's
    lift keeps, is skipped (the fold's ``SignatureError``).

    Once a stage exists, a walk's ``dim`` (``qth_closure``) is sum(delta - e)
    over its signature's numerator leads y^k*x^e, delta g_0's x-degree."""
    config, ring = config or RunConfig(), f.ring
    if ring.domain.char:
        raise DriverError(f"a char-0 run needs a relation over Q, not {ring.domain}")
    tail = validate_problem(f)
    delta0, B, checkpoints = canonical_conductor(tail, ring)
    result, state = Algorithm1Result(from_y([[delta0]], ring)[0]), None
    for q in _prime_schedule(config):
        if len(result.stages) >= config.max_primes:
            break
        dim = sum(state.leads[-2][1] - e for _, e in state.leads[:-1]) if state else 0
        run = run_prime(q, ring, tail, delta0, B, checkpoints, dim)
        if run.usable:
            try:
                state = reconcile_and_lift(run, state)
            except SignatureError:
                run = PrimeRun(q, reason="incompatible closure signature")
        result.runs.append(run)
        if run.usable:
            result.stages.append(verify_candidate(state, tail))
            if result.accepted:
                break
    # per_prime holds on every stage (``specializations``), so the certificates
    # above check no run; the printed one, the last, gets all of its runs
    if result.stages:
        cert = result.stages[-1]
        cert.per_prime = specializations(cert.state, result.runs)
    return result


def run_charq(f: Polynomial) -> PrimeRun:
    """Single closure of f over GF(q), with its induced presentation."""
    if not f.ring.domain.char:
        raise DriverError("a char-q run needs a relation over GF(q), not Q")
    tail = validate_problem(f)
    return closure_run(f.ring, tail, canonical_conductor(tail, f.ring)[0])
