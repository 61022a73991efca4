"""End-to-end drivers: the characteristic-0 pipeline and single-prime runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from .closure import ClosureError, ClosurePresentation, FractionSet, fraction_names
from .conductor import canonical_conductor
from .domains import GF, DomainError, is_prime
from .lifting import (Certificate, LiftState, PrimeRun, SignatureError, closure_run,
                      reconcile_and_lift, run_prime, specializations, verify_candidate)
from .rings import Polynomial, Ring, _mono_str
from .weights import validate_weight_function


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


@dataclass(frozen=True)
class Stage:
    state: LiftState
    certificate: Certificate


@dataclass
class Algorithm1Result:
    conductor: Polynomial
    runs: list = field(default_factory=list)
    stages: list = field(default_factory=list)

    @property
    def audit(self) -> list:
        """The audit log's lines, rendered from the runs and stages (one stage
        per usable run); reading it computes every certificate bit."""
        lines = [f"conductor: {self.conductor}"]
        stages = iter(self.stages)
        for run in self.runs:
            if not run.usable:
                lines.append(f"q={run.q} skipped: {run.reason}")
                continue
            fs, pres = run.fractions, run.presentation
            lines.append(
                f"q={run.q} usable delta={run.delta_q} J={len(fs.numerators) - 1}"
                f" lm_g={_lm_names(fs.numerators)} K={len(pres.relations)}"
                f" lm_b={_lm_names(pres.relations) if pres.relations else '[]'}")
            stage = next(stages)
            state, cert = stage.state, stage.certificate
            lines.append(
                f"N={state.modulus} primes={','.join(map(str, state.primes))} lift=ok"
                f" gb={cert.gb_ok} containment={cert.containment_ok}"
                f" numerators={cert.numerators_ok} accepted={cert.accepted}")
        if not self.accepted:
            lines.append("prime budget exhausted without an accepted certificate")
        return lines

    @property
    def certificate(self) -> Certificate | None:
        """The last stage's certificate (None when no prime was usable)."""
        return self.stages[-1].certificate if self.stages else None

    @property
    def accepted(self) -> bool:
        return self.certificate is not None and self.certificate.accepted

    @property
    def fractions(self) -> FractionSet | None:
        """The accepted closure's numerators (the accepted stage is the last)."""
        return self.stages[-1].state.fractions if self.accepted else None

    @property
    def presentation(self) -> ClosurePresentation | None:
        return self.stages[-1].state.presentation if self.accepted else None

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


def _lm_names(polys):
    return "[" + ",".join(_mono_str(p.lm, p.ring.names) or "1" for p in polys) + "]"


def validate_problem(ring: Ring, f: Polynomial):
    if ring.nindep != 1:
        raise DriverError("closure iteration supports one independent variable,"
                          f" the problem has {ring.nindep}")
    ok, offending = validate_weight_function(f)
    if not ok:
        bad = ", ".join(_mono_str(m, ring.names) or "1" for m in offending)
        raise DriverError(f"no weight function: maximal-weight monomials {{{bad}}}")
    try:
        fraction_names(f.degree_in(0) - 1, ring)
    except ClosureError as exc:
        raise DriverError(str(exc)) from None


def run_algorithm1(ring: Ring, f: Polynomial, config: RunConfig | None = None) -> Algorithm1Result:
    """Steps of the multi-modular pipeline, stopping at the first certificate.

    Each usable prime adds one stage: its run folded into the previous stage's
    CRT record and lifted, and the lift's certificate.  A run whose signature
    differs from the first usable run's, which every stage's lift keeps, is
    skipped (the fold's ``SignatureError``)."""
    config = config or RunConfig()
    validate_problem(ring, f)
    delta0, B = canonical_conductor(f, ring)
    result, state = Algorithm1Result(delta0), None
    for q in _prime_schedule(config):
        if len(result.stages) >= config.max_primes:
            break
        run = run_prime(q, f, delta0, B)
        if run.usable:
            try:
                state = reconcile_and_lift(run, ring, state)
            except SignatureError:
                run = PrimeRun(q, reason="incompatible closure signature")
        result.runs.append(run)
        if run.usable:
            result.stages.append(Stage(state, verify_candidate(state, f)))
            if result.accepted:
                break
    # per_prime holds on every stage (``specializations``), so the certificates
    # above check no run; the printed one, the last, gets all of its runs
    if result.stages:
        s = result.stages[-1]
        s.certificate.per_prime = specializations(s.state, result.runs)
    return result


def run_charq(ring: Ring, f: Polynomial, q: int) -> PrimeRun:
    """Single characteristic-q closure with its induced presentation."""
    if ring.domain != GF(q):
        raise DriverError(f"ring domain must be GF({q})")
    validate_problem(ring, f)
    return closure_run(q, f, canonical_conductor(f, ring)[0])
