"""Command line front end.

``intclose PROBLEM`` runs the characteristic-0 pipeline (or a single
characteristic-q closure with ``--mode charq``) and prints the resulting
presentation in text or structured (JSON) form.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .closure import ClosureError
from .conductor import ConductorError
from .domains import GF, QQ, DomainError
from .driver import DriverError, RunConfig, run_algorithm1, run_charq
from .lifting import LiftError, PrimeRun
from .problem import ProblemError, parse_problem
from .rings import format_poly


def _psi_factored(presentation) -> str:
    """psi(y) over the fraction variables, e.g. ybar*(x - 8/7), from its coordinates."""
    ring, parts = presentation.ring, []
    for k, c in enumerate(presentation.psi):
        if not c:
            continue
        text = format_poly(presentation.input_ring.poly({(0, e): v for e, v in c.items()}))
        if k == ring.ndep:
            parts.append(f"({text})")
        elif c == {0: 1}:
            parts.append(ring.names[k])
        else:
            parts.append(f"{ring.names[k]}*({text})")
    return " + ".join(parts) if parts else "0"


def _document(result) -> dict:
    """The run's report, its fields in print order: ``emit_structured`` dumps it
    as JSON and ``emit_text`` renders it line by line."""
    if isinstance(result, PrimeRun):
        head, tail = {"mode": "charq", "q": result.q, "conductor": format_poly(result.delta_q)}, {}
    else:
        head = {"mode": "char0", "accepted": result.accepted,
                "conductor": format_poly(result.conductor),
                "primes": list(result.primes_used)}
        cert = result.certificate
        tail = {} if cert is None else {"certificate": {
            "gb": cert.gb_ok, "containment": cert.containment_ok,
            "numerators": cert.numerators_ok,
            "per_prime": [[q, ok] for q, ok in cert.per_prime],
            "accepted": cert.accepted}}
        tail["skipped"] = [{"q": r.q, "reason": r.reason}
                           for r in result.runs if not r.usable]
    presentation = result.presentation
    if presentation is not None:
        head.update(
            delta=format_poly(presentation.denominator),
            numerators=[format_poly(g) for g in presentation.numerators],
            induced_weights=[list(r) for r in presentation.ring.weights],
            relations=[format_poly(r) for r in presentation.relations],
            psi=format_poly(presentation.inclusion_image),
            psi_factored=_psi_factored(presentation))
    return {**head, **tail}


# each report field as text lines; psi is printed only factored
_TEXT = {
    "mode": lambda v: [f"mode: {v}"],
    "q": lambda v: [f"q: {v}"],
    "accepted": lambda v: [f"status: {'accepted' if v else 'not accepted'}"],
    "conductor": lambda v: [f"Delta: {v}"],
    "primes": lambda v: [f"primes: {','.join(map(str, v))}"],
    "delta": lambda v: [f"delta: {v}"],
    "numerators": lambda v: ["numerators:"] + [f"  {g}" for g in v],
    "induced_weights": lambda v: [
        "induced_weights: " + ";".join(",".join(map(str, row)) for row in v)],
    "relations": lambda v: [f"relation: {r}" for r in v] or ["relations: (none)"],
    "psi": lambda v: [],
    "psi_factored": lambda v: [f"psi(y): {v}"],
    "certificate": lambda v: ["certificate: " + " ".join(
        f"{k}={json.dumps(v[k])}" for k in ("gb", "containment", "numerators", "accepted"))],
    "skipped": lambda v: [f"skipped: q={s['q']} ({s['reason']})" for s in v],
}


def emit_text(result) -> str:
    return "".join(f"{line}\n" for key, value in _document(result).items()
                   for line in _TEXT[key](value))


def emit_structured(result) -> str:
    return json.dumps(_document(result), indent=2) + "\n"


@cache                                # built on the first call, then shared by every main()
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="intclose",
        description="Integral closure of F[x...][y]/(f) with exact arithmetic.")
    ap.add_argument("problem", help="problem file (see docs for the format)")
    ap.add_argument("--mode", choices=("char0", "charq"), default=None,
                    help="full rational pipeline or a single finite-field run")
    ap.add_argument("--prime", type=int, default=None, help="the prime for charq mode")
    ap.add_argument("--primes", default=None,
                    help="explicit comma-separated prime schedule for char0 mode")
    ap.add_argument("--start-prime", type=int, default=None,
                    help="first candidate prime for the default schedule")
    ap.add_argument("--max-primes", type=int, default=None,
                    help="maximum number of usable primes to incorporate")
    ap.add_argument("--format", choices=("text", "structured"), default="text")
    ap.add_argument("--log", default=None, help="write the audit log to this file")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.problem, encoding="utf-8") as fh:
            problem = parse_problem(fh.read())
    except (OSError, UnicodeDecodeError, ProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mode = args.mode or ("charq" if problem.characteristic else "char0")
    prime = args.prime if args.prime is not None else problem.characteristic
    # the char0 schedule options given; RunConfig holds the defaults of the others
    schedule = {o: v for o in ("primes", "start_prime", "max_primes")
                if (v := getattr(args, o)) is not None}

    try:
        if mode == "charq":
            if schedule:
                stray = next(iter(schedule)).replace("_", "-")
                raise DriverError(f"--{stray} applies to char0 mode only")
            if prime is None:
                raise DriverError("charq mode requires --prime or a characteristic field")
            try:
                field = GF(prime)
            except DomainError as exc:
                raise DriverError(f"--prime {exc}") from None
            result = run_charq(problem.relation(problem.ring(field)))
            audit = [f"q={prime} delta={result.delta_q}"]
        else:
            if args.prime is not None:
                raise DriverError("--prime applies to charq mode only")
            f = problem.relation(problem.ring(QQ))
            if args.primes is not None:
                if args.start_prime is not None:
                    raise DriverError("--start-prime does not apply with --primes")
                try:
                    schedule["primes"] = tuple(int(p) for p in args.primes.split(","))
                except ValueError:
                    raise DriverError("--primes expects comma-separated integers,"
                                      f" got {args.primes!r}") from None
            result = run_algorithm1(f, RunConfig(**schedule))
            # the log, and the printed certificate of a stage that was not
            # accepted, read the bits the decision skipped: here, so an error
            # in a check fails the run before anything is printed
            audit = result.audit if args.log else None
        out = emit_text(result) if args.format == "text" else emit_structured(result)
    except (DriverError, ProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClosureError, ConductorError, LiftError, DomainError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(out)
    if args.log:
        try:
            with open(args.log, "w", encoding="utf-8") as fh:
                fh.write("\n".join(audit) + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if mode == "char0" and not result.accepted:
        print("not accepted: prime budget exhausted before certification",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
