"""Problem sets of the three benchmark workloads and their expected results.

Each workload is a list of ``Solve`` records: a problem file, the command
line arguments for ``intclose.cli.main`` (besides the file), and what the
exactness check compares the structured output against.

Run as a script, this module is the benchmark's set-up step: it imports the
program, generates the workload's problems and writes the problem files::

    python3 perfbench/workloads.py --workload tall-char0 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("sextic-char0", "octic-charq", "tall-char0")

SEXTIC_RELATION = ("(y^2 - 3/4*y - 15/17*x)^3 - 9*y*x^4*(y^2 - 3/4*y - 15/17*x)"
                   " - 27*x^11")
OCTIC_RELATION = "y^8 - y^2*x^3 + 2*y*x^6 - x^9"
OCTIC_PRIMES = (7, 11, 13, 19, 23, 29)
TALL_PROBLEMS = 100
TALL_COEFF_MAX = 10 ** 5


@dataclass(frozen=True)
class Solve:
    label: str           # name of the solve in reports
    file: str            # problem file name
    text: str            # problem file contents
    args: tuple          # cli arguments after the file
    expect: dict         # what check.check_output compares against


def problem_text(weights, relation: str) -> str:
    """A problem file in the README format."""
    return (f"indvars: x\ndepvar: y\nweights: {json.dumps(weights)}\n"
            f"relation: {relation}\n")


def _q(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _signed(c: Fraction, body: str) -> str:
    """`` + c*body`` / `` - |c|*body`` for a relation written term by term."""
    sign = "-" if c < 0 else "+"
    return f" {sign} {_q(abs(c))}*{body}"


def _coefficient(rng: random.Random) -> Fraction:
    num = rng.randint(1, TALL_COEFF_MAX) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, TALL_COEFF_MAX))


def _load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def sextic_solves() -> list[Solve]:
    ref = _load_reference("sextic.json")
    text = problem_text([[11, 6]], SEXTIC_RELATION)
    return [Solve("sextic", "sextic.txt", text, ("--format", "structured"),
                  {"kind": "sextic", "reference": ref})]


def octic_solves() -> list[Solve]:
    ref = _load_reference("octic_charq.json")
    text = problem_text([[9, 8]], OCTIC_RELATION)
    return [Solve(f"octic-q{q}", "octic.txt", text,
                  ("--mode", "charq", "--prime", str(q), "--format", "structured"),
                  {"kind": "document", "document": ref[str(q)]})
            for q in OCTIC_PRIMES]


def tall_solves(seed: int) -> list[Solve]:
    """Alternating quadratic-node and cubic-cusp curves with random coefficients.

    ``y^2 - c*x*(x - a)^2`` (weights 3,2) has closure ``ybar = y/(x - a)``
    with ``ybar^2 = c*x``; ``y^3 + alpha*y*x + beta*x^5`` (weights 5,3) has
    closure generated by ``y^2/x`` and ``y``.  Both closed forms hold for all
    nonzero coefficients, so every problem has a known exact answer.
    """
    rng = random.Random(seed)
    out = []
    for i in range(TALL_PROBLEMS):
        if i % 2 == 0:
            c, a = _coefficient(rng), _coefficient(rng)
            relation = ("y^2" + _signed(-c, "x^3") + _signed(2 * a * c, "x^2")
                        + _signed(-a * a * c, "x"))
            text = problem_text([[3, 2]], relation)
            expect = {"kind": "quadratic", "c": _q(c), "a": _q(a)}
        else:
            alpha, beta = _coefficient(rng), _coefficient(rng)
            relation = "y^3" + _signed(alpha, "y*x") + _signed(beta, "x^5")
            text = problem_text([[5, 3]], relation)
            expect = {"kind": "cubic", "alpha": _q(alpha), "beta": _q(beta)}
        out.append(Solve(f"tall-{i:03d}", f"tall-{i:03d}.txt", text,
                         ("--format", "structured"), expect))
    return out


def solves_for(workload: str, seed: int) -> list[Solve]:
    if workload == "sextic-char0":
        return sextic_solves()
    if workload == "octic-charq":
        return octic_solves()
    if workload == "tall-char0":
        return tall_solves(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_args(workload: str, solves: list[Solve]) -> list[tuple]:
    """Argument lists of the untimed warm-up pass.

    A full sextic solve takes about as long as the whole timed run, so its
    warm-up pins the schedule to one prime: the same problem file and every
    stage of the char-0 pipeline (conductor, closure, CRT, lift,
    certificate) at a fraction of the cost.  The other workloads warm up on
    one full pass.
    """
    if workload == "sextic-char0":
        return [(s.file, "--primes", "7", "--format", "structured") for s in solves]
    return [(s.file,) + s.args for s in solves]


def write_problems(solves: list[Solve], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for s in solves:
        with open(os.path.join(out_dir, s.file), "w", encoding="utf-8") as fh:
            fh.write(s.text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import intclose.cli  # noqa: F401  the import a user's cold process pays
    write_problems(solves_for(args.workload, args.seed), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
