"""Exactness checks of ``intclose --format structured`` output.

The checks do not trust the program's own certificate: polynomials in the
output are parsed here, independently of ``intclose.rings``, and compared as
exact term maps with the reference data stored with the benchmark, or with
closed forms of the generated curve families.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


class CheckError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: Fraction}


def _add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + sign * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


class _Parser:
    """Sums, products, powers, parentheses and rational literals ``p/q``."""

    def __init__(self, text: str, names):
        self.names = tuple(names)
        self.toks = []
        for num, name, op in _TOKEN.findall(text):
            if num:
                self.toks.append(("num", int(num)))
            elif name:
                self.toks.append(("name", name))
            elif op.strip():
                self.toks.append(("op", op))
        self.pos = 0

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else ("end", None)

    def _take(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _const(self, c) -> dict:
        return {(0,) * len(self.names): Fraction(c)} if c else {}

    def parse(self) -> dict:
        out = self._expr()
        if self._peek()[0] != "end":
            raise CheckError(f"trailing input at token {self.pos}")
        return out

    def _expr(self) -> dict:
        sign = 1
        if self._peek() == ("op", "-"):
            self._take()
            sign = -1
        acc = _add({}, self._term(), sign)
        while self._peek() in (("op", "+"), ("op", "-")):
            sign = 1 if self._take()[1] == "+" else -1
            acc = _add(acc, self._term(), sign)
        return acc

    def _term(self) -> dict:
        acc = self._factor()
        while self._peek() == ("op", "*"):
            self._take()
            acc = _mul(acc, self._factor())
        return acc

    def _factor(self) -> dict:
        base = self._atom()
        if self._peek() != ("op", "^"):
            return base
        self._take()
        kind, e = self._take()
        if kind != "num":
            raise CheckError("exponent must be a non-negative integer")
        out = self._const(1)
        for _ in range(e):
            out = _mul(out, base)
        return out

    def _atom(self) -> dict:
        kind, val = self._take()
        if kind == "num":
            if self._peek() == ("op", "/"):
                self._take()
                kind2, den = self._take()
                if kind2 != "num" or den == 0:
                    raise CheckError("bad rational literal")
                return self._const(Fraction(val, den))
            return self._const(val)
        if kind == "name":
            if val not in self.names:
                raise CheckError(f"unknown variable {val!r}")
            return {tuple(int(n == val) for n in self.names): Fraction(1)}
        if (kind, val) == ("op", "("):
            inner = self._expr()
            if self._take() != ("op", ")"):
                raise CheckError("unbalanced parenthesis")
            return inner
        raise CheckError(f"unexpected token {val!r}")


def parse_poly(text: str, names) -> frozenset:
    """Exact term set of a polynomial over Q in the given variables."""
    return frozenset(_Parser(text, names).parse().items())


def _poly_set(texts, names) -> list:
    return sorted((parse_poly(t, names) for t in texts), key=sorted)


# ---------------------------------------------------------------------------
# per-kind expectations


def _fraction_names(count: int) -> tuple:
    """Output variable names of the closure ring for ``count`` fractions."""
    if count == 1:
        return ("ybar", "x")
    return tuple(f"ybar{j}" for j in range(count, 0, -1)) + ("x",)


def _closure_expect(expect: dict) -> dict:
    """Delta, numerators, relations, psi and weights a char-0 solve must give."""
    kind = expect["kind"]
    if kind == "sextic":
        ref = expect["reference"]
        return dict(ref, out_names=_fraction_names(len(ref["numerators"]) - 1))
    if kind == "quadratic":
        c, a = f"({expect['c']})", f"({expect['a']})"
        return {"delta": f"x - {a}", "numerators": ["y", f"x - {a}"],
                "relations": [f"ybar^2 - {c}*x"], "psi": f"ybar*(x - {a})",
                "induced_weights": [[1, 2]], "out_names": _fraction_names(1)}
    if kind == "cubic":
        al, be = f"({expect['alpha']})", f"({expect['beta']})"
        return {"delta": "x", "numerators": ["y^2", "y*x", "x"],
                "relations": [f"ybar2^2 + {al}*ybar2 + {be}*ybar1*x^3",
                              f"ybar2*ybar1 + {al}*ybar1 + {be}*x^4",
                              "ybar1^2 - ybar2*x"],
                "psi": "ybar1", "induced_weights": [[7, 5, 3]],
                "out_names": _fraction_names(2)}
    raise CheckError(f"unknown expectation kind {kind!r}")


def _check_char0(doc: dict, want: dict) -> list[str]:
    bad = []
    cert = doc.get("certificate") or {}
    if doc.get("mode") != "char0" or doc.get("accepted") is not True:
        bad.append("not an accepted char0 result")
        return bad
    if not (cert.get("accepted") is True
            and all(ok for _, ok in cert.get("per_prime", []))):
        bad.append("certificate not accepted at every prime")
    inp, out = ("y", "x"), want["out_names"]
    if "conductor" in want and (parse_poly(doc["conductor"], inp)
                                != parse_poly(want["conductor"], inp)):
        bad.append("conductor differs")
    if "primes" in want and doc["primes"] != want["primes"]:
        bad.append(f"primes {doc['primes']} != {want['primes']}")
    if parse_poly(doc["delta"], inp) != parse_poly(want["delta"], inp):
        bad.append("delta differs")
    if _poly_set(doc["numerators"], inp) != _poly_set(want["numerators"], inp):
        bad.append("numerators differ")
    if _poly_set(doc["relations"], out) != _poly_set(want["relations"], out):
        bad.append("relations differ")
    if parse_poly(doc["psi"], out) != parse_poly(want["psi"], out):
        bad.append("psi differs")
    if doc["induced_weights"] != want["induced_weights"]:
        bad.append("induced weights differ")
    return bad


def check_output(expect: dict, rc, stdout: str) -> list[str]:
    """Reasons the solve is wrong; an empty list means exact agreement."""
    if rc != 0:
        return [f"exit status {rc}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if expect["kind"] == "document":
        return [] if doc == expect["document"] else ["output differs from the reference"]
    try:
        return _check_char0(doc, _closure_expect(expect))
    except (CheckError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]


def primes_record(stdout: str) -> dict:
    """Primes tried (used or skipped) and used by one char-0 solve."""
    doc = json.loads(stdout)
    used = list(doc.get("primes", []))
    skipped = [s["q"] for s in doc.get("skipped", [])]
    return {"tried": sorted(used + skipped), "used": used}
