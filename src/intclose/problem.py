"""Problem files: the line-oriented input format of the command line tool.

::

    indvars: x
    depvar: y
    weights: [[3,2]]
    relation: y^2 - 3/2*x^3 + 24/7*x^2 - 96/49*x
    characteristic: 7       # optional

Weight columns follow the variable layout (dependent variable first).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .domains import GF, QQ, Domain, DomainError
from .orders import weight_over_grevlex
from .rings import ParseError, Polynomial, Ring
from .weights import normalize_weights


class ProblemError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemFile:
    indvars: tuple
    depvar: str
    weights: tuple
    relation_text: str
    characteristic: int | None = None
    # ring -> relation: a run over the ring ``parse_problem`` checked reuses its parse
    _parsed: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def names(self) -> tuple:
        return (self.depvar,) + self.indvars

    def ring(self, domain: Domain | None = None) -> Ring:
        dom = domain if domain is not None else (
            GF(self.characteristic) if self.characteristic else QQ)
        nvars = len(self.names)
        return Ring(self.names, 1, dom, weight_over_grevlex(self.weights, nvars),
                    self.weights)

    def relation(self, ring: Ring | None = None) -> Polynomial:
        """The relation over ring (the problem's own by default), parsed once per ring."""
        ring = ring if ring is not None else self.ring()
        if (f := self._parsed.get(ring)) is not None:
            return f
        try:
            f = ring.parse(self.relation_text)
        except ParseError as exc:
            raise ProblemError(f"relation does not parse: {exc}") from None
        except DomainError as exc:  # a coefficient denominator divisible by q
            raise ProblemError(f"relation has no image in {ring.domain}: {exc}") from None
        d = f.degree_in(0)
        if d < 1:
            raise ProblemError("relation must involve the dependent variable")
        lead = tuple(d if i == 0 else 0 for i in range(ring.nvars))
        if f.coeff_of(lead) != ring.domain.one:
            raise ProblemError(
                f"relation is not monic in the dependent variable {self.depvar!r}")
        self._parsed[ring] = f
        return f


def parse_problem(text: str) -> ProblemFile:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key in fields:
            raise ProblemError(f"line {lineno}: duplicate field {key!r}")
        fields[key] = value.strip()
    for req in ("indvars", "depvar", "weights", "relation"):
        if req not in fields:
            raise ProblemError(f"missing field {req!r}")
    unknown = set(fields) - {"indvars", "depvar", "weights", "relation",
                             "characteristic"}
    if unknown:
        raise ProblemError(f"unknown fields: {sorted(unknown)}")
    indvars = tuple(v.strip() for v in fields["indvars"].split(",") if v.strip())
    if not indvars:
        raise ProblemError("indvars must list at least one variable")
    for i, v in enumerate(indvars):
        if not v.isidentifier():
            raise ProblemError(f"bad independent variable name {v!r}")
        if v in indvars[:i]:
            raise ProblemError(f"independent variable {v!r} repeated")
    depvar = fields["depvar"]
    if not depvar.isidentifier():
        raise ProblemError(f"bad dependent variable name {depvar!r}")
    if depvar in indvars:
        raise ProblemError("dependent variable repeated among independents")
    try:
        rows = ast.literal_eval(fields["weights"])
    except (ValueError, SyntaxError):
        raise ProblemError("weights must be a list of integer rows") from None
    if isinstance(rows, (list, tuple)) and rows and isinstance(rows[0], int):
        rows = [rows]
    try:
        weights = normalize_weights(rows, 1 + len(indvars))
    except Exception as exc:
        raise ProblemError(f"bad weight matrix: {exc}") from None
    char = None
    if "characteristic" in fields:
        try:
            char = int(fields["characteristic"])
        except ValueError:
            raise ProblemError("characteristic must be an integer") from None
        try:
            GF(char)
        except DomainError as exc:
            raise ProblemError(f"characteristic {exc}") from None
    pf = ProblemFile(indvars, depvar, weights, fields["relation"], char)
    pf.relation()  # validate eagerly: parse + monic check
    return pf
