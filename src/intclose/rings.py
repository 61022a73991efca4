"""Rings of sparse multivariate polynomials over an exact domain.

A :class:`Ring` fixes the variable layout (dependent variables first), the
coefficient domain, the active matrix monomial order and an optional weight
matrix.  :class:`Polynomial` keeps a tuple of (monomial, coefficient) terms,
strictly descending under the ring order, with no zero coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .domains import Domain, balanced
from .orders import MonomialOrder, mono_mul, mono_one
from .weights import WeightMatrix


class RingError(ValueError):
    """Raised for mismatched rings or malformed ring data."""


@dataclass(frozen=True)
class Ring:
    """A polynomial ring presentation: names, split, domain, order, weights."""

    names: tuple[str, ...]
    ndep: int
    domain: Domain
    order: MonomialOrder
    weights: WeightMatrix | None = None

    def __post_init__(self):
        if not (0 <= self.ndep <= len(self.names)):
            raise RingError("dependent count out of range")
        if len(set(self.names)) != len(self.names):
            raise RingError("duplicate variable names")
        if self.order.nvars != len(self.names):
            raise RingError("order matrix does not match variable count")

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def nindep(self) -> int:
        return len(self.names) - self.ndep

    def with_domain(self, domain: Domain) -> "Ring":
        return replace(self, domain=domain)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise RingError(f"unknown variable {name!r}") from None

    # construction -------------------------------------------------------

    def poly(self, terms: dict) -> "Polynomial":
        """Canonicalize a monomial -> coefficient mapping into a Polynomial, for input from
        outside the arithmetic (the parser, tests).  ``+``, ``*``, ``module_reduce`` and a
        record's Polynomials, built when read, use ``_sorted``."""
        dom = self.domain
        clean = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != self.nvars or any(e < 0 for e in mono):
                raise RingError(f"bad exponent vector {mono}")
            c = dom.convert(c)
            if not dom.is_zero(c):
                clean[mono] = c
        return self._sorted(clean)

    def _sorted(self, terms: dict) -> "Polynomial":
        """A Polynomial from canonical nonzero coefficients on valid monomials."""
        ordered = sorted(terms, key=self.order.key, reverse=True)
        return Polynomial(self, tuple((m, terms[m]) for m in ordered))

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def const(self, c) -> "Polynomial":
        return self.poly({mono_one(self.nvars): c})

    def one(self) -> "Polynomial":
        return self.const(1)

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.poly({mono: 1})

    def parse(self, text: str) -> "Polynomial":
        return _parse(self, text)

    def __repr__(self):
        dep = ",".join(self.names[: self.ndep])
        ind = ",".join(self.names[self.ndep:])
        return f"Ring({self.domain!r}[{dep};{ind}])"


class Polynomial:
    """Immutable sparse polynomial with order-sorted terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def lm(self):
        if not self.terms:
            raise RingError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    @property
    def lc(self):
        if not self.terms:
            raise RingError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def coeff_of(self, mono) -> object:
        mono = tuple(mono)
        for m, c in self.terms:
            if m == mono:
                return c
        return self.ring.domain.zero

    def degree_in(self, var_index: int) -> int:
        if not self.terms:
            return -1
        return max(m[var_index] for m, _ in self.terms)

    def is_monic(self) -> bool:
        return bool(self.terms) and self.ring.domain.is_one(self.lc)

    def in_subring(self, start: int) -> bool:
        """True when no variable before ``start`` occurs (e.g. start=ndep: lies in P)."""
        return all(not any(m[:start]) for m, _ in self.terms)

    # arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingError("polynomials from different rings")

    def __add__(self, other):
        self._check(other)
        dom = self.ring.domain
        acc = dict(self.terms)
        for m, c in other.terms:
            s = dom.add(acc.get(m, dom.zero), c)
            if dom.is_zero(s):
                acc.pop(m, None)
            else:
                acc[m] = s
        return self.ring._sorted(acc)

    def __neg__(self):
        dom = self.ring.domain
        return Polynomial(self.ring, tuple((m, dom.neg(c)) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        dom = self.ring.domain
        acc: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                s = dom.add(acc.get(m, dom.zero), dom.mul(c1, c2))
                if dom.is_zero(s):
                    acc.pop(m, None)
                else:
                    acc[m] = s
        return self.ring._sorted(acc)

    def __pow__(self, k: int):
        if k < 0:
            raise RingError("negative power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scale(self, c) -> "Polynomial":
        dom = self.ring.domain
        c = dom.convert(c)
        if dom.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, tuple((m, dom.mul(cc, c)) for m, cc in self.terms))

    def divide_scalar(self, c) -> "Polynomial":
        dom = self.ring.domain
        c = dom.convert(c)
        return Polynomial(self.ring, tuple((m, dom.div(cc, c)) for m, cc in self.terms))

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return self.divide_scalar(self.lc)

    def mul_term(self, mono, c=1) -> "Polynomial":
        """Multiply by the single term c * x^mono (preserves term order)."""
        dom = self.ring.domain
        c = dom.convert(c)
        if dom.is_zero(c):
            return self.ring.zero()
        mono = tuple(mono)
        return Polynomial(self.ring, tuple((mono_mul(m, mono), dom.mul(cc, c))
                                           for m, cc in self.terms))

    # comparisons --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, self.terms))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)}>"


# ---------------------------------------------------------------------------
# printing


def _coeff_str(c, domain: Domain) -> str:
    if domain.char:
        c = balanced(c, domain.char)
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def mono_str(mono, names) -> str:
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: Polynomial) -> str:
    """Canonical text form, e.g. ``y^2*x - 15/17*x^4 + 1``."""
    if p.is_zero():
        return "0"
    dom = p.ring.domain
    out = []
    for m, c in p.terms:
        cs = _coeff_str(c, dom)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        ms = mono_str(m, p.ring.names)
        if ms and mag == "1":
            body = ms
        elif ms:
            body = f"{mag}*{ms}"
        else:
            body = mag
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def number(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start:self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a name", start)
        return self.text[start:self.pos]


def _parse(ring: Ring, text: str) -> Polynomial:
    toks = _Tokens(text)
    p = _parse_expr(ring, toks)
    toks.skip_ws()
    if toks.pos != len(text):
        raise ParseError("trailing input", toks.pos)
    return p


def _parse_expr(ring: Ring, toks: _Tokens) -> Polynomial:
    sign = 1
    if toks.peek() in ("+", "-"):
        sign = -1 if toks.take() == "-" else 1
    p = _parse_term(ring, toks).scale(sign)
    while toks.peek() in ("+", "-"):
        op = toks.take()
        q = _parse_term(ring, toks)
        p = p - q if op == "-" else p + q
    return p


def _parse_term(ring: Ring, toks: _Tokens) -> Polynomial:
    p = _parse_factor(ring, toks)
    while toks.peek() == "*":
        toks.take()
        p = p * _parse_factor(ring, toks)
    return p


def _parse_factor(ring: Ring, toks: _Tokens) -> Polynomial:
    base = _parse_atom(ring, toks)
    if toks.peek() == "^":
        toks.take()
        return base ** toks.number()
    return base


def _parse_atom(ring: Ring, toks: _Tokens) -> Polynomial:
    ch = toks.peek()
    if ch == "(":
        toks.take()
        p = _parse_expr(ring, toks)
        toks.expect(")")
        return p
    if ch.isdigit():
        num = toks.number()
        if toks.peek() == "/":
            toks.take()
            den = toks.number()
            if den == 0:
                raise ParseError("zero denominator", toks.pos)
            return ring.const(Fraction(num, den))
        return ring.const(num)
    if ch.isalpha() or ch == "_":
        pos = toks.pos
        name = toks.name()
        try:
            return ring.var(name)
        except RingError:
            raise ParseError(f"unknown variable {name!r}", pos) from None
    raise ParseError("expected a factor", toks.pos)
