"""The oracles' partial derivatives, F_q[x] arithmetic, and canonical conductor elements."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intclose import (GF, QQ, ConductorError, DomainError, DriverError, canonical_conductor,
                      is_prime, normal_form, run_algorithm1, run_charq)
from intclose.xpoly import mod_q, monic_gcd, quo_rem, sub_dot
from conftest import CURVES, conductor_of, curve_ring, make_curve, tail_of
from oracles import (conductor_by_module_basis, conductor_oracle, exact_divide, gcd_in_p,
                     mu_poly, partial_derivative)


def test_partial_derivatives_basic():
    ring = curve_ring((1, 1))
    f = ring.parse("y^2 - x")
    assert partial_derivative(f, 0) == ring.parse("2*y")
    assert partial_derivative(f, 1) == ring.parse("-1")


def test_partial_derivative_radical_curve():
    ring, f = make_curve("radical")
    assert partial_derivative(f, 0) == ring.parse("2*y")
    assert partial_derivative(f, 1) == ring.parse(
        "13/22*(9*x^8 + 7*x^6 + 5*x^4)")


def _derivative_oracle(p, var):
    """Term-by-term power rule, written independently of the implementation."""
    acc = {}
    for mono, c in p.terms:
        e = mono[var]
        if e:
            m = list(mono)
            m[var] -= 1
            acc[tuple(m)] = c * e
    return p.ring.poly(acc)


def test_derivative_matches_oracle_on_sextic():
    ring, f = make_curve("sextic")
    for var in (0, 1):
        assert partial_derivative(f, var) == _derivative_oracle(f, var)


CONDUCTOR_TABLE = [
    ("octic", None, "x^24"),
    ("octic", 2, "x^26"),
    ("octic", 3, "x^27"),
    ("octic", 5, "x^26*(x^3 + 1)^5"),
    ("octic", 7, "x^24"),
    ("octic", 11, "x^24"),
    ("radical", None, "x^4"),
    ("radical", 3, "x^6 - x^4"),
    ("radical", 5, "x^5"),
    ("quadratic", None, "x - 8/7"),
    ("quadratic", 5, "x + 1"),
    ("quadratic", 11, "x + 2"),
    ("quadratic", 13, "x - 3"),
    ("trident", None, "x"),
    ("trident", 2, "x^6"),
    ("sextic", None, "x^9"),
]


@pytest.mark.parametrize("name,q,expect", CONDUCTOR_TABLE)
def test_conductor_values(name, q, expect):
    ring, f = make_curve(name, q=q)
    delta, B = conductor_of(f)
    assert delta == ring.parse(expect)
    assert delta.is_monic()
    assert delta.in_subring(ring.ndep)
    assert q is None or B == 1     # over GF(q) no row is scaled by an integer


def test_rational_B_of_the_readme_quadratic():
    # B takes the factors of the sweep's rows only: its 2d generators are
    # y^k*f_y and y^k*f_x mod f for k < d, and y^d*f_y, y^d*f_x are no rows
    assert conductor_of(make_curve("quadratic")[1])[1] == -2 ** 11 * 3 ** 4 * 7 ** 8


@pytest.mark.parametrize("name,primes", [
    ("quadratic", (5, 11, 13, 17, 19)),
    ("trident", (3, 7, 13)),
    ("cubic_family", (5, 11, 13)),
])
def test_per_prime_conductor_matches_rational_reduction(name, primes):
    ring, f = make_curve(name)
    delta0 = conductor_of(f)[0]
    for q in primes:
        ring_q, f_q = make_curve(name, q=q)
        assert conductor_of(f_q)[0] == mu_poly(delta0, ring_q)


def test_degenerate_extension_raises():
    ring = curve_ring((1, 1), GF(13))
    with pytest.raises(ConductorError):
        canonical_conductor(tail_of(ring.parse("y^2")), ring)


def test_integrally_closed_curve_has_unit_conductor():
    ring, f = make_curve("parabola")
    assert conductor_of(f)[0] == ring.one()


def _monic_in_y(draw, ring, coeffs, d):
    """y^d plus a few random terms of y-degree below d and x-degree <= 4."""
    terms = draw(st.dictionaries(st.tuples(st.integers(0, d - 1), st.integers(0, 4)),
                                 coeffs, max_size=4))
    terms[(d, 0)] = 1
    return ring.poly(terms)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_conductor_matches_ideal_oracle(data):
    # (f_y, f_x)*S meets P exactly where (f, f_y, f_x) does
    q = data.draw(st.sampled_from([None, 2, 3, 5, 7, 13]), label="q")
    ring = curve_ring((1, 1), QQ if q is None else GF(q))
    if q is None:
        coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    else:
        coeffs = st.integers(0, q - 1)
    if data.draw(st.booleans(), label="squarefree"):
        f = _monic_in_y(data.draw, ring, coeffs, data.draw(st.integers(1, 4)))
        try:
            expect = conductor_oracle(f)
        except ConductorError:
            with pytest.raises(ConductorError):
                conductor_of(f)
            return
        assert conductor_of(f)[0] == expect
        return
    # g^2 divides f: the ideal lies in (g), which meets P only in zero
    g = _monic_in_y(data.draw, ring, coeffs, data.draw(st.integers(1, 2)))
    h = _monic_in_y(data.draw, ring, coeffs, data.draw(st.integers(1, 2)))
    f = g * g * h
    with pytest.raises(ConductorError):
        conductor_oracle(f)
    with pytest.raises(ConductorError):
        conductor_of(f)


PRIMES_BELOW_200 = [q for q in range(2, 200) if is_prime(q)]


@st.composite
def content_curves(draw):
    """Relations over Q whose y^i-coefficients each carry a content of small
    primes, so some rows of the sweep are divisible by primes that divide no
    leading coefficient."""
    ring = curve_ring((1, 1))
    d = draw(st.integers(2, 5), label="d")
    contents = st.lists(st.sampled_from([1, 2, 3, 5, 7, 11, 13]), max_size=3).map(math.prod)
    terms = {(d, 0): 1}
    for i in range(d):
        content = draw(contents, label=f"content{i}")
        for e, c in draw(st.dictionaries(st.integers(0, 3), st.builds(
                Fraction, st.integers(-6, 6), st.integers(1, 3)), max_size=3)).items():
            terms[(i, e)] = content * c
    return ring.poly(terms)


@settings(max_examples=60, deadline=None)
@given(content_curves())
def test_lucky_primes_keep_the_rational_conductor(f):
    try:
        delta0, B = conductor_of(f)
    except ConductorError:
        return
    for q in PRIMES_BELOW_200:
        if B % q:
            ring_q = f.ring.with_domain(GF(q))
            assert conductor_of(mu_poly(f, ring_q))[0] == mu_poly(delta0, ring_q)


def _delta_or_error(tail, ring, *checkpoints):
    try:
        return canonical_conductor(tail, ring, *checkpoints)[0]
    except ConductorError as exc:
        return f"ConductorError: {exc}"


@settings(max_examples=60, deadline=None)
@given(content_curves())
def test_resumed_conductor_matches_the_conductor_of_f_mod_q(f):
    # a prime that divides B and passes the coefficient checks resumes the
    # rational sweep at its last checkpoint before a factor that q divides
    tail = tail_of(f)
    try:
        _, B, checkpoints = canonical_conductor(tail, f.ring)
    except ConductorError:
        return
    for q in PRIMES_BELOW_200:
        if B % q:
            continue
        try:
            tail_q = [mod_q(a, q) for a in tail]
        except ValueError:             # q divides a denominator
            continue
        if sum(map(len, tail_q)) == sum(map(len, tail)):      # nor a numerator
            ring_q = f.ring.with_domain(GF(q))
            assert (_delta_or_error(tail_q, ring_q, checkpoints)
                    == _delta_or_error(tail_q, ring_q)), q


def test_sextic_primes_that_divide_B_resume_at_their_columns():
    ring, f = make_curve("sextic")
    tail = tail_of(f)
    delta0, B, checkpoints = canonical_conductor(tail, ring)
    assert [c for c, _, _ in checkpoints] == [5, 4, 3, 2, 1, 0]
    resumed = {}
    for q in (7, 11, 13, 19, 29):
        assert B % q == 0
        resumed[q] = next(c for c, _, b in reversed(checkpoints) if b % q)
        tail_q, ring_q = [mod_q(a, q) for a in tail], ring.with_domain(GF(q))
        assert canonical_conductor(tail_q, ring_q, checkpoints)[0] == mod_q(delta0, q)
    assert resumed == {7: 2, 11: 1, 13: 1, 19: 1, 29: 0}


def _conductor_or_error(route, f, ring):
    try:
        return route(f, ring)
    except ConductorError as exc:
        return f"ConductorError: {exc}"


def assert_routes_agree(f, ring):
    assert (_conductor_or_error(lambda f, r: conductor_of(f)[0], f, ring)
            == _conductor_or_error(conductor_by_module_basis, f, ring))


@pytest.mark.parametrize("name", sorted(CURVES))
def test_triangularization_matches_module_basis_on_fixtures(name):
    checked = 0
    for q in [None, *filter(is_prime, range(2, 54))]:
        try:
            ring, f = make_curve(name, q=q)
        except DomainError:            # q divides a coefficient denominator
            continue
        assert_routes_agree(f, ring)
        checked += 1
    assert checked >= 13


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triangularization_matches_module_basis(data):
    q = data.draw(st.sampled_from([2, 3, 5, 7, 13, 29, 53]), label="q")
    ring = curve_ring((data.draw(st.integers(1, 5), label="wy"),
                       data.draw(st.integers(1, 5), label="wx")), GF(q))
    d = data.draw(st.integers(1, 8), label="d")
    terms = data.draw(st.dictionaries(st.tuples(st.integers(0, d - 1), st.integers(0, 12)),
                                      st.integers(1, q - 1), max_size=8), label="tail")
    terms[(d, 0)] = 1
    f = ring.poly(terms)
    if d <= 4 and data.draw(st.booleans(), label="square factor"):
        f = f * f                      # the ideal lies in (f): both routes raise
    assert_routes_agree(f, ring)


# numerators and denominators up to 10^5, as in the `tall-char0` benchmark curves
_BIG_RATIONALS = st.builds(Fraction, st.integers(-10 ** 5, 10 ** 5).filter(bool),
                           st.integers(1, 10 ** 5))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_triangularization_matches_module_basis_over_q(data):
    # the fraction-free sweep: the same Delta, or the same error when g^2 divides f
    ring = curve_ring((data.draw(st.integers(1, 5), label="wy"),
                       data.draw(st.integers(1, 5), label="wx")), QQ)
    if data.draw(st.booleans(), label="square factor"):
        g = _monic_in_y(data.draw, ring, _BIG_RATIONALS, data.draw(st.integers(1, 2)))
        h = _monic_in_y(data.draw, ring, _BIG_RATIONALS, data.draw(st.integers(1, 2)))
        f = g * g * h
    else:
        f = _monic_in_y(data.draw, ring, _BIG_RATIONALS, data.draw(st.integers(1, 6)))
    assert_routes_agree(f, ring)


@pytest.mark.parametrize("domain", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("weights,text,message", [
    ((1, 1, 1), "y^2 - x2*x1", "conductor supports rings F[y; x] only"),
    ((3, 2), "2*y^2 - x^3", "relation is not monic in the dependent variable"),
    ((3, 1), "y^2 + y^2*x - x^3", "no weight function: maximal-weight monomials {y^2*x}"),
    ((1, 1), "y^2", "degenerate extension: no conductor entries in P"),
], ids=["two-independent", "not-monic", "top-term-in-x", "degenerate"])
def test_conductor_error_texts(domain, weights, text, message):
    # the conductor takes f's tail, which cannot be non-monic: a relation
    # that is not y^d plus lower terms is refused where its tail is taken, by
    # the entry point of the domain's mode (``validate_problem``)
    ring = curve_ring(weights, domain)
    f = ring.parse(text)
    if "monic" in message or "weight" in message:
        with pytest.raises(DriverError, match=f"^{re.escape(message)}$"):
            run_algorithm1(f) if domain == QQ else run_charq(f)
        return
    tail = tail_of(f) if ring.nindep == 1 else [{0: -1}, {}]     # by_y reads y and x only
    with pytest.raises(ConductorError, match=f"^{re.escape(message)}$"):
        canonical_conductor(tail, ring)


# ---------------------------------------------------------------------------
# F_q[x] arithmetic on coefficient dicts


def xpoly(ring, text):
    """The x-exponent -> coefficient dict of a polynomial of P."""
    return {m[1]: c for m, c in ring.parse(text).terms}


def test_gcd_univariate():
    ring = curve_ring((1, 1), GF(7))
    a, b = xpoly(ring, "x^3 - x"), xpoly(ring, "x^2 - 1")
    assert monic_gcd(a, b, 7) == b
    # x^2 + 1 is irreducible mod 7 and coprime to x(x-1)(x+1)
    assert monic_gcd(a, xpoly(ring, "x^2 + 1"), 7) == {0: 1}


def test_gcd_with_zero_and_constants():
    ring = curve_ring((1, 1), GF(7))
    x = xpoly(ring, "x")
    assert monic_gcd({}, x, 7) == x
    assert monic_gcd(x, {}, 7) == x
    assert monic_gcd({}, {}, 7) == {}
    assert monic_gcd({0: 6}, {0: 4}, 7) == {0: 1}


def test_gcd_mod_q():
    ring = curve_ring((1, 1), GF(3))
    a = xpoly(ring, "x^9 + x^7 + x^5")
    b = xpoly(ring, "x^6 + 2*x^4")
    assert monic_gcd(a, b, 3) == xpoly(ring, "x^6 - x^4")


SMALL_PRIMES = [p for p in range(5, 54) if is_prime(p)]


@st.composite
def xpoly_cases(draw):
    """(q, a, s, b, m): elements of F_q[x] as x-exponent -> coefficient dicts, m != 0."""
    q = draw(st.sampled_from(SMALL_PRIMES), label="q")
    xpolys = st.dictionaries(st.integers(0, 12), st.integers(1, q - 1), max_size=8)
    a, s, b = (draw(xpolys, label=name) for name in "asb")
    return q, a, s, b, draw(xpolys.filter(bool), label="m")


@settings(max_examples=200, deadline=None)
@given(xpoly_cases())
# a non-monic monomial divisor with dividend terms above and below it (the
# shift's quotient), and a dividend of lower degree than the divisor
@example((7, {9: 2, 6: 5, 4: 1, 1: 3}, {1: 2}, {2: 6}, {4: 3}))
@example((7, {3: 4, 0: 1}, {}, {1: 1}, {5: 2, 1: 6}))
def test_xpoly_routines_match_polynomial_references(case):
    q, a, s, b, m = case
    ring = curve_ring((1, 1), GF(q))

    def poly(p):
        return ring.poly({(0, e): c for e, c in p.items()})

    quot, rem = quo_rem(a, m, q)
    assert poly(a) == poly(quot) * poly(m) + poly(rem)
    assert all(0 < c < q for c in [*quot.values(), *rem.values()])
    assert max(rem, default=-1) < max(m)
    assert poly(rem) == normal_form(poly(a), [poly(m)])
    assert quo_rem(rem, m, q) == ({}, rem)
    prod = poly(a) * poly(m)
    assert quo_rem({e: c for (_, e), c in prod.terms}, m, q) == (a, {})
    assert poly(a) == exact_divide(prod, poly(m))
    assert poly(monic_gcd(a, m, q)) == gcd_in_p(poly(a), poly(m))
    assert poly(sub_dot(a, ((s, b),), q)) == poly(a) - poly(s) * poly(b)


def test_exact_divide_roundtrip():
    ring, f = make_curve("sextic")
    g = ring.parse("x^3") * f
    assert exact_divide(g, ring.parse("x^3")) == f
    from intclose import RingError
    with pytest.raises(RingError):
        exact_divide(f, ring.parse("x"))
