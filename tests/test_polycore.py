"""Domains, monomial orders, weights, polynomial arithmetic, and parsing."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intclose import (GF, QQ, Domain, DomainError, OrderError, Ring,
                      RingError, WeightError, format_poly, grevlex_over_weight,
                      module_reduce, normal_form, normalize_weights,
                      validate_weight_function, weight_of, weight_over_grevlex)
from intclose.groebner import reduce_terms
from conftest import CURVES, curve_ring, make_curve
from oracles import completed_rows, dep_block, grevlex, key_sign, reduce_terms_scan


# ---------------------------------------------------------------------------
# domains


def test_rational_domain_reduces():
    assert QQ.convert(Fraction(4, 6)) == Fraction(2, 3)
    assert QQ.convert(Fraction(1, -3)) == Fraction(-1, 3)
    assert QQ.convert(Fraction(1, -3)).denominator == 3
    assert QQ.div(1, 2) == Fraction(1, 2) and QQ.div(3, 3) == 1
    assert type(QQ.div(1, 2)) is Fraction and type(QQ.div(3, 3)) is Fraction


def test_modp_canonical_range():
    F = GF(7)
    assert F.convert(-1) == 6
    assert F.convert(Fraction(1, 3)) == 5  # 3*5 = 15 = 1 mod 7
    with pytest.raises(DomainError):
        F.convert(Fraction(1, 7))


def test_division_errors():
    with pytest.raises(DomainError):
        QQ.div(Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        GF(5).div(1, 0)


def test_modp_requires_prime():
    with pytest.raises(DomainError):
        Domain(6)
    # a domain is its characteristic, and 0 is Q's, so GF refuses it itself
    assert Domain(0) == QQ
    with pytest.raises(DomainError, match="^0 is not prime$"):
        GF(0)


# ---------------------------------------------------------------------------
# orders


def _grevlex_oracle(a, b):
    """Textbook grevlex: total degree, then smaller last differing exponent wins."""
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def test_grevlex_matches_textbook_oracle():
    order = grevlex(2)
    monos = [(i, j) for i in range(7) for j in range(7)]
    for a, b in product(monos, monos):
        assert key_sign(order.key, a, b) == _grevlex_oracle(a, b)


def test_grevlex_three_vars_oracle():
    order = grevlex(3)
    monos = [m for m in product(range(4), repeat=3)]
    for a, b in product(monos, monos):
        assert key_sign(order.key, a, b) == _grevlex_oracle(a, b)


def test_cmp_identity():
    order = weight_over_grevlex([[11, 6]], 2)
    assert key_sign(order.key, (2, 1), (2, 1)) == 0


def test_weight_tie_broken_toward_dependent_power():
    # y^6 and x^11 share weight 66; the dependent power must lead
    order = weight_over_grevlex([[11, 6]], 2)
    assert order.key((6, 0))[0] == order.key((0, 11))[0] == 66
    assert order.key((6, 0)) > order.key((0, 11))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(0, 8)] * 2), st.tuples(*[st.integers(0, 8)] * 2),
       st.tuples(*[st.integers(0, 8)] * 2))
def test_order_total_and_multiplicative(a, b, c):
    order = weight_over_grevlex([[5, 3]], 2)
    cmp_ab = key_sign(order.key, a, b)
    if a != b:
        assert cmp_ab != 0
    ac = tuple(x + y for x, y in zip(a, c))
    bc = tuple(x + y for x, y in zip(b, c))
    assert key_sign(order.key, ac, bc) == cmp_ab


def test_grevlex_over_weight_output_ring():
    # six-variable output ring with induced weights 25,21,20,11,10,6
    w = [[25, 21, 20, 11, 10, 6]]
    order = grevlex_over_weight(w, 5, 6)
    # any monomial with two ybar factors beats any with one
    two = (1, 1, 0, 0, 0, 0)
    one_heavy = (0, 0, 1, 0, 0, 9)  # ybar3 * x^9, weight 74
    assert order.key(two) > order.key(one_heavy)
    # among linear monomials the dependent grevlex block decides first
    ybar4 = (0, 1, 0, 0, 0, 0)
    ybar3x2 = (0, 0, 1, 0, 0, 2)
    assert order.key(ybar4) > order.key(ybar3x2)


def _grevlex_block(lo, hi, nvars):
    """Block total degree, then negated unit vectors from the block's last variable."""
    rows = [[1 if lo <= i < hi else 0 for i in range(nvars)]]
    rows += [[-1 if i == k else 0 for i in range(nvars)] for k in range(hi - 1, lo, -1)]
    return rows


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_orders_match_completed_matrix_oracle(data):
    # the orders keep linearly dependent rows; pruning them to a square
    # nonsingular matrix (the oracle) must not change any comparison
    nvars = data.draw(st.integers(1, 4))
    ndep = data.draw(st.integers(0, nvars))
    row = st.lists(st.integers(0, 9), min_size=nvars, max_size=nvars)
    weights = data.draw(st.lists(row, max_size=3))
    for extra in data.draw(st.lists(st.sampled_from(["zero", "repeat"]), max_size=2)):
        at = data.draw(st.integers(0, len(weights)))
        weights.insert(at, weights[-1] if extra == "repeat" and weights else [0] * nvars)
    monos = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * nvars),
                               min_size=2, max_size=8))
    g = _grevlex_block(0, nvars, nvars)
    dep, tail = _grevlex_block(0, ndep, nvars), _grevlex_block(ndep, nvars, nvars)
    cases = [(grevlex(nvars), g, []),
             (weight_over_grevlex(weights, nvars), weights, g[1:] + g[:1]),
             (grevlex_over_weight(weights, ndep, nvars), dep + weights, tail[1:] + tail[:1]),
             (dep_block(ndep, nvars), dep + tail, [])]
    for order, base, candidates in cases:
        ref = completed_rows(base, candidates, nvars)

        def ref_key(m, ref=ref):
            return tuple(sum(r * e for r, e in zip(row, m)) for row in ref)

        for a, b in product(monos, monos):
            assert key_sign(order.key, a, b) == key_sign(ref_key, a, b)


def test_order_dimension_mismatch():
    order = grevlex(2)
    with pytest.raises(OrderError):
        order.key((1, 2, 3))


# ---------------------------------------------------------------------------
# weights


def test_weight_of_constant_is_zero_vector():
    ring, _ = make_curve("cusp")
    assert weight_of(ring.const(7)) == (0,)


def test_weight_of_cusp_tie():
    ring, f = make_curve("cusp")
    assert weight_of(ring.parse("y^3")) == (15,)
    assert weight_of(ring.parse("x^5")) == (15,)
    assert weight_of(f) == (15,)


def test_vector_weights():
    ring = Ring(("x", "y", "z"), 1, QQ,
                weight_over_grevlex([[3, 6, 6], [2, 6, 0]], 3),
                ((3, 6, 6), (2, 6, 0)))
    assert weight_of(ring.parse("x^6")) == (18, 12)
    assert weight_of(ring.parse("y^2*z")) == (18, 12)


def test_validate_weight_function_accepts_cusp():
    _, f = make_curve("cusp")
    ok, top = validate_weight_function(f)
    assert ok


def test_validate_weight_function_rejects_mixed_pair():
    ring = curve_ring((3, 2))
    f = ring.parse("y^3 - x^3*y - x")
    ok, top = validate_weight_function(f)
    assert not ok
    assert set(top) == {(3, 0), (1, 3)}  # includes the mixed monomial x^3 y


def test_validate_weight_function_vector_case():
    ring = Ring(("x", "y", "z"), 1, QQ,
                weight_over_grevlex([[3, 6, 6], [2, 6, 0]], 3),
                ((3, 6, 6), (2, 6, 0)))
    f = ring.parse("x^6 + x^3*z - y^2*z")
    ok, _ = validate_weight_function(f)
    assert ok


def test_validate_requires_monic():
    ring = curve_ring((3, 2))
    with pytest.raises(WeightError):
        validate_weight_function(ring.parse("2*y^2 - x"))


def test_weight_additivity_on_homogeneous_parts():
    ring, _ = make_curve("cusp")
    rng = random.Random(7)
    monos = [(i, j) for i in range(4) for j in range(4)]
    for _ in range(50):
        f = ring.poly({rng.choice(monos): rng.randint(1, 9)})
        g = ring.poly({rng.choice(monos): rng.randint(1, 9)})
        wf, wg = weight_of(f), weight_of(g)
        assert weight_of(f * g) == tuple(a + b for a, b in zip(wf, wg))


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_add_zero_is_identity():
    ring, f = make_curve("quadratic")
    assert f + ring.zero() == f


def test_sextic_expansion_has_tie_monomials():
    ring, f = make_curve("sextic")
    assert f.coeff_of((6, 0)) == Fraction(1)
    assert f.coeff_of((0, 11)) == Fraction(-27)
    assert f.lm == (6, 0)  # y^6 leads despite the weight tie with x^11
    assert f.degree_in(0) == 6


def test_mul_against_naive_convolution():
    ring, _ = make_curve("cusp")
    rng = random.Random(41)

    def random_poly():
        return ring.poly({(rng.randint(0, 5), rng.randint(0, 5)):
                          Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(rng.randint(1, 6))})

    for _ in range(100):
        f, g = random_poly(), random_poly()
        expect = {}
        for mf, cf in f.terms:
            for mg, cg in g.terms:
                key = (mf[0] + mg[0], mf[1] + mg[1])
                expect[key] = expect.get(key, Fraction(0)) + cf * cg
        expect = {m: c for m, c in expect.items() if c}
        assert dict(((m, c) for m, c in (f * g).terms)) == expect


def _naive(op, f, g) -> dict:
    """f op g on rational term dicts, zeros kept; Ring.poly reduces it."""
    out = {}
    if op == "*":
        for mf, cf in f.terms:
            for mg, cg in g.terms:
                m = (mf[0] + mg[0], mf[1] + mg[1])
                out[m] = out.get(m, 0) + Fraction(cf) * cg
        return out
    sign = 1 if op == "+" else -1
    out.update((m, Fraction(c)) for m, c in f.terms)
    for m, c in g.terms:
        out[m] = out.get(m, 0) + sign * c
    return out


# denominators are units in every field drawn below
_TERMS = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                         st.builds(Fraction, st.integers(-20, 20),
                                   st.sampled_from([1, 11, 17, 19])),
                         max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7), GF(13)]), _TERMS, _TERMS,
       _TERMS)
def test_arithmetic_results_match_validated_construction(domain, a, b, c):
    # +, * and the reductions build their results with Ring._sorted,
    # skipping Ring.poly's checks; Ring.poly on the same terms must give the
    # same polynomial, coefficient types included.  g = c - f makes f + g
    # cancel f's terms.
    ring = curve_ring((3, 2), domain)
    f, h = ring.poly(a), ring.poly(b)
    g = ring.poly(_naive("-", ring.poly(c), f))
    for op, left, right in [("+", f, g), ("-", f, g), ("*", f, g), ("+", f, h),
                            ("-", f, h), ("*", f, h), ("-", f, f), ("+", g, -g)]:
        got = {"+": left + right, "-": left - right, "*": left * right}[op]
        want = ring.poly(_naive(op, left, right))
        assert got == want == ring.poly(dict(got.terms)), (op, left, right)
        assert [type(x) for _, x in got.terms] == [type(x) for _, x in want.terms]
        assert ring._sorted(dict(want.terms)) == want
    assert (f - f).is_zero() and (g + (-g)).is_zero()
    assert f + g == ring.poly(c)
    # normal_form's and module_reduce's remainders, and module_reduce's quotients
    key = ring.order.key
    for num, den in [(f, h), (f * h + g, h), (g, f)]:
        if den.is_zero():
            continue
        leads = [(den.lm, den.lc, den.terms)]
        rem, (quot,) = module_reduce(num, [den])
        assert quot * den + rem == num
        for got, want in [
                (normal_form(num, [den]), reduce_terms_scan(dict(num.terms), leads, domain, key)),
                (rem, reduce_terms_scan(dict(num.terms), leads, domain, key, fixed=ring.ndep)),
                (quot, dict(quot.terms))]:
            want = ring.poly(want)
            assert got == want
            assert [type(x) for _, x in got.terms] == [type(x) for _, x in want.terms]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7), GF(13)]), _TERMS,
       st.lists(_TERMS, min_size=1, max_size=3), st.sampled_from([(3, 2), (1, 1), (2, 5)]))
def test_normal_form_takes_its_remainder_unsorted(domain, a, divisors, weights):
    # normal_form wraps reduce_terms' remainder dict as it comes, without a
    # sort: the dict is filled largest term first, so Ring.poly on the same
    # terms gives the same polynomial, coefficient types included
    ring = curve_ring(weights, domain)
    f, gens = ring.poly(a), [ring.poly(t) for t in divisors]
    leads = [(g.lm, g.lc, g.terms) for g in gens if not g.is_zero()]
    rem = reduce_terms(dict(f.terms), leads, domain, ring.order.key)
    got = normal_form(f, gens)
    want = ring.poly(rem) if leads else f
    assert got == want
    assert [type(x) for _, x in got.terms] == [type(x) for _, x in want.terms]
    if leads:
        assert want == ring.poly(reduce_terms_scan(dict(f.terms), leads, domain,
                                                   ring.order.key))


def test_power_and_scale():
    ring, _ = make_curve("quadratic")
    f = ring.parse("y - x")
    assert f ** 2 == ring.parse("y^2 - 2*y*x + x^2")
    assert f.scale(Fraction(3, 2)) == ring.parse("3/2*y - 3/2*x")
    assert (f ** 0) == ring.one()


def test_domain_mismatch_rejected():
    r1, f1 = make_curve("quadratic")
    r2, f2 = make_curve("quadratic", q=5)
    with pytest.raises(RingError):
        f1 + f2


def test_monic_and_divide_scalar():
    ring = curve_ring((3, 2))
    f = ring.parse("2*y^2 - 4*x")
    assert f.monic() == ring.parse("y^2 - 2*x")
    with pytest.raises(DomainError):
        f.divide_scalar(0)


# ---------------------------------------------------------------------------
# parse / print round trips


@pytest.mark.parametrize("name", sorted(CURVES))
def test_roundtrip_fixture_curves(name):
    ring, f = make_curve(name)
    assert ring.parse(format_poly(f)) == f


@pytest.mark.parametrize("name", sorted(CURVES))
def test_roundtrip_mod_q(name):
    ring, f = make_curve(name, q=13)
    assert ring.parse(format_poly(f)) == f


def test_parse_rejects_unknown_variable():
    ring = curve_ring((3, 2))
    with pytest.raises(Exception):
        ring.parse("y + z")


def test_parse_examples():
    ring = curve_ring((3, 2))
    assert ring.parse("3/4*y^2*x - 15/17*x^4 + 1") == ring.poly(
        {(2, 1): Fraction(3, 4), (0, 4): Fraction(-15, 17), (0, 0): Fraction(1)})
    assert format_poly(ring.parse("-y + 1")) == "-y + 1"
    assert format_poly(ring.zero()) == "0"


def test_balanced_modp_printing():
    ring = curve_ring((3, 2), GF(7))
    assert format_poly(ring.parse("6*y")) == "-y"
    assert format_poly(ring.parse("4*x")) == "-3*x"


def test_polynomials_are_immutable():
    ring, f = make_curve("quadratic")
    with pytest.raises(AttributeError):
        f.terms = ()
    with pytest.raises(Exception):
        ring.names = ("a", "b")


def test_monomial_quotient_requires_divisibility():
    from intclose.orders import mono_div, OrderError
    assert mono_div((3, 2), (1, 2)) == (2, 0)
    with pytest.raises(OrderError):
        mono_div((1, 2), (2, 0))


@pytest.mark.parametrize("rows,message", [
    ([[3.5, 2]], "entry 3.5 is not an integer"),
    ([[True, 2]], "entry True is not an integer"),
    ([[3, "2"]], "entry '2' is not an integer"),
    # the shape and sign checks come first, as problem-file messages expect
    ([[3.5, 2, 1]], "weight matrix must have 2 columns"),
    ([[3.5, -2]], "weight entries must be non-negative"),
])
def test_normalize_weights_rejects_bad_entries(rows, message):
    # a library caller gets the same checks as a problem file, not int()'s reading
    with pytest.raises(WeightError) as err:
        normalize_weights(rows, 2)
    assert str(err.value) == message


def test_weight_of_zero_polynomial_rejected():
    ring, _ = make_curve("cusp")
    with pytest.raises(WeightError):
        weight_of(ring.zero())


def test_standard_monomials_have_distinct_weights():
    # a weight function separates the standard monomials of S = R/(f)
    for name in ("cusp", "sextic", "octic", "trident"):
        ring, f = make_curve(name)
        d = f.degree_in(0)
        seen = {}
        for i in range(d):
            for e in range(40):
                w = weight_of(ring.poly({(i, e): 1}))
                assert w not in seen, (name, (i, e), seen[w])
                seen[w] = (i, e)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.fractions(min_value=-50, max_value=50),
    min_size=0, max_size=8))
def test_parser_printer_roundtrip_random(terms):
    ring = curve_ring((5, 3))
    f = ring.poly(terms)
    assert ring.parse(format_poly(f)) == f
