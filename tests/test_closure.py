"""Frobenius fixpoint iteration, canonical fraction sets, presentations."""

import functools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intclose import (GF, QQ, ClosureError, ClosurePresentation, ConductorError,
                      DomainError, DriverError, Ring, buchberger,
                      canonical_generators, frobenius_nf, grevlex_over_weight,
                      induce_presentation, is_minimal_reduced_gb, is_prime, is_prime_usable,
                      minimal_reduced, minimize_denominator, module_reduce, normal_form,
                      qth_closure, qth_power_step, run_algorithm1, run_charq, run_prime,
                      weight_over_grevlex)
from intclose.closure import (_lead, _rem_by_targets, _step_columns, by_y, fraction_weights,
                              from_y)
from intclose.xpoly import pack, quo_rem, slot_bytes, unpack
from conftest import (CURVES, SEXTIC_NUMERATORS, conductor_of, curve_or_tall,
                      curve_ring, images_of, make_curve, poly_step, run_inputs, scale_of,
                      sextic_relations, tail_of, tall_30, xdict)
from oracles import (canonical_generators_poly, canonical_generators_restart, codim_in_s,
                     combination, dep_block, frobenius_images_poly, frobenius_nf_poly,
                     from_module, induce_presentation_poly, kernel_step_oracle, mu_poly,
                     numerators_interreduced, psi_combination, psi_substitute,
                     qth_power_step_full, qth_power_step_scratch, rank_mod_conductor,
                     reduce_terms_scan, step_columns_unreduced, strict_shape_ok, to_module,
                     weight_balance_ok, y_coefficients)


def fixpoint(name, q):
    """(ring, f, delta, module): a fixture curve's fixpoint at q, as {k: (e, g)}."""
    ring, f = make_curve(name, q=q)
    delta = conductor_of(f)[0]
    return ring, f, delta, module_of(list(walk(f, delta))[-1], f)


def closure_run(name, q):
    """(ring, f, delta, record): the closure at q as a prime's run builds it."""
    ring, f = make_curve(name, q=q)
    delta = conductor_of(f)[0]
    return ring, f, delta, qth_closure(ring, tail_of(f), xdict(delta))


def module_of(nums, f):
    """The module {k: (e, g)} of numerators in descending lead order, as
    ``induce_presentation`` takes it."""
    return to_module([by_y(g, f.degree_in(0)) for g in nums], f.ring)


def start_module(d):
    """The module of y^(d-1), .., 1, S itself, where the walk starts."""
    return {k: (0, [{0: 1} if i == k else {} for i in range(d)]) for k in range(d - 1, -1, -1)}


# ---------------------------------------------------------------------------
# frobenius


def unreduced(f):
    """A conductor x^n with x^(q*n) above the x-degree of every y^m mod f,
    m <= q(d-1), so ``frobenius_images`` reduces nothing: each fold through
    y^d raises the x-degree by at most deg_x f."""
    return f.ring.poly({(0, f.degree_in(0) * f.degree_in(1) + 1): 1})


def test_frobenius_constants_and_variables():
    ring, f = make_curve("trident", q=3)
    images = images_of(f, unreduced(f))
    one, x = y_coefficients(ring.one(), 3), y_coefficients(ring.parse("x"), 3)
    assert frobenius_nf(one, 3, images) == one
    assert frobenius_nf(x, 3, images) == y_coefficients(ring.parse("x^3"), 3)


def test_frobenius_reduces_dependent_cube():
    ring, f = make_curve("trident", q=3)
    images = images_of(f, unreduced(f))
    # y^3 = -x^7 - 8yx = -x^7 + yx with coefficients mod 3
    assert frobenius_nf(y_coefficients(ring.parse("y"), 3), 3, images) == y_coefficients(
        ring.parse("-x^7 + y*x"), 3)


def test_frobenius_matches_direct_powering():
    rng = random.Random(17)
    for q in (3, 5):
        ring, f = make_curve("octic", q=q)
        images = images_of(f, unreduced(f))
        for _ in range(5):
            g = ring.poly({(rng.randint(0, 7), rng.randint(0, 4)):
                           rng.randint(1, q - 1) for _ in range(4)})
            assert (frobenius_nf(y_coefficients(g, 8), q, images)
                    == y_coefficients(normal_form(g ** q, [f]), 8))


@st.composite
def monic_curves(draw):
    """(f, q): a random relation over GF(q) of y-degree 1-4, monic, y^d leading."""
    q = draw(st.sampled_from([2, 3, 5, 7, 13]), label="q")
    d = draw(st.integers(1, 4), label="d")
    wy, wx = draw(st.integers(1, 6), label="wy"), draw(st.integers(1, 6), label="wx")
    ring = curve_ring((wy, wx), GF(q))
    tails = [(i, e) for i in range(d) for e in range(7) if wy * i + wx * e < wy * d]
    acc = draw(st.dictionaries(st.sampled_from(tails), st.integers(1, q - 1),
                               max_size=4), label="tail")
    acc[(d, 0)] = 1
    return ring.poly(acc), q


@settings(max_examples=100, deadline=None)
@given(monic_curves(), st.data())
def test_frobenius_images_match_powering(curve, data):
    f, q = curve
    ring, d = f.ring, f.degree_in(0)
    images = images_of(f, unreduced(f))
    assert len(images) == d
    for k in range(d):
        assert images[k] == y_coefficients(normal_form(ring.poly({(q * k, 0): 1}), [f]), d)
    g = ring.poly(data.draw(st.dictionaries(
        st.tuples(st.integers(0, d - 1), st.integers(0, 3)), st.integers(1, q - 1),
        max_size=4), label="g"))
    assert frobenius_nf(y_coefficients(g, d), q, images) == y_coefficients(
        normal_form(g ** q, [f]), d)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_frobenius_on_y_coefficients_match_polynomial_references(data):
    q = data.draw(st.sampled_from([2, 3, 5, 7, 13, 29]), label="q")
    d = data.draw(st.integers(1, 5), label="d")
    ring = curve_ring((data.draw(st.integers(1, 6), label="wy"),
                       data.draw(st.integers(1, 6), label="wx")), GF(q))
    acc = data.draw(st.dictionaries(st.tuples(st.integers(0, d - 1), st.integers(0, 6)),
                                    st.integers(1, q - 1), max_size=5), label="tail")
    acc[(d, 0)] = 1
    f = ring.poly(acc)
    images, reference = images_of(f, unreduced(f)), frobenius_images_poly(f)
    assert images == tuple(y_coefficients(p, d) for p in reference)
    # x-degrees up to 12: the numerator need not be reduced modulo a conductor
    g = ring.poly(data.draw(st.dictionaries(
        st.tuples(st.integers(0, d - 1), st.integers(0, 12)), st.integers(1, q - 1),
        max_size=6), label="g"))
    want = y_coefficients(frobenius_nf_poly(g, q, reference), d)
    assert frobenius_nf(y_coefficients(g, d), q, images) == want
    # images reduced modulo m^q give each y-coefficient modulo m^q
    m = ring.poly(data.draw(st.dictionaries(st.tuples(st.just(0), st.integers(0, 2)),
                                            st.integers(1, q - 1), max_size=2), label="m")
                  | {(0, data.draw(st.integers(1, 3), label="deg m")): 1})
    mq = {e: c for (_, e), c in (m ** q).terms}
    reduced = images_of(f, m)
    assert reduced == tuple([quo_rem(a, mq, q)[1] for a in img] for img in images)
    assert ([quo_rem(a, mq, q)[1] for a in frobenius_nf(y_coefficients(g, d), q, reduced)]
            == [quo_rem(a, mq, q)[1] for a in want])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_images_match_oracle_modulo_delta_q(data):
    # the oracle's NF(y^(qk), f) with every y-coefficient reduced modulo
    # D^q = D(x^q) as it steps, for dense and sparse tails and monomial and
    # other D; the reduction keeps each step below q*deg D, so dense d = 6
    # tails run at q = 101 too
    q = data.draw(st.sampled_from([2, 3, 5, 7, 13, 29, 53, 101]), label="q")
    dense = data.draw(st.booleans(), label="dense")
    d = data.draw(st.integers(1, 6), label="d")
    ring = curve_ring((data.draw(st.integers(1, 6), label="wy"),
                       data.draw(st.integers(1, 6), label="wx")), GF(q))
    acc = data.draw(st.dictionaries(st.tuples(st.integers(0, d - 1), st.integers(0, 4)),
                                    st.integers(1, q - 1), min_size=2 * d if dense else 0,
                                    max_size=5 * d if dense else 3), label="tail")
    acc[(d, 0)] = 1
    f = ring.poly(acc)
    n = data.draw(st.integers(0, 3), label="deg D")
    low = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, q - 1),
                                    max_size=n), label="D below its lead") if n else {}
    delta = ring.poly({(0, e): c for e, c in low.items()}
                      | {(0, n): data.draw(st.integers(1, q - 1), label="lc D")})
    want = tuple(y_coefficients(p, d) for p in frobenius_images_poly(f, delta))
    assert images_of(f, delta) == want


@pytest.mark.parametrize("name", ["octic", "trident", "cusp"])
@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 53])
@pytest.mark.parametrize("conductor", ["x^2", "x - 3", "x^3 + x^2 - 2*x", "x^4 - x^2 + 3*x - 1"],
                         ids=["one-term", "two-terms", "three-terms", "four-terms"])
def test_images_modulo_delta_q_of_one_two_and_more_terms(name, q, conductor):
    # D^q = x^top - low: a monomial D cuts its products at x^top, x - a (the
    # tall curves' conductors) cuts each once, and D = x(x - 1)(x + 2) and a
    # four-term D cut again and again, each cut lowering the degree by q
    ring, f = make_curve(name, q=q)
    delta = ring.parse(conductor)
    want = tuple(y_coefficients(p, f.degree_in(0)) for p in frobenius_images_poly(f, delta))
    assert images_of(f, delta) == want


@pytest.mark.parametrize("q", [7, 65521, 2 ** 31 - 1, 2 ** 62 - 57, 2 ** 63 - 25])
def test_packed_products_match_dict_products(q):
    # a sum of k products of length-n residue vectors needs slots for k*n
    # products of residues; the slots widen past one machine word with q.
    # Slot i is read at bits 8*w*i and up whatever the host's byte order,
    # which array-backed slot widths (1, 2, 4, 8 bytes) must correct for
    rng = random.Random(q)
    for k, n, top in ((1, 1, False), (3, 17, False), (4, 40, True), (9, 5, True)):
        w = slot_bytes(q, k * n)
        pairs = [[[q - 1 if top else rng.randrange(q) for _ in range(n)] for _ in "ab"]
                 for _ in range(k)]
        packed = sum(pack(a, w) * pack(b, w) for a, b in pairs)
        want: dict = {}
        for a, b in pairs:
            for i, c1 in enumerate(a):
                for j, c2 in enumerate(b):
                    want[i + j] = (want.get(i + j, 0) + c1 * c2) % q
        assert {e: c % q for e, c in enumerate(unpack(packed, w)) if c % q} == \
            {e: c for e, c in want.items() if c}
        assert unpack(pack(pairs[0][0], w), w) == pairs[0][0][:max(
            (i + 1 for i, c in enumerate(pairs[0][0]) if c), default=0)]
        assert pack(pairs[0][0], w) == sum(c << 8 * w * i for i, c in enumerate(pairs[0][0]))
    assert slot_bytes(7, 1) == 1 and slot_bytes(2 ** 31 - 1, 1) == 8
    assert slot_bytes(2 ** 63 - 25, 2 ** 20) == 19    # 2*63 + 21 bits


@pytest.mark.parametrize("ring,text,message", [
    (curve_ring((3, 2), QQ), "y^2 - x^3", "a char-q run needs a relation over GF(q), not Q"),
    (curve_ring((2, 1, 1), GF(5)), "y^2 - x2*x1",
     "closure iteration supports one independent variable, the problem has 2"),
    (curve_ring((3, 1), GF(5)), "y^2 + y^2*x - x^3",
     "no weight function: maximal-weight monomials {y^2*x}"),
    (curve_ring((3, 2), GF(5)), "2*y^2 - x^3", "relation is not monic in the dependent variable"),
], ids=["over-QQ", "two-independent", "second-top-term", "not-monic"])
def test_frobenius_images_reject_unsupported_relations(ring, text, message):
    # the images take f's tail and D as F_q[x] dicts, so a relation they
    # cannot use is refused where a run's Polynomial becomes its tail:
    # run_charq refuses f over Q, and validate_problem, before any tail is
    # taken, a relation with two independent variables or one that is not
    # y^d plus lower terms
    with pytest.raises(DriverError, match=f"^{re.escape(message)}$"):
        run_charq(ring.parse(text))


@pytest.mark.parametrize("domain", [GF(5), QQ], ids=["charq", "char0"])
def test_relation_not_monic_in_y_is_a_driver_error(domain):
    # the weight check reads y^d's coefficient; both entry points refuse a
    # relation that is not monic in y as a usage error, with its text
    ring = curve_ring((3, 2), domain)
    f = ring.parse("2*y^2 - x^3")
    with pytest.raises(DriverError, match="^relation is not monic in the dependent variable$"):
        run_charq(f) if domain == GF(5) else run_algorithm1(f)


def test_char0_run_refuses_a_relation_over_gf_q():
    # each entry point reads f's field off f: over GF(5) the README relation's
    # coefficients are residues, which a char-0 run would read as integers
    f = make_curve("quadratic", q=5)[1]
    with pytest.raises(DriverError, match=r"^a char-0 run needs a relation over Q, not GF\(5\)$"):
        run_algorithm1(f)


# ---------------------------------------------------------------------------
# P-module reduction


def test_module_reduce_exact_member():
    ring, f = make_curve("trident", q=7)
    gens = [ring.parse("y^2"), ring.parse("y*x"), ring.parse("x")]
    scale = ring.parse("x")
    h = scale * gens[1]
    rem, coeffs = module_reduce(h, [scale * g for g in gens])
    assert rem.is_zero()
    assert coeffs[1] == ring.one()
    assert coeffs[0].is_zero() and coeffs[2].is_zero()


def test_module_reduce_zero():
    ring, _ = make_curve("trident", q=7)
    rem, _ = module_reduce(ring.zero(), [ring.one()])
    assert rem.is_zero()


def test_module_reduce_stuck_below_leads():
    ring, _ = make_curve("trident", q=7)
    gens = [ring.parse("y^2"), ring.parse("x*y"), ring.parse("x")]
    rem, _ = module_reduce(ring.parse("y"), gens)
    assert rem == ring.parse("y")  # no P-multiple of the leads divides y


def assert_remainder_by_targets(h, targets, want, d, data):
    """want is h's P-module remainder by targets, by the scanning reference,
    and by _rem_by_targets with the targets in descending and shuffled order;
    _rem_by_targets' quotients are module_reduce's coefficients.  A target
    that is one term carries the third field True, as ``_scaled_targets``
    marks it, and gives the same remainder without quotients."""
    ring, q = h.ring, h.ring.domain.char
    rem, coeffs = module_reduce(h, targets)
    assert want == rem
    leads = [(t.lm, t.lc, t.terms) for t in targets]
    assert want == ring.poly(reduce_terms_scan(dict(h.terms), leads, ring.domain,
                                               ring.order.key, fixed=ring.ndep))
    descending = sorted(targets, key=lambda t: ring.order.key(t.lm), reverse=True)
    for order in (descending, data.draw(st.permutations(targets), label="order")):
        quotients = {}
        marked = {t.lm[0]: (t.lm[1], y_coefficients(t, d)) + (True,) * (len(t.terms) == 1)
                  for t in order}
        got = _rem_by_targets(y_coefficients(h, d), marked, q, quotients)
        assert ring.poly({(k, e): c for k, a in enumerate(got) for e, c in a.items()}) == want
        assert _rem_by_targets(y_coefficients(h, d), marked, q) == got
        assert quotients.keys() <= {t.lm[0] for t in targets}
        for t, c in zip(targets, coeffs):
            assert quotients.get(t.lm[0], {}) == {m[1]: x for m, x in c.terms}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coefficientwise_remainder_matches_module_division(data):
    # targets M_k(x)*p_k(x)*y^k, M_k = x^e or (x - a)^e, on some y-degrees k:
    # the remainder is each y-coefficient's modulo its target's x-part
    q = data.draw(st.sampled_from([2, 3, 5, 7, 13, 29]), label="q")
    d = data.draw(st.integers(1, 4), label="d")
    weights = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)), label="w")
    ring = curve_ring(weights, GF(q))
    x = ring.var("x")
    coeffs = st.integers(0, q - 1)
    moduli = {}
    for k in sorted(data.draw(st.sets(st.integers(0, d - 1)), label="degrees")):
        a = data.draw(coeffs, label="a")
        e = data.draw(st.integers(0, 6), label="e")
        p = data.draw(st.lists(coeffs, max_size=4), label="p")
        lc = data.draw(st.integers(1, q - 1), label="lc")
        pk = ring.poly({(0, i): c for i, c in enumerate(p + [lc])})
        moduli[k] = (x - ring.const(a)) ** e * pk
    top = 3 * max([m.degree_in(1) for m in moduli.values()] + [1])
    h = ring.poly(data.draw(st.dictionaries(
        st.tuples(st.integers(0, d - 1), st.integers(0, top)), coeffs,
        max_size=3 * top), label="h"))
    targets = [m.mul_term((k, 0)) for k, m in moduli.items()]
    got = {}
    for k in range(d):
        coeff = {m[1]: c for m, c in h.terms if m[0] == k}
        if k in moduli:
            coeff = quo_rem(coeff, {m[1]: c for m, c in moduli[k].terms}, q)[1]
        got.update({(k, e): c for e, c in coeff.items()})
    assert_remainder_by_targets(h, targets, ring.poly(got), d, data)
    # general targets: s times the canonical generators of a few elements,
    # whose tails reach other y-degrees
    elements = data.draw(st.lists(st.dictionaries(
        st.tuples(st.integers(0, d - 1), st.integers(0, 5)), st.integers(1, q - 1),
        min_size=1, max_size=5), min_size=1, max_size=d), label="elements")
    gens = canonical_generators_poly([ring.poly(g) for g in elements], ring)
    s = ring.poly({(0, i): c for i, c in enumerate(
        data.draw(st.lists(coeffs, max_size=3), label="s")
        + [data.draw(st.integers(1, q - 1), label="lc s")])})
    general = [s * g for g in gens]
    assert_remainder_by_targets(h, general, module_reduce(h, general)[0], d, data)


def test_by_y_and_from_y_round_trip():
    rng = random.Random(11)
    for q in (2, 7, 29):
        for d in (1, 3, 6):
            ring = curve_ring((rng.randint(1, 6), rng.randint(1, 6)), GF(q))
            g = ring.poly({(rng.randrange(d), rng.randint(0, 6)): rng.randint(1, q - 1)
                           for _ in range(rng.randint(0, 8))})
            v = by_y(g, d)
            assert len(v) == d and all(0 not in a.values() for a in v)
            assert from_y([v], ring) == (g,) and by_y(from_y([v], ring)[0], d) == v
            # a term of y-degree d, the lead of a relation, is dropped
            assert by_y(g + ring.poly({(d, 1): 1}), d) == v


def test_canonical_generators_echelonize():
    ring, _ = make_curve("trident", q=7)
    gens = [by_y(ring.parse(t), 3) for t in ("y^2 + y*x", "y*x", "x^2", "x^3")]
    out = canonical_generators(gens, ring)
    assert list(out.items()) == [(2, (0, [{}, {}, {0: 1}])), (1, (1, [{}, {1: 1}, {}])),
                                 (0, (2, [{2: 1}, {}, {}]))]
    assert [str(g) for g in from_y(from_module(out), ring)] == ["y^2", "y*x", "x^2"]


def test_canonical_generators_push_a_displaced_element_back():
    # both generators lead at y*x^2; the second's remainder leads at y and
    # displaces the first, whose remainder by y + 2*x is x^3 - x: an insertion
    # that dropped the displaced element would lose it
    ring = curve_ring((3, 2), GF(7))
    gens = [by_y(ring.parse(t), 2) for t in ("4*x + 2*x^2*y", "(2*x^2 + 5)*y")]
    out = canonical_generators(gens, ring)
    assert [str(g) for g in from_y(from_module(out), ring)] == ["x^3 - x", "y + 2*x"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_generators_match_restart_oracle(data):
    q = data.draw(st.sampled_from([None, 2, 3, 7, 29]), label="q")
    weights = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)), label="w")
    ring = curve_ring(weights, QQ if q is None else GF(q))
    block = data.draw(st.booleans(), label="dep_block")
    if block:                          # the conductor oracle's order
        ring = Ring(ring.names, 1, ring.domain, dep_block(1, 2), ring.weights)
    if q is None:
        coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    else:
        coeffs = st.integers(0, q - 1)
    terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 5)),
                            coeffs, max_size=4)
    gens = data.draw(st.lists(terms.map(ring.poly), max_size=6), label="gens")
    # zero generators, duplicates, and x-multiples that share a dependent part
    for _ in range(data.draw(st.integers(0, 4), label="extra")):
        kind = data.draw(st.sampled_from(["zero", "dup", "shift", "sum"]))
        if kind == "zero" or not gens:
            gens.append(ring.zero())
            continue
        g, h = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens))
        if kind == "dup":
            gens.append(g)
        elif kind == "shift":
            gens.append(g.mul_term((0, data.draw(st.integers(0, 3))), -1))
        else:
            gens.append(g + h.mul_term((0, 1)))
    gens = data.draw(st.permutations(gens), label="order")
    want = canonical_generators_restart(gens, ring)
    if q is None or block:
        # the Polynomial interreduction, as the conductor oracle runs it
        assert canonical_generators_poly(gens, ring) == want
    else:           # the walk's: F_q[y; x] under its weight order, on y-coefficients
        out = canonical_generators([by_y(g, 4) for g in gens], ring)
        assert from_y(from_module(out), ring) == want


def test_canonical_generators_need_one_independent_variable():
    w = ((1, 1, 1),)
    ring = Ring(("y", "x2", "x1"), 1, GF(7), weight_over_grevlex(w, 3), w)
    for bad in (ring, curve_ring((1, 1), QQ)):
        with pytest.raises(ClosureError, match=re.escape("need a ring F_q[y; x]")):
            canonical_generators([[{}, {1: 1}], [{}, {2: 1}]], bad)
    with pytest.raises(ClosureError, match="one independent variable"):
        canonical_generators_poly([ring.parse("y*x1"), ring.parse("y*x2")], ring)


# ---------------------------------------------------------------------------
# the contraction step and its oracle


def test_step_fixpoint_is_idempotent():
    for name, q in (("quadratic", 5), ("trident", 7)):
        ring, f, delta, module = fixpoint(name, q)
        again = qth_power_step(module, ring, images_of(f, delta), xdict(delta), scale_of(delta))
        assert list(again.items()) == list(module.items())


def test_step_nesting():
    ring, f = make_curve("octic", q=7)
    delta = conductor_of(f)[0]
    images, scale = images_of(f, delta), scale_of(delta)
    d = f.degree_in(0)
    current = tuple(ring.poly({(k, 0): 1}) for k in range(d - 1, -1, -1))
    for _ in range(6):
        nxt = poly_step(current, images, delta, scale)
        stair_prev = {g.lm[0]: g.lm[1] for g in current}
        for g in nxt:
            i, e = g.lm
            assert e >= stair_prev[i]  # modules shrink: staircases rise
        if list(nxt) == list(current):
            break
        current = nxt


def test_step_against_linear_algebra_oracle():
    rng = random.Random(1234)
    trials = 0
    while trials < 22:
        q = rng.choice((2, 3))
        d = rng.randint(2, 3)
        wy, wx = rng.randint(2, 6), rng.randint(1, 4)
        ring = Ring(("y", "x"), 1, GF(q),
                    weight_over_grevlex([[wy, wx]], 2), ((wy, wx),))
        # random monic-in-y relation whose top power dominates by weight
        # (the fixpoint machinery needs y^d to lead), random monic conductor
        tails = [(i, e) for i in range(d) for e in range(5)
                 if wy * i + wx * e < wy * d]
        acc = {(d, 0): 1}
        for _ in range(rng.randint(1, 4)):
            acc[rng.choice(tails)] = rng.randint(1, q - 1)
        f = ring.poly(acc)
        dd = rng.randint(1, 4)
        dacc = {(0, dd): 1}
        for e in range(dd):
            if rng.random() < 0.5:
                dacc[(0, e)] = rng.randint(1, q - 1)
        delta = ring.poly(dacc)
        images = images_of(f, delta)
        start = tuple(ring.poly({(k, 0): 1}) for k in range(d - 1, -1, -1))
        engine = poly_step(start, images, delta, scale_of(delta))
        expect = kernel_step_oracle(list(start), f, delta, q)
        got = {g.lm[0]: g.lm[1] for g in engine}
        assert got == expect
        trials += 1


def test_dimension_stop_fills_the_missing_y_degrees_with_delta_y_k():
    # N' = D*S + P*y with D = x^2, d = 2: dim N'/DS = 2 (y and x*y).  The
    # insertion starts from D*S's basis {k: (2, D*y^k)}; y is popped first
    # and replaces D*y, its e falling from 2 to 0, so sum_k (deg D - e_k) = 2
    # at once: x*y is never summed, and D*y^0 = x^2 stays the y^0 entry, as
    # inserting every generator would give
    ring = curve_ring((3, 2), GF(7))
    delta, summed = {2: 1}, []
    start = {0: (2, [delta, {}]), 1: (2, [{}, delta])}
    y, xy = [{}, {0: 1}], [{}, {1: 1}]
    members = [((1, 0), lambda: summed.append("y") or y),
               ((1, 1), lambda: summed.append("x*y") or xy)]
    out = canonical_generators((), ring, members, start)
    assert summed == ["y"]
    full = canonical_generators([g for _, g in start.values()] + [y, xy], ring)
    assert list(out.items()) == [(0, (2, [delta, {}])), (1, (0, y))] == list(full.items())


def count_summed_members(monkeypatch) -> list:
    """Wrap ``closure.canonical_generators`` so that each step records
    (members, members summed, result)."""
    import intclose.closure
    real, log = intclose.closure.canonical_generators, []

    def counted(vectors, ring, members=(), start=()):
        summed = []
        wrapped = [(lead, lambda make=make: summed.append(1) or make()) for lead, make in members]
        out = real(vectors, ring, wrapped, start)
        log.append((len(members), len(summed), out))
        return out

    monkeypatch.setattr(intclose.closure, "canonical_generators", counted)
    return log


def assert_steps_match_full_insertion(ring, f, delta):
    """Walk qth_closure's steps on y-coefficients from S; each equals the
    reference step that sums every member and inserts them all."""
    d, dx = f.degree_in(0), xdict(delta)
    images, scale = images_of(f, delta), scale_of(delta)
    nums = start_module(d)
    for _ in range(d * max(dx) + 1):
        nxt = qth_power_step(nums, ring, images, dx, scale)
        want = qth_power_step_full(nums, ring, images, dx, scale)
        assert list(nxt.items()) == list(want.items())
        if nxt == nums:
            return
        nums = nxt
    raise AssertionError("no fixpoint within d*deg(delta) + 1 steps")


def test_octic_steps_stop_at_the_dimension(monkeypatch):
    # at q = 7 the walk from S takes two steps with a kernel, then a
    # confirming one with no column; the stop leaves members unsummed at
    # both, each step is the full insertion's, and the second ends with the
    # fixpoint's g_0 = D, its y^0 element D*y^0
    ring, f = make_curve("octic", q=7)
    delta = conductor_of(f)[0]
    log = count_summed_members(monkeypatch)
    assert_steps_match_full_insertion(ring, f, delta)
    assert [(total, summed) for total, summed, _ in log] == [(45, 13), (22, 8)]
    assert list(log[-1][2].items())[-1] == (0, (24, [xdict(delta)] + [{}] * 7))


@pytest.mark.parametrize("q, counts", [(7, [(17, 15), (13, 5)]), (11, [(14, 12), (13, 5)])])
def test_sextic_steps_stop_at_the_dimension(monkeypatch, q, counts):
    # the sextic's walk from S takes two steps with a kernel at q = 7 and at
    # q = 11; the stop leaves members unsummed at each, and each step is the
    # full insertion's.  An insertion that drops a displaced basis element
    # instead of pushing it back sums more members (17, 16 at q = 7)
    ring, f = make_curve("sextic", q=q)
    delta = conductor_of(f)[0]
    log = count_summed_members(monkeypatch)
    assert_steps_match_full_insertion(ring, f, delta)
    assert [(total, summed) for total, summed, _ in log] == counts
    assert list(log[-1][2].items())[-1] == (0, (max(xdict(delta)), [xdict(delta)] + [{}] * 5))


@pytest.mark.parametrize("name", sorted(CURVES))
def test_fixture_steps_match_full_insertion(name):
    # every fixture curve at every prime below 60 where it has a conductor
    walked = 0
    for q in filter(is_prime, range(2, 60)):
        try:
            ring, f = make_curve(name, q=q)
            delta = conductor_of(f)[0]
        except (DomainError, ConductorError):
            continue
        assert_steps_match_full_insertion(ring, f, delta)
        walked += 1
    assert walked >= 12


def assert_module_form(module, ring, d):
    """A module as the walk carries it: one entry per y-degree 0 .. d-1, each
    recorded (k, e) the ``_lead`` of its g, entries strictly descending under
    the ring's order key."""
    assert sorted(module) == list(range(d))
    assert all(_lead(g, ring.order.key) == (k, e) for k, (e, g) in module.items())
    keys = [ring.order.key((k, e)) for k, (e, _) in module.items()]
    assert all(a > b for a, b in zip(keys, keys[1:]))


def assert_walk_records_its_leads(ring, f, delta):
    """Walk qth_closure's steps from S; every step's module, and the module
    with its content divided out, record their leads in their order."""
    d, dx, q = f.degree_in(0), xdict(delta), ring.domain.char
    images, scale = images_of(f, delta), scale_of(delta)
    module = start_module(d)
    for _ in range(d * max(dx) + 1):
        nxt = qth_power_step(module, ring, images, dx, scale)
        assert_module_form(nxt, ring, d)
        assert_module_form(minimize_denominator(nxt, q), ring, d)
        if nxt == module:
            return
        module = nxt
    raise AssertionError("no fixpoint within d*deg(delta) + 1 steps")


@pytest.mark.parametrize("name", sorted(CURVES))
def test_fixture_steps_record_their_leads(name):
    # every fixture curve at every prime below 60 where it has a conductor
    walked = 0
    for q in filter(is_prime, range(2, 60)):
        try:
            ring, f = make_curve(name, q=q)
            delta = conductor_of(f)[0]
        except (DomainError, ConductorError):
            continue
        assert_walk_records_its_leads(ring, f, delta)
        walked += 1
    assert walked >= 12


# ---------------------------------------------------------------------------
# random curves over small prime fields, and the fixture curves mod 5..29

FIXTURE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29)


@st.composite
def small_curves(draw, min_degree=2):
    """(ring, f, conductor, q): a random monic curve over GF(q), y^d leading."""
    q = draw(st.sampled_from([2, 3, 5, 7, 13]), label="q")
    d = draw(st.integers(min_degree, 4), label="d")
    wy, wx = draw(st.integers(1, 6), label="wy"), draw(st.integers(1, 6), label="wx")
    ring = curve_ring((wy, wx), GF(q))
    tails = [(i, e) for i in range(d) for e in range(7) if wy * i + wx * e < wy * d]
    acc = draw(st.dictionaries(st.sampled_from(tails), st.integers(1, q - 1),
                               min_size=1, max_size=4), label="tail")
    acc[(d, 0)] = 1
    f = ring.poly(acc)
    try:
        delta = conductor_of(f)[0]
    except ConductorError:
        assume(False)
    return ring, f, delta, q


def assert_steps_match_scratch(ring, f, delta, q):
    """Walk qth_closure's steps; each equals the step dividing from scratch."""
    images, poly_images = images_of(f, delta), frobenius_images_poly(f)
    scale = scale_of(delta)
    nums = tuple(ring.poly({(k, 0): 1}) for k in range(f.degree_in(0) - 1, -1, -1))
    for _ in range(64):
        nxt = poly_step(nums, images, delta, scale)
        assert nxt == qth_power_step_scratch(nums, q, poly_images, delta)
        if nxt == nums:
            return
        nums = nxt
    raise AssertionError("no fixpoint within 64 steps")


def walk(f, delta):
    """The numerators of each step of qth_closure's walk from S, the fixpoint last."""
    images, scale = images_of(f, delta), scale_of(delta)
    nums = tuple(f.ring.poly({(k, 0): 1}) for k in range(f.degree_in(0) - 1, -1, -1))
    for _ in range(f.degree_in(0) * delta.degree_in(1) + 1):
        yield nums
        nxt = poly_step(nums, images, delta, scale)
        if nxt == nums:
            return
        nums = nxt
    raise AssertionError("no fixpoint within d*deg(delta) + 1 steps")


def in_s(p, pres):
    """delta^2 * p with every ybar_k replaced by g_k / delta, in the ring of S."""
    ring, J = pres.denominator.ring, p.ring.ndep
    acc = ring.zero()
    for m, c in p.terms:
        term = ring.poly({(0,) + m[J:]: c}) * pres.denominator ** (2 - sum(m[:J]))
        for k, e in enumerate(m[:J]):
            term = term * pres.numerators[k] ** e
        acc = acc + term
    return acc


def assert_presentation_as_built(pres, f):
    """The numerators are interreduced, and the relations are the minimal
    reduced basis and hold in S, as does psi."""
    assert numerators_interreduced(pres.numerators)
    rels = pres.relations
    J = pres.ring.ndep
    assert len(rels) == J * (J + 1) // 2
    assert rels == tuple(minimal_reduced(buchberger(list(rels))))
    assert is_minimal_reduced_gb(rels)
    for rel in rels:
        assert normal_form(in_s(rel, pres), [f]).is_zero()
    y_delta2 = f.ring.var("y") * pres.denominator ** 2
    assert normal_form(in_s(pres.inclusion_image, pres) - y_delta2, [f]).is_zero()


@settings(max_examples=100, deadline=None)
@given(small_curves())
def test_closure_steps_match_scratch_division(curve):
    assert_steps_match_scratch(*curve)


@settings(max_examples=100, deadline=None)
@given(small_curves())
def test_steps_match_full_insertion_on_random_curves(curve):
    ring, f, delta, _ = curve
    assert_steps_match_full_insertion(ring, f, delta)


@settings(max_examples=100, deadline=None)
@given(small_curves())
def test_steps_record_their_leads_on_random_curves(curve):
    ring, f, delta, _ = curve
    assert_walk_records_its_leads(ring, f, delta)


@settings(max_examples=100, deadline=None)
@given(small_curves())
def test_presentation_is_its_minimal_reduced_basis(curve):
    ring, f, delta, q = curve
    assert_presentation_as_built(qth_closure(ring, tail_of(f), xdict(delta)), f)


@functools.lru_cache(maxsize=None)
def fixture_runs(name):
    """(q, f_q, delta_q, run) at each usable q of FIXTURE_PRIMES."""
    ring, f = make_curve(name)
    inputs = run_inputs(f)
    out = []
    for q in FIXTURE_PRIMES:
        status, info = is_prime_usable(q, *inputs)
        if status == "usable":
            run = run_prime(q, *inputs)
            out.append((q, mu_poly(f, info[0]), run.delta_q, run))
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CURVES)), st.data())
def test_memoized_output_order_acts_as_a_fresh_one(name, data):
    # the output ring's order comes from a memo, its key cache warm from
    # earlier presentations; a ring on a freshly built order must agree
    _, f_q, _, run = data.draw(st.sampled_from(fixture_runs(name)), label="run")
    pres = run.presentation
    ring = pres.ring
    fresh = Ring(ring.names, ring.ndep, ring.domain,
                 grevlex_over_weight(ring.weights, ring.ndep, ring.nvars), ring.weights)
    assert fresh.order is not ring.order and fresh == ring
    rebuilt = induce_presentation(module_of(pres.numerators, f_q), tail_of(f_q), f_q.ring)
    assert rebuilt.ring.order is ring.order
    for p in pres.relations + (pres.inclusion_image,):
        again = fresh.poly(dict(p.terms))
        assert again == p and again.terms == p.terms and str(again) == str(p)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_fixture_closures_as_built(name):
    assert fixture_runs(name)
    for q, f_q, delta_q, run in fixture_runs(name):
        assert_steps_match_scratch(delta_q.ring, f_q, delta_q, q)
        assert_presentation_as_built(run.presentation, f_q)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_fixture_walks_end_within_the_derived_bound(name):
    # a step that is not a fixpoint returns a strictly smaller module between
    # delta*S and S, and dim S/(delta*S) = d*deg(delta): qth_closure's bound
    walked = 0
    for q in filter(is_prime, range(2, 54)):
        try:
            ring, f = make_curve(name, q=q)
            delta = conductor_of(f)[0]
        except (DomainError, ConductorError):
            continue
        steps = list(walk(f, delta))
        assert len(steps) <= f.degree_in(0) * delta.degree_in(1) + 1
        walked += 1
    assert walked >= 12


def assert_first_ring_is_the_fixpoint(ring, f, delta):
    """qth_closure's record is the presentation of the walk's confirmed
    fixpoint, and it takes one step fewer than the walk (one when the walk
    starts at its fixpoint), within qth_closure's bound: a module that is a
    ring is a fixpoint, so the first ring is the last module of the walk."""
    import intclose.closure
    steps, calls = list(walk(f, delta)), []
    real = intclose.closure.qth_power_step
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(intclose.closure, "qth_power_step",
                            lambda *args: calls.append(1) or real(*args))
        got = qth_closure(ring, tail_of(f), xdict(delta))
    q = ring.domain.char
    want = induce_presentation(minimize_denominator(module_of(steps[-1], f), q), tail_of(f), ring)
    assert got == want
    assert len(calls) == max(1, len(steps) - 1) <= max(1, f.degree_in(0) * delta.degree_in(1))


@pytest.mark.parametrize("name", sorted(CURVES))
def test_first_ring_is_the_confirmed_fixpoint(name):
    # every fixture curve at every prime 2..31 where it has a conductor
    walked = 0
    for q in filter(is_prime, range(2, 32)):
        try:
            ring, f = make_curve(name, q=q)
            delta = conductor_of(f)[0]
        except (DomainError, ConductorError):
            continue
        assert_first_ring_is_the_fixpoint(ring, f, delta)
        walked += 1
    assert walked >= 6


@settings(max_examples=100, deadline=None)
@given(small_curves())
def test_first_ring_is_the_confirmed_fixpoint_on_random_curves(curve):
    ring, f, delta, _ = curve
    assert_first_ring_is_the_fixpoint(ring, f, delta)


TALL_30 = tall_30()


def walk_trace(monkeypatch) -> dict:
    """Wrap qth_closure's step, kernel and presentation; the dict they fill
    counts the walks (steps on S itself), the rows the kernels are passed and
    read (a row is read when its items() are), the kernels given a floor that
    left rows unread and the presentations tried, and keeps each kernel's
    dimension."""
    import intclose.closure
    seen = dict(walks=0, passed=0, read=0, stopped=0, tried=0, dims=[])
    step, kernel = intclose.closure.qth_power_step, intclose.closure.nullspace_mod
    present = intclose.closure.induce_presentation

    class Row(dict):
        def items(self):
            seen["read"] += 1
            return super().items()

    def counted_step(module, *args):
        seen["walks"] += all(e == 0 for e, _ in module.values())
        return step(module, *args)

    def counted_kernel(rows, ncols, q, floor=0):
        read = seen["read"]
        out = kernel([Row(r) for r in rows], ncols, q, floor)
        seen["passed"] += len(rows)
        seen["stopped"] += floor > 0 and seen["read"] - read < len(rows)
        seen["dims"].append(len(out))
        return out

    def counted_present(*args):
        seen["tried"] += 1
        return present(*args)

    monkeypatch.setattr(intclose.closure, "qth_power_step", counted_step)
    monkeypatch.setattr(intclose.closure, "nullspace_mod", counted_kernel)
    monkeypatch.setattr(intclose.closure, "induce_presentation", counted_present)
    return seen


def traced_closure(seen, info, dim) -> tuple:
    """``qth_closure`` on a usable prime's (ring, tail, delta) with ``dim``:
    (its record, walks, kernel dims, kernels stopped, presentations tried)."""
    seen.update(walks=0, stopped=0, tried=0, dims=[])
    pres = qth_closure(*info, dim)
    return pres, seen["walks"], seen["dims"], seen["stopped"], seen["tried"]


@pytest.mark.parametrize("name", sorted(CURVES) + sorted(TALL_30))
def test_closure_dimension_hint_changes_no_record(name, monkeypatch):
    # at every usable prime below 60, a walk given the closure's dimension, one
    # less, one more, or all of d*deg D returns the record of the walk given
    # none.  At the true dimension the kernels are exact and one walk does;
    # below it no kernel stops; above it the walk is taken again exactly when
    # a kernel stopped, as no iterate can then reach the closure.  At and
    # below it, only the closure is tried as a ring
    _, f = curve_or_tall(name)
    inputs, seen, walked = run_inputs(f), walk_trace(monkeypatch), 0
    for q in filter(is_prime, range(2, 60)):
        status, info = is_prime_usable(q, *inputs)
        if status == "skipped":
            continue
        want, walks, dims, _, _ = traced_closure(seen, info, 0)
        assert walks == 1
        # the closure's dim D*C/DS, read off the last kernel, is its leads' count
        true, leads = dims[-1] if dims else 0, want.leads[:-1]
        assert true == sum(leads[-1][1] - e for _, e in leads)
        d, xdeg = len(info[1]), max(info[2])
        for dim in sorted({true, max(true - 1, 0), true + 1, d * xdeg}):
            got, walks, _, stopped, tried = traced_closure(seen, info, dim)
            assert got == want
            assert walks == 1 + (dim > true and stopped > 0)
            assert dim >= true or not stopped
            assert tried == 1 or dim > true or not dim
        walked += 1
    assert walked >= 8


def test_sextic_walks_get_the_first_stage_dimension(monkeypatch):
    # run_algorithm1 passes no dimension to the first usable prime's walk
    # (q = 7) and, after it, the first stage's, 13, to every later one.  Its
    # kernels then read 1645 of the 5106 rows they are passed: a kernel that
    # reads every row again fails here, not only in the benchmark
    import intclose.driver
    passed, real, seen = {}, intclose.driver.run_prime, walk_trace(monkeypatch)

    def recorded(q, *args):
        passed[q] = args[-1]
        return real(q, *args)

    monkeypatch.setattr(intclose.driver, "run_prime", recorded)
    res = run_algorithm1(make_curve("sextic")[1])
    assert res.accepted and res.primes_used == (7, 11, 13, 19, 23, 29)
    assert passed == {5: 0, 7: 0, 11: 13, 13: 13, 17: 13, 19: 13, 23: 13, 29: 13}
    assert (seen["read"], seen["passed"]) == (1645, 5106)


@settings(max_examples=100, deadline=None)
@given(small_curves())
def test_step_columns_are_a_basis_of_n_mod_delta_s(curve):
    # the x^alpha*g_j with alpha < a_j are independent modulo delta*S, and
    # there are dim N/(delta*S) = d*deg(delta) - dim S/N of them
    ring, f, delta, q = curve
    d, xdeg = f.degree_in(0), delta.degree_in(1)
    for nums in walk(f, delta):
        prefix = [xdeg - g.lm[1] for g in nums]
        chosen = [g.mul_term((0, alpha)) for g, a in zip(nums, prefix)
                  for alpha in range(a)]
        assert rank_mod_conductor(chosen, delta, d, q) == len(chosen)
        assert len(chosen) == d * xdeg - codim_in_s(nums, delta, d, q)


def assert_columns_match_unreduced(f, delta, images_list):
    """At each step of the walk, ``_step_columns`` from each images in
    images_list equals x^(q*alpha)*NF(g_j^q) from the full images and the
    unreduced numerators, divided in full by the targets: compared with
    ``==``, so a missing, extra or empty row fails."""
    q, d, dx = f.ring.domain.char, f.degree_in(0), xdict(delta)
    poly_images, scale = frobenius_images_poly(f), scale_of(delta)
    for nums in walk(f, delta):
        prefix = [max(dx) - g.lm[1] for g in nums]
        want = step_columns_unreduced(nums, q, poly_images, delta, prefix)
        module = module_of(nums, f)
        for images in images_list:
            assert _step_columns(module, q, images, dx, scale) == want


@pytest.mark.parametrize("name", sorted(CURVES))
def test_reduced_columns_match_unreduced_division(name):
    # numerators reduced mod delta and images mod delta^q give each step the
    # columns of x^(q*alpha)*NF(g_j^q) divided in full by the targets, from
    # full images and from images reduced mod delta^q as qth_closure reads them
    for q, f_q, delta_q, run in fixture_runs(name):
        images, scale = images_of(f_q, unreduced(f_q)), scale_of(delta_q)
        assert scale == {e: c for (_, e), c in (delta_q ** (q - 1)).terms}
        delta_to_q = {e: c for (_, e), c in (delta_q ** q).terms}
        reduced = images_of(f_q, delta_q)
        assert reduced == tuple([quo_rem(a, delta_to_q, q)[1] for a in img]
                                for img in images)
        assert_columns_match_unreduced(f_q, delta_q, (images, reduced))


@settings(max_examples=100, deadline=None)
@given(small_curves())
def test_step_columns_match_unreduced_division_on_random_curves(curve):
    # random curves bring conductors that are not monomials, targets off the
    # diagonal, and spills that cross over several alpha
    _, f, delta, _ = curve
    assert_columns_match_unreduced(f, delta, (images_of(f, delta),))


def fixture_closures(name):
    """The fixture curve's per-prime closure at each usable prime 5..53 as
    printed: numerators, relations and psi(y), keyed by the prime."""
    ring, f = make_curve(name)
    inputs = run_inputs(f)
    runs = (run_prime(q, *inputs) for q in filter(is_prime, range(5, 54)))
    return {str(run.q): {"numerators": [str(g) for g in run.presentation.numerators],
                         "relations": [str(r) for r in run.presentation.relations],
                         "psi": str(run.presentation.inclusion_image)}
            for run in runs if run.usable}


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", sorted(CURVES))
def test_fixture_closures_match_golden(name):
    # fixture-closures.json holds {name: fixture_closures(name)} for every curve
    golden = json.loads((GOLDEN / "fixture-closures.json").read_text(encoding="utf-8"))
    assert fixture_closures(name) == golden[name]


def presentations_agree(nums, f):
    """induce_presentation equals the Polynomial oracle on the numerators, or
    both raise the same ClosureError, whose message is returned (None otherwise)."""
    try:
        want = induce_presentation_poly(nums, f)
    except ClosureError as exc:
        with pytest.raises(ClosureError) as got:
            induce_presentation(module_of(nums, f), tail_of(f), f.ring)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return str(exc)
    got = induce_presentation(module_of(nums, f), tail_of(f), f.ring)
    assert got.numerators == want.numerators == tuple(nums)
    assert got.ring == want.ring
    assert got.relations == want.relations
    assert got.inclusion_image == want.inclusion_image
    for a, b in zip(got.relations + (got.inclusion_image,),
                    want.relations + (want.inclusion_image,)):
        assert [type(c) for _, c in a.terms] == [type(c) for _, c in b.terms]
    return None


MISSES_Y = "inclusion image of y is not in the module"


@settings(max_examples=100, deadline=None)
@given(small_curves(min_degree=1))
def test_presentation_matches_polynomial_oracle(curve):
    ring, f, delta, q = curve
    nums = qth_closure(ring, tail_of(f), xdict(delta)).numerators
    assert numerators_interreduced(nums)
    assert presentations_agree(nums, f) is None
    if f.degree_in(0) > 1:             # the denominator alone misses y*delta
        assert presentations_agree(nums[-1:], f) == MISSES_Y


@pytest.mark.parametrize("name", sorted(CURVES))
def test_fixture_presentations_match_polynomial_oracle(name):
    # the closures at every usable prime 5..53, their denominators alone, and
    # the walks' modules short of the fixpoint that make fraction sets: on
    # the octic and the sextic some are not rings
    ring, f = make_curve(name)
    inputs, delta0 = run_inputs(f), conductor_of(f)[0]
    seen = set()
    for q in filter(is_prime, range(5, 54)):
        status, info = is_prime_usable(q, *inputs)
        if status != "usable":
            continue
        ring_q, tail, delta = info
        f_q, delta_q = mu_poly(f, ring_q), mu_poly(delta0, ring_q)
        nums = qth_closure(ring_q, tail, delta).numerators
        assert presentations_agree(nums, f_q) is None
        if f.degree_in(0) > 1:
            seen.add(presentations_agree(nums[-1:], f_q))
        for partial in list(walk(f_q, delta_q))[:-1]:
            # the walk's numerators are canonical: they make a fraction set
            # exactly when the one of y-degree 0 lies in P
            if partial[-1].in_subring(1):
                seen.add(presentations_agree(partial, f_q))
    off = seen - {None, MISSES_Y}
    assert all(re.fullmatch(r"fraction product \d+,\d+ leaves the module: not a fixpoint", m)
               for m in off)
    assert bool(off) == (name in ("octic", "sextic"))


@pytest.mark.parametrize("name", sorted(CURVES))
def test_psi_combination_inverts_combination(name):
    # psi(y) is built as the combination of y*delta's coefficients over the
    # numerators; psi_combination reads those coefficients back from psi(y)
    for q, f_q, delta_q, run in fixture_runs(name):
        pres = run.presentation
        y_delta = f_q.ring.var("y") * pres.denominator
        _, coeffs = module_reduce(normal_form(y_delta, [f_q]), pres.numerators)
        assert psi_combination(pres.inclusion_image, f_q.ring) == tuple(coeffs)
        assert list(pres.psi) == [{m[1]: c for m, c in ck.terms} for ck in coeffs]
        assert combination(coeffs, pres.ring) == pres.inclusion_image


def test_induce_presentation_needs_one_independent_variable():
    # a presentation takes the numerators and f's tail as F_q[x] vectors, one
    # x each; a second independent variable is refused before any run
    w = ((2, 1, 3),)
    ring = Ring(("y", "x2", "x1"), 1, GF(7), weight_over_grevlex(w, 3), w)
    with pytest.raises(DriverError, match="one independent variable"):
        run_charq(ring.parse("y^2 - x1*x2"))


# ---------------------------------------------------------------------------
# full closures against reference per-prime data


def test_closure_of_integrally_closed_curve():
    ring, f, delta, pres = closure_run("parabola", 5)
    assert delta == ring.one()
    assert [str(g) for g in pres.numerators] == ["y", "1"]
    assert [str(r) for r in pres.relations] == ["ybar^2 - x"]
    assert str(pres.inclusion_image) == "ybar"


def test_quadratic_curve_per_prime():
    expect = {5: ("x + 1", "ybar^2 + x"),
              11: ("x + 2", "ybar^2 + 4*x"),
              13: ("x - 3", "ybar^2 + 5*x")}
    for q, (dtxt, rtxt) in expect.items():
        ring, f, delta, pres = closure_run("quadratic", q)
        assert delta == ring.parse(dtxt)
        assert [str(g) for g in pres.numerators] == ["y", dtxt]
        assert len(pres.relations) == 1
        assert pres.relations[0] == pres.ring.parse(rtxt)
        # psi(y) = ybar * delta
        assert psi_combination(pres.inclusion_image, ring)[0] == delta
        assert strict_shape_ok(pres) and weight_balance_ok(pres)


def test_trident_per_prime_signature():
    for q in (3, 7, 13):
        ring, f, delta, pres = closure_run("trident", q)
        assert sorted(w[0] for w in fraction_weights(pres.vectors, ring.weights)) == [0, 7, 11]
        assert len(pres.relations) == 3
        lms = {str_mono(r.lm, pres.ring) for r in pres.relations}
        assert lms == {"ybar2^2", "ybar2*ybar1", "ybar1^2"}
        zrel = next(r for r in pres.relations
                    if str_mono(r.lm, pres.ring) == "ybar2^2")
        assert int(zrel.coeff_of((1, 0, 0))) == 8 % q
        assert strict_shape_ok(pres) and weight_balance_ok(pres)


def str_mono(mono, ring):
    parts = []
    for name, e in zip(ring.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def test_cubic_family_mod5_coefficients():
    # a = 1/3 -> 2, b = 8/7 -> -1 mod 5
    ring, f, delta, pres = closure_run("cubic_family", 5)
    texts = sorted(str(r) for r in pres.relations)
    assert texts == sorted([
        "ybar2^2 + 2*ybar2 - ybar1*x^3",
        "ybar2*ybar1 + 2*ybar1 - x^4",
        "ybar1^2 - ybar2*x",
    ])


def test_octic_fraction_weights_mod7():
    ring, f, delta, pres = closure_run("octic", 7)
    assert delta == ring.parse("x^24")
    assert pres.denominator == ring.parse("x^13")
    assert sorted(w[0] for w in fraction_weights(pres.vectors, ring.weights)) == [0, 4, 5, 9, 10, 14, 15, 19]


def test_octic_reduced_denominator_mod5():
    # the bad-prime case: conductor x^26 (x^3+1)^5 shrinks to x^13 (x^3+1)^2
    ring, f, delta, pres = closure_run("octic", 5)
    assert delta == ring.parse("x^26*(x^3 + 1)^5")
    assert pres.denominator == ring.parse("x^13*(x^3 + 1)^2")


def test_minimize_denominator_noop_when_minimal():
    ring, f, delta, module = fixpoint("quadratic", 5)
    module = minimize_denominator(module, 5)
    assert minimize_denominator(module, 5) is module


def test_sextic_mod23_matches_reduced_rational_numerators():
    ring, f, delta, pres = closure_run("sextic", 23)
    assert delta == ring.parse("x^9")
    assert pres.denominator == ring.parse("x^5")
    ring0, _ = make_curve("sextic")
    expect = {mu_poly(ring0.parse(t), ring) for t in SEXTIC_NUMERATORS}
    assert set(pres.numerators) == expect
    assert len(pres.relations) == 15
    _, rels0 = sextic_relations()
    expect_rels = {mu_poly(r, pres.ring) for r in rels0}
    assert set(pres.relations) == expect_rels
    assert pres.ring.weights == ((25, 21, 20, 11, 10, 6),)
    assert strict_shape_ok(pres) and weight_balance_ok(pres)


def test_ring_property_of_fixpoint():
    ring, f, delta, pres = closure_run("trident", 7)
    nums = list(pres.numerators)
    for i in range(len(nums)):
        for j in range(i, len(nums)):
            prod = normal_form(nums[i] * nums[j], [f])
            rem, _ = module_reduce(prod, [pres.denominator * g for g in nums])
            assert rem.is_zero()


def test_fraction_set_validation():
    ring, _ = make_curve("quadratic", q=5)
    rest = ({}, {}, {0: 1}, {})        # J = 1: a zero relation tail, and psi(y) = ybar
    with pytest.raises(ClosureError):  # 2*y, 1
        ClosurePresentation(({}, {0: 2}, {0: 1}, {}) + rest, ring, ring)
    with pytest.raises(ClosureError):  # x^2, x: two leads in y-degree 0, x divides x^2
        ClosurePresentation(({2: 1}, {}, {1: 1}, {}) + rest, ring, ring)
    # y, 1 is a record; J = 1 takes 8 maps, and one of another length, or
    # with psi(y) = 0, is refused before it is read
    nums = ({}, {0: 1}, {0: 1}, {})
    assert ClosurePresentation(nums + rest, ring, ring).leads == ((1, 0), (0, 0), (1, 0))
    for coords in (nums + rest[:3], nums + rest + ({}, {}), nums + ({},) * 4, nums[:2] + rest[2:]):
        with pytest.raises(ClosureError, match=r"layout, or psi\(y\) = 0$"):
            ClosurePresentation(coords, ring, ring)


def test_closure_requires_matching_characteristic():
    # q is read off the ring, which must be F_q[y; x]
    ring, f = make_curve("quadratic", q=5)
    with pytest.raises(ClosureError, match=re.escape("supports rings F_q[y; x] only")):
        qth_closure(ring.with_domain(QQ), tail_of(f), {0: 1})


def test_step_rejects_numerators_outside_delta_s():
    # a step reads its F_q-basis of N/(delta*S) off the leads, which needs
    # one lead per y-degree 0 .. d-1, none above delta's x-degree
    ring, f = make_curve("trident", q=7)
    delta = conductor_of(f)[0]
    images, scale, dx = images_of(f, delta), scale_of(delta), xdict(delta)
    start = start_module(3)
    high = {0: (max(dx) + 1, [{max(dx) + 1: 1}, {}, {}])}
    beyond = {3: (0, [{}, {}, {}])}                  # a key past y^(d-1)
    for module in ({2: start[2], 1: start[1]}, {2: start[2], 1: start[1]} | high,
                   start | beyond):
        with pytest.raises(ClosureError, match="^numerators must generate a module between"):
            qth_power_step(module, ring, images, dx, scale)
    assert qth_power_step(start, ring, images, dx, scale).keys() == {0, 1, 2}


def test_per_prime_containment_of_input_ideal():
    # the inclusion image of the defining relation lies in the induced ideal
    for name, q in (("quadratic", 5), ("trident", 7), ("cubic_family", 11)):
        ring, f, delta, pres = closure_run(name, q)
        image = psi_substitute(f, pres.inclusion_image, pres.ring)
        assert normal_form(image, list(pres.relations)).is_zero()


def test_fraction_numerators_identify_with_module_elements():
    # ybar_j * delta = g_j inside S: expressing g_j over the module returns
    # the unit combination
    ring, f, delta, pres = closure_run("trident", 7)
    nums = list(pres.numerators)
    for j, g in enumerate(nums):
        rem, coeffs = module_reduce(g, nums)
        assert rem.is_zero()
        assert coeffs[j] == ring.one()
        assert all(c.is_zero() for k, c in enumerate(coeffs) if k != j)


def test_fraction_variables_identify_with_numerators():
    # psi(g_j) and ybar_j * delta agree modulo the induced relations
    for name, q in (("trident", 7), ("quadratic", 13)):
        ring, f, delta, pres = closure_run(name, q)
        out = pres.ring
        J = out.ndep
        delta_out = psi_substitute(pres.denominator, pres.inclusion_image, out)
        for pos in range(J):
            g = pres.numerators[pos]
            image = psi_substitute(g, pres.inclusion_image, out)
            ybar_delta = out.var(out.names[pos]) * delta_out
            assert normal_form(image - ybar_delta, list(pres.relations)).is_zero()


def test_induce_detects_incomplete_module():
    # dropping a generator breaks the expression of y over the module
    ring, f, delta, module = fixpoint("quadratic", 5)
    broken = dict(list(minimize_denominator(module, 5).items())[-1:])
    with pytest.raises(ClosureError):
        induce_presentation(broken, tail_of(f), ring)


def test_trident_mod2_oversized_closure_values():
    # mod 2 the curve normalizes by a single cube root w = y/x^2 (w^3 = x):
    # fractions 1, w, w^2 over the reduced denominator x^4
    ring, f, delta, pres = closure_run("trident", 2)
    assert delta == ring.parse("x^6")
    assert pres.denominator == ring.parse("x^4")
    assert [str(g) for g in pres.numerators] == ["y^2", "y*x^2", "x^4"]
    assert [w[0] for w in fraction_weights(pres.vectors, ring.weights)] == [2, 1, 0]
    assert strict_shape_ok(pres) and weight_balance_ok(pres)
