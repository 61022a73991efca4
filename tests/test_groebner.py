"""Division, Buchberger, reduced bases, membership, and module reduction."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from intclose import (GF, QQ, ModuleVector, Ring, buchberger, head_reduce,
                      is_minimal_reduced_gb, minimal_reduced, module_gb,
                      module_normal_form, module_reduce, normal_form, s_poly,
                      weight_of)
from intclose.groebner import reduce_terms
from intclose.orders import mono_divides
from conftest import curve_ring, make_curve, sextic_relations
from oracles import (grevlex, ideal_contains, is_minimal_reduced_gb_full,
                     membership_oracle, reduce_terms_scan)


def test_normal_form_empty_gens():
    ring, f = make_curve("quadratic")
    assert normal_form(f, []) == f


def test_normal_form_single_step():
    ring, f = make_curve("cusp")
    assert normal_form(ring.parse("y^3"), [f]) == ring.parse("x^5 + y*x")


def test_normal_form_of_fraction_product():
    # the reduction rule encoded by the reference relation for ybar4 * ybar2
    ring, rels = sextic_relations()
    prod = ring.parse("ybar4*ybar2")
    expect = ring.parse("3/2*ybar4 + ybar3*x^2 + 15/17*ybar1*x - 9/8*ybar1")
    assert normal_form(prod, rels) == expect


def test_normal_form_idempotent():
    ring, rels = sextic_relations()
    rng = random.Random(3)
    mons = [tuple(rng.randint(0, 2) for _ in range(6)) for _ in range(40)]
    f = ring.poly({m: Fraction(rng.randint(-5, 5)) for m in mons})
    r = normal_form(f, rels)
    assert normal_form(r, rels) == r


def test_buchberger_single_polynomial():
    ring, f = make_curve("cusp")
    assert buchberger([f]) == [f.monic()]


def test_buchberger_trident_relations_closed():
    ring, rels = _trident_relations(7)
    assert sorted(map(str, buchberger(rels))) == sorted(map(str, rels))


def _trident_relations(q):
    from intclose import grevlex_over_weight
    w = ((11, 7, 3),)
    ring = Ring(("zbar", "ybar", "x"), 2, GF(q), grevlex_over_weight(w, 2, 3), w)
    rels = [ring.parse("zbar^2 + ybar*x^5 + 8*zbar"),
            ring.parse("zbar*ybar + x^6 + 8*ybar"),
            ring.parse("ybar^2 - zbar*x")]
    return ring, rels


def test_unit_ideal_reduces_to_one():
    ring = curve_ring((1, 1))
    g = minimal_reduced(buchberger([ring.parse("x"), ring.parse("x + 1")]))
    assert g == [ring.one()]


def test_minimal_reduced_idempotent_and_sorted():
    ring, rels = sextic_relations()
    red = minimal_reduced(rels)
    assert sorted(map(str, red)) == sorted(map(str, rels))
    key = ring.order.key
    keys = [key(g.lm) for g in red]
    assert keys == sorted(keys, reverse=True)


def test_minimal_reduced_permutation_determinism():
    ring, rels = _trident_relations(13)
    expect = None
    rng = random.Random(11)
    for _ in range(6):
        shuffled = rels[:]
        rng.shuffle(shuffled)
        got = minimal_reduced(buchberger(shuffled))
        if expect is None:
            expect = got
        assert got == expect


def test_is_minimal_reduced_gb_cases():
    ring, rels = _trident_qq(Fraction(8))
    assert is_minimal_reduced_gb(rels)
    ring2, rels2 = _trident_qq(Fraction(1, 7))  # the undersized mis-lift
    assert is_minimal_reduced_gb(rels2)
    bad_ring = curve_ring((1, 1))
    assert not is_minimal_reduced_gb([bad_ring.parse("y^2 - x"),
                                      bad_ring.parse("y^2")])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pruned_gb_check_matches_full_check(data):
    # monic interreduced sets that are Groebner bases (a Buchberger
    # completion, in two variables, where it stays small) or need not be
    # (the drawn generators, interreduced)
    ring, polys = _ring_and_polys(data)
    gens = data.draw(st.lists(polys.filter(bool), min_size=1, max_size=4))
    complete = ring.nvars == 2 and data.draw(st.booleans(), label="complete")
    basis = minimal_reduced(buchberger(gens) if complete else gens)
    assert is_minimal_reduced_gb(basis) == is_minimal_reduced_gb_full(basis)
    if complete:
        assert is_minimal_reduced_gb(basis)


def _trident_qq(c):
    from intclose import grevlex_over_weight
    w = ((11, 7, 3),)
    ring = Ring(("zbar", "ybar", "x"), 2, QQ, grevlex_over_weight(w, 2, 3), w)
    c = str(c)
    rels = [ring.parse(f"zbar^2 + ybar*x^5 + ({c})*zbar"),
            ring.parse(f"zbar*ybar + x^6 + ({c})*ybar"),
            ring.parse("ybar^2 - zbar*x")]
    return ring, rels


def test_ideal_contains():
    ring, rels = sextic_relations()
    gb = minimal_reduced(rels)
    assert ideal_contains(gb, ring.zero())
    for g in rels:
        assert ideal_contains(gb, g)
    assert not ideal_contains(gb, ring.parse("ybar1"))


def test_membership_matches_linear_algebra_oracle():
    q = 32003
    ring = Ring(("y", "x"), 1, GF(q), grevlex(2))
    rng = random.Random(2024)

    def rand_poly(deg, terms):
        acc = {}
        for _ in range(terms):
            i = rng.randint(0, deg)
            j = rng.randint(0, deg - i)
            acc[(i, j)] = rng.randint(1, q - 1)
        return ring.poly(acc)

    for trial in range(20):
        g1, g2 = rand_poly(3, 3), rand_poly(3, 3)
        if g1.is_zero() or g2.is_zero():
            continue
        gb = buchberger([g1, g2])
        if rng.random() < 0.5:
            f = rand_poly(2, 2) * g1 + rand_poly(2, 2) * g2  # a member
        else:
            f = rand_poly(4, 4)
        assert f.is_zero() or (normal_form(f, gb).is_zero()
                               == membership_oracle(f, [g1, g2], 8, q))


def test_weight_preserved_by_normal_form():
    ring, f = make_curve("cusp")
    for k in range(3, 9):
        g = ring.parse(f"y^{k}")
        r = normal_form(g, [f])
        assert not r.is_zero()
        assert weight_of(r) == weight_of(g)


def test_spoly_reduces_for_fixture_bases():
    ring, rels = sextic_relations()
    for i in range(len(rels)):
        for j in range(i + 1, len(rels)):
            assert normal_form(s_poly(rels[i], rels[j]), rels).is_zero()


# ---------------------------------------------------------------------------
# modules


def test_single_column_made_monic():
    ring = curve_ring((3, 2))
    v = ModuleVector((ring.parse("2*y^2 - 4*x"),))
    out = module_gb([v])
    assert len(out) == 1
    assert out[0].coords[0] == ring.parse("y^2 - 2*x")


def test_module_gb_constant_matrix_rank():
    # the number of reduced generators of a constant column module is its rank
    ring = curve_ring((1, 1))
    rng = random.Random(5)
    for _ in range(10):
        ncomp, ncols = rng.randint(2, 4), rng.randint(2, 5)
        cols = [[Fraction(rng.randint(-3, 3)) for _ in range(ncomp)]
                for _ in range(ncols)]
        vectors = [ModuleVector(tuple(ring.const(c) for c in col)) for col in cols]
        vectors = [v for v in vectors if not v.is_zero()]
        gb = module_gb(vectors)
        # fraction-field Gaussian elimination on the same columns
        mat = [list(col) for col in cols]
        rank = 0
        m = [row[:] for row in zip(*mat)]  # rows = components
        ncolsm = len(m[0]) if m else 0
        for c in range(ncolsm):
            piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            for r in range(len(m)):
                if r != rank and m[r][c] != 0:
                    fct = m[r][c] / m[rank][c]
                    m[r] = [a - fct * b for a, b in zip(m[r], m[rank])]
            rank += 1
        assert len(gb) == rank


def test_module_gb_position_dominates():
    ring = curve_ring((1, 1))
    one, zero = ring.one(), ring.zero()
    v1 = ModuleVector((ring.parse("y"), one))       # lead in position 1
    v2 = ModuleVector((ring.parse("x"), zero))      # lead in position 0
    assert v1.lead()[0] == 1
    assert v2.lead()[0] == 0
    gb = module_gb([v1, v2])
    leads = sorted(v.lead()[0] for v in gb)
    assert leads == [0, 1]


def test_module_gb_is_closed_under_s_vectors():
    # random two-component modules over GF(5): every same-position S-vector
    # of the computed basis reduces to zero, and the inputs reduce to zero
    from intclose import module_normal_form
    from intclose.orders import mono_div, mono_lcm
    ring = Ring(("y", "x"), 1, GF(5), grevlex(2))
    rng = random.Random(31)
    for _ in range(8):
        def rnd():
            return ring.poly({(rng.randint(0, 2), rng.randint(0, 2)):
                              rng.randint(1, 4) for _ in range(rng.randint(0, 3))})
        cols = [ModuleVector((rnd(), rnd())) for _ in range(3)]
        cols = [v for v in cols if not v.is_zero()]
        if not cols:
            continue
        gb = module_gb(cols)
        for v in cols:
            assert module_normal_form(v, gb).is_zero()
        dom = ring.domain
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                pi, mi, _ = gb[i].lead()
                pj, mj, _ = gb[j].lead()
                if pi != pj:
                    continue
                lcm = mono_lcm(mi, mj)
                s = ModuleVector(tuple(p.mul_term(mono_div(lcm, mi))
                                       for p in gb[i].coords)).add_scaled(
                    gb[j], mono_div(lcm, mj), dom.neg(dom.one))
                assert module_normal_form(s, gb).is_zero()


# ---------------------------------------------------------------------------
# every division entry point against the scanning reference division


def _ring_and_polys(data):
    """A random small ring over GF(7) or QQ and a strategy for its polynomials."""
    dom = data.draw(st.sampled_from((GF(7), QQ)))
    names, ndep = data.draw(st.sampled_from(((("y", "x"), 1), (("z", "y", "x"), 2))))
    ring = Ring(names, ndep, dom, grevlex(len(names)))
    coeffs = st.fractions(-4, 4, max_denominator=3).filter(bool)
    polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(names)),
                            coeffs, max_size=5).map(ring.poly)
    return ring, polys


def _leads(gens):
    return [(g.lm, g.lc, g.terms) for g in gens]


def _cancels(lm, m, fixed):
    return lm[:fixed] == m[:fixed] and mono_divides(lm, m)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_division_matches_scanning_reference(data):
    ring, polys = _ring_and_polys(data)
    dom, key = ring.domain, ring.order.key
    f = data.draw(polys)
    gens = data.draw(st.lists(polys.filter(bool), min_size=1, max_size=3))
    scale = data.draw(st.one_of(st.none(), polys.filter(bool)))
    targets = gens if scale is None else [scale * g for g in gens]
    for fixed, got, coeffs in (
            (0, normal_form(f, targets), None),
            (ring.ndep, *module_reduce(f, targets))):
        quots = [{} for _ in targets]
        rem = ring.poly(reduce_terms_scan(dict(f.terms), _leads(targets), dom, key,
                                          fixed, quotients=quots))
        assert got == rem
        assert not any(_cancels(t.lm, m, fixed) for m, _ in rem.terms for t in targets)
        combo = [ring.poly(q) for q in quots]
        assert f == sum((c * t for c, t in zip(combo, targets)), ring.zero()) + rem
        if coeffs is not None:
            assert coeffs == combo
    head = ring.poly(reduce_terms_scan(dict(f.terms), _leads(targets), dom, key,
                                       full=False))
    assert head_reduce(f, targets) == head
    assert head.is_zero() or not any(_cancels(t.lm, head.lm, 0) for t in targets)
    # head division by one divisor records its quotient, exact on a multiple
    d = targets[0]
    quot: dict = {}
    assert reduce_terms(dict((f * d).terms), _leads([d]), dom, key, full=False,
                        quotients=[quot]) == {}
    assert ring.poly(quot) == f
    quots = [{}, {}]
    assert (reduce_terms(dict(f.terms), _leads([d]), dom, key, full=False,
                         quotients=quots[:1])
            == reduce_terms_scan(dict(f.terms), _leads([d]), dom, key, full=False,
                                 quotients=quots[1:]))
    assert quots[0] == quots[1]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_module_normal_form_matches_scanning_reference(data):
    # position-up division is the scanning division of (position,) + monomial
    # terms with one fixed exponent, the position
    ring, polys = _ring_and_polys(data)
    key = ring.order.key
    vectors = st.tuples(polys, polys).map(ModuleVector)
    v = data.draw(vectors)
    gens = data.draw(st.lists(vectors.filter(lambda g: not g.is_zero()),
                              min_size=1, max_size=3))

    def flat(w):
        return {(pos,) + m: c for pos, p in enumerate(w.coords) for m, c in p.terms}

    def unflat(terms, pos):
        return ring.poly({m[1:]: c for m, c in terms.items() if m[0] == pos})

    leads = [((g.lead()[0],) + g.lead()[1], g.lead()[2], tuple(flat(g).items()))
             for g in gens]
    quots = [{} for _ in gens]
    rem = reduce_terms_scan(flat(v), leads, ring.domain,
                            lambda pm: (pm[0],) + key(pm[1:]), fixed=1,
                            quotients=quots)
    expect = ModuleVector((unflat(rem, 0), unflat(rem, 1)))
    assert module_normal_form(v, gens) == expect
    for pos in range(2):
        acc = expect.coords[pos]
        for q, g in zip(quots, gens):
            acc = acc + unflat(q, 0) * g.coords[pos]
        assert acc == v.coords[pos]
