"""Mod-N maps, rational reconstruction, CRT, usability, and certification."""

import math
import random
from dataclasses import replace
from functools import cache
from fractions import Fraction
from itertools import combinations_with_replacement, count, islice, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intclose import (GF, QQ, ClosureError, ClosurePresentation, ConductorError,
                      DomainError, LiftError, MonomialOrder, PrimeRun, Ring, SignatureError,
                      balanced, grevlex_over_weight, is_prime,
                      is_prime_usable, parse_problem, rat_recon,
                      reconcile_and_lift, run_algorithm1, run_charq, run_prime,
                      verify_candidate, RunConfig)
from intclose.closure import YBAR, by_y, fraction_weights, split_record
from intclose.lifting import (_specializes, closure_run, matrices_commute, point_residuals,
                              rejects_at_point, specializations)
from conftest import (CURVES, SEXTIC_INDUCED_WEIGHTS, conductor_of, curve_ring, make_curve,
                      run_inputs, tail_of, xdict)
from corpus import README_PROBLEM, workloads
from oracles import (crt, crt_sum_reference, is_prime_usable_reference, mod_n, mu_poly,
                     nullspace_rref, numerators_interreduced, psi_combination,
                     rat_recon_reference, reconcile_and_lift_reference,
                     verify_candidate_reference)


# ---------------------------------------------------------------------------
# scalar maps


@pytest.mark.parametrize("frac,n,expect", [
    (Fraction(1, 3), 5, 2),
    (Fraction(8, 7), 5, -1),
    (Fraction(1, 3), 11, 4),
    (Fraction(8, 7), 11, -2),
    (3, 7, 3),
    (Fraction(1, 3), 13, -4),   # derived: 3*9 = 27 = 2*13 + 1, and 9 = -4
    (Fraction(8, 7), 13, 3),
])
def test_mod_n_values(frac, n, expect):
    assert mod_n(frac, n) == expect


def test_mod_n_undefined():
    with pytest.raises(LiftError):
        mod_n(Fraction(13, 22), 2)
    with pytest.raises(LiftError):
        mod_n(Fraction(13, 22), 11)


def test_mod_n_tie_goes_up():
    assert mod_n(3, 6) == 3
    assert mod_n(-3, 6) == 3


@pytest.mark.parametrize("c,n,expect", [
    (8, 55, Fraction(1, 7)),
    (-238, 715, Fraction(1, 3)),
    (-101, 715, Fraction(8, 7)),
    (-18, 55, Fraction(1, 3)),
    (9, 55, Fraction(-1, 6)),
    (0, 55, Fraction(0)),
    (26, 55, Fraction(-3, 2)),
    (356, 715, Fraction(-3, 2)),
    (101, 715, Fraction(-8, 7)),
    (-9, 55, Fraction(1, 6)),
])
def test_rat_recon_values(c, n, expect):
    assert rat_recon(c, n) == expect


@pytest.mark.parametrize("n", [55, 715])
def test_roundtrips_exhaustive(n):
    for c in range(-(n - 1) // 2, n // 2 + 1):
        assert mod_n(rat_recon(c, n), n) == c
    for beta in range(1, 15):
        if math.gcd(beta, n) != 1:
            continue
        for alpha in range(-12, 13):
            frac = Fraction(alpha, beta)
            if frac.numerator ** 2 + frac.denominator ** 2 >= n:
                continue
            if math.gcd(frac.denominator, n) != 1:
                continue
            assert rat_recon(mod_n(frac, n), n) == frac


@settings(max_examples=300, deadline=None)
@given(st.integers(2, (1 << 63) - 1), st.data())
def test_roundtrip_random_word_sized(n, data):
    c = data.draw(st.integers(-((n - 1) // 2), n // 2))
    assert mod_n(rat_recon(c, n), n) == c


def test_crt_values():
    assert crt([(2, 5), (4, 11)]) == (-18, 55)
    assert crt([(-1, 5), (-2, 11)]) == (9, 55)
    assert crt([(-6, 13)]) == (-6, 13)         # single input is returned as is
    assert crt([(7, 13)]) == (-6, 13)          # ... up to the balanced rep
    assert crt([(-18, 5), (-18, 11), (-4, 13)]) == (-238, 715)
    with pytest.raises(LiftError):
        crt([(1, 5), (2, 5)])


def test_crt_congruences_random():
    rng = random.Random(99)
    primes = [5, 11, 13, 17, 19]
    for _ in range(1000):
        chosen = rng.sample(primes, rng.randint(1, 4))
        residues = [(rng.randrange(q), q) for q in chosen]
        value, modulus = crt(residues)
        assert modulus == math.prod(chosen)
        for a, q in residues:
            assert value % q == a % q
        assert -modulus / 2 < value <= modulus / 2


# ---------------------------------------------------------------------------
# polynomial maps: the fold and lift of one polynomial, through reconcile_and_lift


def _ybar_ring(domain):
    from intclose import grevlex_over_weight
    w = ((1, 2),)
    return Ring(("ybar", "x"), 1, domain, grevlex_over_weight(w, 1, 2), w)


PSI_J = 4                              # psi(y)'s J+1 coordinates hold y^0 .. y^4 of p


def _psi_run(p, q):
    """A usable run at q whose record carries p's y-coefficients as psi(y): the
    coordinate of ybar_k holds p's y^k-coefficient, that of 1 its y^0 one, and
    the output order ranks ybar_k*x^e as p's ring ranks y^k*x^e, so psi(y)'s
    lead is p's.  The numerators are y^J, .., y, 1 and the relation tails zero,
    so the record's last J+1 maps are p's CRT record and its psi(y) p's lift."""
    ring, J = p.ring, PSI_J
    rows = tuple(tuple(r[0] * (J - j) for j in range(J)) + (r[1],) for r in ring.order.rows)
    out = Ring(tuple(f"ybar{j}" for j in range(J, 0, -1)) + ("x",), J, ring.domain,
               MonomialOrder(rows))
    nums = [a for k in range(J, -1, -1) for a in by_y(ring.poly({(k, 0): 1}), J + 1)]
    tails = [{}] * ((J + 1) * J * (J + 1) // 2)
    coords = tuple(nums + tails + by_y(p, J + 1)[::-1])
    return PrimeRun(q, presentation=ClosurePresentation(coords, ring, out))


def _psi_terms(coords) -> dict:
    """p's {monomial: coefficient} map back off a record's psi(y) maps."""
    psi = split_record(coords, PSI_J + 1)[2]
    return {(PSI_J - j, e): c for j, a in enumerate(psi) for e, c in a.items()}


def _lifted_psi(state, ring):
    """The lifted record's own psi(y), ``inclusion_image``, taken back to ring:
    ybar_k to y^k and 1 to y^0, as ``_psi_run`` placed p's y-coefficients."""
    psi = state.presentation.inclusion_image
    J = psi.ring.ndep
    return ring.poly({(J - m[:J].index(1) if any(m[:J]) else 0, m[J]): c for m, c in psi.terms})


def _views(state) -> tuple:
    """The state's lifted numerators, relations and psi(y), as Polynomials."""
    pres = state.presentation
    return pres.numerators, pres.relations, pres.inclusion_image


def _fold_psi(polys):
    """Each stage's state, folding the ``_psi_run`` of every (p, q) in turn."""
    state, states = None, []
    for p, q in polys:
        state = reconcile_and_lift(_psi_run(p, q), state)
        states.append(state)
    return states


def _record(ring, text):
    """A polynomial's {monomial: int} map, as a CRT record holds it."""
    return dict(ring.with_domain(QQ).parse(text).terms)


def test_crt_poly_and_lift_chain():
    r5, r11, r13 = (_ybar_ring(GF(q)) for q in (5, 11, 13))
    qq = _ybar_ring(QQ)
    b5 = r5.parse("ybar^2 + x")
    b11 = r11.parse("ybar^2 + 4*x")
    b13 = r13.parse("ybar^2 + 5*x")
    _, st55, st715 = _fold_psi([(b5, 5), (b11, 11), (b13, 13)])
    assert _psi_terms(st55.crt) == _record(qq, "ybar^2 + 26*x") == \
        crt_sum_reference([b5, b11], (5, 11))
    assert _lifted_psi(st55, qq) == qq.parse("ybar^2 - 3/2*x")
    assert _psi_terms(st715.crt) == _record(qq, "ybar^2 + 356*x") == \
        crt_sum_reference([b5, b11, b13], (5, 11, 13))
    assert _lifted_psi(st715, qq) == qq.parse("ybar^2 - 3/2*x")


def test_crt_poly_denominator_chain():
    r5, r11, r13 = (curve_ring((3, 2), GF(q)) for q in (5, 11, 13))
    qq = curve_ring((3, 2), QQ)
    g5, g11, g13 = r5.parse("x + 1"), r11.parse("x + 2"), r13.parse("x - 3")
    _, st55, st715 = _fold_psi([(g5, 5), (g11, 11), (g13, 13)])
    assert _psi_terms(st55.crt) == _record(qq, "x - 9") == crt_sum_reference([g5, g11], (5, 11))
    assert _lifted_psi(st55, qq) == qq.parse("x + 1/6")
    assert _psi_terms(st715.crt) == _record(qq, "x + 101") == \
        crt_sum_reference([g5, g11, g13], (5, 11, 13))
    assert _lifted_psi(st715, qq) == qq.parse("x - 8/7")


def test_crt_poly_monicity_and_union_support():
    r5, r11 = (curve_ring((3, 2), GF(q)) for q in (5, 11))
    a = r5.parse("x^2 + 1")       # x term vanishes mod 5
    b = r11.parse("x^2 + 5*x + 1")
    state = _fold_psi([(a, 5), (b, 11)])[-1]
    out = _psi_terms(state.crt)
    assert out[(0, 2)] == 1 and _lifted_psi(state, curve_ring((3, 2))).is_monic()
    assert out[(0, 1)] % 5 == 0 and out[(0, 1)] % 11 == 5


def test_crt_poly_lm_mismatch():
    # the run's leading monomials are compared with the previous lift's, once
    r5, r11 = (curve_ring((3, 2), GF(q)) for q in (5, 11))
    prev = reconcile_and_lift(_psi_run(r5.parse("x + 1"), 5))
    with pytest.raises(SignatureError, match="^runs have incompatible closure signatures$"):
        reconcile_and_lift(_psi_run(r11.parse("x^2"), 11), prev)


def _assert_crt_folds(polys):
    """Folding one prime at a time into the last record equals the reference's
    all-at-once CRT sum over the primes at every prefix, the balanced residue
    of every input coefficient."""
    ring = curve_ring((3, 2))
    monos = {m for p, _ in polys for m, _ in p.terms}
    for k, state in enumerate(_fold_psi(polys), 1):
        (p, _), n, acc = polys[k - 1], state.modulus, _psi_terms(state.crt)
        assert n == math.prod(q for _, q in polys[:k])
        assert acc == crt_sum_reference([p2 for p2, _ in polys[:k]], [q for _, q in polys[:k]])
        assert max(acc, key=ring.order.key) == p.lm == _lifted_psi(state, ring).lm
        assert state.leads[-1] == state.presentation.inclusion_image.lm
        for m in monos:
            c = acc.get(m, 0)
            assert -n < 2 * c <= n
            assert all((c - p2.coeff_of(m)) % q2 == 0 for p2, q2 in polys[:k])
    return acc


def test_crt_fold_with_one_prime_support_and_zero_residue():
    rings = {q: curve_ring((3, 2), GF(q)) for q in (5, 7, 11)}
    ring = curve_ring((3, 2))
    polys = [(rings[5].parse("x^2 + 3*x"), 5),        # no constant term mod 5
             (rings[7].parse("x^2 + 1"), 7),           # x residue 0 mod 7
             (rings[11].parse("x^2 + 5*x + 2"), 11)]
    assert _assert_crt_folds(polys[:2]) == _record(ring, "x^2 - 7*x + 15")
    assert _assert_crt_folds(polys) == _record(ring, "x^2 - 182*x - 20")
    first = reconcile_and_lift(_psi_run(*polys[0]))
    assert _psi_terms(first.crt) == _record(ring, "x^2 - 2*x")
    assert crt([(5, 11)], -7, 35) == (-182, 385)
    with pytest.raises(LiftError, match="^duplicate primes in CRT input$"):
        reconcile_and_lift(_psi_run(*polys[0]), first)
    with pytest.raises(SignatureError):
        reconcile_and_lift(_psi_run(rings[7].parse("x^3"), 7), first)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_crt_fold_matches_crt_poly_at_every_prefix(data):
    # supports differ from prime to prime, and a drawn 0 is a zero residue
    order = curve_ring((3, 2)).order
    monos = [(i, e) for i in range(3) for e in range(4)]
    lm = max(monos, key=order.key)
    primes = data.draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17]),
                                min_size=1, max_size=5, unique=True))
    polys = []
    for q in primes:
        coeffs = data.draw(st.dictionaries(st.sampled_from(monos), st.integers(0, q - 1)))
        coeffs[lm] = data.draw(st.integers(1, q - 1))
        polys.append((curve_ring((3, 2), GF(q)).poly(coeffs), q))
    _assert_crt_folds(polys)


PRIMES_BELOW_200 = [q for q in range(2, 200) if is_prime(q)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(PRIMES_BELOW_200), min_size=1, max_size=6, unique=True),
       st.data())
def test_lift_keeps_support_and_specializes(primes, data):
    # a CRT record has only coefficients that are nonzero mod N, and a leading
    # one prime to N, as its runs share their leading monomial; lifting each
    # cannot fail, keeps every term, and reduces back to the record mod q | N
    n = math.prod(primes)
    ring = curve_ring((3, 2))
    monos = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)),
                               min_size=1, max_size=8, unique=True))
    monos.sort(key=ring.order.key, reverse=True)
    record = {m: balanced(data.draw(st.integers(1, n - 1)), n) for m in monos[1:]}
    record[monos[0]] = balanced(data.draw(
        st.integers(1, n - 1).filter(lambda c: math.gcd(c, n) == 1)), n)
    runs = [_psi_run(curve_ring((3, 2), GF(q)).poly(record), q) for q in primes]
    state = None
    for run in runs:
        state = reconcile_and_lift(run, state)
    assert _psi_terms(state.crt) == record
    lifted = _lifted_psi(state, ring)
    assert [m for m, _ in lifted.terms] == monos
    assert specializations(state, runs) == tuple((q, True) for q in primes)
    for q in primes:
        ring_q = curve_ring((3, 2), GF(q))
        assert mu_poly(lifted, ring_q) == ring_q.poly(record)


PRIMES_FOR_N = PRIMES_BELOW_200 + [1009, 65521, 1000003, 2147483647]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PRIMES_FOR_N), min_size=1, max_size=6, unique=True),
       st.data())
def test_rat_recon_matches_the_candidate_list_reference(primes, data):
    # the one-pass walk returns the sorted candidate list's first eligible
    # fraction, tie rule included, also when c shares primes with n or c = 0 mod n
    n = math.prod(primes)
    shared = math.prod(data.draw(st.lists(st.sampled_from(primes), unique=True)))
    c = shared * data.draw(st.integers(-n, n))
    assert rat_recon(c, n) == rat_recon_reference(c, n)


def test_rat_recon_skips_invalid_candidates():
    # 22 shares a factor with 55; the tempting (0, 5) remainder pair does not
    # satisfy the congruence and must be passed over for -11/2
    assert rat_recon(22, 55) == Fraction(-11, 2)
    assert mod_n(Fraction(-11, 2), 55) == 22


# ---------------------------------------------------------------------------
# usability, compatibility, verification


def test_usability_radical_curve():
    ring, f = make_curve("radical")
    inputs = run_inputs(f)
    expect = {2: "denominator", 11: "denominator", 13: "numerator",
              3: "conductor", 5: "conductor"}
    for q, why in expect.items():
        status, info = is_prime_usable(q, *inputs)
        assert status == "skipped" and why in info
    for q in (7, 17, 19):
        status, _ = is_prime_usable(q, *inputs)
        assert status == "usable"


def test_usability_quadratic_curve():
    ring, f = make_curve("quadratic")
    inputs = run_inputs(f)
    assert is_prime_usable(2, *inputs)[0] == "skipped"
    assert is_prime_usable(7, *inputs)[0] == "skipped"
    assert is_prime_usable(3, *inputs)[0] == "skipped"
    assert "numerator" in is_prime_usable(3, *inputs)[1]
    assert is_prime_usable(101, *inputs)[0] == "usable"


TALL_30 = {solve.label: solve.text for solve in workloads().tall_solves(7)[:30]}
TALL_7 = {name: TALL_30[name] for name in sorted(TALL_30)[:20]}


def _curve_or_tall(name):
    """(ring, f) of a fixture curve, or of a ``TALL_30`` problem."""
    if name in CURVES:
        return make_curve(name)
    problem = parse_problem(TALL_30[name])
    ring = problem.ring(QQ)
    return ring, problem.relation(ring)


@pytest.mark.parametrize("name", sorted(CURVES) + sorted(TALL_30))
def test_usability_matches_the_reference(name):
    # the lucky-prime shortcut, and f's tail and delta0 reduced mod q straight
    # from the rationals, change no status, reason, f_q or delta_q: against
    # the reference, which runs the GF(q) conductor at every prime and reduces
    # through mu_poly (``Ring.poly``), at every q, those dividing B included
    ring, f = _curve_or_tall(name)
    inputs, delta0 = run_inputs(f), conductor_of(f)[0]
    for q in range(2, 200):
        status, info = is_prime_usable(q, *inputs)
        want_status, want = is_prime_usable_reference(q, f, delta0)
        assert status == want_status
        if status == "skipped":
            assert info == want
            continue
        (ring_q, tail, delta), (f_q, delta_q) = info, want
        assert ring_q == f_q.ring
        assert tail == tail_of(f_q) and delta == xdict(delta_q)


@pytest.mark.parametrize("name", sorted(CURVES) + sorted(TALL_30))
def test_every_usable_prime_is_a_good_prime(name):
    # the sweep: at every prime the filter passes (below 60 for the fixture
    # curves, 200 for the tall problems), the closure has the accepted lift's
    # signature and is that lift reduced mod q, so no bad prime gets through
    _, f = _curve_or_tall(name)
    res = run_algorithm1(f)
    assert res.accepted
    state, inputs = res.certificate.state, run_inputs(f)
    for q in filter(is_prime, range(2, 60 if name in CURVES else 200)):
        status, info = is_prime_usable(q, *inputs)
        if status == "usable":
            run = closure_run(*info)
            assert run.presentation.leads == state.leads and _specializes(state, run)


def assert_lift_holds_at_unused_primes(f, config=None):
    """Run f through ``run_algorithm1``; the accepted lift has the leads of
    the closure at each of the next three primes past the schedule's last
    that ``is_prime_usable`` accepts, and reduces mod q to it."""
    res = run_algorithm1(f, config)
    assert res.accepted
    state, inputs = res.certificate.state, run_inputs(f)
    usable = (info for q in filter(is_prime, count(res.runs[-1].q + 1))
              for status, info in [is_prime_usable(q, *inputs)] if status == "usable")
    for info in islice(usable, 3):
        run = closure_run(*info)
        assert run.presentation.leads == state.leads and _specializes(state, run)


@pytest.mark.parametrize("name", ["readme", "sextic"] + [f"tall-7-{i:03d}" for i in range(10)])
def test_accepted_golden_lifts_hold_at_unused_primes(name):
    # the whole pipeline against independent per-prime closures: every
    # accepted char-0 golden problem, the README one at its primes 5, 11, 13
    if name == "readme":
        pf = parse_problem(README_PROBLEM)
        assert_lift_holds_at_unused_primes(pf.relation(pf.ring()), RunConfig(primes=(5, 11, 13)))
    else:
        assert_lift_holds_at_unused_primes(_problem(name)[1])


# the tall-char0 coefficients: numerator and denominator up to 10^5 in size
NONZERO = st.builds(Fraction, st.integers(1, 10**5) | st.integers(-10**5, -1),
                    st.integers(1, 10**5))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.booleans(), NONZERO, NONZERO)
def test_tall_family_lifts_hold_at_unused_primes(cubic, a, b):
    # the two tall-char0 families with random coefficients: the quadratic
    # node y^2 - b*x*(x - a)^2 and the cubic cusp y^3 + a*y*x + b*x^5
    ring = curve_ring((5, 3) if cubic else (3, 2))
    x, y = ring.var("x"), ring.var("y")
    if cubic:
        f = y ** 3 + (y * x).scale(a) + (x ** 5).scale(b)
    else:
        shifted = x - ring.const(a)
        f = y * y - shifted * shifted * x.scale(b)
    assert_lift_holds_at_unused_primes(f)


def test_compatibility_single_and_pair():
    _, f = make_curve("quadratic")
    inputs = run_inputs(f)
    # one run folds alone, and a second of the same signature onto it
    r5 = run_prime(5, *inputs)
    state = reconcile_and_lift(r5)
    r11 = run_prime(11, *inputs)
    assert reconcile_and_lift(r11, state).primes == (5, 11)


@pytest.mark.parametrize("name", ["trident", "octic"])
def test_charq_run_equals_the_prime_run(name):
    # one record, one result: the charq closure is the usable run at q
    ring, f = make_curve(name)
    _, f_q = make_curve(name, q=7)
    charq = run_charq(f_q)
    run = run_prime(7, *run_inputs(f))
    assert charq.usable and run.usable
    assert charq.delta_q == run.delta_q
    assert charq.presentation.numerators == run.presentation.numerators
    assert charq.presentation == run.presentation


def _forced_run(name, q, delta=None):
    """Closure run that skips the usability filter (optionally forcing the
    denominator, e.g. the image of the rational conductor)."""
    ring, f = make_curve(name, q=q)
    if delta is None:
        delta = conductor_of(f)[0]
    else:
        delta = mu_poly(delta, ring)
    return closure_run(ring, tail_of(f), xdict(delta))


@pytest.mark.parametrize("J", range(1, 8))
def test_relation_leads_sort_by_j_alone(J):
    # the output order puts ybar-block grevlex on top, so the relations' leads
    # ybar_a*ybar_b, a <= b, sort alike under every weight matrix, the
    # sextic's and the octic's induced weights among them: J alone fixes them,
    # and a run's signature leaves them out
    rng = random.Random(J)
    weights = [((0,) * (J + 1),), ((1,) * (J + 1),), ((0,) * J + (50,),),
               tuple(tuple(rng.randint(0, 30) for _ in range(J + 1)) for _ in range(2))]
    if J == 5:
        weights.append((SEXTIC_INDUCED_WEIGHTS,))
    if J == 7:
        weights.append(_forced_run("octic", 7).presentation.ring.weights)
    leads = [tuple(int(i == a) + int(i == b) for i in range(J)) + (0,)
             for a, b in combinations_with_replacement(range(J), 2)]
    assert len({tuple(sorted(leads, key=grevlex_over_weight(w, J, J + 1).key, reverse=True))
                for w in weights}) == 1


@cache
def _fixture_runs_to_31() -> dict:
    """{(curve, q): run} for every fixture curve at every prime 2 .. 31 where a
    closure run, forced past the usability filter as ``_forced_run`` is, succeeds."""
    runs = {}
    for name in sorted(CURVES):
        for q in filter(is_prime, range(2, 32)):
            try:
                runs[name, q] = _forced_run(name, q)
            except (ClosureError, ConductorError, DomainError):
                continue
    return runs


def test_signature_decides_as_every_leading_monomial():
    # the fold compares the numerators' leads and psi(y)'s, read off the
    # record's coordinates; on every pair of runs that decides as comparing
    # the leading monomials of all the record's Polynomials does
    runs = _fixture_runs_to_31()
    assert len(runs) == 77
    full = {key: tuple(p.lm for p in run.presentation.numerators + run.presentation.relations
                       + (run.presentation.inclusion_image,)) for key, run in runs.items()}
    sig = {key: run.presentation.leads for key, run in runs.items()}
    for a in runs:
        assert all((sig[a] == sig[b]) == (full[a] == full[b]) for b in runs)
        assert sig[a][-1] == runs[a].presentation.inclusion_image.lm
    assert sig["trident", 2] != sig["trident", 7]


def test_char0_runs_build_no_per_prime_polynomial(tmp_path, monkeypatch, capsys):
    # the README problem at 5, 11, 13: each prime's record is read only as
    # plain data, so no Polynomial over GF(q) is built for its numerators
    # (from_y) or its relations and psi(y) (an output ring's _sorted); the
    # audit log renders their leads off the record, so a logged run builds
    # none either.
    # test_point_rejected_stages_build_no_lifted_record counts the stages'
    # exact work on the same runs, and holds the log to its bytes
    import intclose.closure
    from intclose import cli
    built = []
    real_from_y, real_sorted = intclose.closure.from_y, Ring._sorted

    def from_y(vectors, ring):
        if ring.domain.char:
            built.append("from_y")
        return real_from_y(vectors, ring)

    def _sorted(self, terms):
        if self.domain.char and self.names[0].startswith(YBAR):
            built.append("_sorted")
        return real_sorted(self, terms)

    monkeypatch.setattr(intclose.closure, "from_y", from_y)
    monkeypatch.setattr(Ring, "_sorted", _sorted)
    path = tmp_path / "problem.txt"
    path.write_text(README_PROBLEM, encoding="utf-8")
    assert cli.main([str(path), "--primes", "5,11,13"]) == 0
    bare = capsys.readouterr()
    assert built == []
    assert cli.main([str(path), "--primes", "5,11,13", "--log", str(tmp_path / "log")]) == 0
    assert capsys.readouterr() == bare
    assert built == []


def test_compatibility_rejects_oversized_closure():
    # mod 2 the trident closure is generated by a single stray fraction and
    # its signature cannot be reconciled with the generic one
    r2 = _forced_run("trident", 2)
    r7 = _forced_run("trident", 7)
    with pytest.raises(SignatureError):
        reconcile_and_lift(r7, reconcile_and_lift(r2))
    with pytest.raises(SignatureError):
        reconcile_and_lift_reference([r2, r7])


def test_run_incompatible_with_the_first_usable_one_is_skipped(monkeypatch):
    # forced usable at q = 2, the oversized trident closure comes first, so
    # the generic closure at q = 7 is the one that does not match
    import intclose.driver
    real_run_prime = intclose.driver.run_prime
    r2 = _forced_run("trident", 2)
    monkeypatch.setattr(intclose.driver, "run_prime",
                        lambda q, *args: r2 if q == 2 else real_run_prime(q, *args))
    _, f = make_curve("trident")
    res = run_algorithm1(f, RunConfig(primes=(2, 7)))
    assert [(r.q, r.reason) for r in res.runs] == \
        [(2, None), (7, "incompatible closure signature")]
    assert "q=7 skipped: incompatible closure signature" in res.audit
    assert [cert.state.primes for cert in res.stages] == [(2,)]


def test_verify_accepts_large_enough_modulus(quadratic):
    _, f = quadratic
    res = run_algorithm1(f, RunConfig(primes=(5, 11, 13)))
    assert res.accepted
    cert = res.certificate
    assert cert.gb_ok and cert.containment_ok and cert.numerators_ok
    assert cert.per_prime and all(ok for _, ok in cert.per_prime)


def test_verify_rejects_undersized_modulus(quadratic):
    _, f = quadratic
    res = run_algorithm1(f, RunConfig(primes=(5, 11)))
    assert not res.accepted
    cert = res.stages[-1]
    assert cert.gb_ok
    assert not cert.containment_ok
    qq = cert.state.presentation.relations[0].ring
    assert cert.residual == qq.parse("55/14*x^2 - 2255/1176*x")


def test_trident_rejects_at_55_with_reference_residual():
    _, f = make_curve("trident")
    delta0 = conductor_of(f)[0]
    r5 = run_prime(5, *run_inputs(f))
    # the conductor filter would skip 11; force the rational conductor image
    r11 = _forced_run("trident", 11, delta=delta0)
    state = reconcile_and_lift(r11, reconcile_and_lift(r5))
    ref = reconcile_and_lift_reference([r5, r11])
    assert state == ref and _views(state) == _views(ref)
    assert state.modulus == 55
    out = state.presentation.relations[0].ring
    texts = sorted(str(r) for r in state.presentation.relations)
    assert texts == sorted(["ybar2^2 + 1/7*ybar2 + ybar1*x^5",
                            "ybar2*ybar1 + 1/7*ybar1 + x^6",
                            "ybar1^2 - ybar2*x"])
    cert = verify_candidate(state, tail_of(f))
    assert cert.gb_ok and not cert.containment_ok
    assert cert.residual == out.parse("55/7*ybar1*x")


def test_trident_accepts_beyond_65():
    _, f = make_curve("trident")
    res = run_algorithm1(f, RunConfig(primes=(7, 13)))
    assert res.accepted
    out = res.presentation.ring
    assert set(res.presentation.relations) == {
        out.parse("ybar2^2 + 8*ybar2 + ybar1*x^5"),
        out.parse("ybar2*ybar1 + 8*ybar1 + x^6"),
        out.parse("ybar1^2 - ybar2*x")}


GOLDEN = Path(__file__).resolve().parent / "golden"


def _problem(name):
    if name in CURVES:
        return make_curve(name)
    pf = parse_problem((GOLDEN / f"{name}.txt").read_text(encoding="utf-8"))
    ring = pf.ring()
    return ring, pf.relation(ring)


@pytest.mark.parametrize("name", sorted(CURVES) + [f"tall-7-{i:03d}" for i in range(10)])
def test_every_lifted_stage_specializes_and_folds_like_a_full_crt(name):
    # per_prime is evaluated only for the printed stage, the last that
    # lifted; it holds on all of them.  Each stage's CRT record, folded from
    # the previous one, is the one reconciled from all its runs at once by
    # the reference, and so is the lifted record it builds when read.
    _, f = _problem(name)
    res = run_algorithm1(f)
    usable = [r for r in res.runs if r.usable]
    assert len(res.stages) == len(usable)
    lifted = [k for k, cert in enumerate(res.stages, 1) if cert.state.lifted]
    for k, cert in enumerate(res.stages, 1):
        ref = reconcile_and_lift_reference(usable[:k])
        assert cert.state == ref and _views(cert.state) == _views(ref)
        # the lifted support is the union of the runs' under the same leads
        assert numerators_interreduced(cert.state.presentation.numerators)
        if not cert.state.lifted:
            continue
        assert all(_specializes(cert.state, r) for r in usable[:k])
        assert specializations(cert.state, res.runs) == \
            tuple((r.q, True) for r in usable[:k])
        per_prime = specializations(cert.state, usable) if k == lifted[-1] else ()
        assert cert.per_prime == per_prime
    assert res.certificate.per_prime == tuple((r.q, True) for r in usable)


BITS = ("gb_ok", "containment_ok", "numerators_ok")


@pytest.mark.parametrize("name", sorted(CURVES) + sorted(TALL_7))
def test_lazy_certificate_matches_the_eager_reference(name):
    # every stage's decision and bits are the reference's, whichever bit is
    # read first after the decision; the residual is, where the relations are
    # a Groebner basis, as only there is a remainder unique (the sextic's
    # first five stages are not, and reduce psi(f) to another remainder)
    _, f = _curve_or_tall(name)
    res = run_algorithm1(f)
    assert res.accepted
    for stage in res.stages:
        ref = verify_candidate_reference(stage.state, f)
        assert (stage.accepted, stage.gb_ok, stage.containment_ok, stage.numerators_ok) == \
            (ref.accepted, *ref[:3])
        for order in permutations(BITS + ("residual",)):
            cert = verify_candidate(stage.state, tail_of(f))
            assert cert.accepted == ref.accepted
            read = [bit for bit in order if ref.gb_ok or bit != "residual"]
            assert [getattr(cert, bit) for bit in read] == [getattr(ref, bit) for bit in read]


def test_gb_check_runs_only_where_the_decision_or_the_log_needs_it(tmp_path, monkeypatch, capsys):
    # a cubic whose rejected stages fail containment: without --log the Groebner
    # check runs only on the stages whose containment and numerators hold
    import intclose.lifting
    from intclose import cli
    name = "tall-001"
    _, f = _curve_or_tall(name)
    assert f.degree_in(0) == 3
    refs = [verify_candidate_reference(c.state, f) for c in run_algorithm1(f).stages]
    decided = sum(r.containment_ok and r.numerators_ok for r in refs)
    assert 0 < decided < len(refs)
    calls = []
    real = intclose.lifting.matrices_commute
    monkeypatch.setattr(intclose.lifting, "matrices_commute",
                        lambda state: calls.append(1) or real(state))
    path, log = tmp_path / "problem.txt", tmp_path / "audit.log"
    path.write_text(TALL_7[name], encoding="utf-8")
    assert cli.main([str(path)]) == 0
    bare = capsys.readouterr()
    assert len(calls) == decided
    calls.clear()
    assert cli.main([str(path), "--log", str(log)]) == 0
    assert len(calls) == len(refs)
    assert capsys.readouterr() == bare
    assert log.read_text(encoding="utf-8").count(" gb=") == len(refs)


@cache
def _accepted_stages() -> tuple:
    """(state, f) of the first stage that the exact reference accepts, folding
    the usable runs in schedule order: of the README problem at 5, 11, 13 and
    of the first ten ``TALL_7`` problems.  No point test picks them."""
    out = []
    for name in ["quadratic"] + sorted(TALL_7)[:10]:
        _, f = _curve_or_tall(name)
        inputs, state = run_inputs(f), None
        for q in (5, 11, 13) if name in CURVES else PRIMES_BELOW_200:
            run = run_prime(q, *inputs)
            if run.usable:
                try:
                    state = reconcile_and_lift(run, state)
                except SignatureError:
                    continue
                if verify_candidate_reference(state, f).accepted:
                    break
        assert verify_candidate_reference(state, f).accepted
        out.append((state, f))
    return tuple(out)


def test_point_test_rejects_no_accepted_stage():
    assert not any(rejects_at_point(state, tail_of(f)) for state, f in _accepted_stages())


def _moved(state, data, coords=None):
    """``state`` with one coefficient of one of the lift's maps at ``coords``
    (all of them by default) moved by a small nonzero rational."""
    lift = list(state.lift)
    k = data.draw(st.sampled_from([i for i in coords or range(len(lift)) if lift[i]]))
    m = data.draw(st.sampled_from(sorted(lift[k])))
    lift[k] = dict(lift[k])
    c = lift[k].pop(m) + Fraction(data.draw(st.integers(-50, 50).filter(bool)),
                                  data.draw(st.integers(1, 50)))
    if c:
        lift[k][m] = c
    return replace(state, lift=tuple(lift))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_rejection_is_an_exact_rejection(data):
    # one coefficient of a numerator, a relation's tail or psi(y) of an accepted
    # lift moved by a small rational (or left alone): whenever psi(f) is nonzero
    # at the point, the exact checks reject the stage, on containment or gb;
    # whenever psi(f) vanishes there and a numerator's value does not, they
    # reject it on the numerators or gb.  A moved lead that leaves no lifted
    # record is rejected at the point, before any record is built.
    state, f = data.draw(st.sampled_from(_accepted_stages()))
    moved = _moved(state, data) if data.draw(st.booleans()) else state
    values = list(point_residuals(moved, tail_of(f)))
    rejected = any(map(any, values))
    assert rejects_at_point(moved, tail_of(f)) == rejected
    try:
        ref = verify_candidate_reference(moved, f)
    except ClosureError:
        assert rejected and not verify_candidate(moved, tail_of(f)).accepted
        return
    if any(values[0]):
        assert not (ref.containment_ok and ref.gb_ok)
    elif rejected:
        assert not (ref.numerators_ok and ref.gb_ok)
    cert = verify_candidate(moved, tail_of(f))
    assert cert.accepted == ref.accepted
    assert (cert.containment_ok, cert.numerators_ok, cert.gb_ok) == \
        (ref.containment_ok, ref.numerators_ok, ref.gb_ok)


def _run_stages(f, config=None) -> tuple:
    return tuple((cert.state, f) for cert in run_algorithm1(f, config).stages)


@cache
def _stages(name) -> tuple:
    """(state, f) of every stage of a fixture curve, of a ``TALL_30`` problem,
    or of the README problem at 5, 11, 13."""
    if name == "readme":
        pf = parse_problem(README_PROBLEM)
        f, config = pf.relation(pf.ring()), RunConfig(primes=(5, 11, 13))
    else:
        f, config = _curve_or_tall(name)[1], None
    return _run_stages(f, config)


@pytest.mark.parametrize("name", sorted(CURVES) + ["readme"] + sorted(TALL_30))
def test_gb_bit_is_the_reference_on_every_stage(name):
    # the commuting-matrices bit is the S-pair reference's on every stage;
    # the sextic's stages before the accepted one are not Groebner bases
    bits = [matrices_commute(state) for state, _ in _stages(name)]
    assert bits == [verify_candidate_reference(*stage).gb_ok for stage in _stages(name)]
    if name == "sextic":
        assert bits == [False] * 5 + [True]


def test_point_test_rejects_the_sextic_stages_that_fail_on_the_numerators():
    # psi(f) vanishes on the sextic's stages 3 to 5, which fail on the
    # numerators: the point test rejects every stage before the accepted one
    stages = _stages("sextic")
    refs = [verify_candidate_reference(*stage) for stage in stages]
    assert [(r.containment_ok, r.numerators_ok) for r in refs] == \
        [(False, False)] * 2 + [(True, False)] * 3 + [(True, True)]
    assert [rejects_at_point(state, tail_of(f)) for state, f in stages] == [True] * 5 + [False]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gb_bit_is_the_reference_on_moved_tables(data):
    # one coefficient of a relation's tail of an accepted lift moved, so that
    # the relations are mostly not a Groebner basis: the bits still agree
    state, f = data.draw(st.sampled_from(_accepted_stages()[1:] + _stages("sextic")[-1:]))
    J = state.rings[1].ndep
    moved = _moved(state, data, range((J + 1) ** 2, len(state.lift) - J - 1))
    assert matrices_commute(moved) == verify_candidate_reference(moved, f).gb_ok


# curves whose psi(y) has a constant coordinate (on ybar_J .. ybar_1, 1), as
# a numerator y - c over delta gives; no fixture curve's psi(y) has one
SHIFTED = {"(y - x)^2 - 3*x*(x - 2)^2": [[3, 2]], "(y - x)^3 - x*(x - 1)^3": [[4, 3]],
           "(y - x^2)^3 - x^4*(x - 1)^3": [[7, 3]]}


@cache
def _shifted_stages(relation) -> tuple:
    pf = parse_problem(f"indvars: x\ndepvar: y\nweights: {SHIFTED[relation]}\n"
                       f"relation: {relation}\n")
    return _run_stages(pf.relation(pf.ring()))


@pytest.mark.parametrize("relation", sorted(SHIFTED))
def test_certificate_reads_the_constant_coordinate_of_psi(relation):
    # every stage's decision and bits are the reference's, and the accepted
    # stage's psi(y) has a nonzero constant coordinate
    stages = _shifted_stages(relation)
    state, f = stages[-1]
    J = state.rings[1].ndep
    assert split_record(state.lift, J + 1)[2][J]
    assert not rejects_at_point(state, tail_of(f))
    for stage in stages:        # every stage is of the one relation f
        ref, cert = verify_candidate_reference(*stage), verify_candidate(stage[0], tail_of(f))
        assert (cert.accepted, cert.gb_ok, cert.containment_ok, cert.numerators_ok) == \
            (ref.accepted, *ref[:3])
        assert cert.residual == ref.residual or not ref.gb_ok
    assert cert.accepted


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_bits_are_the_reference_on_moved_tables(data):
    # any one coefficient of an accepted lift, or of any stage of the sextic
    # or of a ``SHIFTED`` curve, moved by a small rational: the decision is the
    # reference's wherever the reference can build the lifted record, and a
    # record it cannot build is rejected.  Where the relations are a Groebner
    # basis every bit and the residual are the reference's; elsewhere a
    # remainder is not unique, and containment and the numerators read the
    # table's order of reduction
    shifted = sum(map(_shifted_stages, sorted(SHIFTED)), ())
    state, f = data.draw(st.sampled_from(_accepted_stages() + _stages("sextic") + shifted))
    moved = _moved(state, data)
    cert = verify_candidate(moved, tail_of(f))
    try:
        ref = verify_candidate_reference(moved, f)
    except ClosureError:
        assert not cert.accepted
        return
    assert cert.accepted == ref.accepted
    if ref.gb_ok:
        assert (cert.gb_ok, cert.containment_ok, cert.numerators_ok, cert.residual) == ref
    else:
        assert not cert.gb_ok


def test_the_certificate_shares_no_reduction_code_with_its_oracle():
    # the exact bits and their reference, ``verify_candidate_reference``
    # (S-pairs and ``normal_form`` on Polynomials), take separate paths:
    # lifting binds nothing that groebner defines
    import intclose.groebner
    import intclose.lifting
    bound = vars(intclose.lifting).items()
    assert [k for k, v in bound if getattr(v, "__module__", None) == "intclose.groebner"] == []
    assert intclose.groebner not in vars(intclose.lifting).values()


def test_point_rejected_stages_build_no_lifted_record(tmp_path, monkeypatch, capsys):
    # the README problem at 5, 11, 13: the two stages that fail containment are
    # rejected at the point, with no exact residual and no lifted record; the
    # accepted one reduces psi(f) and its one numerator exactly, over the lift's
    # maps, and builds its record once, to print it.  The audit log still holds
    # every stage's exact bits.
    import intclose.driver
    import intclose.lifting
    import intclose.xpoly
    from intclose import cli
    stage, counts = [None], {}
    real_residuals, real_init = intclose.lifting.table_residuals, ClosurePresentation.__init__
    real_verify = intclose.driver.verify_candidate

    def count(kind):
        key = (stage[0], kind)
        counts[key] = counts.get(key, 0) + 1

    def verify(state, tail):
        stage[0] = state.modulus
        return real_verify(state, tail)

    def init(self, coords, input_ring, *rest):
        if input_ring.domain == QQ:
            count("lifted")
        real_init(self, coords, input_ring, *rest)

    monkeypatch.setattr(intclose.driver, "verify_candidate", verify)
    def residuals(state, tail, coord, dot):     # counts the exact residuals drawn
        for r in real_residuals(state, tail, coord, dot):
            if dot is intclose.xpoly.sub_dot:
                count("exact")
            yield r

    monkeypatch.setattr(intclose.lifting, "table_residuals", residuals)
    monkeypatch.setattr(ClosurePresentation, "__init__", init)
    path, log = tmp_path / "problem.txt", tmp_path / "audit.log"
    path.write_text(README_PROBLEM, encoding="utf-8")
    assert cli.main([str(path), "--primes", "5,11,13"]) == 0
    bare = capsys.readouterr()
    assert counts == {(715, "lifted"): 1, (715, "exact"): 2}
    assert cli.main([str(path), "--primes", "5,11,13", "--log", str(log)]) == 0
    assert capsys.readouterr() == bare
    assert log.read_bytes() == "".join(line + "\n" for line in [
        "conductor: x - 8/7",
        "q=5 usable delta=x + 1 J=1 lm_g=[y,x] K=1 lm_b=[ybar^2]",
        "N=5 primes=5 lift=ok gb=True containment=False numerators=True accepted=False",
        "q=11 usable delta=x + 2 J=1 lm_g=[y,x] K=1 lm_b=[ybar^2]",
        "N=55 primes=5,11 lift=ok gb=True containment=False numerators=True accepted=False",
        "q=13 usable delta=x - 3 J=1 lm_g=[y,x] K=1 lm_b=[ybar^2]",
        "N=715 primes=5,11,13 lift=ok gb=True containment=True numerators=True accepted=True"]).encode()


def test_specialization_of_accepted_candidate(quadratic):
    _, f = quadratic
    res = run_algorithm1(f, RunConfig(primes=(5, 11, 13)))
    state = res.stages[-1].state
    for q in (5, 11, 13):
        rq = curve_ring((3, 2), GF(q))
        run = next(r for r in res.runs if r.q == q)
        assert [mu_poly(p, rq) for p in state.presentation.numerators] == \
            list(run.presentation.numerators)


def test_specializations_catch_a_perturbed_lift(quadratic):
    # one lifted coefficient plus 1 no longer reduces to the run at any used
    # prime; one whose denominator a used prime divides cannot be reduced
    _, f = quadratic
    res = run_algorithm1(f, RunConfig(primes=(5, 11, 13)))
    state = res.stages[-1].state
    nums = state.presentation.numerators
    qq = state.presentation.denominator.ring
    # the lift's map that the record reads as g_0's y^0-coefficient
    k = next(i for i, a in enumerate(state.lift) if a is state.presentation.vectors[-1][0])

    def with_denominator(text):
        return replace(state, lift=state.lift[:k] + ({m[1]: c for m, c in qq.parse(text).terms},)
                       + state.lift[k + 1:])

    assert nums[-1] == qq.parse("x - 8/7")
    assert specializations(state, res.runs) == ((5, True), (11, True), (13, True))
    assert specializations(with_denominator("x - 1/7"), res.runs) == \
        ((5, False), (11, False), (13, False))
    with pytest.raises(LiftError, match="^a lifted denominator vanishes mod 5$"):
        specializations(with_denominator("x - 8/35"), res.runs)


def test_cubic_family_restores_coefficients():
    _, f = make_curve("cubic_family")
    res = run_algorithm1(f, RunConfig(primes=(5, 11, 13)))
    assert res.accepted
    out = res.presentation.ring
    assert set(res.presentation.relations) == {
        out.parse("ybar2^2 + 1/3*ybar2 + 8/7*ybar1*x^3"),
        out.parse("ybar2*ybar1 + 1/3*ybar1 + 8/7*x^4"),
        out.parse("ybar1^2 - ybar2*x")}
    assert str(res.presentation.inclusion_image) == "ybar1"


def test_radical_curve_with_good_primes():
    _, f = make_curve("radical")
    res = run_algorithm1(f, RunConfig(primes=(7, 17, 19)))
    assert res.accepted  # 7*17*19 = 2261 > 22^2 + 13^2
    out = res.presentation.ring
    assert list(res.presentation.relations) == [
        out.parse("ybar^2 + 13/22*x^5 + 13/22*x^3 + 13/22*x")]


def test_budget_exhausted_is_reported(quadratic):
    _, f = quadratic
    res = run_algorithm1(f, RunConfig(primes=(5,)))
    assert not res.accepted
    assert res.certificate is not None and not res.certificate.accepted
    assert any("exhausted" in line for line in res.audit)


def test_run_config_rejects_duplicate_or_composite_primes(quadratic):
    from intclose import DriverError
    with pytest.raises(DriverError):
        RunConfig(primes=(5, 5))
    with pytest.raises(DriverError):
        RunConfig(primes=(5, 9))


def test_reconcile_rejects_incompatible_runs():
    # the oversized trident closure at q = 2 against the generic one at q = 7,
    # folded in either order
    _, f = make_curve("trident")
    r7 = run_prime(7, *run_inputs(f))
    r2 = _forced_run("trident", 2)
    for first, second in ((r2, r7), (r7, r2)):
        prev = reconcile_and_lift(first)
        with pytest.raises(SignatureError, match="^runs have incompatible closure signatures$"):
            reconcile_and_lift(second, prev)


def test_reconcile_rejects_an_unusable_run_and_a_prime_already_folded(quadratic):
    _, f = quadratic
    inputs = run_inputs(f)
    r5, r11 = run_prime(5, *inputs), run_prime(11, *inputs)
    skipped = run_prime(3, *inputs)
    assert not skipped.usable
    prev = reconcile_and_lift(r11, reconcile_and_lift(r5))
    for p in (None, prev):
        with pytest.raises(LiftError, match="^run at q=3 is not usable$"):
            reconcile_and_lift(skipped, p)
    for run in (r5, r11):
        with pytest.raises(LiftError, match="^duplicate primes in CRT input$"):
            reconcile_and_lift(run, prev)


def test_fold_order_does_not_change_the_record(quadratic):
    # the balanced residue mod N is unique, so every order of folding the
    # runs at 5, 11 and 13 gives the all-at-once reference's record and lift
    _, f = quadratic
    inputs = run_inputs(f)
    runs = [run_prime(q, *inputs) for q in (5, 11, 13)]
    ref = reconcile_and_lift_reference(runs)
    orders = list(permutations(runs))
    assert len(orders) == 6
    for order in orders:
        state = None
        for run in order:
            state = reconcile_and_lift(run, state)
        assert state.primes == tuple(r.q for r in order)
        assert (state.modulus, state.crt, _views(state)) == (ref.modulus, ref.crt, _views(ref))


def test_rings_over_zz_and_qq_are_built_once_per_problem(monkeypatch):
    # the first stage builds the QQ copies of the input and output rings, and
    # every later stage reads them off the previous stage's lift; the CRT
    # record is plain integer maps, which need no ring of their own
    _, f = _problem("tall-7-001")
    calls, built = [], []
    real, real_init = Ring.with_domain, Ring.__post_init__
    monkeypatch.setattr(Ring, "with_domain",
                        lambda self, domain: calls.append(domain) or real(self, domain))
    monkeypatch.setattr(Ring, "__post_init__",
                        lambda self: built.append(self.domain) or real_init(self))
    res = run_algorithm1(f)
    assert len(res.stages) == 8
    assert calls.count(QQ) == built.count(QQ) == 2


def test_gf_rings_are_built_only_past_the_coefficient_checks(monkeypatch):
    # a prime that divides a denominator or a numerator of f is skipped
    # before its GF(q) ring is built; every other prime tried builds one
    _, f = _problem("tall-7-001")
    calls = []
    real = Ring.with_domain
    monkeypatch.setattr(Ring, "with_domain",
                        lambda self, domain: calls.append(domain) or real(self, domain))
    res = run_algorithm1(f)
    coefficient = {"divides a coefficient denominator", "divides a coefficient numerator"}
    assert {r.reason for r in res.runs} >= coefficient
    built = [r.q for r in res.runs if r.reason not in coefficient]
    assert [domain.char for domain in calls if domain.char] == built


def test_closure_family_with_known_answer():
    # y^2 = c x (x - a)^2 normalizes by the single fraction y/(x - a);
    # the lifted presentation is ybar^2 - c*x with psi(y) = ybar (x - a)
    from fractions import Fraction as F
    rng = random.Random(777)
    for _ in range(5):
        a = F(rng.randint(-4, 4), rng.randint(1, 4))
        c = F(rng.choice([n for n in range(-4, 5) if n]), rng.randint(1, 4))
        ring = curve_ring((3, 2))
        x, y = ring.var("x"), ring.var("y")
        shifted = x - ring.const(a)
        f = y * y - shifted * shifted * x.scale(c)
        res = run_algorithm1(f, RunConfig(start_prime=5, max_primes=10))
        assert res.accepted, (a, c, res.audit)
        out = res.presentation.ring
        expect_rel = out.parse("ybar^2") - out.var("x").scale(c)
        assert list(res.presentation.relations) == [expect_rel]
        assert psi_combination(res.presentation.inclusion_image, ring)[0] == shifted
        assert list(res.presentation.numerators) == [y, shifted.monic()]


def test_cubic_closure_family_with_known_answer():
    # y^3 = c x (x - a)^3 normalizes by w = y/(x - a) with w^3 = c x; the
    # presentation has two fractions w^2, w and three quadratic relations
    from fractions import Fraction as F
    rng = random.Random(4242)
    for _ in range(4):
        a = F(rng.randint(-3, 3), rng.randint(1, 3))
        c = F(rng.choice([n for n in range(-3, 4) if n]), rng.randint(1, 3))
        ring = curve_ring((4, 3))
        x, y = ring.var("x"), ring.var("y")
        shifted = x - ring.const(a)
        f = y ** 3 - (shifted ** 3) * x.scale(c)
        res = run_algorithm1(f, RunConfig(start_prime=5, max_primes=10))
        assert res.accepted, (a, c, res.audit)
        out = res.presentation.ring
        cx = out.var("x").scale(c)
        y2, y1 = out.parse("ybar2"), out.parse("ybar1")
        expect = {y2 * y2 - cx * y1, y2 * y1 - cx, y1 * y1 - y2}
        assert set(res.presentation.relations) == expect
        assert psi_combination(res.presentation.inclusion_image, ring)[1] == shifted
        assert list(res.presentation.numerators) == \
            [y * y, (y * shifted).monic(), (shifted * shifted).monic()]


def test_numerator_consistency_rejects_presentation_only_lift():
    # y^3 = 1/3 x (x - 3/2)^3 at N = 35: the relations and inclusion image
    # lift correctly (both classic checks pass) while the denominator lifts
    # to x^2 - 3x - 2/3 instead of (x - 3/2)^2; only the numerator
    # consistency check catches the mismatch
    from fractions import Fraction as F
    ring = curve_ring((4, 3))
    x, y = ring.var("x"), ring.var("y")
    shifted = x - ring.const(F(3, 2))
    f = y ** 3 - (shifted ** 3) * x.scale(F(1, 3))
    res = run_algorithm1(f, RunConfig(primes=(5, 7)))
    assert not res.accepted
    cert = res.stages[-1]
    assert cert.state.modulus == 35
    assert cert.gb_ok
    assert cert.containment_ok
    assert not cert.numerators_ok
    assert str(cert.state.presentation.numerators[-1]) == "x^2 - 3*x - 2/3"
    res2 = run_algorithm1(f, RunConfig(primes=(5, 7, 11)))
    assert res2.accepted
    assert res2.presentation.denominator == (shifted * shifted)


def test_octic_full_rational_run():
    # delta reduces to x^13 over Q; the per-prime conductor filter drops 5
    ring, f = make_curve("octic")
    res = run_algorithm1(f, RunConfig(start_prime=5, max_primes=6))
    assert res.accepted
    assert res.primes_used == (7, 11)
    assert any(r.q == 5 and not r.usable and "conductor" in r.reason
               for r in res.runs)
    assert res.conductor == ring.parse("x^24")
    assert res.presentation.denominator == ring.parse("x^13")
    assert sorted(w[0] for w in fraction_weights(res.presentation.vectors, ring.weights)) == \
        [0, 4, 5, 9, 10, 14, 15, 19]
    assert len(res.presentation.relations) == 28


def test_nullspace_with_large_modulus():
    from intclose.linalg import nullspace_mod
    q = (1 << 61) - 1  # a Mersenne prime: products of entries exceed 2^64
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}]
    basis = nullspace_mod(rows, 3, q)
    assert len(basis) == 2
    for v in basis:
        for row in rows:
            assert sum(x * v[c] for c, x in row.items()) % q == 0
    # the range is checked over all rows: a bad index only in a later row, after
    # a pivot, raises as one in the first row does
    for bad in ([{3: 1}], [{-1: 1}], [{0: 1}, {3: 1}], [{0: 1, 1: 2}, {2: 1, -1: 1}]):
        with pytest.raises(ValueError, match="^column index out of range for 3 columns$"):
            nullspace_mod(bad, 3, q)
    # dense, rank 47 of 48, all entries at the top residues: every pivot
    # updates the earlier pivot columns, so the packed slots sum the most
    rng = random.Random(48)
    dense = [[q - rng.randint(1, 2) for _ in range(48)] for _ in range(47)]
    basis = nullspace_mod([dict(enumerate(r)) for r in dense], 48, q)
    assert len(basis) == 1 and basis == nullspace_rref(dense, 48, q)


def test_nullspace_slot_takes_its_worst_case_updates():
    # q = 2^31 - 1 and 8 columns: the slots hold the most a row can sum,
    # about ncols^2*(q-1)^3, where a slot sized for ncols*q products of
    # residues is a byte narrower.  Every pivot adds (q-1)^2 to slot 7 of
    # column 0 (b_j[0] = 1 at each pivot j, multiplier -1), and the last row,
    # in the row space, sums 13*(q-1)^3 there, past that narrower slot.
    from intclose.linalg import nullspace_mod
    from intclose.xpoly import slot_bytes
    q, ncols = (1 << 31) - 1, 8
    f, m = ncols - 1, q - 1
    assert 13 * m ** 3 >= 1 << 8 * slot_bytes(q, ncols * q)
    rows = [{0: 1} | {c: m for c in range(1, ncols)}]
    rows += [{j: 1, f: m} for j in range(1, f)]
    rows.append({c: m for c in range(f)} | {f: -m * (2 * f - 1) % q})
    dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
    basis = nullspace_mod(rows, ncols, q)
    assert basis == nullspace_rref(dense, ncols, q) == [[f] + [1] * f]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nullspace_matches_rref_oracle(data):
    from intclose.linalg import nullspace_mod
    q = data.draw(st.sampled_from([2, 3, 29, (1 << 31) - 1, (1 << 61) - 1]), label="q")
    ncols = data.draw(st.integers(0, 10), label="ncols")
    entry = st.integers(-q, 2 * q - 1) | st.sampled_from([0, 1, q - 1])
    min_rows = 0
    if ncols and data.draw(st.booleans(), label="sparse"):
        # tall, at most two nonzeros a row, like the Frobenius matrices
        row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=2)
        max_rows = 4 * ncols + 4
    else:
        if data.draw(st.integers(0, 7), label="wide") == 7:
            # up to full rank: early pivot columns take an update from every
            # later pivot, the most a packed slot sums
            ncols = data.draw(st.integers(11, 48), label="wide ncols")
            max_rows = ncols + 2
            min_rows = data.draw(st.integers(0, max_rows), label="min rows")
        else:
            max_rows = 8
        row = (st.lists(entry, min_size=ncols, max_size=ncols).map(
            lambda r: {c: x for c, x in enumerate(r) if x})
            | st.just({}))
    rows = data.draw(st.lists(row, min_size=min_rows, max_size=max_rows), label="rows")
    dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
    basis = nullspace_mod(rows, ncols, q)
    assert [[r.get(c, 0) for c in range(ncols)] for r in rows] == dense  # input kept
    assert basis == nullspace_rref(dense, ncols, q)
    assert all(type(x) is int for v in basis for x in v)
    # the RREF is unique, so the order the rows come in cannot matter
    shuffled = data.draw(st.permutations(rows), label="permuted rows")
    assert nullspace_mod(shuffled, ncols, q) == basis


def test_psi_combination_handles_vanishing_coefficients():
    # y^2 = x (x - 5)^2: psi(y) = ybar (x - 5), and mod 5 the constant part
    # of the combination coefficient vanishes; the lifted combination must
    # still come out as x - 5
    ring = curve_ring((3, 2))
    x, y = ring.var("x"), ring.var("y")
    shifted = x - ring.const(5)
    f = y * y - shifted * shifted * x
    res = run_algorithm1(f, RunConfig(primes=(5, 7, 11)))
    assert res.accepted
    assert psi_combination(res.presentation.inclusion_image, ring)[0] == shifted
