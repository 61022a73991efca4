"""Mod-N maps, rational reconstruction, CRT, usability, and certification."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intclose import (GF, QQ, ZZ, ClosurePresentation, FractionSet, LiftError, PrimeRun,
                      Ring, SignatureError, balanced, canonical_conductor, crt, is_prime,
                      is_prime_usable, mu_poly, parse_problem, psi_combination, rat_recon,
                      reconcile_and_lift, run_algorithm1, run_charq, run_prime,
                      verify_candidate, RunConfig)
from intclose.lifting import _specializes, closure_run, specializations
from conftest import CURVES, curve_ring, make_curve
from corpus import workloads
from oracles import (crt_sum_reference, is_prime_usable_reference, mod_n, nullspace_rref,
                     reconcile_and_lift_reference, verify_candidate_reference)


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


def _psi_run(p, q):
    """A usable run at q whose closure is the denominator x alone and p as psi(y),
    so that its record's last map is p's CRT record and its psi(y) p's lift."""
    return PrimeRun(q, fractions=FractionSet(p.ring, (p.ring.parse("x"),)),
                    presentation=ClosurePresentation(p.ring, (), p))


def _fold_psi(polys, ring):
    """Each stage's state, folding the ``_psi_run`` of every (p, q) in turn."""
    state, states = None, []
    for p, q in polys:
        state = reconcile_and_lift(_psi_run(p, q), ring, state)
        states.append(state)
    return states


def _record(ring, text):
    """A polynomial's {monomial: int} map, as a CRT record holds it."""
    return dict(ring.with_domain(ZZ).parse(text).terms)


def test_crt_poly_and_lift_chain():
    r5, r11, r13 = (_ybar_ring(GF(q)) for q in (5, 11, 13))
    qq = _ybar_ring(QQ)
    b5 = r5.parse("ybar^2 + x")
    b11 = r11.parse("ybar^2 + 4*x")
    b13 = r13.parse("ybar^2 + 5*x")
    _, st55, st715 = _fold_psi([(b5, 5), (b11, 11), (b13, 13)], qq)
    assert st55.crt[-1] == _record(qq, "ybar^2 + 26*x") == crt_sum_reference([b5, b11], (5, 11))
    assert st55.presentation.inclusion_image == qq.parse("ybar^2 - 3/2*x")
    assert st715.crt[-1] == _record(qq, "ybar^2 + 356*x") == \
        crt_sum_reference([b5, b11, b13], (5, 11, 13))
    assert st715.presentation.inclusion_image == qq.parse("ybar^2 - 3/2*x")


def test_crt_poly_denominator_chain():
    r5, r11, r13 = (curve_ring((3, 2), GF(q)) for q in (5, 11, 13))
    qq = curve_ring((3, 2), QQ)
    g5, g11, g13 = r5.parse("x + 1"), r11.parse("x + 2"), r13.parse("x - 3")
    _, st55, st715 = _fold_psi([(g5, 5), (g11, 11), (g13, 13)], qq)
    assert st55.crt[-1] == _record(qq, "x - 9") == crt_sum_reference([g5, g11], (5, 11))
    assert st55.presentation.inclusion_image == qq.parse("x + 1/6")
    assert st715.crt[-1] == _record(qq, "x + 101") == \
        crt_sum_reference([g5, g11, g13], (5, 11, 13))
    assert st715.presentation.inclusion_image == qq.parse("x - 8/7")


def test_crt_poly_monicity_and_union_support():
    r5, r11 = (curve_ring((3, 2), GF(q)) for q in (5, 11))
    a = r5.parse("x^2 + 1")       # x term vanishes mod 5
    b = r11.parse("x^2 + 5*x + 1")
    state = _fold_psi([(a, 5), (b, 11)], curve_ring((3, 2)))[-1]
    out = state.crt[-1]
    assert out[(0, 2)] == 1 and state.presentation.inclusion_image.is_monic()
    assert out[(0, 1)] % 5 == 0 and out[(0, 1)] % 11 == 5


def test_crt_poly_lm_mismatch():
    # the run's leading monomials are compared with the previous lift's, once
    r5, r11 = (curve_ring((3, 2), GF(q)) for q in (5, 11))
    ring = curve_ring((3, 2))
    prev = reconcile_and_lift(_psi_run(r5.parse("x + 1"), 5), ring)
    with pytest.raises(SignatureError, match="^runs have incompatible closure signatures$"):
        reconcile_and_lift(_psi_run(r11.parse("x^2"), 11), ring, prev)


def _assert_crt_folds(polys):
    """Folding one prime at a time into the last record equals the reference's
    all-at-once CRT sum over the primes at every prefix, the balanced residue
    of every input coefficient."""
    ring = curve_ring((3, 2))
    monos = {m for p, _ in polys for m, _ in p.terms}
    for k, state in enumerate(_fold_psi(polys, ring), 1):
        (p, _), n, acc = polys[k - 1], state.modulus, state.crt[-1]
        assert n == math.prod(q for _, q in polys[:k])
        assert acc == crt_sum_reference([p2 for p2, _ in polys[:k]], [q for _, q in polys[:k]])
        assert max(acc, key=ring.order.key) == p.lm == state.presentation.inclusion_image.lm
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
    first = reconcile_and_lift(_psi_run(*polys[0]), ring)
    assert first.crt[-1] == _record(ring, "x^2 - 2*x")
    assert crt([(5, 11)], -7, 35) == (-182, 385)
    with pytest.raises(LiftError, match="^duplicate primes in CRT input$"):
        reconcile_and_lift(_psi_run(*polys[0]), ring, first)
    with pytest.raises(SignatureError):
        reconcile_and_lift(_psi_run(rings[7].parse("x^3"), 7), ring, first)


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
        state = reconcile_and_lift(run, ring, state)
    assert state.crt[-1] == record
    lifted = state.presentation.inclusion_image
    assert [m for m, _ in lifted.terms] == monos
    assert specializations(state, runs) == tuple((q, True) for q in primes)
    for q in primes:
        ring_q = curve_ring((3, 2), GF(q))
        assert mu_poly(lifted, ring_q) == ring_q.poly(record)


def test_rat_recon_skips_invalid_candidates():
    # 22 shares a factor with 55; the tempting (0, 5) remainder pair does not
    # satisfy the congruence and must be passed over for -11/2
    assert rat_recon(22, 55) == Fraction(-11, 2)
    assert mod_n(Fraction(-11, 2), 55) == 22


# ---------------------------------------------------------------------------
# usability, compatibility, verification


def test_usability_radical_curve():
    ring, f = make_curve("radical")
    delta0, B = canonical_conductor(f, ring)
    expect = {2: "denominator", 11: "denominator", 13: "numerator",
              3: "conductor", 5: "conductor"}
    for q, why in expect.items():
        status, info = is_prime_usable(q, f, delta0, B)
        assert status == "skipped" and why in info
    for q in (7, 17, 19):
        status, _ = is_prime_usable(q, f, delta0, B)
        assert status == "usable"


def test_usability_quadratic_curve():
    ring, f = make_curve("quadratic")
    delta0, B = canonical_conductor(f, ring)
    assert is_prime_usable(2, f, delta0, B)[0] == "skipped"
    assert is_prime_usable(7, f, delta0, B)[0] == "skipped"
    assert is_prime_usable(3, f, delta0, B)[0] == "skipped"
    assert "numerator" in is_prime_usable(3, f, delta0, B)[1]
    assert is_prime_usable(101, f, delta0, B)[0] == "usable"


TALL_7 = {solve.label: solve.text for solve in workloads().tall_solves(7)[:20]}


def _curve_or_tall(name):
    """(ring, f) of a fixture curve, or of a ``TALL_7`` problem."""
    if name in CURVES:
        return make_curve(name)
    problem = parse_problem(TALL_7[name])
    ring = problem.ring(QQ)
    return ring, problem.relation(ring)


@pytest.mark.parametrize("name", sorted(CURVES) + sorted(TALL_7))
def test_usability_matches_the_reference(name):
    # the lucky-prime shortcut changes no status, reason, f_q or delta_q
    ring, f = _curve_or_tall(name)
    delta0, B = canonical_conductor(f, ring)
    for q in range(2, 200):
        assert is_prime_usable(q, f, delta0, B) == is_prime_usable_reference(q, f, delta0)


def test_compatibility_single_and_pair():
    ring, f = make_curve("quadratic")
    delta0, B = canonical_conductor(f, ring)
    # one run folds alone, and a second of the same signature onto it
    r5 = run_prime(5, f, delta0, B)
    state = reconcile_and_lift(r5, ring)
    r11 = run_prime(11, f, delta0, B)
    assert reconcile_and_lift(r11, ring, state).primes == (5, 11)


@pytest.mark.parametrize("name", ["trident", "octic"])
def test_charq_run_equals_the_prime_run(name):
    # one record, one result: the charq closure is the usable run at q
    ring, f = make_curve(name)
    ring_q, f_q = make_curve(name, q=7)
    charq = run_charq(ring_q, f_q, 7)
    run = run_prime(7, f, *canonical_conductor(f, ring))
    assert charq.usable and run.usable
    assert charq.delta_q == run.delta_q
    assert charq.fractions == run.fractions
    assert charq.presentation == run.presentation


def _forced_run(name, q, delta=None):
    """Closure run that skips the usability filter (optionally forcing the
    denominator, e.g. the image of the rational conductor)."""
    ring, f = make_curve(name, q=q)
    if delta is None:
        delta = canonical_conductor(f, ring)[0]
    else:
        delta = mu_poly(delta, ring)
    return closure_run(q, f, delta)


def test_compatibility_rejects_oversized_closure():
    # mod 2 the trident closure is generated by a single stray fraction and
    # its signature cannot be reconciled with the generic one
    ring, _ = make_curve("trident")
    r2 = _forced_run("trident", 2)
    r7 = _forced_run("trident", 7)
    with pytest.raises(SignatureError):
        reconcile_and_lift(r7, ring, reconcile_and_lift(r2, ring))
    with pytest.raises(SignatureError):
        reconcile_and_lift_reference([r2, r7], ring)


def test_run_incompatible_with_the_first_usable_one_is_skipped(monkeypatch):
    # forced usable at q = 2, the oversized trident closure comes first, so
    # the generic closure at q = 7 is the one that does not match
    import intclose.driver
    real_run_prime = intclose.driver.run_prime
    r2 = _forced_run("trident", 2)
    monkeypatch.setattr(intclose.driver, "run_prime",
                        lambda q, *args: r2 if q == 2 else real_run_prime(q, *args))
    ring, f = make_curve("trident")
    res = run_algorithm1(ring, f, RunConfig(primes=(2, 7)))
    assert [(r.q, r.reason) for r in res.runs] == \
        [(2, None), (7, "incompatible closure signature")]
    assert "q=7 skipped: incompatible closure signature" in res.audit
    assert [stage.state.primes for stage in res.stages] == [(2,)]


def test_verify_accepts_large_enough_modulus(quadratic):
    ring, f = quadratic
    res = run_algorithm1(ring, f, RunConfig(primes=(5, 11, 13)))
    assert res.accepted
    cert = res.certificate
    assert cert.gb_ok and cert.containment_ok and cert.numerators_ok
    assert cert.per_prime and all(ok for _, ok in cert.per_prime)


def test_verify_rejects_undersized_modulus(quadratic):
    ring, f = quadratic
    res = run_algorithm1(ring, f, RunConfig(primes=(5, 11)))
    assert not res.accepted
    stage = res.stages[-1]
    assert stage.certificate.gb_ok
    assert not stage.certificate.containment_ok
    qq = stage.state.presentation.relations[0].ring
    assert stage.certificate.residual == qq.parse("55/14*x^2 - 2255/1176*x")


def test_trident_rejects_at_55_with_reference_residual():
    ring, f = make_curve("trident")
    delta0, B = canonical_conductor(f, ring)
    r5 = run_prime(5, f, delta0, B)
    # the conductor filter would skip 11; force the rational conductor image
    r11 = _forced_run("trident", 11, delta=delta0)
    state = reconcile_and_lift(r11, ring, reconcile_and_lift(r5, ring))
    assert state == reconcile_and_lift_reference([r5, r11], ring)
    assert state.modulus == 55
    out = state.presentation.relations[0].ring
    texts = sorted(str(r) for r in state.presentation.relations)
    assert texts == sorted(["ybar2^2 + 1/7*ybar2 + ybar1*x^5",
                            "ybar2*ybar1 + 1/7*ybar1 + x^6",
                            "ybar1^2 - ybar2*x"])
    cert = verify_candidate(state, f)
    assert cert.gb_ok and not cert.containment_ok
    assert cert.residual == out.parse("55/7*ybar1*x")


def test_trident_accepts_beyond_65():
    ring, f = make_curve("trident")
    res = run_algorithm1(ring, f, RunConfig(primes=(7, 13)))
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
    # the reference.
    ring, f = _problem(name)
    res = run_algorithm1(ring, f)
    usable = [r for r in res.runs if r.usable]
    assert len(res.stages) == len(usable)
    lifted = [k for k, stage in enumerate(res.stages, 1) if stage.state.lifted]
    for k, stage in enumerate(res.stages, 1):
        assert stage.state == reconcile_and_lift_reference(usable[:k], ring)
        if not stage.state.lifted:
            continue
        assert all(_specializes(stage.state, r) for r in usable[:k])
        assert specializations(stage.state, res.runs) == \
            tuple((r.q, True) for r in usable[:k])
        per_prime = specializations(stage.state, usable) if k == lifted[-1] else ()
        assert stage.certificate.per_prime == per_prime
    assert res.certificate.per_prime == tuple((r.q, True) for r in usable)


BITS = ("gb_ok", "containment_ok", "numerators_ok")


@pytest.mark.parametrize("name", sorted(CURVES) + sorted(TALL_7))
def test_lazy_certificate_matches_the_eager_reference(name):
    # every stage's decision, bits and residual are the reference's, whichever
    # bit is read first after the decision
    ring, f = _curve_or_tall(name)
    res = run_algorithm1(ring, f)
    assert res.accepted
    for stage in res.stages:
        ref = verify_candidate_reference(stage.state, f)
        cert = stage.certificate
        assert (cert.accepted, cert.gb_ok, cert.containment_ok, cert.numerators_ok,
                cert.residual) == (ref.accepted, *ref)
        for order in permutations(BITS):
            cert = verify_candidate(stage.state, f)
            assert cert.accepted == ref.accepted
            assert [getattr(cert, bit) for bit in order] == [getattr(ref, bit) for bit in order]
            assert cert.residual == ref.residual


def test_gb_check_runs_only_where_the_decision_or_the_log_needs_it(tmp_path, monkeypatch, capsys):
    # a cubic whose rejected stages fail containment: without --log the Groebner
    # check runs only on the stages whose containment and numerators hold
    import intclose.lifting
    from intclose import cli
    name = "tall-001"
    ring, f = _curve_or_tall(name)
    assert f.degree_in(0) == 3
    refs = [verify_candidate_reference(s.state, f) for s in run_algorithm1(ring, f).stages]
    decided = sum(r.containment_ok and r.numerators_ok for r in refs)
    assert 0 < decided < len(refs)
    calls = []
    real = intclose.lifting.is_minimal_reduced_gb
    monkeypatch.setattr(intclose.lifting, "is_minimal_reduced_gb",
                        lambda rels: calls.append(1) or real(rels))
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


def test_specialization_of_accepted_candidate(quadratic):
    ring, f = quadratic
    res = run_algorithm1(ring, f, RunConfig(primes=(5, 11, 13)))
    state = res.stages[-1].state
    for q in (5, 11, 13):
        rq = curve_ring((3, 2), GF(q))
        run = next(r for r in res.runs if r.q == q)
        assert [mu_poly(p, rq) for p in state.fractions.numerators] == \
            list(run.fractions.numerators)


def test_specializations_catch_a_perturbed_lift(quadratic):
    # one lifted coefficient plus 1 no longer reduces to the run at any used
    # prime; one whose denominator a used prime divides cannot be reduced
    ring, f = quadratic
    res = run_algorithm1(ring, f, RunConfig(primes=(5, 11, 13)))
    state = res.stages[-1].state
    nums = state.fractions.numerators
    qq = state.fractions.ring

    def with_denominator(text):
        return replace(state, fractions=FractionSet(qq, nums[:-1] + (qq.parse(text),)))

    assert nums[-1] == qq.parse("x - 8/7")
    assert specializations(state, res.runs) == ((5, True), (11, True), (13, True))
    assert specializations(with_denominator("x - 1/7"), res.runs) == \
        ((5, False), (11, False), (13, False))
    with pytest.raises(LiftError, match="^a lifted denominator vanishes mod 5$"):
        specializations(with_denominator("x - 8/35"), res.runs)


def test_cubic_family_restores_coefficients():
    ring, f = make_curve("cubic_family")
    res = run_algorithm1(ring, f, RunConfig(primes=(5, 11, 13)))
    assert res.accepted
    out = res.presentation.ring
    assert set(res.presentation.relations) == {
        out.parse("ybar2^2 + 1/3*ybar2 + 8/7*ybar1*x^3"),
        out.parse("ybar2*ybar1 + 1/3*ybar1 + 8/7*x^4"),
        out.parse("ybar1^2 - ybar2*x")}
    assert str(res.presentation.inclusion_image) == "ybar1"


def test_radical_curve_with_good_primes():
    ring, f = make_curve("radical")
    res = run_algorithm1(ring, f, RunConfig(primes=(7, 17, 19)))
    assert res.accepted  # 7*17*19 = 2261 > 22^2 + 13^2
    out = res.presentation.ring
    assert list(res.presentation.relations) == [
        out.parse("ybar^2 + 13/22*x^5 + 13/22*x^3 + 13/22*x")]


def test_budget_exhausted_is_reported(quadratic):
    ring, f = quadratic
    res = run_algorithm1(ring, f, RunConfig(primes=(5,)))
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
    ring, f = make_curve("trident")
    delta0, B = canonical_conductor(f, ring)
    r7 = run_prime(7, f, delta0, B)
    r2 = _forced_run("trident", 2)
    for first, second in ((r2, r7), (r7, r2)):
        prev = reconcile_and_lift(first, ring)
        with pytest.raises(SignatureError, match="^runs have incompatible closure signatures$"):
            reconcile_and_lift(second, ring, prev)


def test_reconcile_rejects_an_unusable_run_and_a_prime_already_folded(quadratic):
    ring, f = quadratic
    delta0, B = canonical_conductor(f, ring)
    r5, r11 = run_prime(5, f, delta0, B), run_prime(11, f, delta0, B)
    skipped = run_prime(3, f, delta0, B)
    assert not skipped.usable
    prev = reconcile_and_lift(r11, ring, reconcile_and_lift(r5, ring))
    for p in (None, prev):
        with pytest.raises(LiftError, match="^run at q=3 is not usable$"):
            reconcile_and_lift(skipped, ring, p)
    for run in (r5, r11):
        with pytest.raises(LiftError, match="^duplicate primes in CRT input$"):
            reconcile_and_lift(run, ring, prev)


def test_fold_order_does_not_change_the_record(quadratic):
    # the balanced residue mod N is unique, so every order of folding the
    # runs at 5, 11 and 13 gives the all-at-once reference's record and lift
    ring, f = quadratic
    delta0, B = canonical_conductor(f, ring)
    runs = [run_prime(q, f, delta0, B) for q in (5, 11, 13)]
    ref = reconcile_and_lift_reference(runs, ring)
    orders = list(permutations(runs))
    assert len(orders) == 6
    for order in orders:
        state = None
        for run in order:
            state = reconcile_and_lift(run, ring, state)
        assert state.primes == tuple(r.q for r in order)
        assert (state.modulus, state.crt, state.fractions, state.presentation) == \
            (ref.modulus, ref.crt, ref.fractions, ref.presentation)


def test_rings_over_zz_and_qq_are_built_once_per_problem(monkeypatch):
    # the first stage builds the QQ copies of the input and output rings, and
    # every later stage reads them off the previous stage's lift; the CRT
    # record is plain integer maps, so no ring over ZZ is built at all
    ring, f = _problem("tall-7-001")
    calls, built = [], []
    real, real_init = Ring.with_domain, Ring.__post_init__
    monkeypatch.setattr(Ring, "with_domain",
                        lambda self, domain: calls.append(domain) or real(self, domain))
    monkeypatch.setattr(Ring, "__post_init__",
                        lambda self: built.append(self.domain) or real_init(self))
    res = run_algorithm1(ring, f)
    assert len(res.stages) == 8
    assert sum(domain in (ZZ, QQ) for domain in calls) == calls.count(QQ) == 2
    assert ZZ not in built


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
        res = run_algorithm1(ring, f, RunConfig(start_prime=5, max_primes=10))
        assert res.accepted, (a, c, res.audit)
        out = res.presentation.ring
        expect_rel = out.parse("ybar^2") - out.var("x").scale(c)
        assert list(res.presentation.relations) == [expect_rel]
        assert psi_combination(res.presentation.inclusion_image, ring)[0] == shifted
        assert list(res.fractions.numerators) == [y, shifted.monic()]


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
        res = run_algorithm1(ring, f, RunConfig(start_prime=5, max_primes=10))
        assert res.accepted, (a, c, res.audit)
        out = res.presentation.ring
        cx = out.var("x").scale(c)
        y2, y1 = out.parse("ybar2"), out.parse("ybar1")
        expect = {y2 * y2 - cx * y1, y2 * y1 - cx, y1 * y1 - y2}
        assert set(res.presentation.relations) == expect
        assert psi_combination(res.presentation.inclusion_image, ring)[1] == shifted
        assert list(res.fractions.numerators) == \
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
    res = run_algorithm1(ring, f, RunConfig(primes=(5, 7)))
    assert not res.accepted
    stage = res.stages[-1]
    assert stage.state.modulus == 35
    assert stage.certificate.gb_ok
    assert stage.certificate.containment_ok
    assert not stage.certificate.numerators_ok
    assert str(stage.state.fractions.numerators[-1]) == "x^2 - 3*x - 2/3"
    res2 = run_algorithm1(ring, f, RunConfig(primes=(5, 7, 11)))
    assert res2.accepted
    assert res2.fractions.denominator == (shifted * shifted)


def test_octic_full_rational_run():
    # delta reduces to x^13 over Q; the per-prime conductor filter drops 5
    ring, f = make_curve("octic")
    res = run_algorithm1(ring, f, RunConfig(start_prime=5, max_primes=6))
    assert res.accepted
    assert res.primes_used == (7, 11)
    assert any(r.q == 5 and not r.usable and "conductor" in r.reason
               for r in res.runs)
    assert res.conductor == ring.parse("x^24")
    assert res.fractions.denominator == ring.parse("x^13")
    assert sorted(w[0] for w in res.fractions.fraction_weights()) == \
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
    for bad in ({3: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            nullspace_mod([bad], 3, q)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nullspace_matches_rref_oracle(data):
    from intclose.linalg import nullspace_mod
    q = data.draw(st.sampled_from([2, 3, 29, (1 << 31) - 1, (1 << 61) - 1]), label="q")
    ncols = data.draw(st.integers(0, 10), label="ncols")
    entry = st.integers(-q, 2 * q - 1) | st.sampled_from([0, 1, q - 1])
    if ncols and data.draw(st.booleans(), label="sparse"):
        # tall, at most two nonzeros a row, like the Frobenius matrices
        row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=2)
        max_rows = 4 * ncols + 4
    else:
        row = (st.lists(entry, min_size=ncols, max_size=ncols).map(
            lambda r: {c: x for c, x in enumerate(r) if x})
            | st.just({}))
        max_rows = 8
    rows = data.draw(st.lists(row, max_size=max_rows), label="rows")
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
    res = run_algorithm1(ring, f, RunConfig(primes=(5, 7, 11)))
    assert res.accepted
    assert psi_combination(res.presentation.inclusion_image, ring)[0] == shifted
