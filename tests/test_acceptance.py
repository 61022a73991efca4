"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single ``[criterion N] PASS`` line on success (visible
with ``pytest -s`` or ``-v``); timings are asserted against the stated
budgets.
"""

import random
import time
from fractions import Fraction

from intclose import (GF, ZZ, RunConfig, canonical_conductor, crt,
                      induce_presentation, is_minimal_reduced_gb,
                      minimize_denominator, module_reduce, mu_poly,
                      normal_form, psi_combination, qth_closure, rat_recon,
                      reconcile_and_lift, run_algorithm1, run_prime,
                      verify_candidate, frobenius_images, frobenius_scale, PrimeRun, Ring,
                      weight_over_grevlex)
from conftest import (SEXTIC_INDUCED_WEIGHTS, SEXTIC_NUMERATORS, curve_ring,
                      make_curve, poly_step, sextic_relations)
from oracles import kernel_step_oracle, mod_n, strict_shape_ok, weight_balance_ok


def test_criterion_1_quadratic_end_to_end(quadratic):
    t0 = time.monotonic()
    ring, f = quadratic
    res = run_algorithm1(ring, f, RunConfig(primes=(5, 11, 13)))

    runs = {r.q: r for r in res.runs}
    x_plus_1 = curve_ring((3, 2), GF(5)).parse("x + 1")
    assert runs[5].delta_q == x_plus_1
    assert runs[5].fractions.denominator == x_plus_1
    assert [str(b) for b in runs[5].presentation.relations] == ["ybar^2 + x"]
    assert str(runs[11].delta_q) == "x + 2"
    # relation mod 11: the CRT value 26 = 4 mod 11 pins the + sign
    assert [str(b) for b in runs[11].presentation.relations] == ["ybar^2 + 4*x"]
    assert str(runs[13].delta_q) == "x - 3"
    assert [str(b) for b in runs[13].presentation.relations] == ["ybar^2 + 5*x"]

    # the CRT records are integer maps: print them over ZZ
    zz_in, zz_out = ring.with_domain(ZZ), res.stages[1].state.presentation.ring.with_domain(ZZ)
    st55 = res.stages[1].state
    assert st55.modulus == 55
    nnum = len(st55.fractions.numerators)
    assert str(zz_in.poly(st55.crt[nnum - 1])) == "x - 9"
    assert [str(zz_out.poly(b)) for b in st55.crt[nnum:-1]] == ["ybar^2 + 26*x"]
    assert str(st55.fractions.numerators[-1]) == "x + 1/6"
    assert [str(b) for b in st55.presentation.relations] == ["ybar^2 - 3/2*x"]
    assert not res.stages[1].certificate.accepted

    st715 = res.stages[2].state
    assert st715.modulus == 715
    assert str(zz_in.poly(st715.crt[nnum - 1])) == "x + 101"
    assert [str(zz_out.poly(b)) for b in st715.crt[nnum:-1]] == ["ybar^2 + 356*x"]
    assert str(st715.fractions.numerators[-1]) == "x - 8/7"
    assert [str(b) for b in st715.presentation.relations] == ["ybar^2 - 3/2*x"]
    assert res.accepted and res.stages[2].certificate.accepted

    out = res.presentation.ring
    assert res.presentation.inclusion_image == out.parse("ybar*x - 8/7*ybar")
    assert psi_combination(res.presentation.inclusion_image, ring)[0] == ring.parse("x - 8/7")

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS quadratic end-to-end, exact chain ({elapsed:.2f}s)")


def test_criterion_2_coefficient_pipeline():
    t0 = time.monotonic()
    a, b = Fraction(1, 3), Fraction(8, 7)
    assert (mod_n(a, 5), mod_n(b, 5)) == (2, -1)
    assert (mod_n(a, 11), mod_n(b, 11)) == (4, -2)
    # derived value: the extended-Euclid oracle gives -4 mod 13 for 1/3
    assert mod_n(a, 13) == -4
    a55 = crt([(2, 5), (4, 11)])[0]
    b55 = crt([(-1, 5), (-2, 11)])[0]
    assert (a55, b55) == (-18, 9)
    assert rat_recon(a55, 55) == Fraction(1, 3)
    assert rat_recon(b55, 55) == Fraction(-1, 6)
    a715 = crt([(2, 5), (4, 11), (-4, 13)])[0]
    b715 = crt([(-1, 5), (-2, 11), (3, 13)])[0]
    assert (a715, b715) == (-238, -101)
    assert rat_recon(a715, 715) == Fraction(1, 3)
    assert rat_recon(b715, 715) == Fraction(8, 7)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 2] PASS coefficient pipeline ({elapsed:.2f}s)")


def test_criterion_3_trident():
    t0 = time.monotonic()
    ring, f = make_curve("trident")
    delta0, B = canonical_conductor(f, ring)

    # per-prime closures at 3, 7, 13
    for q in (3, 7, 13):
        run = run_prime(q, f, delta0, B)
        assert run.usable
        rels = run.presentation.relations
        assert len(rels) == 3
        oring = run.presentation.ring
        lead_monos = {r.lm for r in rels}
        assert lead_monos == {(2, 0, 0), (1, 1, 0), (0, 2, 0)}
        zrel = next(r for r in rels if r.lm == (2, 0, 0))
        assert int(zrel.coeff_of((1, 0, 0))) == 8 % q

    # rejection at N = 55 with the reference residual
    r5 = run_prime(5, f, delta0, B)
    ring11, f11 = make_curve("trident", q=11)
    fs11 = minimize_denominator(
        qth_closure(ring11, f11, mu_poly(delta0, ring11), 11))
    p11 = induce_presentation(fs11, f11)
    r11 = PrimeRun(11, delta_q=mu_poly(delta0, ring11),
                   fractions=fs11, presentation=p11)
    state = reconcile_and_lift(r11, ring, reconcile_and_lift(r5, ring))
    assert state.modulus == 55
    cert = verify_candidate(state, f)
    assert not cert.accepted
    assert cert.residual == state.presentation.relations[0].ring.parse("55/7*ybar1*x")

    # acceptance for a usable product beyond 65
    res = run_algorithm1(ring, f, RunConfig(primes=(7, 13)))
    assert res.accepted and res.stages[-1].state.modulus == 91 > 65
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\n[criterion 3] PASS trident closures, rejection, acceptance ({elapsed:.2f}s)")


def test_criterion_4_conductor_table():
    t0 = time.monotonic()
    octic = {None: "x^24", 2: "x^26", 3: "x^27", 5: "x^26*(x^3 + 1)^5",
             7: "x^24", 11: "x^24"}
    for q, expect in octic.items():
        ring, f = make_curve("octic", q=q)
        assert canonical_conductor(f, ring)[0] == ring.parse(expect)
    radical = {None: "x^4", 3: "x^6 - x^4", 5: "x^5"}
    for q, expect in radical.items():
        ring, f = make_curve("radical", q=q)
        assert canonical_conductor(f, ring)[0] == ring.parse(expect)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 4] PASS conductor table ({elapsed:.2f}s)")


def test_criterion_5_sextic_full_run(sextic):
    t0 = time.monotonic()
    ring, f = sextic
    res = run_algorithm1(ring, f, RunConfig(start_prime=5, max_primes=8))
    assert res.accepted
    # the schedule avoids 2, 3, 5, 17 on its own
    skipped = {r.q for r in res.runs if not r.usable}
    assert skipped == {5, 17}
    assert res.primes_used == (7, 11, 13, 19, 23, 29)
    assert res.conductor == ring.parse("x^9")
    assert res.fractions.denominator == ring.parse("x^5")
    expect_nums = {ring.parse(t) for t in SEXTIC_NUMERATORS}
    assert set(res.fractions.numerators) == expect_nums
    _, expect_rels = sextic_relations()
    assert set(res.presentation.relations) == set(expect_rels)
    assert len(res.presentation.relations) == 15
    assert res.presentation.ring.weights == (SEXTIC_INDUCED_WEIGHTS,)
    assert res.certificate.accepted
    assert all(ok for _, ok in res.certificate.per_prime)
    elapsed = time.monotonic() - t0
    assert elapsed < 420.0
    print(f"\n[criterion 5] PASS sextic cover full run ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 6: property suites


def test_criterion_6a_reconstruction_roundtrips():
    t0 = time.monotonic()
    for n in (55, 715):
        for c in range(-((n - 1) // 2), n // 2 + 1):
            assert mod_n(rat_recon(c, n), n) == c
    rng = random.Random(20260809)
    failures = 0
    for _ in range(10_000):
        n = rng.randrange(2, 1 << 64)
        c = rng.randint(-((n - 1) // 2), n // 2)
        if mod_n(rat_recon(c, n), n) != c:
            failures += 1
    assert failures == 0
    print(f"\n[criterion 6a] PASS round trips, 0 failures "
          f"({time.monotonic() - t0:.2f}s)")


def test_criterion_6b_groebner_fixtures():
    t0 = time.monotonic()
    # every fixture basis passes full S-polynomial reduction
    bases = []
    _, rels = sextic_relations()
    bases.append(rels)
    for name, q in (("trident", 7), ("quadratic", 5), ("cubic_family", 13)):
        run = _usable_run(name, q)
        bases.append(list(run.presentation.relations))
    for basis in bases:
        assert is_minimal_reduced_gb(basis)
    # reduced-basis determinism under generator permutation
    from intclose import buchberger, minimal_reduced
    rng = random.Random(6)
    reference = minimal_reduced(buchberger(rels))
    for _ in range(4):
        shuffled = rels[:]
        rng.shuffle(shuffled)
        assert minimal_reduced(buchberger(shuffled)) == reference
    print(f"\n[criterion 6b] PASS Groebner fixtures ({time.monotonic() - t0:.2f}s)")


def _usable_run(name, q):
    ring, f = make_curve(name)
    delta0, B = canonical_conductor(f, ring)
    run = run_prime(q, f, delta0, B)
    assert run.usable
    return run


def test_criterion_6c_fixpoint_and_ring_property():
    t0 = time.monotonic()
    for name, q in (("quadratic", 5), ("quadratic", 13), ("trident", 7),
                    ("cubic_family", 11)):
        ring, f = make_curve(name, q=q)
        delta = canonical_conductor(f, ring)[0]
        fs = qth_closure(ring, f, delta, q)
        images = frobenius_images(f, delta)
        again = poly_step(fs.numerators, q, images, delta, frobenius_scale(delta, q))
        assert list(again) == list(fs.numerators)
        nums = list(minimize_denominator(fs).numerators)
        dd = minimize_denominator(fs).denominator
        for i in range(len(nums)):
            for j in range(i, len(nums)):
                prod = normal_form(nums[i] * nums[j], [f])
                rem, _ = module_reduce(prod, [dd * g for g in nums])
                assert rem.is_zero()
    print(f"\n[criterion 6c] PASS fixpoint idempotence and ring membership "
          f"({time.monotonic() - t0:.2f}s)")


def test_criterion_6d_strict_shape_and_weight_balance():
    t0 = time.monotonic()
    for name, q in (("quadratic", 5), ("trident", 3), ("trident", 13),
                    ("cubic_family", 5), ("octic", 7), ("sextic", 23)):
        ring, f = make_curve(name, q=q)
        delta = canonical_conductor(f, ring)[0]
        fs = minimize_denominator(qth_closure(ring, f, delta, q))
        pres = induce_presentation(fs, f)
        assert strict_shape_ok(pres)
        assert weight_balance_ok(pres)
    print(f"\n[criterion 6d] PASS strict shape and weight balance "
          f"({time.monotonic() - t0:.2f}s)")


def test_criterion_6e_semilinear_kernel_oracle():
    t0 = time.monotonic()
    rng = random.Random(424242)
    trials = 0
    while trials < 20:
        q = rng.choice((2, 3))
        d = rng.randint(2, 3)
        wy, wx = rng.randint(2, 6), rng.randint(1, 4)
        ring = Ring(("y", "x"), 1, GF(q),
                    weight_over_grevlex([[wy, wx]], 2), ((wy, wx),))
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
        images = frobenius_images(f, delta)
        start = tuple(ring.monomial((k, 0)) for k in range(d - 1, -1, -1))
        engine = poly_step(start, q, images, delta, frobenius_scale(delta, q))
        assert {g.lm[0]: g.lm[1] for g in engine} == \
            kernel_step_oracle(list(start), f, delta, q)
        trials += 1
    print(f"\n[criterion 6e] PASS kernel oracle on {trials} instances "
          f"({time.monotonic() - t0:.2f}s)")
