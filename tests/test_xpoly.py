"""``intclose.xpoly`` against the dense-list references of ``oracles``: one
differential test per operation, over F_q, Z and Q."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intclose import is_prime
from intclose.xpoly import (monic, monic_gcd, mod_q, mul_scalar, pack, quo_rem, reduce_slots,
                            slot_bytes, sub_dot, unpack)
from oracles import (dense_product, monic_gcd_reference, monic_reference, mod_q_reference, pack_reference,
                     quo_rem_reference, sub_dot_reference, unpack_reference)

PRIMES = [p for p in range(2, 60) if is_prime(p)] + [65521, 2 ** 31 - 1, 2 ** 61 - 1]


def maps(coefficients, max_size=8):
    """Coefficient maps, {exponent: coefficient} with no zero."""
    return st.dictionaries(st.integers(0, 12), coefficients, max_size=max_size)


def residues(q):
    return st.integers(1, q - 1)


@st.composite
def rings(draw):
    """(q, coefficient strategy): F_q with q prime, or Z or Q with q = 0."""
    kind = draw(st.sampled_from(["F_q", "Z", "Q"]), label="ring")
    if kind == "F_q":
        q = draw(st.sampled_from(PRIMES), label="q")
        return q, residues(q)
    # small coefficients make sums cancel, so the zero-dropping is exercised
    ints = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6)).filter(bool)
    if kind == "Z":
        return 0, ints
    return 0, st.builds(Fraction, ints, st.integers(1, 4) | st.integers(1, 50))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sub_dot_matches_reference(data):
    q, coeffs = data.draw(rings())
    a = data.draw(maps(coeffs), label="a")
    pairs = data.draw(st.lists(st.tuples(maps(coeffs, 5), maps(coeffs, 5)), max_size=4),
                      label="pairs")
    got = sub_dot(a, pairs, q)
    assert got == sub_dot_reference(a, pairs, q)
    assert all(c != 0 for c in got.values())
    if q:
        assert all(0 < c < q for c in got.values())
    assert sub_dot(a, (), q) == sub_dot_reference(a, (), q)
    # a start that the products cancel term by term leaves the zero map
    total = {e: -c % q if q else -c for e, c in sub_dot_reference({}, pairs, q).items()}
    assert sub_dot(total, pairs, q) == {}


@pytest.mark.parametrize("q,a,pairs,want", [
    (7, {2: 3}, (({1: 1}, {1: 3}),), {}),                  # a - s*b cancels mod q
    (7, {0: 6, 3: 1}, (({0: 1}, {0: 6}),), {3: 1}),         # one term cancels, one stays
    (7, {}, (({1: 3}, {0: 4}),), {1: 2}),                  # -12 = 2 mod 7
    (0, {1: 5, 4: -2}, (({1: 5}, {0: 1}), ({2: 1}, {2: -2})), {}),   # over Z, to zero
    (0, {0: Fraction(1, 2)}, (({0: Fraction(1, 4)}, {0: 2}),), {}),  # over Q, to zero
])
def test_sub_dot_drops_zeros_and_reduces(q, a, pairs, want):
    assert sub_dot(a, pairs, q) == want == sub_dot_reference(a, pairs, q)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quo_rem_matches_reference(data):
    q = data.draw(st.sampled_from(PRIMES), label="q")
    a = data.draw(maps(residues(q)), label="a")
    m = data.draw(maps(residues(q)).filter(bool), label="m")
    quot, rem = quo_rem(a, m, q)
    assert (quot, rem) == quo_rem_reference(a, m, q)
    assert quo_rem(a, m, q, max(m)) == (quot, rem)
    assert sub_dot(rem, ((quot, mul_scalar(m, -1, q)),), q) == a    # a = quot*m + rem


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_monic_and_gcd_match_reference(data):
    q, coeffs = data.draw(rings())
    a = data.draw(maps(coeffs).filter(bool), label="a")
    assert monic(a, q) == monic_reference(a, q)
    assert monic(a, q)[max(a)] == 1
    if q:
        b = data.draw(maps(coeffs), label="b")
        common = data.draw(maps(coeffs), label="common factor")
        a, b = (sub_dot({}, ((common, mul_scalar(x, -1, q)),), q) for x in (a, b))
        assert monic_gcd(a, b, q) == monic_gcd_reference(a, b, q)
        assert monic_gcd(a, {}, q) == monic_gcd_reference(a, {}, q)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mod_q_matches_reference(data):
    q = data.draw(st.sampled_from(PRIMES), label="q")
    ints = st.integers(-10 ** 20, 10 ** 20)
    coeffs = st.one_of(ints, st.builds(Fraction, ints, st.integers(1, 10 ** 6)))
    a = data.draw(maps(coeffs), label="a")
    try:
        want = mod_q_reference(a, q)
    except ValueError:
        with pytest.raises(ValueError):
            mod_q(a, q)
        return
    assert mod_q(a, q) == want


def test_mod_q_rejects_a_denominator_that_q_divides():
    assert mod_q({0: 3, 2: Fraction(1, 2), 5: 14}, 7) == {0: 3, 2: 4}    # 14 = 0 mod 7
    with pytest.raises(ValueError):
        mod_q({1: Fraction(3, 14)}, 7)
    with pytest.raises(ValueError):
        mod_q_reference({1: Fraction(3, 14)}, 7)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 2 ** 20), st.integers(1, 12), st.data())
def test_pack_round_trip_at_the_slot_bound(q, terms, n, data):
    # every slot holds the most that ``slot_bytes`` sizes it for, terms*(q-1)^2
    w, bound = slot_bytes(q, terms), terms * (q - 1) ** 2
    assert bound.bit_length() <= 8 * w
    v = data.draw(st.lists(st.sampled_from([0, 1, q - 1, bound]), min_size=n, max_size=n))
    packed = pack(v, w)
    assert packed == pack_reference(v, w)
    assert unpack(packed, w) == unpack_reference(packed, w)
    assert unpack(packed, w) == v[:max((i + 1 for i, c in enumerate(v) if c), default=0)]
    # a sum of ``terms`` products of residue vectors with every residue q-1
    # reaches the bound in its middle slot without carrying into the next
    k, ones = min(terms, 4), [q - 1] * min(n, terms)
    w = slot_bytes(q, k * len(ones))
    total = sum(pack(ones, w) * pack(ones, w) for _ in range(k))
    assert unpack(total, w) == [k * c for c in dense_product(ones, ones)]


# q = 2 has the shortest reciprocal; 2^63 - 25 is the largest prime below the
# word limit that ``domains`` accepts, its slots past any machine word
REDUCE_PRIMES = [2, 3, 5, 251, 65521, 2 ** 31 - 1, 2 ** 63 - 25]


@pytest.mark.parametrize("q", REDUCE_PRIMES)
@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2 ** 20), st.integers(1, 70), st.data())
def test_reduce_slots_at_the_slot_bound(q, terms, n, data):
    # every slot at 0, 1, q - 1 or the largest sum a slot sized for twice
    # the terms holds with its top bit spare, terms*(q-1)^2: the bulk
    # reduction takes each one mod q, the even and the odd slots apart, up
    # to 70 slots, across the masks' size classes
    w, bound = slot_bytes(q, 2 * terms), terms * (q - 1) ** 2
    assert bound.bit_length() < 8 * w           # the spare bit
    v = data.draw(st.lists(st.sampled_from([0, 1, q - 1, bound]), min_size=n, max_size=n))
    packed = pack(v, w)
    assert reduce_slots(packed, w, q) == pack([c % q for c in unpack(packed, w)], w)


@pytest.mark.parametrize("q", REDUCE_PRIMES)
def test_reduce_slots_on_runs_of_full_slots(q):
    # 0 to 40 slots, every one at the bound: every size class of the masks,
    # and ints that end in an even slot or an odd one
    for terms in (1, 3, 2 ** 20):
        w, bound = slot_bytes(q, 2 * terms), terms * (q - 1) ** 2
        for n in range(41):
            assert reduce_slots(pack([bound] * n, w), w, q) == pack([bound % q] * n, w)
