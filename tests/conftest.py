"""Shared fixture curves: plane curves y^d = (stuff in x) with weight orders."""

import pytest

from intclose import (GF, QQ, Ring, canonical_conductor, frobenius_images, frobenius_scale,
                      qth_power_step, weight_over_grevlex)
from intclose.closure import by_y, from_y

# name -> (relation text, (wt_y, wt_x))
CURVES = {
    "quadratic": ("y^2 - 3/2*x^3 + 24/7*x^2 - 96/49*x", (3, 2)),
    "trident": ("y^3 + x^7 + 8*y*x", (7, 3)),
    "cubic_family": ("y^3 + 1/3*y*x + 8/7*x^5", (5, 3)),
    "radical": ("y^2 + 13/22*x^9 + 13/22*x^7 + 13/22*x^5", (9, 2)),
    "octic": ("y^8 - y^2*x^3 + 2*y*x^6 - x^9", (9, 8)),
    "sextic": ("(y^2 - 3/4*y - 15/17*x)^3 - 9*y*x^4*(y^2 - 3/4*y - 15/17*x)"
               " - 27*x^11", (11, 6)),
    "cusp": ("y^3 - x^5 - y*x", (5, 3)),
    "parabola": ("y^2 - x", (1, 2)),
}


def curve_ring(weights, domain=QQ):
    w = tuple(tuple(r) for r in ([weights] if isinstance(weights[0], int) else weights))
    nvars = len(w[0])
    names = ("y", "x") if nvars == 2 else ("y",) + tuple(f"x{i}" for i in range(nvars - 1, 0, -1))
    return Ring(names, 1, domain, weight_over_grevlex(w, nvars), w)


def make_curve(name, q=None):
    """(ring, relation) for a named fixture curve, over Q or over GF(q)."""
    text, weights = CURVES[name]
    ring = curve_ring(weights, QQ if q is None else GF(q))
    return ring, ring.parse(text)


def tail_of(f):
    """f's y-coefficients below y^d, as the per-prime layer takes f."""
    return by_y(f, f.degree_in(0))


def xdict(p):
    """An element of P = F[x] as an F[x] dict, as the per-prime layer takes it."""
    return by_y(p, 1)[0]


def conductor_of(f):
    """``canonical_conductor`` of a relation given as a Polynomial: (Delta as a
    Polynomial of f's ring, B)."""
    delta, B, _ = canonical_conductor(tail_of(f), f.ring)
    return from_y([[delta]], f.ring)[0], B


def run_inputs(f):
    """(ring, tail, Delta, B, checkpoints) of a relation given as a Polynomial: what
    ``is_prime_usable`` and ``run_prime`` take after q, as the driver builds it."""
    tail = tail_of(f)
    return (f.ring, tail, *canonical_conductor(tail, f.ring))


def images_of(f, conductor):
    """``frobenius_images`` of a relation and a conductor given as Polynomials."""
    return frobenius_images(tail_of(f), xdict(conductor), f.ring.domain.char)


def scale_of(conductor):
    """``frobenius_scale`` of a conductor given as a Polynomial."""
    return frobenius_scale(xdict(conductor), conductor.ring.domain.char)


def poly_step(numerators, images, conductor, scale):
    """``qth_power_step`` on Polynomials: the numerators go in through
    ``by_y`` as the module {k: (e, g)} of their leads y^k*x^e, and come out
    through ``from_y`` in the module's order."""
    module = {g.lm[0]: (g.lm[1], by_y(g, len(images))) for g in numerators}
    ring = conductor.ring
    out = qth_power_step(module, ring, images, xdict(conductor), scale)
    return from_y([g for _, g in out.values()], ring)


@pytest.fixture
def quadratic():
    return make_curve("quadratic")


@pytest.fixture
def trident():
    return make_curve("trident")


@pytest.fixture
def sextic():
    return make_curve("sextic")


# ---------------------------------------------------------------------------
# reference closure data for the sextic cover (numerators over delta = x^5,
# induced weights 25,21,20,11,10,6, and the full quadratic relation basis)

SEXTIC_NUMERATORS = [
    "x^5",
    "y^2*x^3 - (3/4)*y*x^3 - (15/17)*x^4",
    "y*x^5",
    "y^4*x - (3/2)*y^3*x - (30/17)*y^2*x^2 + (9/16)*y^2*x + (45/34)*y*x^2"
    " + (225/289)*x^3",
    "y^3*x^3 - (15/17)*y*x^4 - (9/16)*y*x^3 - (45/68)*x^4",
    "y^5 - (9/4)*y^4 - (30/17)*y^3*x + (27/16)*y^3 + (45/17)*y^2*x"
    " + (225/289)*y*x^2 - (27/64)*y^2 - (135/136)*y*x - (675/1156)*x^2",
]

# written over p_0..p_5 with p_0..p_4 the fractions of weights 25,21,20,11,10
# and p_5 = x; mapped onto ybar5..ybar1, x for the output ring
SEXTIC_RELATIONS_P = [
    "p_0^2 - (135/17)*p_0 + (81/4)*p_1*p_5^3 - 27*p_2*p_5^5 - 81*p_2*p_5^2"
    " - 243*p_3*p_5^5 - (405/17)*p_4*p_5^4 - (243/8)*p_4*p_5^3"
    " - (1215/17)*p_4*p_5 + (729/4)*p_5^5",
    "p_0*p_1 - 9*p_0*p_5^2 - (135/17)*p_1 - (27/2)*p_2*p_5 - (81/4)*p_3*p_5^4"
    " - 27*p_4*p_5^6 - (405/17)*p_5^5 + (243/16)*p_5^4",
    "p_0*p_2 - 27*p_1*p_5^4 - 81*p_1*p_5 - (135/17)*p_2 + (81/2)*p_4*p_5^4"
    " + (243/4)*p_4*p_5 - 243*p_5^6",
    "p_0*p_3 - 9*p_1*p_5 - (15/17)*p_2 + (27/4)*p_4*p_5 - 27*p_5^6",
    "p_0*p_4 - 9*p_2*p_5 - 27*p_3*p_5^4 - (135/17)*p_4 + (81/4)*p_5^4",
    "p_1^2 - (9/4)*p_0*p_5 - 9*p_1*p_5^2 - (15/17)*p_2*p_5 - (9/4)*p_2"
    " + (27/4)*p_4*p_5^2 - 27*p_5^7",
    "p_1*p_2 - (27/2)*p_1 - 9*p_2*p_5^2 - 27*p_3*p_5^5 - (135/17)*p_4*p_5"
    " + (81/8)*p_4 - (81/4)*p_5^5",
    "p_1*p_3 - (3/2)*p_1 - p_2*p_5^2 - (15/17)*p_4*p_5 + (9/8)*p_4",
    "p_1*p_4 - p_0*p_5 - (3/2)*p_2",
    "p_2^2 - 9*p_0*p_5 - (27/4)*p_2 - 27*p_4*p_5^5",
    "p_2*p_3 - p_0*p_5 - (3/4)*p_2",
    "p_2*p_4 - 9*p_1 + (27/4)*p_4 - 27*p_5^5",
    "p_3^2 - (3/4)*p_3 - p_4*p_5^2 - (15/17)*p_5",
    "p_3*p_4 - p_1 + (3/4)*p_4",
    "p_4^2 - p_2",
]

SEXTIC_INDUCED_WEIGHTS = (25, 21, 20, 11, 10, 6)

_P_TO_YBAR = {"p_0": "ybar5", "p_1": "ybar4", "p_2": "ybar3",
              "p_3": "ybar2", "p_4": "ybar1", "p_5": "x"}


def sextic_output_ring(domain=QQ):
    from intclose import grevlex_over_weight
    w = (SEXTIC_INDUCED_WEIGHTS,)
    names = ("ybar5", "ybar4", "ybar3", "ybar2", "ybar1", "x")
    return Ring(names, 5, domain, grevlex_over_weight(w, 5, 6), w)


def sextic_relations(domain=QQ):
    ring = sextic_output_ring(domain)
    out = []
    for text in SEXTIC_RELATIONS_P:
        for old, new in _P_TO_YBAR.items():
            text = text.replace(old, new)
        out.append(ring.parse(text))
    return ring, out

