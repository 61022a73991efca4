"""Weight functions: additive monomial gradings with vector values.

A weight matrix W has one column per ring variable and one row per weight
component; wt extends additively from variables to monomials and takes the
lexicographic maximum over the support of a polynomial.
"""

from __future__ import annotations

from typing import Sequence

WeightMatrix = tuple  # rows of integers, one column per variable


class WeightError(ValueError):
    """Raised for invalid weight data or weightless polynomials."""


def normalize_weights(rows: Sequence[Sequence[int]], nvars: int) -> WeightMatrix:
    w = tuple(tuple(int(x) for x in r) for r in rows)
    if not w or any(len(r) != nvars for r in w):
        raise WeightError(f"weight matrix must have {nvars} columns")
    if any(x < 0 for r in w for x in r):
        raise WeightError("weight entries must be non-negative")
    bad = [x for r in rows for x in r if type(x) is not int]  # int() took them
    if bad:
        raise WeightError(f"entry {bad[0]!r} is not an integer")
    return w


def mono_weight(mono, weights: WeightMatrix) -> tuple:
    return tuple(sum(r * e for r, e in zip(row, mono)) for row in weights)


def weight_of(poly) -> tuple:
    """Lexicographically maximal weight vector over the support of poly."""
    w = poly.ring.weights
    if w is None:
        raise WeightError("ring has no weight matrix")
    if poly.is_zero():
        raise WeightError("zero polynomial has no weight")
    return max(mono_weight(m, w) for m, _ in poly.terms)


def max_weight_monomials(poly) -> list:
    top = weight_of(poly)
    return [m for m, _ in poly.terms if mono_weight(m, poly.ring.weights) == top]


def validate_weight_function(f):
    """Check that f is compatible with the weight matrix of its ring.

    Accepts exactly when the maximal-weight monomials of f are the pure
    dependent power y^d (d the dependent degree of f) together with a single
    monomial in independent variables only.  Returns (ok, offending list).
    """
    ring = f.ring
    if ring.ndep != 1:
        raise WeightError("weight validation expects one dependent variable")
    d = f.degree_in(0)
    lead = tuple(d if i == 0 else 0 for i in range(ring.nvars))
    if f.coeff_of(lead) != ring.domain.one:
        raise WeightError("relation is not monic in the dependent variable")
    top = max_weight_monomials(f)
    if len(top) != 2 or lead not in top:
        return False, top
    other = next(m for m in top if m != lead)
    if other[0] != 0:
        return False, top
    return True, top
