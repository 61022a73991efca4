"""Sparse linear algebra over prime fields, in plain Python."""

from __future__ import annotations


def _subtract(row: dict, k: int, pivot_row: dict, q: int) -> None:
    """row -= k * pivot_row over Z_q, in place; entries that vanish are dropped."""
    for c, v in pivot_row.items():
        s = (row.get(c, 0) - k * v) % q
        if s:
            row[c] = s
        else:
            del row[c]


def nullspace_mod(rows, ncols: int, q: int) -> list[list[int]]:
    """Basis of the right nullspace of the matrix over Z_q.

    ``rows`` is a list of sparse rows, each a dict from column index
    (``0 <= c < ncols``) to integer entry, and may be empty (nullspace =
    identity).  Entries are reduced mod q.  The reduced row echelon form is
    built one row at a time: each row is reduced by the pivot rows of the
    columns it touches; a nonzero remainder is scaled to 1 at its smallest
    column, which is then cleared from the earlier pivot rows.  The RREF is
    unique, so the basis (one vector per free column) does not depend on the
    order of the rows.
    """
    pivots: dict = {}  # pivot column -> row: 1 there, 0 at every other pivot
    for row in rows:
        if row and (min(row) < 0 or max(row) >= ncols):
            raise ValueError(f"column index out of range for {ncols} columns")
        r = {c: s for c, v in row.items() if (s := v % q)}
        # a pivot row is 0 at the other pivots, so each r[c] here stays put
        for c in [c for c in r if c in pivots]:
            _subtract(r, r[c], pivots[c], q)
        if not r:
            continue
        p = min(r)
        inv = pow(r[p], -1, q)
        r = {c: v * inv % q for c, v in r.items()}
        for other in pivots.values():
            if p in other:
                _subtract(other, other[p], r, q)
        pivots[p] = r
    basis = {c: [0] * c + [1] + [0] * (ncols - 1 - c)
             for c in range(ncols) if c not in pivots}
    for p, r in pivots.items():
        for c, v in r.items():
            if c != p:
                basis[c][p] = -v % q
    return list(basis.values())
