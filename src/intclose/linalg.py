"""Dense linear algebra over prime fields (numpy-backed)."""

from __future__ import annotations

import numpy as np


def nullspace_mod(rows, ncols: int, q: int) -> list[list[int]]:
    """Basis of the right nullspace of the matrix over Z_q.

    ``rows`` is a list of integer rows or a 2-D integer array, and may be
    empty (nullspace = identity).  Entries are reduced mod q.
    The basis, one vector per free column, is read off the unique reduced row
    echelon form; each pivot updates only the rows nonzero in its column.
    """
    if ncols == 0:
        return []
    # int64 products overflow once q^2 exceeds 2^63; fall back to objects
    dtype = np.int64 if q < (1 << 31) else object
    if len(rows) == 0:
        a = np.zeros((0, ncols), dtype=dtype)
    else:
        a = np.asarray(rows, dtype=dtype) % q
        if a.shape[1] != ncols:
            raise ValueError("row length mismatch")
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        hits = a[r:, c].nonzero()[0]
        if not hits.size:
            continue
        if hits[0]:
            a[[r, r + hits[0]]] = a[[r + hits[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, q) % q
        others = a[:, c].nonzero()[0]
        others = others[others != r]
        a[others] = (a[others] - a[others, c, None] * a[r]) % q
        pivots.append(c)
    free = sorted(set(range(ncols)).difference(pivots))
    basis = np.zeros((len(free), ncols), dtype=dtype)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = (-a[:len(pivots), free].T) % q
    return basis.tolist()
