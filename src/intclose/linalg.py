"""Linear algebra over prime fields in plain Python, on F_q residues packed
into ints (``xpoly``'s packed-slot form)."""

from __future__ import annotations

from .xpoly import slot_bytes


def _bits(m: int) -> list:
    """The set bits of m, ascending."""
    out = []
    while m:
        out.append((m & -m).bit_length() - 1)
        m &= m - 1
    return out


def nullspace_mod(rows, ncols: int, q: int, floor: int = 0) -> list[dict[int, int]]:
    """Basis of the right nullspace of the matrix over Z_q, as the RREF gives it.

    ``rows`` is a list of sparse rows, dicts from column index (``0 <= c <
    ncols``) to any int entry, read mod q; the range is checked once, over
    all rows, before any is read.  It may be empty (nullspace = identity).
    The basis has one vector b_f per free column f, ascending: 1 at f, 0 at
    the other free columns and minus the RREF entry at each pivot column.
    Each b_f is returned as its support, a dict {column: residue} in
    ascending column order holding only the nonzero entries: f and some
    pivot columns.  It is unique, so the order of the rows does not matter.

    The basis of the rows read so far starts as the identity, with b_f[c] in
    slot f of the packed int packed[c], so a row's products t_f = r.b_f are
    the slots of one sum of r[c]*packed[c] (Dumas, Fousse & Salvy, JSC 2011).
    One scan of the free columns the row may hit reads them, ascending.  If
    some t_f != 0 mod q, the smallest such free f becomes a pivot p and each
    b_f takes -(t_f/t_p)*b_p: b_f stays 1 at f, 0 at the other free
    columns and 0 above f, so the last basis is the RREF one.  Slots are
    reduced mod q only when read.  A slot starts at 0 or 1 and takes at most
    ncols updates of at most (q-1)^2, so a row's slot sums at most
    ncols*(1 + ncols*(q-1)) products of residues; ``slot_bytes`` sizes the
    slots for that, so no slot carries into the next.  masks[c] (the slots of
    packed[c] that may be nonzero) and support[f] (the columns where slot f
    may be) limit the reads and updates.

    Dead columns are skipped (the pruning of structured Gaussian elimination,
    LaMacchia & Odlyzko, CRYPTO 1990).  An entry at a column c with
    masks[c] & free = 0 adds nothing to a free slot of the row's sum, and
    only free slots are read, so it is not multiplied in; a row whose entries
    are all skipped is zero on the kernel of the rows read so far, so it lies
    in their span and is passed over.  So the basis is the same RREF one for
    any row order.  The test is on masks[c], not on c being free, as a pivot
    column whose packed int is nonzero in a free slot still moves that slot.

    Rows stop being read once at most ``floor`` columns are free.  The kernel
    of a row prefix contains the whole kernel, so at a ``floor`` equal to the
    kernel's dimension the two are equal at the stop, basis and all; a smaller
    ``floor`` never stops the reads, a larger one returns a prefix's kernel.
    """
    if (used := set().union(*rows)) and (min(used) < 0 or max(used) >= ncols):
        raise ValueError(f"column index out of range for {ncols} columns")
    w = slot_bytes(q, ncols * (1 + ncols * (q - 1)))
    bits, slot = 8 * w, (1 << 8 * w) - 1
    packed, masks = [1 << bits * c for c in range(ncols)], [1 << c for c in range(ncols)]
    support, free, todo = masks[:], (1 << ncols) - 1, ncols - floor   # pivots to the stop
    for row in rows if todo > 0 else ():
        t = m = 0
        for c, v in row.items():
            if live := masks[c] & free:
                t += v % q * packed[c]
                m |= live
        if not m:
            continue
        inv = new = new_mask = 0
        while m:                       # the first free hit is the pivot
            f = (m & -m).bit_length() - 1
            m &= m - 1
            if r := (t >> bits * f & slot) % q:
                if not inv:
                    p, inv = f, pow(r, -1, q)
                else:
                    new += r * inv % q << bits * f
                    new_mask |= 1 << f
                    support[f] |= support[p]
        if not inv:
            continue
        for c in _bits(support[p]) if new else ():
            if s := (packed[c] >> bits * p & slot) % q:
                packed[c] += (q - s) * new
                masks[c] |= new_mask
        free ^= 1 << p
        if not (todo := todo - 1):
            break
    return [{c: r for c in _bits(support[f]) if (r := (packed[c] >> bits * f & slot) % q)}
            for f in _bits(free)]
