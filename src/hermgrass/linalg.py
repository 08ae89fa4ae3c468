"""Exact row-space linear algebra on index-encoded numpy arrays.

Rows are 1-D uint8 arrays of field-element indices.  Elimination (`rref`)
goes through the tower's lookup tables; pivoting is deterministic: the
first nonzero entry in column order, no heuristics.

The linear combination (`combine`) adds in lanes instead.  An index is the
little-endian base-p digit vector of its element, and the field sum adds
those digits mod p.  A table per tower and lane width w holds, for each
product s * a, its 2e digits in 2e lanes of w bits of one uint16, uint32
or uint64 word, so the products of many rows are added as plain
integers, w being wide enough that no lane carries into the next.  Each
lane is reduced mod p once, after the last row.
"""

from __future__ import annotations

import functools

import numpy as np


def rref(tower, rows):
    """Reduced row echelon form with transform.

    Returns (R, pivots, T) where R = T.rows (as field operations), R has
    unit pivot columns, and zero rows are dropped, so len(R) is the rank.
    """
    add, mul, neg, inv = tower.add_np, tower.mul_np, tower.neg_np, tower.inv_np
    R = np.array(rows, dtype=np.uint8, copy=True)
    k, n = R.shape
    T = np.eye(k, dtype=np.uint8)
    pivots = []
    r = c = 0
    while r < k:
        # the next pivot column: the first from c with a nonzero entry in rows r:
        nz = np.flatnonzero(R[r:, c:].any(axis=0))
        if nz.size == 0:
            break
        c += int(nz[0])
        pr = r + int(np.flatnonzero(R[r:, c])[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
            T[[r, pr]] = T[[pr, r]]
        pv = int(R[r, c])
        if pv != 1:
            lut = mul[inv[pv]]
            R[r] = lut[R[r]]
            T[r] = lut[T[r]]
        for i in range(k):
            f = int(R[i, c])
            if i != r and f:
                lut = mul[neg[f]]
                R[i] = add[R[i], lut[R[r]]]
                T[i] = add[T[i], lut[T[r]]]
        pivots.append(c)
        r += 1
        c += 1
    return R[:r], pivots, T[:r]


def rank(tower, rows) -> int:
    return len(rref(tower, rows)[1])


def combine(tower, rows, coeffs):
    """Sum of coeffs[i] * rows[i] over the field, where the rows are field
    elements or equal-shape arrays of them; the sum has their shape and
    np.uint8 values, and the sum of no rows is the element 0.  Rows past the
    end of the coefficients count as zero.

    Lane layout: lanes[s, a] holds digit i of s * a in bits [i * w,
    (i + 1) * w) of one word, where w = bit_length(len(rows) * (p - 1))
    holds the largest digit sum of a lane, so no lane carries into the next.
    Each row costs one 1-D lookup into lanes[s] and one integer add; after
    the last row each lane is reduced mod p once, through the residue
    lookup (a gather costs less than numpy's integer remainder).  Lanes of
    more than 64 bits in all raise ValueError.

    Rows that are single elements take the table sum instead: at a few
    elements, packing and unpacking cost more than the adds they save.  The
    choice reads the ndim attribute of the first row, where np.ndim would
    cost more than a one-element sum; a row without one (an int, or a
    list, which the table sum also takes) counts as 0-d.
    """
    if not len(rows) or not getattr(rows[0], "ndim", 0):
        acc = None
        for s, a in zip(coeffs, rows):
            if s:
                term = tower.mul_np[s, a]
                acc = term if acc is None else tower.add_np[acc, term]
        return np.uint8(0) if acc is None else acc
    p, deg = tower.p, 2 * tower.e
    width = (len(rows) * (p - 1)).bit_length()
    if deg * width > 64:
        raise ValueError(f"combine of {len(rows)} rows over F_{p} needs {deg} lanes of "
                         f"{width} bits, more than the 64-bit limit")
    lanes, residue = _lanes(tower, width)
    acc = None
    for s, row in zip(coeffs, rows):
        if s:
            term = lanes[s].take(row)
            if acc is None:
                acc = term
            else:
                acc += term
    if acc is None:
        return np.zeros(np.shape(rows[0]), dtype=np.uint8)
    mask = (1 << width) - 1
    out = residue.take(acc & mask)
    for i in range(1, deg):
        out += residue.take(acc >> i * width & mask) * p**i
    return out


@functools.cache
def _lanes(tower, width):
    """(lanes, residue) for lanes of `width` bits: lanes[s, a] holds digit i
    of s * a in bits [i * width, (i + 1) * width) of the smallest of uint16,
    uint32 and uint64 that holds all 2e lanes, and residue[v] = v mod p for
    every lane value v."""
    deg = 2 * tower.e
    dtype = next(d for d in (np.uint16, np.uint32, np.uint64) if np.iinfo(d).bits >= deg * width)
    place = (tower.p ** np.arange(deg)).astype(np.uint8)
    digits = (tower.mul_np[..., None] // place % tower.p).astype(dtype)
    lanes = (digits << (width * np.arange(deg)).astype(dtype)).sum(axis=-1, dtype=dtype)
    residue = (np.arange(1 << width) % tower.p).astype(np.uint8)
    lanes.setflags(write=False)
    residue.setflags(write=False)
    return lanes, residue
