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

A stack of coefficient vectors combines the same rows as one float matrix
product.  Multiplying by s is F_p-linear on digit vectors, so the lane word
of s * a is the sum over the digits a_j of a_j times the lane word of
s * p^j; the packed sums of a whole stack are then (lane words of the
coefficients) @ (digit planes of the rows), exact while every lane sum
fits the float's mantissa, and reduced by the same residue tail.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Scale of the bounds on what one vectorized operation holds: the float
# digit planes of one position chunk of a stacked `combine` (here), the
# bytes of the table of trailing-row combinations a walk step weighs
# (`analysis._plan`), and the pair sums of one block of the dual scan
# (`analysis._pair_blocks`).  analysis imports it under the same name, so
# patching analysis.TABLE_BYTES bounds only analysis's tables and blocks.
TABLE_BYTES = 1 << 17


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

    Coefficients given as an (m, c) array are a stack of m coefficient
    vectors, each combining the rows as above; the result has shape (m,
    *row shape).  The stack is one float matrix product over the rows'
    digit planes (`_combine_stack`).  The choice reads the ndim attribute
    of the coefficients, so lists and 1-D arrays keep the paths above.
    """
    if getattr(coeffs, "ndim", 1) == 2:
        return _combine_stack(tower, rows, coeffs)
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
    return _residues(tower, width, residue, acc)


def _combine_stack(tower, rows, coeffs):
    """combine(tower, rows, c) for every row c of the (m, c) coefficient
    array, as one (m, c * 2e) @ (c * 2e, positions) float product.

    Column (i, j) of the left factor is lanes[coeffs[:, i], p^j], the lane
    word of coeffs[:, i] * p^j; row (i, j) of the right factor is digit j
    of rows[i] at every position.  A lane then sums c * 2e products of two
    digits, so its width is w = bit_length(len(rows) * 2e * (p - 1)^2), and
    the product is exact when all 2e lanes fit the mantissa: float32 up to
    24 bits, float64 up to 53; past that the stack raises ValueError (the
    1-D path, with narrower lanes, still takes such rows).  The positions
    go through the product in chunks whose float digit planes take at most
    TABLE_BYTES.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    m, c = coeffs.shape
    c = min(c, len(rows))
    p, deg = tower.p, 2 * tower.e
    width = (len(rows) * deg * (p - 1) ** 2).bit_length()
    if deg * width > 53:
        raise ValueError(f"stacked combine of {len(rows)} rows over F_{p} needs {deg} lanes "
                         f"of {width} bits, more than float64's 53-bit mantissa")
    ftype = np.dtype(np.float32 if deg * width <= 24 else np.float64)
    lanes, residue = _lanes(tower, width)
    left = lanes[coeffs[:, :c, None], p ** np.arange(deg)].reshape(m, c * deg).astype(ftype)
    size = math.prod(rows.shape[1:])
    flat = rows[:c].reshape(c, size)
    out = np.empty((m, size), dtype=np.uint8)
    step = max(1, TABLE_BYTES // max(1, c * deg * ftype.itemsize))
    for start in range(0, size, step):
        rest = flat[:, start:start + step]
        digits = np.empty((c, deg, rest.shape[1]), dtype=ftype)
        for j in range(deg - 1):
            high = rest // p
            digits[:, j] = rest - high * p
            rest = high
        digits[:, -1] = rest  # an index is below p^2e
        acc = (left @ digits.reshape(c * deg, rest.shape[1])).astype(lanes.dtype)
        out[:, start:start + step] = _residues(tower, width, residue, acc)
    return out.reshape((m,) + rows.shape[1:])


def _residues(tower, width, residue, acc):
    """Field indices of the packed lane sums acc: each lane reduced mod p
    through the residue lookup and placed as digit i of the index."""
    p = tower.p
    mask = (1 << width) - 1
    out = residue.take(acc & mask)
    for i in range(1, 2 * tower.e):
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
