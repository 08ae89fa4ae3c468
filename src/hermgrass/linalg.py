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

A stack of two or more coefficient vectors combines the same rows as one
float matrix product.  Multiplying by s is F_p-linear on digit vectors, so
the lane word of s * a is the sum over the digits a_j of a_j times the lane
word of s * p^j; the packed sums of a whole stack are then (lane words of
the coefficients) @ (digit planes of the rows), exact while every lane sum
fits the float's mantissa, and reduced by the same residue tail.  The
array shapes of the rows and coefficients, whatever their Python types,
decide both the shape of the sum and which of the two kernels runs.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Scale of the bounds on what one vectorized operation holds: the float
# digit planes of one position chunk of a stacked `combine` (here), the
# int64 positions of one chunk of a whole position space
# (`hermitian.CHUNK`), the bytes of the table of trailing-row combinations
# a walk step weighs (`walk._plan`), and the pair sums of one block of the
# dual scan (`dual._pair_blocks`).  walk and dual import it under the same
# name, so patching walk.TABLE_BYTES bounds only the walk's tables, and
# dual.TABLE_BYTES only the scan's blocks.
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
    """Sum of coeffs[..., i] * rows[i] over the field.

    The rows are c field elements or c equal-shape arrays of them; coeffs
    is a vector of c coefficients or an (m, c) stack of such vectors, as
    any array-like, and a last axis of another length raises ValueError.
    The result has shape coeffs.shape[:-1] + the row shape and np.uint8
    values (a 0-d result is an np.uint8 scalar, which hashes like an int),
    so the sum of no rows is zeros of that shape.

    One vector (m = 1) takes the lane sum: per row one lookup
    lanes[s].take(row) and one integer add, in lanes of w = bit_length(c *
    (p - 1)) bits, so no lane carries into the next; then each lane is
    reduced mod p once, through the residue lookup (a gather costs less
    than numpy's integer remainder).  More than 64 bits of lanes in all
    raise ValueError.

    A stack of m > 1 vectors takes one (m, c * 2e) @ (c * 2e, positions)
    float product: column (i, j) of the left factor is the lane word of
    coeffs[:, i] * p^j, row (i, j) of the right factor digit j of rows[i].
    A lane sums c * 2e digit products, so w = bit_length(c * 2e * (p -
    1)^2); the product is exact in float32 up to 24 bits of lanes and in
    float64 up to 53, and past that raises ValueError.  The positions go
    through it in chunks whose float digit planes take at most TABLE_BYTES.
    """
    coeffs = np.asarray(coeffs)
    c = len(rows)
    if coeffs.shape[-1:] != (c,):
        raise ValueError(f"combine of {c} rows by coefficients of shape {coeffs.shape}")
    shape = np.shape(rows[0]) if c else np.shape(rows)[1:]
    m, p, deg = math.prod(coeffs.shape[:-1]), tower.p, 2 * tower.e
    stack = coeffs.reshape(m, c)
    if not stack.size:
        out = np.zeros((m,) + shape, np.uint8)
    elif m == 1:
        width = (c * (p - 1)).bit_length()
        if deg * width > 64:
            raise ValueError(f"combine of {c} rows over F_{p} needs {deg} lanes of "
                             f"{width} bits, more than the 64-bit limit")
        lanes, residue = _lanes(tower, width)
        acc = None
        for s, row in zip(stack[0].tolist(), rows):
            if s:
                term = lanes[s].take(row)
                if acc is None:
                    acc = term
                else:
                    acc += term
        out = np.zeros(shape, np.uint8) if acc is None else _residues(tower, width, residue, acc)
    else:
        width = (c * deg * (p - 1) ** 2).bit_length()
        if deg * width > 53:
            raise ValueError(f"stacked combine of {c} rows over F_{p} needs {deg} lanes "
                             f"of {width} bits, more than float64's 53-bit mantissa")
        ftype = np.dtype(np.float32 if deg * width <= 24 else np.float64)
        lanes, residue = _lanes(tower, width)
        left = lanes[stack[:, :, None], p ** np.arange(deg)].reshape(m, c * deg).astype(ftype)
        size = math.prod(shape)
        flat = np.asarray(rows, dtype=np.uint8).reshape(c, size)
        out = np.empty((m, size), dtype=np.uint8)
        step = max(1, TABLE_BYTES // (c * deg * ftype.itemsize))
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
    return out.reshape(coeffs.shape[:-1] + shape)[()]


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
