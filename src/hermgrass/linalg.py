"""Exact row-space linear algebra on index-encoded numpy arrays.

Rows are 1-D uint8 arrays of field-element indices.  Elimination (`rref`)
walks the columns a block at a time: each block is multiplied by the
transform so far (a `combine`), and the row operations of its
pivots go through the tower's lookup tables on the block and the
transform alone; the walk ends at the block where the rank reaches the
number of rows.  Pivoting is deterministic: the first nonzero entry in
column order, no heuristics.

The linear combination (`combine`) adds in lanes instead.  An index is the
little-endian base-p digit vector of its element, and the field sum adds
those digits mod p.  A table per tower and lane width w holds, for each
product s * a, its 2e digits in 2e lanes of w bits of one uint16, uint32
or uint64 word, so the products of many rows are added as plain
integers, w being wide enough that no lane carries into the next.  The
lanes are reduced mod p once, after the last row, and placed as the digits
of the index by one gather per group of lanes that fits 16 bits: one
gather for the whole word wherever its 2e lanes take at most 16 bits.

A stack of two or more coefficient vectors combines the same rows as one
float matrix product.  Multiplying by s is F_p-linear on digit vectors, so
the lane word of s * a is the sum over the digits a_j of a_j times the lane
word of s * p^j; the packed sums of a whole stack are then (lane words of
the coefficients) @ (digit planes of the rows), exact while every lane sum
fits the float's mantissa, and reduced by the same gathers.  The
array shapes of the rows and coefficients, whatever their Python types,
decide both the shape of the sum and which of the two kernels runs.

Either kernel takes any number of rows: past the most it adds exactly
(`_exact_rows`: 2e lanes within 64 bits for one vector, within float64's
53-bit mantissa for a stack), the rows go through it in consecutive groups
of that many, and the group sums are added by `tower.adds`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import indices

# Scale of the bounds on what one vectorized operation holds: the float
# digit planes of one position chunk of a stacked `combine` and the uint8
# entries of one column block of `rref` (here), the int64 positions of one
# chunk of a whole position space (`hermitian.CHUNK`), the bytes of the
# table of trailing-row combinations a walk step weighs (`walk._plan`), and
# the pair sums of one block of the dual scan (`dual._pair_blocks`).  walk
# and dual import it under the same name, so patching walk.TABLE_BYTES
# bounds only the walk's tables, and dual.TABLE_BYTES only the scan's
# blocks.
TABLE_BYTES = 1 << 17


def rref(tower, rows):
    """Pivots and transform of the reduced row echelon form of a k x n matrix.

    Returns (pivots, T): the pivot columns in order, their number being the
    rank r, and the r x k matrix T such that T.rows (as field operations)
    is the reduced form, with unit pivot columns and no zero rows.  An entry
    that is not an index in [0, q^2) raises ValueError before any work.

    Pivoting is deterministic: the next pivot is the first column with a
    nonzero entry in a row without a pivot, in the first such row.  The
    columns are reduced a block of TABLE_BYTES // k at a time: the rows
    without a pivot are multiplied by their rows of the k x k transform
    (one `combine`), and each pivot's row operations touch only the rows
    below it, in the block and in the transform.  The walk stops once every
    row holds a pivot, so no column past the block of the k-th pivot is
    read.  The rows above a pivot keep their entry in its column, and a back
    substitution on the transform clears them at the end.  T is the
    transform of the plain Gauss-Jordan elimination, entry for entry: each
    row of the reduced form is its echelon row plus the unique combination
    of the later echelon rows that clears their pivot columns.
    """
    rows = indices(rows, tower.qq, f"rref entries must be field indices in [0, {tower.qq})")
    add, mul, neg, inv = tower.add_np, tower.mul_np, tower.neg_np, tower.inv_np
    k, n = rows.shape
    T = np.eye(k, dtype=np.uint8)
    pivots, above = [], []
    width = max(1, TABLE_BYTES // max(k, 1))
    for start in range(0, n, width):
        top = len(pivots)
        if top == k:
            break
        block = rows[:, start:start + width]
        w = block.shape[1]
        A = np.zeros((k, w + k), dtype=np.uint8)  # this block of T.rows, then T
        A[top:, :w] = combine(tower, block, T[top:]) if top else block
        A[:, w:] = T
        r, c = top, 0
        while r < k:
            live = A[r:, c:w].any(axis=0).nonzero()[0]
            if not live.size:
                break
            c += int(live[0])
            pr = r + int(A[r:, c].nonzero()[0][0])
            if pr != r:
                A[[r, pr]] = A[[pr, r]]
            pv = int(A[r, c])
            if pv != 1:
                A[r, c:] = mul[inv[pv], A[r, c:]]
            below = A[r + 1:, c].nonzero()[0] + (r + 1)
            if below.size:
                # row r is zero before column c
                A[below, c:] = add[A[below, c:], mul[neg[A[below, c, None]], A[r, c:]]]
            pivots.append(start + c)
            r += 1
            c += 1
        T = A[:, w:].copy()  # not a view, which would keep the block alive
        # the back substitution needs each pivot row's entry at every later
        # pivot; pivot rows are not changed again, so these are read now,
        # those of earlier blocks' rows by multiplying at this block's pivots
        cols = [j - start for j in pivots[top:]]
        if top and cols:
            A[:top, cols] = combine(tower, block[:, cols], T[:top])
        above += [A[:j, c] for j, c in enumerate(cols, top)]
    for j in range(len(pivots) - 1, 0, -1):
        T[:j] = add[T[:j], mul[neg[above[j], None], T[j]]]
    return pivots, T[:len(pivots)]


def rank(tower, rows) -> int:
    return len(rref(tower, rows)[0])


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
    (p - 1)) bits, so no lane carries into the next; then the lanes are
    reduced mod p once, by one gather per group of lanes from a table of
    their packed bits to their digits of the index (`_lanes`; a gather
    costs less than numpy's integer remainder).

    A stack of m > 1 vectors takes one (m, c * 2e) @ (c * 2e, positions)
    float product: column (i, j) of the left factor is the lane word of
    coeffs[:, i] * p^j, row (i, j) of the right factor digit j of rows[i].
    A lane sums c * 2e digit products, so w = bit_length(c * 2e * (p -
    1)^2); the product is exact in float32 up to 24 bits of lanes and in
    float64 up to 53.  The positions go through it in chunks whose float
    digit planes take at most TABLE_BYTES.

    Past `_exact_rows` rows (all 2e lanes within 64 bits for one vector,
    within 53 for a stack), the kernel adds consecutive groups of that many
    rows and `tower.adds` sums the groups, so any number of rows is exact.

    The rows and coefficients must be field indices in [0, q^2): this kernel
    does not check them, as it runs hundreds of times in one verify pass,
    and an index outside the field is wrapped or truncated by the lookups.
    A public entry that hands it caller values checks them first
    (`errors.indices`).
    """
    coeffs = np.asarray(coeffs)
    c = len(rows)
    if coeffs.shape[-1:] != (c,):
        raise ValueError(f"combine of {c} rows by coefficients of shape {coeffs.shape}")
    shape = np.shape(rows[0]) if c else np.shape(rows)[1:]
    m, p, deg = math.prod(coeffs.shape[:-1]), tower.p, 2 * tower.e
    stack = coeffs.reshape(m, c)
    most = _exact_rows(tower, m > 1)
    if c > most:
        parts = (combine(tower, rows[s:s + most], stack[:, s:s + most]) for s in range(0, c, most))
        out = functools.reduce(tower.adds, parts)
    elif not stack.size:
        out = np.zeros((m,) + shape, np.uint8)
    elif m == 1:
        width = (c * (p - 1)).bit_length()
        lanes, tables = _lanes(tower, width)
        acc = None
        for s, row in zip(stack[0].tolist(), rows):
            if s:
                term = lanes[s].take(row)
                if acc is None:
                    acc = term
                else:
                    acc += term
        out = np.zeros(shape, np.uint8) if acc is None else _residues(tables, acc)
    else:
        width = (c * deg * (p - 1) ** 2).bit_length()
        ftype = np.dtype(np.float32 if deg * width <= 24 else np.float64)
        lanes, tables = _lanes(tower, width)
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
            out[:, start:start + step] = _residues(tables, acc)
    return out.reshape(coeffs.shape[:-1] + shape)[()]


def _exact_rows(tower, stacked):
    """The most rows one kernel of `combine` adds exactly: while c is at
    most this, 2e lanes of bit_length(c * top) bits fit 64 bits, top = p - 1
    the largest digit, or for a stack float64's 53-bit mantissa, top = 2e *
    (p - 1)^2 the largest sum of digit products one row adds to a lane."""
    deg = 2 * tower.e
    bits, top = (53, deg * (tower.p - 1) ** 2) if stacked else (64, tower.p - 1)
    return (2 ** (bits // deg) - 1) // top


def _residues(tables, acc):
    """Field indices of the packed lane sums acc: each group of lanes, cut
    off the low end of the word, maps through its table of `_lanes` to its
    share of the index, the shares are added.  The top group takes no
    mask, as no lane carries past the last."""
    *low, top = tables
    parts = []
    for table in low:
        parts.append(table.take(acc & (table.size - 1)))
        acc = acc >> (table.size.bit_length() - 1)
    out = top.take(acc)
    for part in parts:
        out += part
    return out


@functools.cache
def _lanes(tower, width):
    """(lanes, tables) for lanes of `width` bits: lanes[s, a] holds digit i
    of s * a in bits [i * width, (i + 1) * width) of the smallest of uint16,
    uint32 and uint64 that holds all 2e lanes.  The lanes are cut into the
    fewest groups of consecutive lanes that fit 16 bits, a lane wider than
    that in a group of its own, the lanes shared out evenly; the table of
    the group of lanes [i0, i0 + g) maps their g * width packed bits v to
    the sum over i < g of (lane i of v mod p) * p^(i0 + i), so a 16-bit
    group takes a 2^16-entry uint8 table and a wider lane 2^width."""
    deg, p = 2 * tower.e, tower.p
    dtype = next(d for d in (np.uint16, np.uint32, np.uint64) if np.iinfo(d).bits >= deg * width)
    place = (p ** np.arange(deg)).astype(np.uint8)
    digits = (tower.mul_np[..., None] // place % p).astype(dtype)
    lanes = (digits << (width * np.arange(deg)).astype(dtype)).sum(axis=-1, dtype=dtype)
    residue = np.resize(np.arange(p, dtype=np.uint8), 1 << width)  # v mod p for every lane value v
    groups = -(-deg // max(1, 16 // width))
    size = -(-deg // groups)  # lanes in a group
    tables = []
    for start in range(0, deg, size):
        table = np.zeros(1, dtype=np.uint8)
        for i in range(start, min(start + size, deg)):  # lane i: the high bits of the index
            table = (residue[:, None] * p**i + table).ravel()
        table.setflags(write=False)
        tables.append(table)
    lanes.setflags(write=False)
    return lanes, tuple(tables)
