"""Exact row-space linear algebra on index-encoded numpy arrays.

Rows are 1-D uint8 arrays of field-element indices; all arithmetic goes
through the tower's lookup tables.  Pivoting is deterministic: the first
nonzero entry in column order, no heuristics.
"""

from __future__ import annotations

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
    r = 0
    for c in range(n):
        if r >= k:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
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
    return R[:r], pivots, T[:r]


def rank(tower, rows) -> int:
    return len(rref(tower, rows)[1])


def combine(tower, rows, coeffs):
    """Sum of coeffs[i] * rows[i] over the field, where the rows are field
    elements or equal-shape arrays of them, each scaled in place of stacking
    them; the sum has their shape, and the sum of no rows is the element 0."""
    acc = None
    for s, row in zip(coeffs, rows):
        if s:
            term = tower.mul_np[s][row]
            acc = term if acc is None else tower.add_np[acc, term]
    if acc is None:
        return tower.mul_np[0][rows[0]] if len(rows) else np.uint8(0)
    return acc

