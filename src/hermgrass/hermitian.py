"""The space of ell x ell Hermitian matrices over F_{q^2}, and the position
codec of both code families.

A matrix, or an array of matrices, is one uint8 array E of element
indices with shape (ell, ell) + shape: entry (i, j) of the matrix at index
s is E[i, j][s].  H is Hermitian when H equals its conjugate transpose,
i.e. diagonal entries lie in F_q and H[j, i] = H[i, j]^q.

`decode` and `encode` are the single definition of the normative position
order, whose digits `position_digits` lists.  They take one position or an
array of them, and one matrix or an array of them; a whole space is
walked once, as decoded chunks (`decoded_chunks`).  `encode` is also the
one membership rule: it raises ValueError for a matrix outside the family.

The matrix actions of both families are `product` (X -> L X R, the
Hermitian congruence being L = A*, R = A), `translate` (X -> X + M) and
transposition, `X.swapaxes(0, 1)`.  Each takes one matrix or an array of
them alike, so one position walk applies it to the decoded chunks of
either family (`codebuild._position_permutation`).
"""

from __future__ import annotations

from math import comb, prod

import numpy as np

from . import linalg

FAMILY_HERMITIAN = "hermitian"
FAMILY_AFFINE = "affine"

# The most positions q^(ell^2) a code is built or weighed over.
BUILD_LIMIT = 10**7
CHUNK = linalg.TABLE_BYTES // 8  # a chunk's int64 positions take TABLE_BYTES


def upper_pairs(ell):
    """Strict upper-triangle coordinates in row-major order."""
    return [(i, j) for i in range(ell) for j in range(i + 1, ell)]


# the position codec -----------------------------------------------------------


def position_digits(ell: int, family: str):
    """The normative position order: for each mixed-radix digit of t, least
    significant first, the entry (i, j) it reads and whether it runs over
    F_q (radix q, through the sorted subfield list) or over F_{q^2} (radix
    q^2, with the conjugate filling entry (j, i))."""
    if family == FAMILY_HERMITIAN:
        return [((i, i), True) for i in range(ell)] + [(ij, False) for ij in upper_pairs(ell)]
    if family == FAMILY_AFFINE:
        return [((i, j), True) for i in range(ell) for j in range(ell)]
    raise ValueError(f"unknown family {family!r}")


def decoded_chunks(tower, ell: int, family: str):
    """(t, decode(t)) for consecutive position arrays t covering the family's
    whole space [0, q^(ell^2)), at most CHUNK positions each."""
    total = tower.q ** (ell * ell)
    for start in range(0, total, CHUNK):
        t = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        yield t, decode(tower, ell, family, t)


def decode(tower, ell: int, family: str, t):
    """The matrices at positions t, shape (ell, ell) + t.shape: E[i, j][s] =
    entry (i, j) of the matrix at position t[s]."""
    t = np.asarray(t, dtype=np.int64)
    total = tower.q ** (ell * ell)
    if t.size and (t.min() < 0 or t.max() >= total):
        raise ValueError(f"position out of range [0, {total})")
    E = [[None] * ell for _ in range(ell)]
    for (i, j), in_subfield in position_digits(ell, family):
        radix = tower.q if in_subfield else tower.qq
        high = t // radix
        d, t = t - high * radix, high  # no divmod; the int64 digit indexes at native width
        if in_subfield:
            E[i][j] = tower.subfield_np[d]
        else:
            E[i][j], E[j][i] = d.astype(np.uint8), tower.conj_np[d]
    return np.array(E)


def encode(tower, ell: int, family: str, entries):
    """Positions of the matrices `entries`, any array-like of shape (ell,
    ell) + shape; the inverse of `decode`.  Raises ValueError for a matrix
    outside the family: an entry outside F_q where its digit runs over F_q,
    or outside F_{q^2}, or a lower entry that is not the conjugate of its
    upper one."""
    E = np.asarray(entries)
    if E.shape[:2] != (ell, ell):
        raise ValueError(f"expected {ell} x {ell} entries, got shape {E.shape[:2]}")
    if E.size and (E.min() < 0 or E.max() >= tower.qq):
        raise ValueError(f"entry outside F_{tower.qq}")
    t = np.zeros(E.shape[2:], dtype=np.int64)
    weight = 1
    for (i, j), in_subfield in position_digits(ell, family):
        e = E[i, j].astype(np.intp)  # one entry array at a time, indexing at native width
        if in_subfield:
            d, radix = tower.subfield_digit_np[e], tower.q
            if (d < 0).any():
                raise ValueError(f"entry ({i}, {j}) outside F_{tower.q}")
        else:
            d, radix = e, tower.qq
            if (E[j, i] != tower.conj_np[d]).any():
                raise ValueError(f"entry ({j}, {i}) is not the conjugate of entry ({i}, {j})")
        t += d * weight
        weight *= radix
    return t


# group actions ---------------------------------------------------------------


def product(tower, L, X, R):
    """L X R for one matrix X or an array of them, as two stacked combines:
    column j of X R is the combination of the columns of X by column j of
    R, and row i of L (X R) that of the rows of X R by row i of L.  The
    congruence H -> A* H A is product(A*, H, A)."""
    XR = linalg.combine(tower, np.swapaxes(X, 0, 1), np.asarray(R, dtype=np.uint8).T)
    return linalg.combine(tower, XR.swapaxes(0, 1), np.asarray(L, dtype=np.uint8))


def translate(tower, M, X):
    """X + M for one matrix X or an array of them: entry (i, j) is one row
    of the addition table, that of M[i, j], taken at X[i, j]."""
    add = tower.add_np[np.asarray(M, dtype=np.uint8)]  # add[i, j, x] = M[i, j] + x
    return np.array([[add[i, j].take(X[i, j]) for j in range(len(add))] for i in range(len(add))])


def outer(tower, u, v):
    """u* v: entry (i, j) = conj(u_i) * v_j."""
    return tower.mul_np[tower.conj_np[np.asarray(u)][:, None], np.asarray(v)]


# cardinality -----------------------------------------------------------------


def count_invertible(ell: int, q: int) -> int:
    """Number of invertible ell x ell Hermitian matrices over F_{q^2}:
    q^binom(ell,2) * prod_{i=1..ell} (q^i + (-1)^i)."""
    return q ** comb(ell, 2) * prod(q**i + (-1) ** i for i in range(1, ell + 1))
