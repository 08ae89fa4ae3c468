"""The space of ell x ell Hermitian matrices over F_{q^2}, and the position
codec of both code families.

A matrix is a tuple of row tuples of element indices.  H is Hermitian when
H equals its conjugate transpose, i.e. diagonal entries lie in F_q and
H[j][i] = H[i][j]^q.

`decode` and `encode` are the single definition of the normative position
order, whose digits `position_digits` lists.  They take one position or an
array of them; a whole space is walked once, as decoded chunks
(`decoded_chunks`).
`congruence`, `translate` and `transpose` take one matrix or the entry
arrays of many, so the position permutations apply them to decoded chunks.
"""

from __future__ import annotations

from math import comb, prod

import numpy as np

from . import linalg

Matrix = tuple  # tuple of row tuples of element indices

FAMILY_HERMITIAN = "hermitian"
FAMILY_AFFINE = "affine"

# The most positions q^(ell^2) a code is built or weighed over.
BUILD_LIMIT = 10**7
CHUNK = linalg.TABLE_BYTES // 8  # a chunk's int64 positions take TABLE_BYTES


def upper_pairs(ell):
    """Strict upper-triangle coordinates in row-major order."""
    return [(i, j) for i in range(ell) for j in range(i + 1, ell)]


def zero_matrix(ell) -> Matrix:
    return tuple((0,) * ell for _ in range(ell))


def elementary_row_add(ell, i, j, m) -> Matrix:
    """L_{i,j}(m) = I + m E_{i,j}: adds m times row j to row i (0-based)."""
    return tuple(
        tuple(1 if r == c else (m if (r, c) == (i, j) else 0) for c in range(ell))
        for r in range(ell)
    )


def is_hermitian(tower, M) -> bool:
    try:
        encode(tower, len(M), FAMILY_HERMITIAN, M)
    except ValueError:
        return False
    return True


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
    """Entry arrays of the matrices at positions t: E[i][j][s] = entry (i, j)
    of the matrix at position t[s], as uint8 element indices."""
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
    return E


def encode(tower, ell: int, family: str, entries):
    """Positions of the matrices with entry arrays entries[i][j], the inverse
    of `decode`.  Raises ValueError for a matrix outside the family: an entry
    outside F_q where its digit runs over F_q, or outside F_{q^2}, or a lower
    entry that is not the conjugate of its upper one."""
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


def det_vectors(tower, sub):
    """Determinants of a k x k block of entry arrays, positionwise, by
    first-row expansion."""
    k = len(sub)
    if k == 0:
        raise ValueError("empty submatrix handled by caller")
    if k == 1:
        return sub[0][0]
    add, mul, neg = tower.add_np, tower.mul_np, tower.neg_np
    acc = None
    for c in range(k):
        rest = [row[:c] + row[c + 1 :] for row in sub[1:]]
        term = mul[sub[0][c], det_vectors(tower, rest)]
        if c % 2 == 1:
            term = neg[term]
        acc = term if acc is None else add[acc, term]
    return acc


# group actions ---------------------------------------------------------------


def congruence(tower, A, H) -> Matrix:
    """A* H A, computed as A* (H A); the entries of H are elements or entry
    arrays, and so are those of the image."""
    idx = range(len(A))
    HA = [[linalg.combine(tower, H[r], [A[s][j] for s in idx]) for j in idx] for r in idx]
    A_star = [[tower.conjugate(A[r][i]) for r in idx] for i in idx]
    return tuple(tuple(linalg.combine(tower, [HA[r][j] for r in idx], A_star[i]) for j in idx)
                 for i in idx)


def translate(tower, H, M) -> Matrix:
    """H + M, for entries that are elements or entry arrays."""
    if len(H) != len(M):
        raise ValueError("size mismatch")
    return tuple(tuple(tower.add_np[a, b] for a, b in zip(hr, mr)) for hr, mr in zip(H, M))


def transpose(tower, H) -> Matrix:
    ell = len(H)
    return tuple(tuple(H[j][i] for j in range(ell)) for i in range(ell))


def outer(tower, u, v) -> Matrix:
    """u* v: entry (i, j) = conj(u_i) * v_j."""
    return tuple(tuple(tower.mul(tower.conjugate(ui), vj) for vj in v) for ui in u)


def rank_one_from_vector(tower, a) -> Matrix:
    """The outer product a* a (conjugate transpose of the row vector a times a)."""
    if not any(a):
        raise ValueError("zero vector")
    return outer(tower, a, a)


# cardinality -----------------------------------------------------------------


def count_invertible(ell: int, q: int) -> int:
    """Number of invertible ell x ell Hermitian matrices over F_{q^2}:
    q^binom(ell,2) * prod_{i=1..ell} (q^i + (-1)^i)."""
    return q ** comb(ell, 2) * prod(q**i + (-1) ** i for i in range(1, ell + 1))
