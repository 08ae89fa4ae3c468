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

`position_digits` stays the definition; the codec reads uint8 tables
built from it, on first use.  `decode` cuts the digits into the fewest
consecutive groups of radix product at most GROUP_SIZE, takes one division
per group and one gather per entry from its group's table
(`_digit_groups`).
`encode` takes one gather per digit from the tower's tables
(`_entry_digits`): an F_q digit reads its entry, an F_{q^2} digit its
(upper, lower) pair, which also rejects a lower entry that is not the
conjugate.  One reduction over all the digits checks the matrices; only
when it fails is the first bad entry looked for, to be named.

The matrix actions of both families are `product` (X -> L X R, the
Hermitian congruence being L = A*, R = A), `translate` (X -> X + M) and
transposition, `X.swapaxes(0, 1)`.  Each takes one matrix or an array of
them alike, so one position walk applies it to the decoded chunks of
either family (`codebuild._position_permutation`).
"""

from __future__ import annotations

import functools
from math import comb, prod

import numpy as np

from . import linalg
from .errors import indices

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
    entry (i, j) of the matrix at position t[s].  Each digit group takes one
    division, and each entry one gather from its group's table."""
    total = tower.q ** (ell * ell)
    t = indices(t, total, f"position out of range [0, {total})").astype(np.int64, copy=False)
    groups = _digit_groups(tower, ell, family)
    E = np.empty((ell, ell) + t.shape, dtype=np.uint8)
    for g, (size, _, cells, table) in enumerate(groups):
        if g + 1 < len(groups):
            high = t // size
            d, t = t - high * size, high
        else:
            d = t  # below the last group's size, t being below total
        for (i, j), row in zip(cells, table):
            row.take(d, out=E[i, j, ...], mode="clip")  # d < size: clip spares take a buffer
    return E


def encode(tower, ell: int, family: str, entries):
    """Positions of the matrices `entries`, any array-like of shape (ell,
    ell) + shape; the inverse of `decode`.  Raises ValueError for a matrix
    outside the family: an entry outside F_q where its digit runs over F_q,
    or outside F_{q^2}, or a lower entry that is not the conjugate of its
    upper one.

    Each digit is one gather from a table of the tower (`_entry_digits`),
    which reads NOT_A_DIGIT for a matrix outside the family, so one
    reduction over the digits checks them all; only then is the first bad
    entry looked for.  The digits of a group are summed in uint16, and the
    groups in int64."""
    E = np.asarray(entries)
    if E.shape[:2] != (ell, ell):
        raise ValueError(f"expected {ell} x {ell} entries, got shape {E.shape[:2]}")
    outside = f"entry outside F_{tower.qq}"
    if E.dtype != np.uint8:
        E = indices(E, tower.qq, outside).astype(np.uint8)
    sub, pair = _entry_digits(tower)
    i, j, fq = _digit_entries(ell, family)
    D = np.empty((len(i),) + E.shape[2:], dtype=np.uint8)
    sub.take(E[i[:fq], j[:fq]], out=D[:fq], mode="clip")  # a uint8 entry is below len(sub)
    lower = E[j[fq:], i[fq:]]
    np.minimum(lower, tower.qq, out=lower)
    key = E[i[fq:], j[fq:]].astype(np.uint16)
    key *= tower.qq + 1
    key += lower
    pair.take(key, out=D[fq:], mode="clip")  # a key past the end clips to its last entry, NOT_A_DIGIT
    if D.size and D.max() == NOT_A_DIGIT:
        indices(E, tower.qq, outside)
        k = (D == NOT_A_DIGIT).reshape(len(D), -1).any(axis=1).argmax()
        if k < fq:
            raise ValueError(f"entry ({i[k]}, {j[k]}) outside F_{tower.q}")
        raise ValueError(f"entry ({j[k]}, {i[k]}) is not the conjugate of entry ({i[k]}, {j[k]})")
    t, top = None, len(D)
    for size, radices, _, _ in reversed(_digit_groups(tower, ell, family)):
        rows, top = D[top - len(radices):top], top - len(radices)
        u = rows[-1, ...].astype(np.uint16)  # a group's digits read below GROUP_SIZE
        for row, radix in zip(rows[-2::-1], radices[-2::-1]):
            u *= radix
            u += row
        if t is None:
            t = u.astype(np.int64)
        else:
            t *= size
            t += u
    return t


# the codec tables: built on first use, per tower and per (tower, ell, family)

# The largest radix product of one digit group, so that `decode` takes one
# division per group and a group's digits sum in uint16 in `encode`.
GROUP_SIZE = 1 << 12
NOT_A_DIGIT = 255  # above every digit, all being below q^2 <= 81


@functools.cache
def _digit_groups(tower, ell: int, family: str):
    """The digits of `position_digits`, least significant first, cut into
    consecutive groups of radix product at most GROUP_SIZE: the fewest
    groups, and of those cuts the one whose tables hold the fewest bytes.
    Each group is (size, radices, cells, table): its radix product, its
    digits' radices, the entries its digits fill, and table[c][u] = entry
    cells[c] of the matrix whose group digits read u in mixed radix."""
    digits = [(ij, in_subfield, tower.q if in_subfield else tower.qq)
              for ij, in_subfield in position_digits(ell, family)]
    best = [(0, 0, 0)]  # best[end]: (groups, bytes, start of the last group) for digits[:end]
    for end in range(1, len(digits) + 1):
        cuts = []
        for start in range(end - 1, -1, -1):
            size = prod(radix for *_, radix in digits[start:end])
            if size > GROUP_SIZE:
                break
            rows = sum(1 if in_subfield else 2 for _, in_subfield, _ in digits[start:end])
            cuts.append((best[start][0] + 1, best[start][1] + size * rows, start))
        best.append(min(cuts))
    bounds, end = [], len(digits)
    while end:
        bounds.insert(0, (best[end][2], end))
        end = best[end][2]
    groups = []
    for start, end in bounds:
        radices = tuple(radix for *_, radix in digits[start:end])
        u, cells, table = np.arange(prod(radices)), [], []
        for (i, j), in_subfield, radix in digits[start:end]:
            d, u = u % radix, u // radix
            if in_subfield:
                cells.append((i, j))
                table.append(tower.subfield_np[d])
            else:
                cells += [(i, j), (j, i)]
                table += [d, tower.conj_np[d]]
        table = np.array(table, dtype=np.uint8)
        table.setflags(write=False)
        groups.append((prod(radices), radices, tuple(cells), table))
    return tuple(groups)


@functools.cache
def _digit_entries(ell: int, family: str):
    """(i, j, fq): digit k of `position_digits` reads entry (i[k], j[k]),
    and its first fq digits, all those over F_q, come before the rest."""
    digits = position_digits(ell, family)
    i, j = np.array([ij for ij, _ in digits]).T
    for index in (i, j):
        index.setflags(write=False)
    return i, j, sum(in_subfield for _, in_subfield in digits)


@functools.cache
def _entry_digits(tower):
    """(sub, pair), the digit tables of `encode`.  An F_q digit whose entry
    is e reads sub[e], its place in the sorted subfield list.  An F_{q^2}
    digit whose upper entry is a and lower entry b reads pair[a * (q^2 + 1)
    + min(b, q^2)], which is a when b is the conjugate of a.  Every other
    uint8 entry or pair of them reads NOT_A_DIGIT."""
    sub = np.full(256, NOT_A_DIGIT, dtype=np.uint8)
    sub[tower.subfield_np] = np.arange(tower.q)
    pair = np.full((tower.qq + 1, tower.qq + 1), NOT_A_DIGIT, dtype=np.uint8)
    pair[np.arange(tower.qq), tower.conj_np] = np.arange(tower.qq)
    for table in (sub, pair):
        table.setflags(write=False)
    return sub, pair.ravel()


# group actions ---------------------------------------------------------------


def product(tower, L, X, R):
    """L X R for one matrix X or an array of them, as two stacked combines:
    column j of X R is the combination of the columns of X by column j of
    R, and row i of L (X R) that of the rows of X R by row i of L.  The
    congruence H -> A* H A is product(A*, H, A)."""
    XR = linalg.combine(tower, np.swapaxes(X, 0, 1), np.asarray(R, dtype=np.uint8).T)
    return linalg.combine(tower, XR.swapaxes(0, 1), np.asarray(L, dtype=np.uint8))


def translate(tower, M, X):
    """X + M for one matrix X or an array of them, as one gather of the
    unchecked addition kernel `tower.adds`, keyed by M's entries against
    X's.  An entry of M outside [0, q^2) raises ValueError; X, the
    matrices being moved, is not checked, and an entry of it outside [0,
    q^2) reads a wrong sum or raises IndexError."""
    M = indices(M, tower.qq, f"translation by a matrix with an entry outside F_{tower.qq}")
    return tower.adds(M.reshape(M.shape + (1,) * (np.ndim(X) - 2)), X)


def outer(tower, u, v):
    """u* v: entry (i, j) = conj(u_i) * v_j.  An entry of u or v outside
    [0, q^2) raises ValueError."""
    u, v = (indices(w, tower.qq, f"outer takes vectors over F_{tower.qq}") for w in (u, v))
    return tower.muls(tower.conj_np[u][:, None], v)


# cardinality -----------------------------------------------------------------


def count_invertible(ell: int, q: int) -> int:
    """Number of invertible ell x ell Hermitian matrices over F_{q^2}:
    q^binom(ell,2) * prod_{i=1..ell} (q^i + (-1)^i)."""
    return q ** comb(ell, 2) * prod(q**i + (-1) ** i for i in range(1, ell + 1))
