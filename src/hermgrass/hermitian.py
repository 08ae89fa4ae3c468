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

`position_digits` stays the definition; the codec reads tables built
from it, on first use.  `decode` cuts the digits into the fewest
consecutive groups of radix product at most GROUP_SIZE and takes one
division per group and one gather per word of its table, a word packing
up to 8 of the group's entries a byte each (`_digit_groups`).
`encode` reads an F_q digit by one gather from the tower's subfield table
and takes an F_{q^2} digit as its upper entry, whose lower entry one
gather from the conjugate table checks (`_entry_digits`).  One reduction
over all the digits and one over the conjugate compares check the
matrices; only when they fail is the first bad entry looked for, to be
named.

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
    division and one gather per word of its table, whose bytes are the
    group's entries, and one copy of the words' bytes into their entries."""
    total = tower.q ** (ell * ell)
    t = indices(t, total, f"position out of range [0, {total})").astype(np.int64, copy=False)
    shape, t = t.shape, t.ravel()
    groups = _digit_groups(tower, ell, family)
    E = np.empty((ell * ell, t.size), dtype=np.uint8)
    for g, (size, _, words) in enumerate(groups):
        if g + 1 < len(groups):
            high = t // size
            d, t = t - high * size, high
        else:
            d = t  # below the last group's size, t being below total
        for rows, table in words:
            W = table.take(d, mode="clip")[:, None].view(np.uint8)  # d < size: clip spares take a buffer
            E[rows] = W.T[:len(rows)]
    return E.reshape((ell, ell) + shape)


def encode(tower, ell: int, family: str, entries):
    """Positions of the matrices `entries`, any array-like of shape (ell,
    ell) + shape; the inverse of `decode`.  Raises ValueError for a matrix
    outside the family: an entry outside F_q where its digit runs over F_q,
    or outside F_{q^2}, or a lower entry that is not the conjugate of its
    upper one.

    An F_q digit is one gather from the tower's subfield table, which reads
    NOT_A_DIGIT for an entry outside F_q; an F_{q^2} digit is its upper
    entry, and its lower entry is compared with one gather from the
    conjugate table (`_entry_digits`).  So one reduction over the digits,
    which also finds an upper entry at or past q^2, and one over the
    compares check the matrices; only then is the first bad entry looked
    for.  The digits of a group are summed in uint16, and the groups in
    int64."""
    E = np.asarray(entries)
    if E.shape[:2] != (ell, ell):
        raise ValueError(f"expected {ell} x {ell} entries, got shape {E.shape[:2]}")
    outside = f"entry outside F_{tower.qq}"
    if E.dtype != np.uint8:
        E = indices(E, tower.qq, outside).astype(np.uint8)
    sub, conj = _entry_digits(tower)
    i, j, fq = _digit_entries(ell, family)
    D = E[i, j]  # each digit's entry: an F_q one, then the upper one of a pair
    # in place: take reads uint8 indices through a new intp copy, and a
    # uint8 entry is below len(sub)
    sub.take(D[:fq], out=D[:fq], mode="clip")
    wrong = conj.take(D[fq:], mode="clip") != E[j[fq:], i[fq:]]
    if D.size and (D.max() >= tower.qq or wrong.any()):
        indices(E, tower.qq, outside)
        bad = np.concatenate([D[:fq] == NOT_A_DIGIT, wrong])
        k = bad.reshape(len(D), -1).any(axis=1).argmax()
        if k < fq:
            raise ValueError(f"entry ({i[k]}, {j[k]}) outside F_{tower.q}")
        raise ValueError(f"entry ({j[k]}, {i[k]}) is not the conjugate of entry ({i[k]}, {j[k]})")
    t, top = None, len(D)
    for size, radices, _ in reversed(_digit_groups(tower, ell, family)):
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
    Each group is (size, radices, words): its radix product, its digits'
    radices, and its words.  The entries its digits fill are packed in
    order, 8 to a word of 1, 2, 4 or 8 bytes (`_word_bytes`), and a word is
    (rows, table): byte c of table[u] is entry rows[c] of E.reshape(ell *
    ell, -1), entry (i, j) being row ell * i + j, of the matrix whose group
    digits read u in mixed radix; its bytes past len(rows) are 0."""
    digits = [(ij, in_subfield, tower.q if in_subfield else tower.qq)
              for ij, in_subfield in position_digits(ell, family)]
    best = [(0, 0, 0)]  # best[end]: (groups, bytes, start of the last group) for digits[:end]
    for end in range(1, len(digits) + 1):
        cuts = []
        for start in range(end - 1, -1, -1):
            size = prod(radix for *_, radix in digits[start:end])
            if size > GROUP_SIZE:
                break
            entries = sum(1 if in_subfield else 2 for _, in_subfield, _ in digits[start:end])
            cuts.append((best[start][0] + 1, best[start][1] + size * sum(_word_bytes(entries)), start))
        best.append(min(cuts))
    bounds, end = [], len(digits)
    while end:
        bounds.insert(0, (best[end][2], end))
        end = best[end][2]
    return tuple(_digit_group(tower, ell, digits[start:end]) for start, end in bounds)


def _digit_group(tower, ell: int, digits):
    """The group of `_digit_groups` whose digits, each (entry, in_subfield,
    radix), are `digits`."""
    radices = tuple(radix for *_, radix in digits)
    u, cells, entries = np.arange(prod(radices)), [], []
    for (i, j), in_subfield, radix in digits:
        d, u = u % radix, u // radix
        if in_subfield:
            cells.append(ell * i + j)
            entries.append(tower.subfield_np[d])
        else:
            cells += [ell * i + j, ell * j + i]
            entries += [d, tower.conj_np[d]]
    words = []
    for first, width in zip(range(0, len(cells), 8), _word_bytes(len(cells))):
        rows = np.array(cells[first:first + 8])
        table = np.zeros((len(u), width), dtype=np.uint8)
        table[:, :len(rows)] = np.transpose(entries[first:first + 8])
        table = table.view(f"u{width}")[:, 0]
        for array in (rows, table):
            array.setflags(write=False)
        words.append((rows, table))
    return prod(radices), radices, tuple(words)


def _word_bytes(entries: int):
    """The widths of the words that hold a group's entries, 8 to a word:
    1, 2, 4 or 8 bytes each."""
    return [1 << (min(8, entries - first) - 1).bit_length() for first in range(0, entries, 8)]


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
    """(sub, conj), the 256-entry tables of `encode`, one per uint8 entry.
    An F_q digit whose entry is e reads sub[e], its place in the sorted
    subfield list, or NOT_A_DIGIT for e outside F_q.  An F_{q^2} digit is
    its upper entry a, and its lower entry must be conj[a], the conjugate
    of a; conj reads NOT_A_DIGIT past q^2, where a is refused anyway."""
    sub = np.full(256, NOT_A_DIGIT, dtype=np.uint8)
    sub[tower.subfield_np] = np.arange(tower.q)
    conj = np.full(256, NOT_A_DIGIT, dtype=np.uint8)
    conj[:tower.qq] = tower.conj_np
    for table in (sub, conj):
        table.setflags(write=False)
    return sub, conj


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
    X's.  M is one matrix, or an array of them whose shape leads X's, one
    translation per leading index.  An entry of M outside [0, q^2) raises
    ValueError; X, the matrices being moved, is not checked, and an entry
    of it outside [0, q^2) reads a wrong sum or raises IndexError."""
    M = indices(M, tower.qq, f"translation by a matrix with an entry outside F_{tower.qq}")
    return tower.adds(M.reshape(M.shape + (1,) * (np.ndim(X) - M.ndim)), X)


def outer(tower, u, v):
    """u* v: entry (i, j) = conj(u_i) * v_j, for two vectors or two arrays
    of them, entry i of vector s at u[i][s] as for matrices, so the result
    has shape (ell, ell) + their shape.  An entry of u or v outside [0,
    q^2) raises ValueError."""
    u, v = (indices(w, tower.qq, f"outer takes vectors over F_{tower.qq}") for w in (u, v))
    return tower.muls(tower.conj_np[u][:, None], v[None])


# cardinality -----------------------------------------------------------------


def count_invertible(ell: int, q: int) -> int:
    """Number of invertible ell x ell Hermitian matrices over F_{q^2}:
    q^binom(ell,2) * prod_{i=1..ell} (q^i + (-1)^i)."""
    return q ** comb(ell, 2) * prod(q**i + (-1) ** i for i in range(1, ell + 1))
