"""Dual distances: the pair scan over a generator's columns, and the dual
words it finds or that are constructed.

Dual distance works on the generator's columns as arrays of packed keys
(`_packer`), exact at any width: t = 1 and t = 2 are read off the keys of
the columns' projective normal forms.  One table holds every multiple
a col_m over the alphabet's nonzero scalars, packed once; its keys,
sorted, are the t = 3 members, and its words are the scan's addends.  The
pair sums col_i + a col_j are then scanned in blocks of rows
(`_pair_blocks`), each one rectangle of sums whose pairs j <= i are
blanked, which leaves the rest in scan order.  A sum rules in t = 3 when
its raw key, the lane sum of two table words, is a member, so t = 3 is
tested without normalizing.  Sums are brought to normal forms only until
the first repeated form, the t = 4 word.  Every dual word, searched or
constructed, is sorted and checked by one helper (`_dual_word`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .codebuild import FAMILY_HERMITIAN, CodeSpec, GeneratorMatrix
from .errors import NoneFoundWithinBound, indices, require
from .hermitian import decode, encode, outer, translate
from .linalg import TABLE_BYTES
from .walk import _digit_lanes, require_budget

DEFAULT_SEED = 987654321


@dataclass
class DualDistanceCertificate:
    spec: CodeSpec
    d_dual: int
    columns: tuple
    coefficients: tuple
    exhausted_below: int  # every size < this was exhaustively ruled out

    def as_dict(self) -> dict:
        return {**self.spec.fields, "d_dual": self.d_dual, "columns": list(self.columns),
                "coefficients": list(self.coefficients),
                "exhausted_below": self.exhausted_below, "generator": self.spec.header}


# dual distance ----------------------------------------------------------------


def _verify_dual_word(gen: GeneratorMatrix, positions, coeffs) -> bool:
    """Whether the word with coeffs at positions is orthogonal to every row;
    a position outside [0, n) or a coefficient outside F_{q^2} raises
    ValueError before any lookup."""
    n, qq = gen.spec.n, gen.tower.qq
    indices(positions, n, lambda: f"dual word positions {tuple(positions)} lie outside [0, {n})")
    indices(coeffs, qq, lambda: f"dual word coefficients {tuple(coeffs)} lie outside F_{qq}")
    return not linalg.combine(gen.tower, gen.rows[:, list(positions)].T, coeffs).any()


def _dual_word(gen: GeneratorMatrix, positions, coeffs):
    """(positions, coeffs) sorted by position, after requiring the positions
    to be distinct and the word to be orthogonal to every generator row
    (`_verify_dual_word`, which refuses positions outside the code and
    coefficients outside the field)."""
    require(len(set(positions)) == len(positions), "support positions are not distinct")
    require(_verify_dual_word(gen, positions, coeffs),
            f"weight-{len(positions)} word is not orthogonal to the code")
    positions, coeffs = zip(*sorted(zip(map(int, positions), coeffs)))
    return positions, coeffs


def _packer(tower, k):
    """(pack, key) for vectors of k field indices along the last axis.

    pack stores each index as its 2e base-p digits in the lanes of
    `_digit_lanes`, b = 2e w bits to an element (at p = 2 the index itself),
    64 // b elements to a uint64 word.  Lanes hold reduced digits, so vectors
    are equal exactly when their words are, and a sum's words are the lane
    sum of the words.  key views a vector's words as one value, a uint64 or
    a raw byte string, so keys sort, search and compare at any width.
    """
    w = _digit_lanes(tower.p)[0]
    b = 2 * tower.e * w
    per = 64 // b
    words = -(-k // per)
    dtype = np.dtype(np.uint64) if words == 1 else np.dtype((np.void, 8 * words))
    lanes = linalg._lanes(tower, w)[0][1].astype(np.uint64)  # the lane word of 1 * a

    def pack(vecs):
        out = np.zeros(vecs.shape[:-1] + (words,), dtype=np.uint64)
        for c in range(k):
            # at p = 2 the lanes of an index are its bits: it is its own lane word
            v = vecs[..., c].astype(np.uint64) if w == 1 else lanes[vecs[..., c]]
            out[..., c // per] |= v << np.uint64(c % per * b)
        return out

    return pack, lambda w: np.ascontiguousarray(w).view(dtype).reshape(w.shape[:-1])


def _normal_forms(tower, vecs):
    """(forms, leads): each nonzero vector along the last axis scaled by the
    inverse of its first nonzero entry, and that entry."""
    leads = np.take_along_axis(vecs, (vecs != 0).argmax(axis=-1)[..., None], axis=-1)
    return tower.muls(tower.inv_np[leads], vecs), leads[..., 0]


def _first_repeat(keys, at, seen, seen_at):
    """The first of `keys` that occurred before, scanning them, at the
    increasing positions `at`, after the sorted keys `seen`, each at its
    first position `seen_at`.

    Returns ((position, first position), seen, seen_at) for that key, or,
    when no key repeats, (None, seen, seen_at) with the keys merged in.
    """
    uniq, first = np.unique(keys, return_index=True)
    where = np.searchsorted(seen, keys)
    earlier = np.zeros(len(keys), dtype=bool)
    if len(seen):
        earlier = seen[where.clip(max=len(seen) - 1)] == keys
    repeat = np.ones(len(keys), dtype=bool)
    repeat[first] = earlier[first]
    if repeat.any():
        s = int(repeat.argmax())
        partner = seen_at[where[s]] if earlier[s] else at[first[np.searchsorted(uniq, keys[s])]]
        return (int(at[s]), int(partner)), seen, seen_at
    where = np.searchsorted(seen, uniq)
    return None, np.insert(seen, where, uniq), np.insert(seen_at, where, at[first])


def _first_member(keys, members):
    """(s, i) for the first of `keys` that is in the sorted array
    `members`, members[i] being that key, or None.  Whether any key is a
    member is asked of the sorted keys, and the unsorted ones are searched
    only when one is."""
    found = np.sort(keys)
    if not (found[np.searchsorted(found, members).clip(max=len(found) - 1)] == members).any():
        return None
    where = np.searchsorted(members, keys).clip(max=len(members) - 1)
    s = int((members[where] == keys).argmax())
    return s, int(where[s])


def _pair_blocks(n, r):
    """(i0, i1) for each block of rows i0 <= i < i1 of the pair scan over n
    columns and r scalars: the first block is one row and each next one
    twice as many, up to TABLE_BYTES // (n r) rows, or one row when that
    is none.  The scan takes a block as one rectangle, its rows by the
    columns i0 < j < n, so it holds at most TABLE_BYTES sums, or one
    row's, those with j <= i blanked."""
    most = max(1, TABLE_BYTES // (n * r))
    i0, rows = 0, 1
    while i0 < n - 1:
        i1 = min(n - 1, i0 + rows)
        yield i0, i1
        i0, rows = i1, min(2 * rows, most)


def dual_min_distance(gen: GeneratorMatrix, max_t: int = 4) -> DualDistanceCertificate:
    """Smallest t <= max_t such that t generator columns are linearly
    dependent, with the dependency coefficients (a weight-t dual codeword).

    Sizes are searched in increasing order; every size below the returned
    one is exhaustively ruled out.  Scalars a range over the code's
    alphabet.  Vectors are compared by their packed keys (`_packer`): t = 1
    is a zero column and t = 2 the first column whose projective normal
    form an earlier column has.  The pair sums col_i + a col_j are scanned
    in (i, j, a) order, in blocks of rows i (`_pair_blocks`), a block as
    one rectangle, rows i0 <= i < i1 by columns i0 < j < n, whose pairs
    j <= i take the zero vector's key, neither a sum nor a member once
    t <= 2 is ruled out; the rest are in scan order.  t = 3 is the first
    sum whose raw key is the key of a multiple lam col_m, lam in the
    alphabet (its coefficient is -lam): an F_q-valued sum is only ever an
    F_q multiple of an F_q column.  t = 4 is the first sum i < j whose
    normal form an earlier sum has, with the first such earlier sum.  Sums
    are brought to normal forms only until that repeat; after it a block
    is only tested for t = 3.
    """
    if not 1 <= max_t <= 4:
        raise ValueError("max_t must be in 1..4")
    tower = gen.tower
    spec = gen.spec
    require_budget(spec, "dual", max_t)
    n = spec.n
    nonzero = np.array(gen.scalars[1:])
    mul, neg, inv = tower.mul, tower.neg, tower.inv
    cols = gen.rows.T
    pack, key = _packer(tower, spec.k)
    add = _digit_lanes(tower.p)[1]

    def finish(t, positions, coeffs):
        scale = inv(coeffs[positions.index(min(positions))])
        positions, coeffs = _dual_word(gen, positions, [mul(scale, c) for c in coeffs])
        return DualDistanceCertificate(spec, t, positions, coeffs, t)

    # t = 1: a zero column
    zero = np.flatnonzero(~cols.any(axis=1))
    if zero.size:
        return finish(1, (int(zero[0]),), (1,))
    if max_t == 1:
        raise NoneFoundWithinBound(1)

    # t = 2: two proportional columns
    forms, leads = _normal_forms(tower, cols)
    keys = key(pack(forms))
    repeat, _, _ = _first_repeat(keys, np.arange(n), keys[:0], np.arange(0))
    if repeat:
        i, j = repeat
        return finish(2, (j, i), (inv(int(leads[j])), neg(inv(int(leads[i])))))
    if max_t == 2:
        raise NoneFoundWithinBound(2)

    # t = 3 and t = 4: col_i + a col_j, never zero since t = 2 is ruled out.
    # A sum is named by its rank (i n + j) r + s in the scan, a = nonzero[s].
    r = len(nonzero)
    scaled = tower.muls(nonzero[:, None], cols[:, None])  # scaled[m, s] = nonzero[s] col_m
    words = pack(scaled)
    members = key(words).reshape(-1)
    order = np.argsort(members)
    members = members[order]
    # the zero vector's key: neither a multiple of a column nor a pair sum
    blank = key(np.zeros(words.shape[-1:], np.uint64))
    t4, seen, seen_at = None, keys[:0], np.arange(0)

    def pair_sum(rank):
        (i, j), s = divmod(rank // r, n), rank % r
        return int(i), int(j), int(nonzero[s]), tower.adds(cols[i], scaled[j, s])

    for i0, i1 in _pair_blocks(n, r):
        # rows [i0, i1) by columns (i0, n), nonzero[0] = 1: with the pairs
        # j <= i blanked, the rest are in scan order
        block = key(add(words[i0:i1, None, :1], words[None, i0 + 1:]))
        for row in range(1, i1 - i0):
            block[row, :row] = blank
        hit = _first_member(block.reshape(-1), members)
        if hit is not None:
            i, j, s = map(int, np.unravel_index(hit[0], block.shape))
            m, lam = divmod(int(order[hit[1]]), r)
            return finish(3, (i0 + i, i0 + 1 + j, m), (1, int(nonzero[s]), neg(int(nonzero[lam]))))
        if max_t == 4 and t4 is None:
            I, J = np.arange(i0, i1)[:, None], np.arange(i0 + 1, n)
            upper = I < J
            sums = tower.adds(cols[i0:i1, None, None], scaled[i0 + 1:])[upper]
            forms = _normal_forms(tower, sums)[0]
            at = ((I * n + J)[upper][:, None] * r + np.arange(r)).reshape(-1)
            t4, seen, seen_at = _first_repeat(key(pack(forms)).reshape(-1), at, seen, seen_at)
    if t4 is None:
        raise NoneFoundWithinBound(max_t)
    (i, j, a, s), (i2, j2, a2, s2) = map(pair_sum, t4)
    inv1, inv2 = (inv(int(_normal_forms(tower, v)[1])) for v in (s, s2))
    return finish(4, (i2, j2, i, j), (inv2, mul(inv2, a2), neg(inv1), neg(mul(inv1, a))))


# dual minimum-weight support families ----------------------------------------


def _translates_word(gen: GeneratorMatrix, H, translations, coeffs):
    """The dual word with coeffs on the positions of H + M, M running over
    `translations` (H the zero matrix when None)."""
    tower, ell = gen.tower, gen.spec.ell
    H = np.zeros((ell, ell), np.uint8) if H is None else H
    supports = translate(tower, H, np.stack(translations, axis=-1))
    return _dual_word(gen, encode(tower, ell, FAMILY_HERMITIAN, supports), coeffs)


def dual_word_weight3(gen: GeneratorMatrix, alpha: int, c0: int = 1,
                      H=None, b=None):
    """Weight-3 dual codeword for q > 2 on the support {H, H + b*b,
    H + alpha b*b} with coefficients (c0, -alpha/(alpha-1) c0, 1/(alpha-1) c0).

    Returns (positions, coefficients), orthogonality-verified against every
    generator row.
    """
    tower = gen.tower
    ell = gen.spec.ell
    q = gen.spec.q
    if q <= 2:
        raise ValueError("weight-3 dual words require q > 2")
    if not (tower.in_base_subfield(alpha) and alpha not in (0, 1)):
        raise ValueError(f"alpha must lie in F_{q} minus {{0, 1}} inside F_{tower.qq}, got {alpha}")
    refusal = f"c0 must be a nonzero element of F_{tower.qq}, got {c0}"
    if not indices(c0, tower.qq, refusal):
        raise ValueError(refusal)
    refusal = f"b must be a nonzero vector over F_{tower.qq}"
    b = np.eye(ell, dtype=np.uint8)[0] if b is None else indices(b, tower.qq, refusal)
    if not b.any():
        raise ValueError(refusal)
    M = outer(tower, b, b)
    den = tower.inv(tower.sub(alpha, 1))
    coeffs = [c0, tower.mul(tower.neg(tower.mul(alpha, den)), c0), tower.mul(den, c0)]
    return _translates_word(gen, H, [np.zeros_like(M), M, tower.muls(alpha, M)], coeffs)


def dual_word_weight4(gen: GeneratorMatrix, H=None, a1=None, a2=None):
    """Weight-4 dual codeword for q = 2 on the support {H, H + a1*a1,
    H + a2*a1 + a1*a2, H + a1*a1 + a2*a1 + a1*a2}, all coefficients 1.

    a1, a2 must be linearly independent over F_{q^2}.
    """
    tower = gen.tower
    ell = gen.spec.ell
    if gen.spec.q != 2:
        raise ValueError("the four-matrix family is the q = 2 case")
    refusal = f"a1, a2 must be vectors over F_{tower.qq}"
    a1 = np.eye(ell, dtype=np.uint8)[0] if a1 is None else indices(a1, tower.qq, refusal)
    a2 = np.eye(ell, dtype=np.uint8)[1] if a2 is None else indices(a2, tower.qq, refusal)
    if not _independent(tower, a1, a2):
        raise ValueError("a1, a2 must be linearly independent")
    M1 = outer(tower, a1, a1)
    M2 = tower.adds(outer(tower, a2, a1), outer(tower, a1, a2))
    return _translates_word(gen, H, [np.zeros_like(M1), M1, M2, tower.adds(M1, M2)], (1, 1, 1, 1))


def _independent(tower, u, v):
    """Whether the vectors u and v are linearly independent: some 2 x 2
    minor u_i v_j - u_j v_i is nonzero, i.e. u (x) v is not symmetric."""
    uv = tower.muls(np.asarray(u)[:, None], v)
    return bool((uv != uv.T).any())


def dual_support_families(gen: GeneratorMatrix, seed: int = DEFAULT_SEED) -> list:
    """50 randomized verified minimum-weight dual codewords: the
    three-matrix family for q > 2, the four-matrix family for q = 2."""
    tower = gen.tower
    ell = gen.spec.ell
    q = gen.spec.q
    rng = random.Random(seed)
    out = []
    for _ in range(50):
        H = decode(tower, ell, FAMILY_HERMITIAN, rng.randrange(q ** (ell * ell)))
        if q == 2:
            while True:
                a1 = tuple(rng.randrange(tower.qq) for _ in range(ell))
                a2 = tuple(rng.randrange(tower.qq) for _ in range(ell))
                if _independent(tower, a1, a2):
                    break
            out.append(dual_word_weight4(gen, H, a1, a2))
        else:
            alpha = rng.choice([s for s in tower.subfield if s not in (0, 1)])
            c0 = rng.randrange(1, tower.qq)
            while True:
                b = tuple(rng.randrange(tower.qq) for _ in range(ell))
                if any(b):
                    break
            out.append(dual_word_weight3(gen, alpha, c0, H, b))
    return out
