"""The minor basis of the generic ell x ell matrix and its linear span.

A minor is a pair (I, J) of equal-size sorted tuples of 1-based row and
column labels; the empty pair denotes the constant function 1.  The
canonical basis order is ascending by size, then lexicographic by I, then
by J; it is normative because generator rows follow it.

A combination is a sparse dict mapping minors to nonzero coefficient
indices.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb

from .errors import require

Minor = tuple  # ((i1, i2, ...), (j1, j2, ...)), 1-based, sorted

MAX_ELL = 4


def basis(ell: int) -> list:
    """All binom(2*ell, ell) minors in canonical order, empty minor first (a fresh list)."""
    return list(_basis(ell))


@cache
def _basis(ell: int) -> tuple:
    if not 1 <= ell <= MAX_ELL:
        raise ValueError(f"unsupported ell = {ell}; need 1 <= ell <= {MAX_ELL}")
    labels = range(1, ell + 1)
    out = tuple((I, J) for size in range(ell + 1) for I in combinations(labels, size)
                for J in combinations(labels, size))
    require(len(out) == comb(2 * ell, ell))
    return out


def format_minor(minor: Minor) -> str:
    I, J = minor
    return "I:{%s} J:{%s}" % (",".join(map(str, I)), ",".join(map(str, J)))


def format_combination(f: dict) -> str:
    if not f:
        return "0"
    parts = []
    for minor in sorted(f, key=lambda m: (len(m[0]), m[0], m[1])):
        parts.append(f"{f[minor]}*[{format_minor(minor)}]")
    return " + ".join(parts)


def is_self_conjugate(tower, f: dict) -> bool:
    """True iff f_{I,J}^q = f_{J,I} for every pair; such f is F_q-valued on
    Hermitian matrices."""
    keys = set(f) | {(J, I) for (I, J) in f}
    return all(
        f.get((J, I), 0) == tower.conjugate(f.get((I, J), 0)) for (I, J) in keys
    )


def support(f: dict) -> set:
    return {m for m, c in f.items() if c}


def maximal_minors(f: dict) -> set:
    """Support minors (I, J) not dominated by another support minor (I', J')
    with I subset of I' and J subset of J'."""
    supp = support(f)
    out = set()
    for (I, J) in supp:
        si, sj = set(I), set(J)
        dominated = any(
            (Ip, Jp) != (I, J) and si <= set(Ip) and sj <= set(Jp) for (Ip, Jp) in supp
        )
        if not dominated:
            out.add((I, J))
    return out


def spread(minor: Minor) -> int:
    I, J = minor
    return len(set(I) | set(J))


def random_combination(tower, ell: int, rng, self_conjugate: bool = False) -> dict:
    """A uniformly random nonzero combination (optionally self-conjugate)."""
    while True:
        f = {}
        if self_conjugate:
            for m in basis(ell):
                I, J = m
                if I == J:
                    c = tower.subfield[rng.randrange(tower.q)]
                    if c:
                        f[m] = c
                elif (I, J) < (J, I):
                    c = rng.randrange(tower.qq)
                    if c:
                        f[(I, J)] = c
                        f[(J, I)] = tower.conjugate(c)
        else:
            for m in basis(ell):
                c = rng.randrange(tower.qq)
                if c:
                    f[m] = c
        if f:
            return f
