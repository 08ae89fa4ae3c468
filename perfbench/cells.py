"""Cell names and the reference values the benchmark checks answers against.

A cell is named <family><ell>q<q>: H2q8 is the Hermitian code at ell=2,
q=8 and A3q2 the affine Grassmann code at ell=3, q=2.  Hermitian cells are
certified with --method subfield and affine cells with --method exhaustive;
a trailing x (H2q3x) selects --method exhaustive for a Hermitian cell.

The reference values come from the closed forms of the paper, computed
here, so the gate does not rest on the program's own formula or flags.
This module imports nothing from hermgrass.
"""

from __future__ import annotations

import re
from math import comb, prod

_CELL = re.compile(r"([HA])([1-4])q([2-9])(x?)")
_FAMILY = {"H": "hermitian", "A": "affine"}


def parse(cell: str):
    """(family, ell, q, method) of a cell name."""
    m = _CELL.fullmatch(cell)
    if m is None:
        raise ValueError(f"bad cell name {cell!r}")
    letter, ell, q, exhaustive = m.groups()
    method = "exhaustive" if exhaustive or letter == "A" else "subfield"
    return _FAMILY[letter], int(ell), int(q), method


def length(cell: str) -> int:
    _, ell, q, _ = parse(cell)
    return q ** (ell * ell)


def dimension(cell: str) -> int:
    _, ell, _, _ = parse(cell)
    return comb(2 * ell, ell)


def min_distance(cell: str) -> int:
    """q^(ell^2) - q^(ell^2-1) - q^(ell^2-3) (Hermitian, ell >= 2) or
    prod_{i<ell} (q^ell - q^i) (affine)."""
    family, ell, q, _ = parse(cell)
    if family == "affine":
        return prod(q**ell - q**i for i in range(ell))
    if ell < 2:
        raise ValueError("the Hermitian closed form needs ell >= 2")
    n = q ** (ell * ell)
    return n - n // q - n // q**3


def dual_distance(cell: str) -> int:
    """4 at q = 2, 3 otherwise (Hermitian family)."""
    _, _, q, _ = parse(cell)
    return 4 if q == 2 else 3


def message_space(cell: str) -> int:
    """Nonzero messages a full walk visits: r^k - 1, with r = q^2 for a
    Hermitian cell searched exhaustively and r = q otherwise."""
    family, _, q, method = parse(cell)
    r = q * q if family == "hermitian" and method == "exhaustive" else q
    return r ** dimension(cell) - 1


def dual_pairs(cell: str) -> int:
    """n(n-1)/2 column pairs times the q^2 - 1 nonzero scalars of F_{q^2}."""
    _, _, q, _ = parse(cell)
    n = length(cell)
    return n * (n - 1) // 2 * (q * q - 1)
