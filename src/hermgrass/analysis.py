"""Weights and certified minimum distances: the closed forms, the weigh
of one function, and the distance certificates.

Minimum-distance strategy ladder: the closed form with its witness
(`distance_formula`, optionally confirmed by weighing the witness one
decoded chunk of positions at a time, `weight_of_function`); the
family's certifying enumeration (`min_distance`): every F_q-combination of
the F_q row basis for the Hermitian family (sound because minimum-weight
words of a q-invariant code are scalar multiples of subfield words), every
message over the alphabet `GeneratorMatrix.scalars` for the affine family;
and the full F_{q^2} enumeration as a Hermitian cross-check.  Certificates
record which method produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from . import minors as mn
from .codebuild import FAMILY_HERMITIAN, CodeSpec, GeneratorMatrix, eval_minor_vector
from .dual import dual_min_distance  # cli and verify call it here, where perfbench traces it
from .errors import BudgetExceeded, indices, require
from .galois import tower_for_q
from .hermitian import BUILD_LIMIT, decoded_chunks
from .walk import min_weight_over_combinations, require_budget

# weight -----------------------------------------------------------------------


def weight(codeword) -> int:
    return int(np.count_nonzero(np.asarray(codeword)))


# closed forms -----------------------------------------------------------------


def distance_formula(family: str, ell: int, q: int):
    """(d, witness) of the family's closed form, the witness attaining d.
    Hermitian: q^(ell^2) - q^(ell^2 - 1) - q^(ell^2 - 3), attained by the
    2x2 principal minor plus one ((None, None) at ell < 2, where it has
    none).  Affine: prod_{i=0..ell-1} (q^ell - q^i) = #GL_ell(F_q), attained
    by the full determinant."""
    if family == FAMILY_HERMITIAN:
        if ell < 2:
            return None, None
        m = ell * ell
        return q**m - q ** (m - 1) - q ** (m - 3), {((1, 2), (1, 2)): 1, ((), ()): 1}
    d = 1
    for i in range(ell):
        d *= q**ell - q**i
    full = tuple(range(1, ell + 1))
    return d, {(full, full): 1}


def dual_distance_formula(q: int) -> int:
    """Dual minimum distance of the Hermitian code at ell >= 2: 4 at q = 2
    (`dual_word_weight4`), 3 otherwise (`dual_word_weight3`)."""
    return 4 if q == 2 else 3


# streaming weight of a function ----------------------------------------------


def weight_of_function(f: dict, ell: int, q: int, family: str = FAMILY_HERMITIAN) -> int:
    """weight(ev(f)) without building a generator: f is evaluated and
    weighed on one decoded chunk of positions at a time, so memory stays at
    one chunk's; over at most BUILD_LIMIT positions.  A minor outside
    `minors.basis(ell)`, or a coefficient outside F_{q^2}, raises
    ValueError before any chunk is decoded."""
    basis = mn.basis(ell)
    for minor, c in f.items():
        if minor not in basis:
            raise ValueError(f"minor {minor} not valid for ell={ell}")
        indices(c, q * q, f"coefficient {c} of {minor} lies outside F_{q * q}")
    n = q ** (ell * ell)
    if n > BUILD_LIMIT:
        raise BudgetExceeded(f"q^(ell^2) = {n} exceeds build limit {BUILD_LIMIT}")
    tower = tower_for_q(q)
    return sum(weight(linalg.combine(tower, [eval_minor_vector(tower, E, m) for m in f],
                                     list(f.values())))
               for _, E in decoded_chunks(tower, ell, family))


# distance certificates --------------------------------------------------------


@dataclass
class DistanceCertificate:
    spec: CodeSpec
    d: int
    method: str  # Formula | WitnessOnly | ExhaustiveFull | ExhaustiveSubfield
    witness: dict | None
    messages_searched: int

    def as_dict(self) -> dict:
        out = {**self.spec.fields, "d": self.d, "method": self.method,
               "messages_searched": self.messages_searched}
        if self.witness is not None:
            out["witness"] = mn.format_combination(self.witness)
        if self.messages_searched:  # an enumeration names the generator it walked
            out["generator"] = self.spec.header
        return out


def _walk_certificate(gen: GeneratorMatrix, method, rows, combos, scalars,
                      threads) -> DistanceCertificate:
    """Certify the least-weight combination of `rows`; combos[i] is the
    function whose evaluation is rows[i], so the witness is the same
    combination of combos, and its evaluation must attain the weight."""
    tower = gen.tower
    w, digits, searched = min_weight_over_combinations(tower, rows, scalars, threads=threads)
    message = linalg.combine(tower, [gen.message(f) for f in combos], [scalars[d] for d in digits])
    witness = gen.combination(message)
    require(weight(gen.encode(witness)) == w, f"witness does not attain the searched weight {w}")
    return DistanceCertificate(gen.spec, w, method, witness, searched)


def min_distance_exhaustive(gen: GeneratorMatrix, *, threads: int = 1) -> DistanceCertificate:
    """Minimum weight over every nonzero message of the code's alphabet."""
    return _walk_certificate(gen, "ExhaustiveFull", gen.rows, [{m: 1} for m in gen.basis],
                             gen.scalars, threads)


def min_distance_subfield(gen: GeneratorMatrix, *, threads: int = 1) -> DistanceCertificate:
    """Minimum weight over all nonzero F_q-combinations of the F_q row basis
    (`fq_basis`, checked once per generator, `GeneratorMatrix.subfield_basis`).

    Equals the true minimum distance of the Hermitian code because its
    minimum-weight words are scalar multiples of subfield-valued words;
    `require_budget` refuses it on the affine family.
    """
    require_budget(gen.spec, "subfield")
    combos, rows = gen.subfield_basis
    return _walk_certificate(gen, "ExhaustiveSubfield", rows, combos, gen.tower.subfield, threads)


def min_distance(gen: GeneratorMatrix, method: str | None = None, *,
                 threads: int = 1) -> DistanceCertificate:
    """Certified minimum distance by the enumeration `method` names, by
    default the family's certifying one: subfield for the Hermitian family,
    exhaustive for the affine family, where "subfield" raises ValueError.
    Its size is bounded by `require_budget`, which refuses a method it does
    not know; "dual" names no walk and is refused before anything is sized."""
    if method == "dual":
        raise ValueError("the dual pair scan does not certify a minimum distance")
    if require_budget(gen.spec, method) == "subfield":
        return min_distance_subfield(gen, threads=threads)
    return min_distance_exhaustive(gen, threads=threads)


def min_distance_formula(family: str, ell: int, q: int) -> DistanceCertificate:
    """Formula-only certificate; upgraded to WitnessOnly when the canonical
    witness can be evaluated (n <= BUILD_LIMIT) and confirms the value."""
    spec = CodeSpec(family, q, ell)
    d, wit = distance_formula(family, ell, q)
    if d is None:
        raise ValueError("no closed form for the Hermitian family at ell < 2")
    if spec.n <= BUILD_LIMIT:
        w = weight_of_function(wit, ell, q, family)
        require(w == d, f"witness weight {w} contradicts formula value {d}")
        return DistanceCertificate(spec, d, "WitnessOnly", wit, 0)
    return DistanceCertificate(spec, d, "Formula", None, 0)
