"""Generator matrices for the two evaluation-code families.

The Hermitian family evaluates every minor of the generic Hermitian matrix
at all ell x ell Hermitian matrices over F_{q^2}; the affine family
evaluates the same minor basis at all ell x ell matrices over F_q.  Row i
of a generator is the evaluation of basis minor i; column t is position t
of the family's normative order, as defined by the position codec
`hermitian.decode` / `hermitian.encode`.

Also here: the F_q row basis of the Hermitian code and its check
(`subfield_rows`), membership and interpolation against a generator,
positionwise conjugation, automorphism permutations and their actions on
messages, and the generator file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import linalg
from .errors import BudgetExceeded, NotInCode, require
from .galois import MODULI, SUPPORTED_Q, FieldTower, make_field, tower_for_q
from .hermitian import (
    BUILD_LIMIT,
    FAMILY_AFFINE,
    FAMILY_HERMITIAN,
    congruence,
    decode,
    det_vectors,
    encode,
    is_hermitian,
    position_chunks,
    translate,
    transpose,
)
from .minors import basis

_FAMILY_LETTER = {FAMILY_HERMITIAN: "H", FAMILY_AFFINE: "A"}
_LETTER_FAMILY = {v: k for k, v in _FAMILY_LETTER.items()}

FORMAT_MAGIC = "hermgrass-gen v1"


@dataclass(frozen=True)
class CodeSpec:
    family: str
    q: int
    ell: int

    def __post_init__(self):
        if self.family not in _FAMILY_LETTER:
            raise ValueError(f"unknown family {self.family!r}")
        if self.q not in SUPPORTED_Q:
            raise ValueError(f"unsupported q = {self.q}")
        if not 1 <= self.ell <= 4:
            raise ValueError(f"ell must be in 1..4, got {self.ell}")

    @property
    def n(self) -> int:
        return self.q ** (self.ell * self.ell)

    @property
    def k(self) -> int:
        return comb(2 * self.ell, self.ell)

    @property
    def alphabet(self) -> int:
        """Size of the message alphabet: q^2 for the Hermitian family, whose
        code is F_{q^2}-linear, q for the affine family."""
        return self.q**2 if self.family == FAMILY_HERMITIAN else self.q


def position_entries(tower: FieldTower, ell: int, family: str):
    """Entry value arrays: E[i][j][t] = entry (i, j) of the t-th evaluation
    point, for all positions t at once."""
    return decode(tower, ell, family, np.arange(tower.q ** (ell * ell)))


def eval_minor_vector(tower, E, minor):
    """Evaluation of one minor at every position, as an index array."""
    I, J = minor
    n = len(E[0][0])
    if len(I) == 0:
        return np.ones(n, dtype=np.uint8)
    sub = [[E[i - 1][j - 1] for j in J] for i in I]
    return det_vectors(tower, sub)


class GeneratorMatrix:
    """k x n generator whose rows are minor evaluations in canonical order,
    for messages over `scalars` (0 and 1 first): all of F_{q^2} for the
    Hermitian family, the sorted subfield F_q for the affine family.

    The rank check at construction equals k for every supported build, which
    certifies empirically that evaluation is injective on the minor span.
    Of its elimination only the pivot columns and the transform T are kept
    (the reduced rows are T.rows): a codeword's message is T applied to its
    pivot entries, and it lies in the code when that message re-encodes to
    it.  Span questions about known combinations are then asked of their
    k-entry messages (`subfield_rows`).
    """

    def __init__(self, spec: CodeSpec, tower: FieldTower, rows: np.ndarray):
        self.spec = spec
        self.tower = tower
        self.rows = rows
        self.rows.setflags(write=False)
        self.basis = basis(spec.ell)
        self._index = {m: i for i, m in enumerate(self.basis)}
        self.scalars = tuple(range(tower.qq)) if spec.alphabet == tower.qq else tower.subfield
        self._in_alphabet = np.zeros(tower.qq, dtype=bool)
        self._in_alphabet[list(self.scalars)] = True
        _, self.pivots, self.transform = linalg.rref(tower, rows)
        self.rank = len(self.pivots)
        if self.rank != spec.k:
            raise AssertionError(
                f"generator rank {self.rank} != expected dimension {spec.k}"
            )

    def header(self) -> str:
        t, s = self.tower, self.spec
        modulus = "".join(str(d) for d in t.modulus)
        return (
            f"{FORMAT_MAGIC} family={_FAMILY_LETTER[s.family]} p={t.p} e={t.e} "
            f"ell={s.ell} k={s.k} n={s.n} modulus={modulus}"
        )

    def encode_message(self, message) -> np.ndarray:
        """Codeword of a length-k coefficient vector over the alphabet."""
        if len(message) != self.spec.k:
            raise ValueError("message length mismatch")
        return linalg.combine(self.tower, self.rows, message)

    def message(self, f: dict) -> list:
        """Length-k coefficient vector of a minor combination."""
        message = [0] * self.spec.k
        for minor, c in f.items():
            if minor not in self._index:
                raise ValueError(f"minor {minor} not valid for ell={self.spec.ell}")
            message[self._index[minor]] = c
        return message

    def encode(self, f: dict) -> np.ndarray:
        """Codeword of a minor combination."""
        return self.encode_message(self.message(f))

    def coefficients_of(self, codeword) -> np.ndarray:
        """Length-k message recovering the codeword, or NotInCode."""
        codeword = np.asarray(codeword, dtype=np.uint8)
        if codeword.shape != (self.spec.n,):
            raise ValueError("codeword length mismatch")
        message = linalg.combine(self.tower, self.transform, codeword[self.pivots])
        if not np.array_equal(self.encode_message(message), codeword):
            raise NotInCode("vector is not in the row space")
        if not self._in_alphabet[message].all():
            raise NotInCode("vector is in the F_{q^2} span but not the F_q code")
        return message

    def membership(self, codeword) -> bool:
        try:
            self.coefficients_of(codeword)
            return True
        except NotInCode:
            return False

    def combination(self, message) -> dict:
        """The minor combination of a length-k message; the inverse of `message`."""
        return {m: int(v) for m, v in zip(self.basis, message) if v}

    def interpolate(self, codeword) -> dict:
        """The unique minor combination evaluating to the codeword."""
        return self.combination(self.coefficients_of(codeword))

    def action(self, perm) -> np.ndarray:
        """k x k matrix Mat with word(m)[perm] == word(combine(Mat, m)): row i
        is the message of rows[i, perm], which `coefficients_of` re-encodes, so
        a permutation that does not map the code to itself raises NotInCode.
        A perm that is not a bijection of range(n) raises ValueError."""
        perm = np.asarray(perm)
        if not np.array_equal(np.sort(perm), np.arange(self.spec.n)):
            raise ValueError("perm is not a permutation of the n positions")
        return np.stack([self.coefficients_of(row[perm]) for row in self.rows])


_GEN_CACHE: dict = {}


def build_generator(family: str, ell: int, q: int) -> GeneratorMatrix:
    key = (family, ell, q)
    if key in _GEN_CACHE:
        return _GEN_CACHE[key]
    spec = CodeSpec(family, q, ell)
    if spec.n > BUILD_LIMIT:
        raise BudgetExceeded(f"q^(ell^2) = {spec.n} exceeds build limit {BUILD_LIMIT}")
    tower = tower_for_q(q)
    E = position_entries(tower, ell, family)
    rows = np.stack([eval_minor_vector(tower, E, m) for m in basis(ell)])
    gen = GeneratorMatrix(spec, tower, rows)
    _GEN_CACHE[key] = gen
    return gen


# F_q basis -------------------------------------------------------------------


def subfield_generator_element(tower: FieldTower) -> int:
    """Smallest element alpha such that {alpha, alpha^q} is an F_q-basis of
    F_{q^2}.

    {alpha, alpha^q} is dependent over F_q exactly when alpha^q is alpha or
    -alpha, so those two cases are skipped (they coincide for p = 2).
    """
    for alpha in range(tower.qq):
        c = tower.conjugate(alpha)
        if c != alpha and c != tower.neg(alpha):
            return alpha
    raise AssertionError("no basis element found")


def fq_basis(ell: int, q: int) -> list:
    """binom(2*ell, ell) combinations spanning the Hermitian code over F_q.

    Principal minors evaluate in F_q as they stand; each transposed pair
    (I, J) != (J, I) contributes alpha*det_IJ + alpha^q*det_JI and
    alpha^q*det_IJ + alpha*det_JI, both F_q-valued on Hermitian matrices.
    """
    tower = tower_for_q(q)
    alpha = subfield_generator_element(tower)
    alpha_q = tower.conjugate(alpha)
    out = []
    for I, J in basis(ell):
        if I == J:
            out.append({(I, I): 1})
        elif (I, J) < (J, I):
            out.append({(I, J): alpha, (J, I): alpha_q})
            out.append({(I, J): alpha_q, (J, I): alpha})
    require(len(out) == comb(2 * ell, ell))
    return out


def subfield_rows(gen: GeneratorMatrix, combos) -> np.ndarray:
    """The codewords of `combos`, required F_q-valued and of rank k.

    Evaluation is injective (the generator's rank check), so the codewords
    span the code exactly when their k-entry messages have rank k; the rank
    is taken on those messages, not on the length-n rows.
    """
    messages = [gen.message(f) for f in combos]
    rows = np.stack([gen.encode_message(m) for m in messages])
    require((gen.tower.subfield_digit_np[rows] >= 0).all(),
            "F_q basis row takes values outside the subfield")
    require(linalg.rank(gen.tower, messages) == gen.spec.k,
            f"F_q basis rows do not have rank k = {gen.spec.k}")
    return rows


# conjugation and automorphisms -----------------------------------------------


def conjugate_codeword(tower: FieldTower, codeword) -> np.ndarray:
    """Positionwise x -> x^q."""
    return tower.conj_np[np.asarray(codeword, dtype=np.uint8)]


def q_invariance_check(gen: GeneratorMatrix) -> bool:
    """Whether the conjugate of every generator row is itself a codeword."""
    return all(gen.membership(conjugate_codeword(gen.tower, row)) for row in gen.rows)


def _position_permutation(tower: FieldTower, ell: int, act) -> np.ndarray:
    """perm[t] = position of act(H_t), where act maps decoded entry arrays to
    entry arrays; encode rejects any image that is not Hermitian."""
    n = tower.q ** (ell * ell)
    perm = np.empty(n, dtype=np.int64)
    for t in position_chunks(n):
        E = decode(tower, ell, FAMILY_HERMITIAN, t)
        perm[t] = encode(tower, ell, FAMILY_HERMITIAN, act(E))
    return perm


def congruence_permutation(tower: FieldTower, ell: int, A) -> np.ndarray:
    """Position permutation of H -> A* H A for invertible A."""
    if linalg.rank(tower, A) != ell:
        raise ValueError("congruence requires an invertible matrix")
    return _position_permutation(tower, ell, lambda H: congruence(tower, A, H))


def translate_permutation(tower: FieldTower, ell: int, M) -> np.ndarray:
    """Position permutation of H -> H + M for Hermitian M."""
    if len(M) != ell or not is_hermitian(tower, M):
        raise ValueError("translation requires a Hermitian matrix of size ell")
    return _position_permutation(tower, ell, lambda H: translate(tower, H, M))


def transpose_permutation(tower: FieldTower, ell: int) -> np.ndarray:
    """Position permutation of H -> H^T."""
    return _position_permutation(tower, ell, lambda H: transpose(tower, H))


# generator file --------------------------------------------------------------


def _parse_header(line: str):
    """(spec, tower, k) of a generator file header, validated like a built code."""
    parts = line.split()
    if parts[:2] != FORMAT_MAGIC.split():
        raise ValueError(f"bad magic in header: {line!r}")
    pairs = [part.split("=", 1) for part in parts[2:]]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"header field without '=' in {line!r}")
    fields = dict(pairs)
    if len(fields) != len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated header fields {sorted({k for k in keys if keys.count(k) > 1})}")
    required = {"family", "p", "e", "ell", "k", "n", "modulus"}
    if set(fields) != required:
        raise ValueError(f"header fields {sorted(fields)} != expected {sorted(required)}")
    family = _LETTER_FAMILY.get(fields["family"])
    if family is None:
        raise ValueError(f"unknown family letter {fields['family']!r}")
    p, e = int(fields["p"]), int(fields["e"])
    if (p, e) not in MODULI:
        raise ValueError(f"no modulus available for (p, e) = ({p}, {e})")
    shipped = "".join(str(d) for d in MODULI[(p, e)])
    if fields["modulus"] != shipped:
        raise ValueError(
            f"modulus {fields['modulus']} does not match shipped modulus {shipped}"
        )
    tower = make_field(p, e)
    spec = CodeSpec(family, tower.q, int(fields["ell"]))
    if int(fields["n"]) != spec.n:
        raise ValueError(f"header n={fields['n']} inconsistent with family/ell/q (n = {spec.n})")
    return spec, tower, int(fields["k"])


def _parse_body(lines, width: int, tower):
    """Rows of field-element indices, each of the given width."""
    try:
        rows = np.array([[int(v) for v in line.split()] for line in lines], dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"matrix body entry out of range: {exc}") from exc
    if rows.shape != (len(lines), width) or rows.min() < 0 or rows.max() >= tower.qq:
        raise ValueError("matrix body malformed")
    return rows.astype(np.uint8)


def write_generator(gen: GeneratorMatrix, path):
    with open(path, "w") as fh:
        fh.write(gen.header() + "\n")
        for row in gen.rows:
            fh.write(" ".join(map(str, row.tolist())) + "\n")


def read_generator(path) -> GeneratorMatrix:
    """The generator the header names, once the body is checked to be its rows."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty generator file, no header")
    spec, tower, k = _parse_header(lines[0])
    if k != spec.k:
        raise ValueError(f"header k={k} inconsistent with family/ell/q (k = {spec.k})")
    if len(lines) != k + 1:
        raise ValueError(f"{path}: expected {k} rows, found {len(lines) - 1}")
    rows = _parse_body(lines[1:], spec.n, tower)
    gen = build_generator(spec.family, spec.ell, spec.q)
    differs = np.flatnonzero((rows != gen.rows).any(axis=1))
    if differs.size:
        raise ValueError(f"{path}: body row {differs[0] + 1} differs from the generator")
    return gen

