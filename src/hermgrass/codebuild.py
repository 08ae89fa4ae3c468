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

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import linalg
from .errors import BudgetExceeded, NotInCode, indices, require
from .galois import MODULI, SUPPORTED_Q, FieldTower, tower_for_q
from .hermitian import (
    BUILD_LIMIT,
    FAMILY_AFFINE,
    FAMILY_HERMITIAN,
    decode,
    decoded_chunks,
    encode,
    product,
    translate,
)
from .minors import MAX_ELL, basis

_FAMILY_LETTER = {FAMILY_HERMITIAN: "H", FAMILY_AFFINE: "A"}

FORMAT_MAGIC = "hermgrass-gen v1"


@dataclass(frozen=True)
class CodeSpec:
    family: str
    q: int
    ell: int

    def __post_init__(self):
        if self.family not in _FAMILY_LETTER:
            raise ValueError(f"unknown family {self.family!r}")
        for name, value in (("q", self.q), ("ell", self.ell)):
            if type(value) is not int:  # stored as int, so n, the header and reports print integers
                if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
                object.__setattr__(self, name, int(value))
        if self.q not in SUPPORTED_Q:
            raise ValueError(f"unsupported q = {self.q}")
        if not 1 <= self.ell <= MAX_ELL:
            raise ValueError(f"ell must be in 1..{MAX_ELL}, got {self.ell}")

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

    @property
    def header(self) -> str:
        """Line 1 of the code's generator file, from the spec alone."""
        p, e = SUPPORTED_Q[self.q]
        modulus = "".join(map(str, MODULI[(p, e)]))
        return (
            f"{FORMAT_MAGIC} family={_FAMILY_LETTER[self.family]} p={p} e={e} "
            f"ell={self.ell} k={self.k} n={self.n} modulus={modulus}"
        )

    @property
    def fields(self) -> dict:
        """The code a certificate is about, its first fields."""
        return {"family": self.family, "q": self.q, "ell": self.ell, "n": self.n, "k": self.k}


def position_entries(tower: FieldTower, ell: int, family: str):
    """The matrices at all positions at once: E[i, j, t] = entry (i, j) of
    the t-th evaluation point."""
    return decode(tower, ell, family, np.arange(tower.q ** (ell * ell)))


def eval_minor_vector(tower, E, minor):
    """The minor (I, J) at every matrix of the array E, of shape E.shape[2:],
    by first-row expansion: ones for the empty minor, E[i, j] itself for a
    1 x 1 one."""
    I, J = minor
    if not I:
        return np.ones(E.shape[2:], dtype=np.uint8)
    if len(I) == 1:
        return E[I[0] - 1, J[0] - 1]
    acc = None
    for c, j in enumerate(J):
        rest = eval_minor_vector(tower, E, (I[1:], J[:c] + J[c + 1:]))
        term = tower.muls(E[I[0] - 1, j - 1], rest)
        if c % 2 == 1:
            term = tower.neg_np[term]
        acc = term if acc is None else tower.adds(acc, term)
    return acc


class GeneratorMatrix:
    """k x n generator whose rows are minor evaluations in canonical order,
    for messages over `scalars` (0 and 1 first): all of F_{q^2} for the
    Hermitian family, the sorted subfield F_q for the affine family.

    The rank check at construction equals k for every supported build, which
    certifies empirically that evaluation is injective on the minor span.
    Its elimination, `linalg.rref`, returns only the pivot columns and the
    transform T, and reads no column past the block of the last pivot; the
    reduced rows T.rows are never formed.  A codeword's message is T applied
    to its pivot entries, and it lies in the code when that message
    re-encodes to it.  Span questions about known combinations are then
    asked of their k-entry messages (`subfield_rows`).

    `encode_message`, `coefficients_of` and `membership` also take a stack
    of messages or words along a leading axis, which `linalg.combine`
    evaluates in one call.
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
        self.pivots, self.transform = linalg.rref(tower, rows)
        self.rank = len(self.pivots)
        if self.rank != spec.k:
            raise AssertionError(
                f"generator rank {self.rank} != expected dimension {spec.k}"
            )

    def encode_message(self, message) -> np.ndarray:
        """Codeword of a length-k coefficient vector over the alphabet, or the
        (m, n) codewords of an (m, k) stack of them, as any array-like.  An
        entry outside F_{q^2} raises ValueError."""
        if np.shape(message)[-1:] != (self.spec.k,):
            raise ValueError("message length mismatch")
        message = indices(message, self.tower.qq, f"message entries lie outside F_{self.tower.qq}")
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

    def _decode(self, codeword):
        """(message, in span, in alphabet) of a word, or of each word of an
        (m, n) stack: T applied to the pivot entries, whether it re-encodes
        to the word, and whether its entries are scalars of the code.  An
        entry outside F_{q^2} raises ValueError."""
        codeword = indices(codeword, self.tower.qq, f"codeword entries lie outside F_{self.tower.qq}")
        if codeword.shape[-1:] != (self.spec.n,) or codeword.ndim > 2:
            raise ValueError("codeword length mismatch")
        message = linalg.combine(self.tower, self.transform, codeword[..., self.pivots])
        in_span = (linalg.combine(self.tower, self.rows, message) == codeword).all(axis=-1)
        return message, in_span, self._in_alphabet[message].all(axis=-1)

    def coefficients_of(self, codeword) -> np.ndarray:
        """Length-k message recovering the codeword, or NotInCode; on an
        (m, n) stack, the (m, k) messages, or NotInCode if any word is not
        in the code."""
        message, in_span, in_alphabet = self._decode(codeword)
        if not in_span.all():
            raise NotInCode("vector is not in the row space")
        if not in_alphabet.all():
            raise NotInCode("vector is in the F_{q^2} span but not the F_q code")
        return message

    def membership(self, codeword):
        """Whether the word is in the code; on an (m, n) stack, a bool array
        with one entry per word."""
        _, in_span, in_alphabet = self._decode(codeword)
        member = in_span & in_alphabet
        return member if member.ndim else bool(member)

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
        perm = indices(perm, self.spec.n, "perm is not a permutation of the n positions")
        if not np.array_equal(np.sort(perm), np.arange(self.spec.n)):
            raise ValueError("perm is not a permutation of the n positions")
        return self.coefficients_of(self.rows[:, perm])

    @functools.cached_property
    def subfield_basis(self) -> tuple:
        """(combos, rows): the F_q basis of the Hermitian code (`fq_basis`)
        and its read-only codewords, checked by `subfield_rows` once, on
        first use, and kept."""
        combos = tuple(fq_basis(self.spec.ell, self.spec.q))
        return combos, subfield_rows(self, combos)


@functools.cache
def build_generator(family: str, ell: int, q: int) -> GeneratorMatrix:
    spec = CodeSpec(family, q, ell)
    if spec.n > BUILD_LIMIT:
        raise BudgetExceeded(f"q^(ell^2) = {spec.n} exceeds build limit {BUILD_LIMIT}")
    tower = tower_for_q(q)
    E = position_entries(tower, ell, family)
    rows = np.stack([eval_minor_vector(tower, E, m) for m in basis(ell)])
    return GeneratorMatrix(spec, tower, rows)


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
    """The codewords of `combos`, read-only, required F_q-valued and of
    rank k.

    Evaluation is injective (the generator's rank check), so the codewords
    span the code exactly when their k-entry messages have rank k; the rank
    is taken on those messages, not on the length-n rows.
    """
    messages = np.array([gen.message(f) for f in combos], dtype=np.uint8).reshape(-1, gen.spec.k)
    rows = gen.encode_message(messages)
    require((gen.tower.subfield_digit_np[rows] >= 0).all(),
            "F_q basis row takes values outside the subfield")
    require(linalg.rank(gen.tower, messages) == gen.spec.k,
            f"F_q basis rows do not have rank k = {gen.spec.k}")
    rows.setflags(write=False)
    return rows


# conjugation and automorphisms -----------------------------------------------


def conjugate_codeword(tower: FieldTower, codeword) -> np.ndarray:
    """Positionwise x -> x^q.  An entry outside [0, q^2) raises ValueError."""
    return tower.conj_np[indices(codeword, tower.qq, f"codeword entries must lie in F_{tower.qq}")]


def q_invariance_check(gen: GeneratorMatrix) -> bool:
    """Whether the conjugate of every generator row is itself a codeword."""
    return bool(gen.membership(conjugate_codeword(gen.tower, gen.rows)).all())


def _position_permutation(tower: FieldTower, ell: int, family: str, act) -> np.ndarray:
    """perm[t] = position of act(X_t) in the family's space, where act maps an
    array of matrices to an array of matrices; encode rejects any image
    outside the family."""
    perm = np.empty(tower.q ** (ell * ell), dtype=np.int64)
    for t, E in decoded_chunks(tower, ell, family):
        perm[t] = encode(tower, ell, family, act(E))
    return perm


def congruence_permutation(tower: FieldTower, ell: int, A) -> np.ndarray:
    """Position permutation of H -> A* H A.  Anything but an invertible ell x
    ell matrix over F_{q^2} is refused with ValueError before any work."""
    refusal = f"congruence requires an invertible {ell} x {ell} matrix over F_{tower.qq}"
    A = indices(A, tower.qq, refusal)
    if A.shape != (ell, ell) or linalg.rank(tower, A) != ell:
        raise ValueError(refusal)
    A_star = tower.conj_np[A.T]
    return _position_permutation(tower, ell, FAMILY_HERMITIAN, lambda H: product(tower, A_star, H, A))


def translate_permutation(tower: FieldTower, ell: int, M) -> np.ndarray:
    """Position permutation of H -> H + M; encode refuses an M that is not an
    ell x ell Hermitian matrix with ValueError, naming its bad entry, and an
    array of matrices is refused too."""
    if np.ndim(encode(tower, ell, FAMILY_HERMITIAN, M)):
        raise ValueError("translation takes one matrix, not an array of them")
    return _position_permutation(tower, ell, FAMILY_HERMITIAN, lambda H: translate(tower, M, H))


def transpose_permutation(tower: FieldTower, ell: int) -> np.ndarray:
    """Position permutation of H -> H^T."""
    return _position_permutation(tower, ell, FAMILY_HERMITIAN, lambda H: H.swapaxes(0, 1))


# generator file --------------------------------------------------------------


def _file_lines(gen: GeneratorMatrix):
    """The lines of the code's generator file as bytes, newline included: the
    header, then each row as its single-space-separated indices.  A table
    holds each field index's text and a space, NUL-padded into one uint32
    word (q^2 <= 81 has at most two digits), so a row is one gather; its
    bytes without the NULs, the last space made a newline, are its line."""
    yield (gen.spec.header + "\n").encode()
    text = np.array([b"%d " % v for v in range(gen.tower.qq)], dtype="S4").view(np.uint32)
    for row in gen.rows:
        yield text.take(row).tobytes().translate(None, b"\0")[:-1] + b"\n"


def write_generator(gen: GeneratorMatrix, path):
    with open(path, "wb") as fh:
        fh.writelines(_file_lines(gen))


def read_generator(path) -> GeneratorMatrix:
    """The generator whose file this is: exactly the bytes `write_generator`
    writes for the supported code its header names.  Lines end at \\n, \\r
    or \\r\\n, kept as they are, so they must be its newlines too; only the
    header is decoded.  A code longer than BUILD_LIMIT has no file, so its
    header is not a supported one."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    if not lines:
        raise ValueError(f"{path}: empty generator file, no header")
    header = lines[0].removesuffix(b"\n").decode(errors="replace")
    specs = [CodeSpec(family, q, ell) for family in _FAMILY_LETTER
             for q in SUPPORTED_Q for ell in range(1, MAX_ELL + 1)]
    spec = next((spec for spec in specs if spec.n <= BUILD_LIMIT and spec.header == header), None)
    if spec is None:
        raise ValueError(f"{path}: {header!r} is not the header of a supported code")
    if len(lines) != spec.k + 1:
        raise ValueError(f"{path}: expected {spec.k} rows, found {len(lines) - 1}")
    gen = build_generator(spec.family, spec.ell, spec.q)
    for i, (line, canonical) in enumerate(zip(lines, _file_lines(gen))):
        if line != canonical:
            raise ValueError(f"{path}: body row {i} differs from the generator")
    return gen
