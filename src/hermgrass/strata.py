"""Executable verifiers for the counting and classification facts the code
families rest on: the lemma counts, the classifiers, which walk strata of
the code, translation clearing and spread reduction.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import linalg
from . import minors as mn
from .analysis import weight
from .codebuild import (
    FAMILY_HERMITIAN,
    CodeSpec,
    GeneratorMatrix,
    build_generator,
    congruence_permutation,
    translate_permutation,
)
from .errors import NoValidLambda, indices, require
from .galois import FieldTower
from .hermitian import count_invertible
from .walk import _require_size, _weights_by_digits, min_weight_over_combinations


# counting identities ---------------------------------------------------------------


def hyperbolic_zero_count(tower: FieldTower, lam: int) -> int:
    """Solutions over F_q of (x1 + a)(x2 + b) = lam: 2q - 1 when lam = 0,
    q - 1 otherwise.  Computed both by formula and by brute force on
    x1 x2 = lam; they must agree.  x1 -> x1 + a and x2 -> x2 + b are
    bijections of F_q, so the count does not depend on a or b."""
    if not tower.in_base_subfield(lam):
        raise ValueError(f"lam must lie in F_{tower.q} inside F_{tower.qq}, got {lam}")
    q = tower.q
    formula = 2 * q - 1 if lam == 0 else q - 1
    sub = tower.subfield_np
    brute = int(np.count_nonzero(tower.muls(sub[:, None], sub) == lam))
    require(brute == formula, f"hyperbolic count mismatch: formula {formula}, brute {brute}")
    return brute


def system_solution_count(tower: FieldTower, a, b) -> int:
    """Brute-force count of solutions X in F_{q^2}^n of the norm/cross-term
    system x_i^(q+1) = a_i, x_i x_j^q = b[i][j] (i != j); asserted <= q + 1.
    Every vector is tried, as one stacked compare of its n^2 terms.  An a_i
    outside F_q, a b[i][j] outside F_{q^2} or a b that is not n x n raises
    ValueError."""
    n = len(a)
    if n > 3:
        raise ValueError("n <= 3 required")
    for v in a:
        if not tower.in_base_subfield(v):
            raise ValueError(f"a_i must lie in F_{tower.q} inside F_{tower.qq}, got {v}")
    if [len(row) for row in b] != [n] * n:
        raise ValueError(f"b must have {n} rows of {n} terms, got rows of {[len(row) for row in b]}")
    terms = [a[i] if i == j else b[i][j] for i in range(n) for j in range(n)]
    target = indices(terms, tower.qq, f"b[i][j] must lie in F_{tower.qq}").astype(np.uint8)
    count = int(np.count_nonzero((_system_terms(tower, n) == target[:, None]).all(axis=0)))
    require(count <= tower.q + 1, f"system has {count} solutions, exceeding q + 1 = {tower.q + 1}")
    return count


@functools.cache
def _system_terms(tower: FieldTower, n: int) -> np.ndarray:
    """The n^2 terms of every vector X of F_{q^2}^n, one column per vector:
    row i * n + j holds x_i x_j^q, the norm x_i^(q+1) where i = j."""
    X = np.indices((tower.qq,) * n, dtype=np.intp).reshape(n, -1)
    terms = tower.muls(X[:, None], tower.conj_np[X[None]]).reshape(n * n, -1)
    terms.setflags(write=False)
    return terms


def random_system(tower: FieldTower, n: int, rng, consistent: bool = True):
    """(a, b) for the norm/cross-term system; consistent systems are built
    from a random solution vector."""
    if consistent:
        X = [rng.randrange(tower.qq) for _ in range(n)]
        a = [tower.norm(x) for x in X]
        b = [[tower.mul(X[i], tower.conjugate(X[j])) for j in range(n)] for i in range(n)]
    else:
        a = [rng.choice(tower.subfield) for _ in range(n)]
        b = [[rng.randrange(tower.qq) for _ in range(n)] for _ in range(n)]
    return a, b


# weight classifiers ------------------------------------------------------------


def _stratum(gen: GeneratorMatrix, k: int, self_conjugate: bool):
    """(rows, combos, scalars, lead) of the walk, over the messages whose
    first `lead` digits are not all zero, whose least weight is that of the
    words whose maximal minors have size k.  The size-k rows lead, and the
    rows of size < min(k, 2) follow; combos[i] is the function of rows[i],
    from the F_q basis with scalars F_q when `self_conjugate`, from the
    minor basis with the code's alphabet otherwise.

    At ell = 2 these are all the rows of size <= k.  At k = ell = 3 the
    2-minor rows are left out, by translation clearing: its translation
    takes a self-conjugate word det + C + L (C of size 2, L of degree
    <= 1) to det plus a degree <= 1 part, at equal weight, since a
    translation permutes positions.  The clearing matrix and the 2-minor
    part of det∘translate(H) are F_q-linear in C, so clearing the nine F_q
    basis rows of size 2, checked here before any walk, clears every C.
    """
    fq, fq_rows = gen.subfield_basis
    if k > 2:
        full = tuple(range(1, k + 1))
        for g in fq:
            if len(next(iter(g))[0]) == 2:
                require(verify_translation_clearing(gen, {(full, full): 1, **g}, full),
                        f"the clearing translation leaves a 2-minor of det + {g}")
    if self_conjugate:
        combos, scalars, rows = fq, gen.tower.subfield, fq_rows
    else:
        combos, scalars, rows = [{m: 1} for m in gen.basis], gen.scalars, gen.rows
    size = [len(next(iter(f))[0]) for f in combos]
    order = _stratum_order(size, k)
    return rows[order], [combos[i] for i in order], scalars, size.count(k)


def _stratum_order(size, k):
    """Indices of the stratum's rows among functions whose minors have the
    sizes `size`: the size-k ones, then those of size < min(k, 2)."""
    return ([i for i, z in enumerate(size) if z == k]
            + [i for i, z in enumerate(size) if z < min(k, 2)])


def classify_weights_l2(q: int) -> dict:
    """Exhaustive weights of the self-conjugate functions with the full 2x2
    minor normalized to 1: the ell = 2 det stratum over F_q (`_stratum`)
    with its det digit 1.

    Exactly two weights occur: q^4 - q^3 + q^2 - q and q^4 - q^3 - q.  Two
    sign conventions circulate for the predicate picking out the larger
    weight (they differ only outside characteristic 2); both are tested
    against brute force and the matching one is reported.
      plus_f0 form:   f0 + f12^(q+1) - f11 f22 = 0
      minus_f0 form:  f12^(q+1) - f0 + f11 f22 = 0
    """
    gen = build_generator(FAMILY_HERMITIAN, 2, q)
    tower = gen.tower
    rows, combos, sub, _ = _stratum(gen, 2, True)
    digits, weights = map(np.array, zip(*_weights_by_digits(tower, rows, sub)))
    # coefficient of each minor in every message: its column of the combos'
    # messages, combined with the digits' scalars
    coeffs = np.array(sub, dtype=np.uint8)[digits].T
    messages = np.array([gen.message(f) for f in combos], dtype=np.uint8)
    f0, f11, f12, f22 = (linalg.combine(tower, coeffs, messages[:, gen.basis.index(m)])
                         for m in (((), ()), ((1,), (1,)), ((1,), (2,)), ((2,), (2,))))
    w_high = q**4 - q**3 + q**2 - q
    w_low = q**4 - q**3 - q
    weights_seen = set(np.unique(weights).tolist())
    is_high = weights == w_high
    count_high = int(is_high.sum())
    prod, nrm = tower.muls(f11, f22), tower.norm_np[f12]
    plus_ok = bool(np.array_equal(tower.adds(f0, nrm) == prod, is_high))
    minus_ok = bool(np.array_equal(tower.adds(nrm, prod) == f0, is_high))
    expected = {w_high, w_low}
    require(weights_seen == expected,
            f"observed weights {sorted(weights_seen)} != expected {sorted(expected)}")
    resolved = {(True, True): "both", (True, False): "plus_f0",
                (False, True): "minus_f0", (False, False): "neither"}[plus_ok, minus_ok]
    family_size = q**3 * q**2
    return {
        "q": q,
        "family_size": family_size,
        "weights": sorted(weights_seen),
        "expected_weights": sorted(expected),
        "count_weight_high": count_high,
        "count_weight_low": family_size - count_high,
        "plus_f0_predicate_matches": plus_ok,
        "minus_f0_predicate_matches": minus_ok,
        "resolved_predicate": resolved,
    }


def verify_l3_bounds(q: int = 2) -> dict:
    """The least weight of the self-conjugate ell = 3 det stratum
    (`min_weight_by_max_minor`, which walks det plus the degree <= 1 part,
    the stratum cleared by translation), against the structural lower bound
    q^9 - q^8 - q^6 + q^5 - q^4 + q^3.

    Also pins the two special weights: weight(det) must equal the invertible
    count q^3 (q-1)(q^2+1)(q^3-1) (an alternative printed expansion of it,
    q^9 - q^8 + q^7 - 2 q^6 - q^4 + q^3, drops a q^5 term and is reported
    for comparison), and weight(det + c) for c != 0 must equal
    q^9 - q^8 - q^6 + q^5 + q^3.
    """
    stratum = min_weight_by_max_minor(3, 3, q, self_conjugate_only=True)
    gen = build_generator(FAMILY_HERMITIAN, 3, q)
    det = ((1, 2, 3), (1, 2, 3))
    bound = q**9 - q**8 - q**6 + q**5 - q**4 + q**3
    det_product_form = count_invertible(3, q)
    det_alt_expansion = q**9 - q**8 + q**7 - 2 * q**6 - q**4 + q**3
    det_plus_expected = q**9 - q**8 - q**6 + q**5 + q**3
    weight_det = weight(gen.encode({det: 1}))
    det_plus_weights = {weight(gen.encode({det: 1, ((), ()): c})) for c in gen.tower.subfield if c}
    report = {
        "q": q,
        "family_size": stratum["functions_examined"],
        "min_weight": stratum["min_weight"],
        "bound": bound,
        "all_above_bound": stratum["min_weight"] >= bound,
        "weight_det": weight_det,
        "weight_det_product_form": det_product_form,
        "weight_det_matches_product_form": weight_det == det_product_form,
        "weight_det_alt_expansion": det_alt_expansion,
        "weight_det_matches_alt_expansion": weight_det == det_alt_expansion,
        "weight_det_plus_const": sorted(det_plus_weights),
        "weight_det_plus_const_expected": det_plus_expected,
    }
    require(report["all_above_bound"], "a family member falls below the structural bound")
    require(weight_det == det_product_form, "weight(det) does not match the invertible count")
    require(det_plus_weights == {det_plus_expected},
            "weight(det + c) does not match its closed form")
    return report


# minimum weight stratified by maximal-minor size --------------------------------


def induction_bound(k: int, q: int) -> int:
    """Lower bound for the minimum weight when the largest support minor is a
    principal k x k minor: q^(k^2) - q^(k^2-1) - q^(k^2-3) + q^(k^2-2k) - 1.
    The paper's bound, for k >= 2."""
    m = k * k
    return q**m - q ** (m - 1) - q ** (m - 3) + q ** (m - 2 * k) - 1


def min_weight_by_max_minor(ell: int, k: int, q: int,
                            self_conjugate_only: bool = False) -> dict:
    """Exhaustive minimum weight over the combinations whose maximal support
    minors all have size exactly k (over the F_q basis when
    `self_conjugate_only`), checked against the induction bound at k = ell.

    The stratum must be read off the message digits: at ell = 2 the support
    classes nest, so the class is the largest minor size among the nonzero
    digits, and at k = ell it is "the det digit is nonzero"; any other
    (ell, k) raises ValueError, as does ell < 2, where the induction bound
    does not hold, and ell > 3, where one translation does not clear the
    det stratum to degree <= 1.  The walk is the stratum's rows (`_stratum`):
    at ell = 3 det leads the degree <= 1 rows, the clearing checked first.
    Its r^rows messages (r = q when `self_conjugate_only`, the alphabet
    otherwise) are sized before the build, the rows chosen from the minor
    basis by the stratum's own rule (`_stratum_order`).

    At k = ell the self-conjugate minimum is also the minimum over every
    combination.  Take a word c whose det coefficient a is nonzero and a
    beta with Tr(beta a) != 0: beta c + (beta c)^q is self-conjugate, its
    det coefficient is Tr(beta a), and its support lies inside c's.  So the
    cleared walk over the alphabet, which holds the cleared self-conjugate
    words, finds the same minimum.
    """
    if ell < 2:
        raise ValueError(f"the induction bound needs ell >= 2, got {ell}")
    if not 0 <= k <= ell:
        raise ValueError("need 0 <= k <= ell")
    if ell != 2 and k != ell:
        raise ValueError(f"the stratum k = {k} at ell = {ell} is not read off the digits")
    if ell > 3:
        raise ValueError(f"one translation clears the det stratum to degree <= 1 only "
                         f"up to ell = 3, got {ell}")
    spec = CodeSpec(FAMILY_HERMITIAN, q, ell)
    sizes = [len(I) for I, _ in mn.basis(ell)]
    r, m = q if self_conjugate_only else spec.alphabet, len(_stratum_order(sizes, k))
    _require_size(r**m, f"message space {r}^{m} =")
    gen = build_generator(FAMILY_HERMITIAN, ell, q)
    rows, _, scalars, lead = _stratum(gen, k, self_conjugate_only)
    best, _, count = min_weight_over_combinations(gen.tower, rows, scalars, lead=lead)
    report = {
        "ell": ell,
        "k": k,
        "q": q,
        "self_conjugate_only": self_conjugate_only,
        "functions_examined": count,
        "min_weight": best,
    }
    if k == ell:
        bound = induction_bound(k, q)
        report["bound"] = bound
        report["meets_bound"] = best >= bound
        require(report["meets_bound"], f"minimum weight {best} falls below bound {bound}")
    return report


# translation clearing -----------------------------------------------------------


def translation_clearing_matrix(tower: FieldTower, ell: int, f: dict, I: tuple):
    """The Hermitian translation H with entries h_{i,j} =
    (-1)^(a+b-1) f_{I minus i, I minus j} (a, b the positions of i, j in I),
    zero outside I x I.  A label of I outside 1..ell raises ValueError."""
    if not all(isinstance(i, (int, np.integer)) and 1 <= i <= ell for i in I):
        raise ValueError(f"I must hold labels in 1..{ell}, got {I}")
    H = np.zeros((ell, ell), dtype=np.uint8)
    for a, i in enumerate(I, start=1):
        for b, j in enumerate(I, start=1):
            key = (tuple(x for x in I if x != i), tuple(x for x in I if x != j))
            v = f.get(key, 0)
            if (a + b) % 2 == 0:
                v = tower.neg(v)
            H[i - 1, j - 1] = v
    return H


def verify_translation_clearing(gen: GeneratorMatrix, f: dict, I: tuple) -> bool:
    """Translate f, scaled to det coefficient 1, by the clearing matrix and
    check (on its word, permuted by the translation and interpolated) that
    no (|I|-1)-minor with rows and columns inside I survives in the
    support.  A clearing matrix that is not Hermitian makes the translation
    raise ValueError."""
    tower = gen.tower
    ell = gen.spec.ell
    I = tuple(sorted(I))
    if not mn.is_self_conjugate(tower, f):
        raise ValueError("f must be self-conjugate")
    if (I, I) not in mn.maximal_minors(f):
        raise ValueError(f"the principal minor on {I} is not maximal in f")
    message = tower.mul_np[tower.inv(f[(I, I)])][gen.message(f)]
    H = translation_clearing_matrix(tower, ell, gen.combination(message), I)
    word = gen.encode_message(message)
    translated = gen.interpolate(word[translate_permutation(tower, ell, H)])
    si = set(I)
    target = len(I) - 1
    for (Ip, Jp) in mn.support(translated):
        if len(Ip) == target and set(Ip) <= si and set(Jp) <= si:
            return False
    return True


# spread reduction ----------------------------------------------------------------


def spread_reduction_step(gen: GeneratorMatrix, f: dict):
    """One spread-reduction move: relabel rows/columns so the chosen maximal
    minor of minimal spread sits at I = [k], J = {s-k+1..s}, then apply the
    congruence by I + lambda E_{1,s}, both as permutations of the word of f,
    each interpolated back to a combination.

    lambda is the first nonzero scalar whose congruence keeps the reduced
    minor (I, J - s + 1) in the support; NoValidLambda is raised when none
    does.  Returns (f_new, info); f_new has identical weight (both
    transforms are position permutations) and its support contains that
    size-k minor of spread <= s-1.
    """
    tower = gen.tower
    ell = gen.spec.ell
    maximal = mn.maximal_minors(f)
    if not maximal:
        raise ValueError("zero combination")
    M = min(maximal, key=lambda m: (mn.spread(m), len(m[0]), m))
    k = len(M[0])
    s = mn.spread(M)
    if s <= k:
        raise ValueError(
            f"maximal minor of minimal spread has spread {s} = size {k}; nothing to reduce"
        )
    I, J = set(M[0]), set(M[1])
    # pi maps new labels to old: [1..s-k] <- I\J, [s-k+1..k] <- I&J,
    # [k+1..s] <- J\I, the rest in order
    groups = [sorted(I - J), sorted(I & J), sorted(J - I), sorted(set(range(1, ell + 1)) - (I | J))]
    pi = dict(enumerate(itertools.chain(*groups), start=1))
    P = np.eye(ell, dtype=np.uint8)[[pi[i] - 1 for i in range(1, ell + 1)]]
    w1 = gen.encode(f)[congruence_permutation(tower, ell, P)]
    reduced = (tuple(range(1, k + 1)), (1, *range(s - k + 1, s)))
    A = np.eye(ell, dtype=np.uint8)
    for lam in range(1, tower.qq):
        A[0, s - 1] = lam  # I + lam E_{1,s}: adds lam times row s to row 1
        f2 = gen.interpolate(w1[congruence_permutation(tower, ell, A)])
        if f2.get(reduced, 0):
            return f2, {"minor": M, "size": k, "spread": s, "relabeling": pi, "lambda": lam,
                        "new_minor": reduced}
    raise NoValidLambda("no scalar keeps the reduced minor alive")
