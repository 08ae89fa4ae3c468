"""Automorphisms act on messages: `GeneratorMatrix.action` turns a position
permutation of the code into a k x k matrix Mat on messages.  Each matrix
is checked on words (the word of basis message i, permuted, is the word of
row i of Mat) and against the Cauchy-Binet formula, with minors
taken by a scalar determinant here: by Cauchy-Binet, det_{I,J}(A X B) is
the sum over (K, L) of det A[I,K] det X[K,L] det B[L,J].  The permutations
of both families come from the one position walk of the package, with its
actions `product`, `translate` and `swapaxes`."""

import random

import numpy as np
import pytest

from hermgrass import linalg
from hermgrass.codebuild import (
    _position_permutation,
    build_generator,
    congruence_permutation,
    translate_permutation,
    transpose_permutation,
)
from hermgrass.errors import NotInCode
from hermgrass.hermitian import FAMILY_AFFINE, FAMILY_HERMITIAN, product, translate
from hermgrass.verify import HERMITIAN_DESK
from test_hermitian import matrices_at

AFFINE_DESK = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]


def det(tower, M):
    """Determinant of a scalar matrix by first-row expansion; 1 when empty."""
    if not M:
        return 1
    acc = 0
    for c, a in enumerate(M[0]):
        term = tower.mul(a, det(tower, [row[:c] + row[c + 1:] for row in M[1:]]))
        acc = tower.sub(acc, term) if c % 2 else tower.add(acc, term)
    return acc


def sub_det(tower, M, rows, cols):
    """det M[rows, cols] for 1-based labels."""
    return det(tower, [[M[i - 1][j - 1] for j in cols] for i in rows])


def random_invertible(tower, ell, rng, scalars):
    """A random invertible matrix with a nonzero entry off the diagonal, so
    that its action mixes minors (a scalar matrix of norm 1 acts trivially)."""
    while True:
        A = tuple(tuple(rng.choice(scalars) for _ in range(ell)) for _ in range(ell))
        off_diagonal = any(A[i][j] for i in range(ell) for j in range(ell) if i != j)
        if off_diagonal and linalg.rank(tower, A) == ell:
            return A


def action_checked(gen, perm):
    """gen.action(perm), after checking that it acts on the basis messages
    as perm acts on their words: row i of the generator, permuted, is the
    word of row i of Mat."""
    Mat = gen.action(perm)
    assert Mat.shape == (gen.spec.k, gen.spec.k) and Mat.dtype == np.uint8
    assert np.array_equal(gen.encode_message(Mat), gen.rows[:, perm])
    return Mat


def entries(gen, Mat):
    """{(row minor, column minor): entry} of an action matrix."""
    return {(r, c): int(Mat[i, j]) for i, r in enumerate(gen.basis)
            for j, c in enumerate(gen.basis)}


def assert_unitriangular_by_size(gen, Mat):
    """A translation never raises a minor's size and keeps each minor's own
    coefficient: zero above the diagonal blocks, identity on them."""
    for ((I, J), (K, L)), v in entries(gen, Mat).items():
        if len(K) > len(I):
            assert v == 0
        elif len(K) == len(I):
            assert v == int((I, J) == (K, L))


def assert_swaps_minors(gen, Mat):
    """det_{I,J}(X^T) = det_{J,I}(X)."""
    for ((I, J), (K, L)), v in entries(gen, Mat).items():
        assert v == int((K, L) == (J, I))


@pytest.mark.parametrize("ell, q", HERMITIAN_DESK)
def test_hermitian_congruence_action_is_cauchy_binet(ell, q):
    """Congruence H -> A* H A: Mat[(I,J),(K,L)] = conj(det A[K,I]) det A[L,J]
    for |K| = |I|, and 0 between minors of different sizes."""
    gen = build_generator(FAMILY_HERMITIAN, ell, q)
    t = gen.tower
    rng = random.Random(1000 * ell + q)
    A = random_invertible(t, ell, rng, range(t.qq))
    Mat = action_checked(gen, congruence_permutation(t, ell, A))
    for ((I, J), (K, L)), v in entries(gen, Mat).items():
        want = 0
        if len(K) == len(I):
            want = t.mul(t.conjugate(sub_det(t, A, K, I)), sub_det(t, A, L, J))
        assert v == want, ((I, J), (K, L))


@pytest.mark.parametrize("ell, q", HERMITIAN_DESK)
def test_hermitian_translation_and_transpose_actions(ell, q):
    gen = build_generator(FAMILY_HERMITIAN, ell, q)
    t = gen.tower
    rng = random.Random(2000 * ell + q)
    M = matrices_at(t, ell, [rng.randrange(gen.spec.n)])[0]
    assert_unitriangular_by_size(gen, action_checked(gen, translate_permutation(t, ell, M)))
    assert_swaps_minors(gen, action_checked(gen, transpose_permutation(t, ell)))


@pytest.mark.parametrize("ell, q", AFFINE_DESK)
def test_affine_actions(ell, q):
    """X -> A X B: Mat[(I,J),(K,L)] = det A[I,K] det B[L,J]; translation and
    transpose as in the Hermitian family."""
    gen = build_generator(FAMILY_AFFINE, ell, q)
    t = gen.tower
    rng = random.Random(3000 * ell + q)
    A, B = (random_invertible(t, ell, rng, t.subfield) for _ in range(2))

    def permutation(act):
        return _position_permutation(t, ell, FAMILY_AFFINE, act)

    Mat = action_checked(gen, permutation(lambda X: product(t, A, X, B)))
    for ((I, J), (K, L)), v in entries(gen, Mat).items():
        want = t.mul(sub_det(t, A, I, K), sub_det(t, B, L, J)) if len(K) == len(I) else 0
        assert v == want, ((I, J), (K, L))
    M = [[rng.choice(t.subfield) for _ in range(ell)] for _ in range(ell)]
    assert_unitriangular_by_size(gen, action_checked(gen, permutation(lambda X: translate(t, M, X))))
    assert_swaps_minors(gen, action_checked(gen, permutation(lambda X: X.swapaxes(0, 1))))


@pytest.mark.parametrize("family", [FAMILY_HERMITIAN, FAMILY_AFFINE])
def test_action_rejects_a_non_automorphism(family):
    gen = build_generator(family, 2, 2)
    perm = np.arange(gen.spec.n)
    perm[[0, 1]] = perm[[1, 0]]
    with pytest.raises(NotInCode):
        gen.action(perm)


@pytest.mark.parametrize("family", [FAMILY_HERMITIAN, FAMILY_AFFINE])
def test_action_rejects_a_map_that_is_not_a_bijection(family):
    """A constant map sends every word to a constant word, which is in the
    code, so only the bijection check stands between it and a singular Mat."""
    gen = build_generator(family, 2, 2)
    repeated = np.arange(gen.spec.n)
    repeated[1] = 0
    for perm in (np.zeros(gen.spec.n, dtype=np.int64), repeated, np.zeros(gen.spec.n)):
        with pytest.raises(ValueError, match="not a permutation of the n positions"):
            gen.action(perm)
