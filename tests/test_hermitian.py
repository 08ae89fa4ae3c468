import random

import numpy as np
import pytest

from hermgrass.analysis import weight_of_function
from hermgrass.codebuild import congruence_permutation, translate_permutation, transpose_permutation
from hermgrass.galois import tower_for_q
from hermgrass.hermitian import (
    FAMILY_HERMITIAN,
    count_invertible,
    decode,
    encode,
    outer,
    product,
)
from hermgrass.linalg import rank


def zero_matrix(ell):
    return tuple((0,) * ell for _ in range(ell))


def identity_matrix(ell):
    return tuple(tuple(1 if i == j else 0 for j in range(ell)) for i in range(ell))


def unit_matrix(ell, i, j, value=1):
    """E_{i,j} scaled: all zero except entry (i, j) (0-based)."""
    return tuple(tuple(value if (r, c) == (i, j) else 0 for c in range(ell)) for r in range(ell))


def as_tuple(M):
    """A matrix as a tuple of int rows, which hashes and compares with ==."""
    return tuple(map(tuple, np.asarray(M).tolist()))


def congruence(tower, A, H):
    """A* H A for one matrix H or an array of them."""
    A = np.asarray(A, dtype=np.uint8)
    return product(tower, tower.conj_np[A.T], H, A)


def matrices_at(tower, ell, positions):
    """The Hermitian matrices at the given positions, decoded in one call,
    as tuples of int rows."""
    E = decode(tower, ell, FAMILY_HERMITIAN, positions)
    return [as_tuple(E[..., s]) for s in range(len(positions))]


def test_index_zero_is_zero_matrix():
    for q in (2, 3, 4):
        t = tower_for_q(q)
        assert np.array_equal(decode(t, 2, FAMILY_HERMITIAN, 0), zero_matrix(2))


def test_round_trip_and_totals():
    cases = [(2, 2, 16), (3, 2, 512), (2, 3, 81), (1, 5, 5)]
    for ell, q, total in cases:
        t = tower_for_q(q)
        E = decode(t, ell, FAMILY_HERMITIAN, np.arange(total))
        assert np.array_equal(encode(t, ell, FAMILY_HERMITIAN, E), np.arange(total))
        matrices = matrices_at(t, ell, np.arange(total))
        assert [encode(t, ell, FAMILY_HERMITIAN, H) for H in matrices] == list(range(total))
        assert len(set(matrices)) == total


def test_index_errors():
    t = tower_for_q(2)
    with pytest.raises(ValueError):
        decode(t, 2, FAMILY_HERMITIAN, 16)
    with pytest.raises(ValueError):
        decode(t, 2, FAMILY_HERMITIAN, -1)
    with pytest.raises(ValueError):
        encode(t, 2, FAMILY_HERMITIAN, ((2, 0), (0, 0)))  # diagonal entry outside F_q
    with pytest.raises(ValueError):
        encode(t, 2, FAMILY_HERMITIAN, ((0, 2), (2, 0)))  # lower entry not the conjugate


def test_rank_basics():
    t = tower_for_q(2)
    assert rank(t, zero_matrix(3)) == 0
    assert rank(t, unit_matrix(3, 0, 0)) == 1
    assert rank(t, identity_matrix(3)) == 3


def test_rank2_count_matches_invertible_formula():
    t = tower_for_q(2)
    full_rank = sum(1 for H in matrices_at(t, 2, np.arange(16)) if rank(t, H) == 2)
    assert full_rank == 10 == count_invertible(2, 2)


def test_congruence_identity_and_rank_preservation():
    rng = random.Random(11)
    for q in (2, 3):
        t = tower_for_q(q)
        for ell in (2, 3):
            H = decode(t, ell, FAMILY_HERMITIAN, rng.randrange(q ** (ell * ell)))
            assert np.array_equal(congruence(t, identity_matrix(ell), H), H)
    checks = 0
    while checks < 1000:
        q = rng.choice((2, 3))
        ell = rng.choice((2, 3))
        t = tower_for_q(q)
        A = tuple(tuple(rng.randrange(t.qq) for _ in range(ell)) for _ in range(ell))
        if rank(t, A) != ell:
            continue
        H = decode(t, ell, FAMILY_HERMITIAN, rng.randrange(q ** (ell * ell)))
        out = congruence(t, A, H)
        encode(t, ell, FAMILY_HERMITIAN, out)  # raises ValueError unless out is Hermitian
        assert rank(t, out) == rank(t, H)
        checks += 1


def test_congruence_rejects_singular(monkeypatch):
    """A singular matrix, an entry outside F_{q^2} and a matrix that is not
    ell x ell are refused with one ValueError, before any chunk is decoded."""
    monkeypatch.setattr("hermgrass.codebuild.decoded_chunks", None)
    t = tower_for_q(2)
    for A in (((1, 1), (1, 1)), ((5, 0), (0, 1)), ((-1, 0), (0, 1)), ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(ValueError, match="^congruence requires an invertible 2 x 2 matrix over F_4$"):
            congruence_permutation(t, 2, A)


def test_congruence_orbit_of_e11_is_all_rank_one():
    # closure of E_{1,1} under all invertible congruences = rank-1 matrices
    t = tower_for_q(2)
    ell = 2
    invertibles = []
    for a in range(t.qq):
        for b in range(t.qq):
            for c in range(t.qq):
                for d in range(t.qq):
                    A = np.array([[a, b], [c, d]], dtype=np.uint8)
                    if rank(t, A) == 2:
                        invertibles.append(A)
    assert len(invertibles) == (16 - 1) * (16 - 4)
    orbit = {unit_matrix(ell, 0, 0)}
    frontier = list(orbit)
    while frontier:
        H = frontier.pop()
        for A in invertibles:
            image = as_tuple(congruence(t, A, np.array(H)))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    rank_one = {H for H in matrices_at(t, ell, np.arange(16)) if rank(t, H) == 1}
    assert orbit == rank_one


def test_translate_transpose():
    """H -> H + M and H -> H^T as position permutations: translating by 0
    is the identity, by H takes position 0 to H's and is an involution in
    characteristic 2; the transpose of a Hermitian matrix is its entrywise
    conjugate."""
    t = tower_for_q(2)
    positions = np.arange(16)
    assert np.array_equal(translate_permutation(t, 2, zero_matrix(2)), positions)
    for s, H in enumerate(matrices_at(t, 2, positions)):
        perm = translate_permutation(t, 2, H)
        assert perm[0] == s
        assert np.array_equal(perm[perm], positions)
    perm = transpose_permutation(t, 2)
    assert np.array_equal(perm[perm], positions)
    E = decode(t, 2, FAMILY_HERMITIAN, positions)
    assert np.array_equal(decode(t, 2, FAMILY_HERMITIAN, perm), t.conj_np[E])
    with pytest.raises(ValueError, match=r"^expected 3 x 3 entries, got shape \(2, 2\)$"):
        translate_permutation(tower_for_q(2), 3, zero_matrix(2))
    with pytest.raises(ValueError, match="^translation takes one matrix, not an array of them$"):
        translate_permutation(t, 2, decode(t, 2, FAMILY_HERMITIAN, [3, 5]))


def test_actions_are_bijections():
    # congruence, translation, transposition permute the Hermitian space
    rng = random.Random(3)
    for q in (2, 3):
        t = tower_for_q(q)
        n = q**4
        while True:
            A = tuple(tuple(rng.randrange(t.qq) for _ in range(2)) for _ in range(2))
            if rank(t, A) == 2:
                break
        M = decode(t, 2, FAMILY_HERMITIAN, rng.randrange(n))
        E = decode(t, 2, FAMILY_HERMITIAN, np.arange(n))
        images = [encode(t, 2, FAMILY_HERMITIAN, congruence(t, A, E)),
                  translate_permutation(t, 2, M), transpose_permutation(t, 2)]
        for im in images:
            assert len(set(im.tolist())) == n


def det(ell):
    """The full determinant, whose weight counts the invertible matrices."""
    full = tuple(range(1, ell + 1))
    return {(full, full): 1}


def test_count_invertible():
    assert count_invertible(2, 2) == 2 * (2 - 1) * (2**2 + 1) == 10
    assert count_invertible(3, 2) == 2**3 * (2 - 1) * (2**2 + 1) * (2**3 - 1) == 280
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert count_invertible(1, q) == q - 1
        assert weight_of_function(det(1), 1, q) == q - 1
    for ell, q in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]:
        assert weight_of_function(det(ell), ell, q) == count_invertible(ell, q)


def test_outer_of_a_vector_with_itself_is_rank_one_hermitian():
    t = tower_for_q(2)
    assert as_tuple(outer(t, (1, 0), (1, 0))) == unit_matrix(2, 0, 0)
    assert as_tuple(outer(t, (1, 1), (1, 1))) == ((1, 1), (1, 1))
    rng = random.Random(5)
    for _ in range(100):
        a = tuple(rng.randrange(4) for _ in range(3))
        M = outer(t, a, a)
        assert M.dtype == np.uint8 and M.shape == (3, 3)
        encode(t, 3, FAMILY_HERMITIAN, M)  # raises ValueError unless M is Hermitian
        assert rank(t, M) == int(any(a))
