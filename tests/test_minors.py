import itertools
import random

import numpy as np
import pytest

from hermgrass import minors as mn
from hermgrass.codebuild import (
    FAMILY_HERMITIAN,
    build_generator,
    congruence_permutation,
    eval_minor_vector,
)
from hermgrass.errors import NotInCode
from hermgrass.galois import tower_for_q
from test_hermitian import identity_matrix, matrices_at


def conjugate_combination(tower, f: dict) -> dict:
    """f_conj: coefficient f_{I,J}^q attached to the transposed minor (J, I)."""
    return {(J, I): tower.conjugate(c) for (I, J), c in f.items() if c}


def eval_minor(tower, minor, M) -> int:
    """Scalar oracle: the determinant of the (I, J) submatrix of one matrix M
    by first-row expansion; the empty minor is 1."""
    I, J = minor
    if not I:
        return 1
    row = M[I[0] - 1]
    if len(I) == 1:
        return row[J[0] - 1]
    acc = 0
    for c, j in enumerate(J):
        term = tower.mul(row[j - 1], eval_minor(tower, (I[1:], J[:c] + J[c + 1:]), M))
        acc = tower.sub(acc, term) if c % 2 else tower.add(acc, term)
    return acc


def eval_combination(tower, f: dict, M) -> int:
    acc = 0
    for minor, c in f.items():
        if c:
            acc = tower.add(acc, tower.mul(c, eval_minor(tower, minor, M)))
    return acc


def test_basis_sizes_and_order():
    assert mn.basis(1) == [((), ()), ((1,), (1,))]
    b2 = mn.basis(2)
    assert len(b2) == 6
    assert b2[0] == ((), ())
    assert set(b2) == {
        ((), ()),
        ((1,), (1,)),
        ((1,), (2,)),
        ((2,), (1,)),
        ((2,), (2,)),
        ((1, 2), (1, 2)),
    }
    assert len(mn.basis(3)) == 20
    assert len(mn.basis(4)) == 70
    with pytest.raises(ValueError):
        mn.basis(5)
    with pytest.raises(ValueError):
        mn.basis(0)


def test_format_minor():
    assert mn.format_minor(((1, 2), (2, 3))) == "I:{1,2} J:{2,3}"
    assert mn.format_minor(((), ())) == "I:{} J:{}"


def test_eval_minor_identity_example():
    # rows {1,2}, columns {2,3} of the 3x3 identity has determinant 0
    t = tower_for_q(2)
    assert eval_minor(t, ((1, 2), (2, 3)), identity_matrix(3)) == 0
    assert eval_minor(t, ((), ()), identity_matrix(3)) == 1
    assert eval_minor(t, ((1, 2, 3), (1, 2, 3)), identity_matrix(3)) == 1



def leibniz_det(tower, sub):
    """sum over permutations s of sign(s) * prod_i sub[i][s(i)]."""
    acc = 0
    for perm in itertools.permutations(range(len(sub))):
        term = 1
        for i, j in enumerate(perm):
            term = tower.mul(term, sub[i][j])
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        acc = tower.sub(acc, term) if inversions % 2 else tower.add(acc, term)
    return acc


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_eval_minor_equals_leibniz(q):
    """Every minor of random 4 x 4 matrices over F_{q^2}, sizes 0 to 4, by
    the determinant the generator rows use."""
    t = tower_for_q(q)
    rng = random.Random(q)
    Ms = [[[rng.randrange(t.qq) for _ in range(4)] for _ in range(4)] for _ in range(10)]
    E = np.array(Ms, dtype=np.uint8).transpose(1, 2, 0)
    for I, J in mn.basis(4):
        want = [leibniz_det(t, [[M[i - 1][j - 1] for j in J] for i in I]) for M in Ms]
        assert eval_minor_vector(t, E, (I, J)).tolist() == want


def test_conjugate_minor_identity_exhaustive_q2():
    for ell in (2, 3):
        t = tower_for_q(2)
        for H in matrices_at(t, ell, np.arange(2 ** (ell * ell))):
            for I, J in mn.basis(ell):
                assert eval_minor(t, (J, I), H) == t.conjugate(eval_minor(t, (I, J), H))


def test_conjugate_minor_identity_sampled_q3():
    t = tower_for_q(3)
    rng = random.Random(2)
    for H in matrices_at(t, 2, [rng.randrange(3**4) for _ in range(300)]):
        for I, J in mn.basis(2):
            assert eval_minor(t, (J, I), H) == t.conjugate(eval_minor(t, (I, J), H))


def test_eval_combination_counts():
    t = tower_for_q(2)
    space = matrices_at(t, 2, np.arange(16))
    det_plus_one = {((1, 2), (1, 2)): 1, ((), ()): 1}
    zeros = sum(1 for H in space if eval_combination(t, det_plus_one, H) == 0)
    assert zeros == 10
    assert len(space) - zeros == 6
    det = {((1, 2), (1, 2)): 1}
    weight = sum(1 for H in space if eval_combination(t, det, H) != 0)
    assert weight == 10  # zeros are exactly the 6 singular matrices
    assert all(eval_combination(t, {((), ()): 1}, H) == 1 for H in space)


def test_conjugate_combination():
    t = tower_for_q(3)
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    rng = random.Random(9)
    for _ in range(20):
        f = mn.random_combination(t, 2, rng)
        lhs = gen.encode(conjugate_combination(t, f))
        rhs = [t.conjugate(int(v)) for v in gen.encode(f)]
        assert list(lhs) == rhs
    principal = {((1,), (1,)): 1, ((), ()): 2}
    assert mn.is_self_conjugate(t, principal)
    assert conjugate_combination(t, principal) == principal


def test_support_maximality_spread_l3_example():
    # f = 1 + det_{1},{2} + det_{12},{12} + det_{12},{23}: the two 2x2 minors
    # are maximal, and f is not self-conjugate
    t = tower_for_q(2)
    f = {
        ((), ()): 1,
        ((1,), (2,)): 1,
        ((1, 2), (1, 2)): 1,
        ((1, 2), (2, 3)): 1,
    }
    assert mn.support(f) == set(f)
    assert mn.maximal_minors(f) == {((1, 2), (1, 2)), ((1, 2), (2, 3))}
    assert not mn.is_self_conjugate(t, f)
    assert mn.spread(((1, 2), (2, 3))) == 3
    assert mn.spread(((), ())) == 0
    only_const = {((), ()): 1}
    assert mn.maximal_minors(only_const) == {((), ())}


def test_maximal_minors_antichain():
    rng = random.Random(4)
    t = tower_for_q(2)
    for _ in range(50):
        f = mn.random_combination(t, 3, rng)
        maximal = mn.maximal_minors(f)
        for a in maximal:
            for b in maximal:
                if a != b:
                    assert not (set(a[0]) <= set(b[0]) and set(a[1]) <= set(b[1]))


def test_interpolate_round_trip():
    rng = random.Random(6)
    for ell, q in [(2, 2), (2, 3), (3, 2)]:
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        for _ in range(200):
            f = mn.random_combination(gen.tower, ell, rng)
            assert gen.interpolate(gen.encode(f)) == f


def test_interpolate_special_cases():
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    ones = [1] * gen.spec.n
    assert gen.interpolate(ones) == {((), ()): 1}
    for i, minor in enumerate(gen.basis):
        assert gen.interpolate(gen.rows[i]) == {minor: 1}
    bad = list(gen.rows[1])
    bad[0] = gen.tower.add(bad[0], 1)
    with pytest.raises(NotInCode):
        gen.interpolate(bad)


def test_elementary_congruence_expansion():
    # det_{I,J} evaluated at (I + lam E_{1,3})* X (I + lam E_{1,3}) expands to
    # det_{I,J}(X) - lam det_{I, J u {1} - {3}}(X) for I = {1,2}, J = {2,3}
    gen = build_generator(FAMILY_HERMITIAN, 3, 2)
    t = gen.tower
    f = {((1, 2), (2, 3)): 1}
    c = gen.encode(f)
    for lam in range(1, t.qq):
        A = np.eye(3, dtype=np.uint8)
        A[0, 2] = lam  # I + lam E_{1,3}
        perm = congruence_permutation(t, 3, A)
        transformed = gen.interpolate(c[perm])
        assert transformed == {
            ((1, 2), (2, 3)): 1,
            ((1, 2), (1, 2)): t.neg(lam),
        }
