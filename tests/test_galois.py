import hashlib

import numpy as np
import pytest

from hermgrass.galois import MODULI, SUPPORTED_Q, FieldTower, make_field, tower_for_q

ALL_TOWERS = [make_field(p, e) for (p, e) in SUPPORTED_Q.values()]


# Independent oracle: schoolbook polynomial arithmetic on the little-endian
# base-p encodings, reducing by the (monic) modulus.  Used to cross-check the
# exp/log tables without going through them.
def poly_mul_mod(a_idx, b_idx, p, modulus):
    deg = len(modulus) - 1

    def digits(idx):
        out = []
        for _ in range(deg):
            out.append(idx % p)
            idx //= p
        return out

    a, b = digits(a_idx), digits(b_idx)
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(len(prod) - 1, deg - 1, -1):
        lead = prod[k]
        if lead:
            for i in range(len(modulus)):
                prod[k - (deg - i)] = (prod[k - (deg - i)] - lead * modulus[i]) % p
        prod[k] = 0
    out = 0
    for d in reversed(prod[:deg]):
        out = out * p + d
    return out


def test_make_field_sizes():
    t = make_field(2, 1)
    assert t.qq == 4 and len(t.subfield) == 2
    t = make_field(3, 1)
    assert t.qq == 9 and len(t.subfield) == 3
    # (2,2): count the fixed points of x -> x^4 by a table scan
    t = make_field(2, 2)
    assert t.qq == 16
    fixed = 0
    for x in range(16):
        x4 = t.mul(t.mul(x, x), t.mul(x, x))
        if x4 == x:
            fixed += 1
    assert fixed == 4 == len(t.subfield)


def test_identity_indices():
    for t in ALL_TOWERS:
        for x in range(t.qq):
            assert t.add(x, 0) == x
            assert t.mul(x, 1) == x
            assert t.mul(x, 0) == 0


def test_mul_matches_polynomial_oracle():
    # every product in every tower equals schoolbook poly multiplication
    for t in ALL_TOWERS:
        m = MODULI[(t.p, t.e)]
        for a in range(t.qq):
            for b in range(t.qq):
                assert t.mul(a, b) == poly_mul_mod(a, b, t.p, m)


def test_mul_alpha_f4():
    # alpha = x (index 2) in F_4 with modulus x^2+x+1: alpha^2 = alpha + 1
    t = make_field(2, 1)
    assert t.mul(2, 2) == poly_mul_mod(2, 2, 2, MODULI[(2, 1)]) == 3


def test_field_axioms_exhaustive():
    # associativity, commutativity, distributivity over all triples, every tower
    for t in ALL_TOWERS:
        n = t.qq
        a = np.arange(n).reshape(n, 1, 1)
        b = np.arange(n).reshape(1, n, 1)
        c = np.arange(n).reshape(1, 1, n)
        add, mul = t.add_np, t.mul_np
        assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
        assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
        assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
        aa = np.arange(n)
        assert np.array_equal(add[aa, t.neg_np[aa]], np.zeros(n, dtype=np.uint8))
        assert np.array_equal(add.T, add)
        assert np.array_equal(mul.T, mul)


def test_inverse_axiom():
    for t in ALL_TOWERS:
        for x in range(1, t.qq):
            assert t.mul(x, t.inv(x)) == 1
        with pytest.raises(ZeroDivisionError):
            t.inv(0)


def test_char2_doubling():
    for t in ALL_TOWERS:
        if t.p != 2:
            continue
        for x in range(t.qq):
            assert t.add(x, x) == 0


def test_conjugate_is_involution_fixing_subfield():
    for t in ALL_TOWERS:
        for x in range(t.qq):
            assert t.conjugate(t.conjugate(x)) == x
            assert (t.conjugate(x) == x) == t.in_base_subfield(x)
        # out-of-range indices are outside F_q, not wrapped around
        assert not t.in_base_subfield(-1)
        assert not t.in_base_subfield(t.qq)
    # F_4: conjugate(alpha) = alpha^2 = alpha + 1, computed via the mul table
    t = make_field(2, 1)
    assert t.conjugate(2) == t.mul(2, 2) == 3


def test_conjugate_is_automorphism():
    for t in ALL_TOWERS:
        for a in range(t.qq):
            for b in range(t.qq):
                assert t.conjugate(t.add(a, b)) == t.add(t.conjugate(a), t.conjugate(b))
                assert t.conjugate(t.mul(a, b)) == t.mul(t.conjugate(a), t.conjugate(b))


def test_trace_norm_values():
    t = make_field(2, 1)
    alpha = 2
    assert t.trace(alpha) == t.add(alpha, t.mul(alpha, alpha)) == 1
    assert t.norm(alpha) == t.mul(alpha, t.mul(alpha, alpha)) == 1
    for tower in ALL_TOWERS:
        for x in tower.subfield:
            # trace of a subfield element is 2x
            assert tower.trace(x) == tower.add(x, x)


def test_trace_norm_structure():
    for t in ALL_TOWERS:
        traces = [t.trace(x) for x in range(t.qq)]
        norms = [t.norm(x) for x in range(t.qq)]
        assert all(t.in_base_subfield(v) for v in traces)
        assert all(t.in_base_subfield(v) for v in norms)
        # trace is F_q-linear and surjective with fibers of size q
        for c in t.subfield:
            assert traces.count(c) == t.q
        # norm is multiplicative; each nonzero value has q+1 preimages
        for c in t.subfield:
            if c != 0:
                assert norms.count(c) == t.q + 1
        for a in range(t.qq):
            for b in range(t.qq):
                assert t.norm(t.mul(a, b)) == t.mul(t.norm(a), t.norm(b))


def test_norm_fibers_q3():
    t = make_field(3, 1)
    for c in (1, 2):
        assert sum(1 for x in range(9) if t.norm(x) == c) == 4


def test_construction_errors():
    with pytest.raises(ValueError, match="no modulus available"):
        FieldTower(4, 1)
    with pytest.raises(ValueError, match="no modulus available"):
        FieldTower(2, 7)
    with pytest.raises(ValueError, match="modulus"):
        FieldTower(11, 1)
    with pytest.raises(ValueError, match="unsupported"):
        tower_for_q(6)


def test_subfield_is_sorted_and_closed():
    for t in ALL_TOWERS:
        assert list(t.subfield) == sorted(t.subfield)
        for a in t.subfield:
            for b in t.subfield:
                assert t.in_base_subfield(t.add(a, b))
                assert t.in_base_subfield(t.mul(a, b))
            assert t.subfield[t.subfield_digit_np[a]] == a


# sha256 over the bytes of add_np, mul_np, neg_np, inv_np, conj_np and
# subfield_digit_np, in that order, recorded from the scalar polynomial
# construction the array arithmetic replaced.  The indices are the file
# encoding, so every table is normative.
TABLE_DIGESTS = {
    2: "986126dbd200bb8d86a43fd68671c7b445663f154466a1874135e19472de279c",
    3: "af63f78894e2445aa59c112f47fbe1d7582d60978df33908c036a3bb0c4d06a2",
    4: "c50f458e8c0c0c7df4f18805592b2d4996b6e06c22a5a3b500ad056d55bcec12",
    5: "c69c9924cabb0c75383600f613b0aa5c580da73b990c5bd1f7bc04c5d10fd511",
    7: "99c53ec2f7e3d7b52280174f61eab67a06b1afa18ed86312302e6c53ad41647b",
    8: "9f018df59846936a6fe7fa5f4f1050a62af698dcb2928d0cb8b39c83ff74f534",
    9: "49a4d8ba9cb8dcdef26217e81eef6c19643f330e074f0e2cb8dc4bbf4b72c784",
}


@pytest.mark.parametrize("q", sorted(TABLE_DIGESTS))
def test_tables_are_pinned(q):
    t = tower_for_q(q)
    digest = hashlib.sha256()
    for table in (t.add_np, t.mul_np, t.neg_np, t.inv_np, t.conj_np, t.subfield_digit_np):
        digest.update(table.tobytes())
    assert digest.hexdigest() == TABLE_DIGESTS[q]


@pytest.mark.parametrize("tower", ALL_TOWERS, ids=repr)
def test_array_kernels_match_the_tables_exhaustively(tower):
    """adds and muls read the 2-D tables at every pair of elements."""
    a = np.arange(tower.qq, dtype=np.uint8)
    for kernel, table in ((tower.adds, tower.add_np), (tower.muls, tower.mul_np)):
        got = kernel(a[:, None], a)
        assert got.dtype == np.uint8 and np.array_equal(got, table)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_array_kernels_broadcast_like_indexing(dtype):
    """A scalar against an array, (n, 1, 1) against (1, n, 1), either dtype,
    and empty arrays give the shapes and values of 2-D indexing."""
    tower = tower_for_q(9)
    rng = np.random.default_rng(5)
    n = 7
    x, y = rng.integers(0, tower.qq, (2, n)).astype(dtype).reshape(2, n, 1, 1)
    y = y.reshape(1, n, 1)
    cases = [(3, x), (x, 80), (x, y), (x[:0], y), (x[:, :, :0], y[0])]
    for kernel, table in ((tower.adds, tower.add_np), (tower.muls, tower.mul_np)):
        for a, b in cases:
            want = table[a, b]
            got = kernel(a, b)
            assert got.shape == want.shape and np.array_equal(got, want)
        assert kernel(5, 7) == table[5, 7]
