"""The dual distance search against the scalar pair loops it replaced, on
the desk cells, on permuted columns and on random generators."""

import random
from unittest import mock

import numpy as np
import pytest

from hermgrass import analysis as an
from hermgrass.codebuild import FAMILY_HERMITIAN, CodeSpec, GeneratorMatrix, build_generator
from hermgrass.errors import NoneFoundWithinBound
from hermgrass.galois import tower_for_q

CELLS = [(FAMILY_HERMITIAN, 2, q) for q in (2, 3, 4, 5)] + [("affine", 2, q) for q in (2, 3, 4)]

# the certificate of the scalar search at (ell, q) = (3, 2), where it takes seconds
H3Q2_COLUMNS = (0, 1, 8, 9)
H3Q2_COEFFICIENTS = (1, 1, 1, 1)


def oracle_dual_min_distance(gen, max_t=4):
    """The scalar search: t = 1..4 by separate pure-Python loops over
    tuple columns, normalizing each vector by its first nonzero entry."""
    tower = gen.tower
    spec = gen.spec
    n, k = spec.n, spec.k
    if spec.family == FAMILY_HERMITIAN:
        nonzero = [s for s in range(1, tower.qq)]
    else:
        nonzero = [s for s in tower.subfield if s]
    add, mul, neg, inv = tower.add, tower.mul, tower.neg, tower.inv
    cols = [tuple(int(gen.rows[r, c]) for r in range(k)) for c in range(n)]

    def finish(t, positions, coeffs):
        assert len(set(positions)) == t
        order = sorted(range(t), key=lambda i: positions[i])
        positions = tuple(positions[i] for i in order)
        coeffs = tuple(coeffs[i] for i in order)
        scale = inv(coeffs[0])
        coeffs = tuple(mul(scale, c) for c in coeffs)
        return an.DualDistanceCertificate(spec, t, positions, coeffs, t)

    for i, col in enumerate(cols):
        if not any(col):
            return finish(1, (i,), (1,))
    if max_t == 1:
        raise NoneFoundWithinBound(1)

    def normalize(vec):
        lead = next(v for v in vec if v)
        if lead == 1:
            return bytes(vec), 1
        lut = tower.mul_np[inv(lead)]
        return bytes(int(lut[v]) for v in vec), lead

    seen = {}
    for i, col in enumerate(cols):
        key, lead = normalize(col)
        if key in seen:
            j, lead_j = seen[key]
            return finish(2, (j, i), (inv(lead_j), neg(inv(lead))))
        seen[key] = (i, lead)
    if max_t == 2:
        raise NoneFoundWithinBound(2)

    scaled = [{a: [mul(a, v) for v in col] for a in nonzero} for col in cols]
    for i in range(n):
        for j in range(i + 1, n):
            for a in nonzero:
                vec = [add(x, y) for x, y in zip(cols[i], scaled[j][a])]
                key, lead = normalize(vec)
                hit = seen.get(key)
                if hit is not None:
                    m, lead_m = hit
                    return finish(3, (i, j, m), (1, a, neg(mul(lead, inv(lead_m)))))
    if max_t == 3:
        raise NoneFoundWithinBound(3)

    pair_seen = {}
    for i in range(n):
        for j in range(i + 1, n):
            for a in nonzero:
                vec = [add(x, y) for x, y in zip(cols[i], scaled[j][a])]
                key, lead = normalize(vec)
                hit = pair_seen.get(key)
                if hit is not None:
                    i2, j2, a2, lead2 = hit
                    inv1, inv2 = inv(lead), inv(lead2)
                    coeffs = (mul(inv2, 1), mul(inv2, a2), neg(inv1), neg(mul(inv1, a)))
                    return finish(4, (i2, j2, i, j), coeffs)
                pair_seen[key] = (i, j, a, lead)
    raise NoneFoundWithinBound(max_t)


def outcome(search, gen, max_t):
    try:
        return search(gen, max_t=max_t).as_dict()
    except NoneFoundWithinBound as exc:
        return ("none", exc.max_t)


def assert_matches_oracle(gen):
    for max_t in (1, 2, 3, 4):
        assert outcome(an.dual_min_distance, gen, max_t) == outcome(oracle_dual_min_distance,
                                                                     gen, max_t), max_t


@pytest.mark.parametrize("family,ell,q", CELLS)
def test_dual_search_matches_oracle(family, ell, q):
    assert_matches_oracle(build_generator(family, ell, q))


def permuted_generators():
    rng = np.random.default_rng(2024)
    for index in range(21):
        gen = build_generator(*CELLS[index % len(CELLS)])
        yield GeneratorMatrix(gen.spec, gen.tower, gen.rows[:, rng.permutation(gen.spec.n)])


def random_generators():
    """Full-rank rows with random columns.  Unlike the columns of a code
    transitive on its positions, where the first column already lies in a
    t = 3 word, these put pair collisions (t = 4) before the first t = 3 hit."""
    rng = random.Random(11)
    for family, ell, q in CELLS:
        spec = CodeSpec(family, q, ell)
        if spec.n > 81:
            continue
        tower = tower_for_q(q)
        alphabet = range(tower.qq) if family == FAMILY_HERMITIAN else tower.subfield
        for _ in range(3):
            rows = np.array([[rng.choice(alphabet) for _ in range(spec.n)] for _ in range(spec.k)],
                            dtype=np.uint8)
            yield GeneratorMatrix(spec, tower, rows)


def test_dual_search_matches_oracle_on_permuted_columns():
    for gen in permuted_generators():
        assert_matches_oracle(gen)


def test_dual_search_matches_oracle_on_random_generators():
    for gen in random_generators():
        assert_matches_oracle(gen)


def test_dual_search_pinned_l3_q2():
    cert = an.dual_min_distance(build_generator(FAMILY_HERMITIAN, 3, 2))
    assert (cert.d_dual, cert.exhausted_below) == (4, 4)
    assert cert.columns == H3Q2_COLUMNS
    assert cert.coefficients == H3Q2_COEFFICIENTS


# the pair scan in blocks ------------------------------------------------------


def planted_generator(spec, triples, seed):
    """A generator of `spec`'s shape whose dependencies of t <= 3 are the
    planted col_m = lam (col_i + a col_j), one for each (i, j, a, m, lam)
    of `triples` (i < j < m), and no others: every other column is drawn
    off the span of every two columns before it, and a planted column
    must lie in no span but that of its (i, j).  The first pair sum of
    such a triple that is a multiple of a column is col_i + a col_j
    = lam^-1 col_m."""
    tower = tower_for_q(spec.q)
    k, qq = spec.k, tower.qq
    rng = np.random.default_rng(seed)
    scalars = np.arange(1, qq)
    place = qq ** np.arange(k)
    planted = {m: (i, j, a, lam) for i, j, a, m, lam in triples}
    while True:
        spans = np.zeros(qq**k, dtype=int)  # ways to be a multiple or in a span
        spans[0] = 1
        cols = []
        for c in range(spec.n):
            if c in planted:
                i, j, a, lam = planted[c]
                v = tower.mul_np[lam, tower.add_np[cols[i], tower.mul_np[a, cols[j]]]]
                if spans[v @ place] != 1:
                    break
            else:
                v = rng.integers(0, qq, size=k, dtype=np.uint8)
                while spans[v @ place]:
                    v = rng.integers(0, qq, size=k, dtype=np.uint8)
            multiples = tower.mul_np[scalars[:, None], v]
            spans[multiples @ place] += 1
            for w in cols:
                sums = tower.add_np[multiples[:, None], tower.mul_np[scalars[:, None], w][None]]
                np.add.at(spans, sums.reshape(-1, k) @ place, 1)
            cols.append(v)
        else:
            return GeneratorMatrix(spec, tower, np.ascontiguousarray(np.stack(cols, axis=1)))


def planted_at_block_edges(spec, table_bytes):
    """Planted generators whose first t = 3 sum is the first sum of a block,
    (i0, i0 + 1, 1), or the last sum of a block that can be one: a first
    sum col_i + a col_j with col_m in its span has j < m <= n - 1, so that
    is (min(i1 - 1, n - 3), n - 2, the last scalar)."""
    n, r = spec.n, spec.alphabet - 1
    with mock.patch.object(an, "TABLE_BYTES", table_bytes):
        blocks = list(an._pair_blocks(n, r))
    for b in sorted({0, 1, 2, len(blocks) // 2, len(blocks) - 2, len(blocks) - 1}):
        i0, i1 = blocks[b]
        targets = [(i0, i0 + 1, 1), (min(i1 - 1, n - 3), n - 2, r)]
        for i, j, a in targets:
            if j < n - 1:
                yield (i, j, n - 1), planted_generator(spec, [(i, j, a, n - 1, 1)], seed=b)


def block_of(row, blocks):
    return next(b for b, (i0, i1) in enumerate(blocks) if i0 <= row < i1)


@pytest.mark.parametrize("table_bytes", [0, 1000])
def test_dual_search_matches_oracle_across_blocks(table_bytes):
    """Under a small TABLE_BYTES the scan spans many blocks (one row each
    at 0; at 1000, up to 20 rows at H2q2 and one at q >= 3): the desk
    cells, their permuted and random generators, in both families, at
    p = 2 and odd p, give the oracle's certificates for max_t 1..4.  Some
    t = 4 words pair a sum with one from an earlier block."""
    gens = [build_generator(*cell) for cell in CELLS]
    gens += list(permuted_generators()) + list(random_generators())
    partners = set()
    with mock.patch.object(an, "TABLE_BYTES", table_bytes):
        for gen in gens:
            assert_matches_oracle(gen)
            cert = outcome(an.dual_min_distance, gen, 4)
            if isinstance(cert, dict) and cert["d_dual"] == 4:
                # the earlier sum's row is the first column, and the
                # later sum's row is the second column or after it
                blocks = list(an._pair_blocks(gen.spec.n, len(gen.scalars) - 1))
                first, second = sorted(cert["columns"])[:2]
                partners.add(block_of(first, blocks) < block_of(second, blocks))
    assert True in partners


@pytest.mark.parametrize("q,table_bytes", [(2, 100), (3, 2000)])
def test_dual_search_finds_the_planted_word_at_block_edges(q, table_bytes):
    """A t = 3 word planted at the first and at the last sum of blocks of
    up to two (H2q2) and three (H2q3) rows, the last two blocks included,
    is the certificate, as the oracle finds it."""
    spec = CodeSpec(FAMILY_HERMITIAN, q, 2)
    planted = list(planted_at_block_edges(spec, table_bytes))
    assert len(planted) >= 10
    with mock.patch.object(an, "TABLE_BYTES", table_bytes):
        for columns, gen in planted:
            cert = an.dual_min_distance(gen)
            assert (cert.d_dual, cert.columns) == (3, columns)
            assert_matches_oracle(gen)


@pytest.mark.parametrize("q,k", [(2, 6), (3, 20), (4, 20), (8, 70), (9, 70)])
def test_packed_keys_are_exact(q, k):
    """Keys of packed vectors, however many words wide (k = 70 at q^2 = 81
    takes eight), are equal exactly when the vectors are, and the keys of
    their normal forms exactly when the vectors are proportional; in
    characteristic 2 the words of a sum are the XOR of the words."""
    tower = tower_for_q(q)
    rng = np.random.default_rng(q * k)
    base = rng.integers(0, tower.qq, size=(30, k), dtype=np.uint8)
    base[:, 0] = np.maximum(base[:, 0], 1)  # nonzero rows
    base[3, 1:] = 0
    lams = rng.integers(1, tower.qq, size=(10, 1))
    vecs = np.concatenate([base, base[:10], tower.mul_np[lams, base[10:20]], base[20:30, ::-1]])
    vecs = vecs[rng.permutation(len(vecs))]
    pack, key = an._packer(tower, k)
    raw = key(pack(vecs))
    normal = key(pack(an._normal_forms(tower, vecs)[0]))
    equal = (vecs[:, None] == vecs[None]).all(axis=-1)
    proportional = np.zeros_like(equal)
    for lam in range(1, tower.qq):
        proportional |= (tower.mul_np[lam, vecs][:, None] == vecs[None]).all(axis=-1)
    assert ((raw[:, None] == raw[None]) == equal).all()
    assert ((normal[:, None] == normal[None]) == proportional).all()
    assert len(np.unique(raw)) == len(np.unique(vecs, axis=0))
    assert equal.sum() > len(vecs) and proportional.sum() > equal.sum()
    if tower.p == 2:
        other = vecs[rng.permutation(len(vecs))]
        assert (key(pack(vecs) ^ pack(other)) == key(pack(tower.add_np[vecs, other]))).all()


@pytest.mark.parametrize("q", [2, 3])
def test_dual_search_tests_every_multiple(q):
    """For each nonzero lam, the first t = 3 sum is col_0 + col_1 = lam
    col_(n-1), and a second planted word is hit next, at col_0 + col_2: a
    scan that missed the multiples of one lam would return that one."""
    spec = CodeSpec(FAMILY_HERMITIAN, q, 2)
    tower = tower_for_q(q)
    n = spec.n
    for lam in range(1, tower.qq):
        gen = planted_generator(spec, [(0, 1, 1, n - 1, tower.inv(lam)), (0, 2, 1, 3, 1)], seed=lam)
        cert = an.dual_min_distance(gen, max_t=3)
        assert (cert.columns, cert.coefficients) == ((0, 1, n - 1), (1, 1, tower.neg(lam)))
        assert_matches_oracle(gen)
