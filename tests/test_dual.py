"""The dual distance search against the scalar pair loops it replaced, on
the desk cells, on permuted columns and on random generators."""

import random
from unittest import mock

import numpy as np
import pytest

from hermgrass import dual as du
from hermgrass.codebuild import (
    FAMILY_AFFINE,
    FAMILY_HERMITIAN,
    CodeSpec,
    GeneratorMatrix,
    build_generator,
)
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
        return du.DualDistanceCertificate(spec, t, positions, coeffs, t)

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
        assert outcome(du.dual_min_distance, gen, max_t) == outcome(oracle_dual_min_distance,
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
    cert = du.dual_min_distance(build_generator(FAMILY_HERMITIAN, 3, 2))
    assert (cert.d_dual, cert.exhausted_below) == (4, 4)
    assert cert.columns == H3Q2_COLUMNS
    assert cert.coefficients == H3Q2_COEFFICIENTS


# the pair scan in blocks ------------------------------------------------------


def code_scalars(spec, tower):
    """The code's scalars, 0 and 1 first: F_{q^2} or, affine, F_q."""
    if spec.family == FAMILY_HERMITIAN:
        return np.arange(tower.qq, dtype=np.uint8)
    return tower.subfield_np


def planted_generator(spec, triples, seed):
    """A generator of `spec`'s shape, its columns over the code's alphabet,
    whose dependencies of t <= 3 over the alphabet are the planted col_m =
    lam (col_i + a col_j), one for each (i, j, a, m, lam) of `triples`
    (i < j < m), and no others: every other column is drawn off the span
    of every two columns before it (drawing again from the start when no
    vector is left), and a planted column must lie in no span but that of
    its (i, j).  The first pair sum of such a triple that is a multiple of
    a column is col_i + a col_j = lam^-1 col_m."""
    tower = tower_for_q(spec.q)
    k, scalars = spec.k, code_scalars(spec, tower)
    digit = np.zeros(tower.qq, dtype=int)  # an alphabet entry's place among the scalars
    digit[scalars] = np.arange(len(scalars))
    rng = np.random.default_rng(seed)
    place = len(scalars) ** np.arange(k)
    planted = {m: (i, j, a, lam) for i, j, a, m, lam in triples}
    while True:
        spans = np.zeros(len(scalars) ** k, dtype=int)  # ways to be a multiple or in a span
        spans[0] = 1
        cols = []
        for c in range(spec.n):
            if c in planted:
                i, j, a, lam = planted[c]
                v = tower.mul_np[lam, tower.add_np[cols[i], tower.mul_np[a, cols[j]]]]
                if spans[digit[v] @ place] != 1:
                    break
            else:
                if spans.all():
                    break
                v = scalars[rng.integers(0, len(scalars), size=k, dtype=np.uint8)]
                while spans[digit[v] @ place]:
                    v = scalars[rng.integers(0, len(scalars), size=k, dtype=np.uint8)]
            multiples = tower.mul_np[scalars[1:, None], v]
            spans[digit[multiples] @ place] += 1
            for w in cols:
                sums = tower.add_np[multiples[:, None], tower.mul_np[scalars[1:, None], w][None]]
                np.add.at(spans, digit[sums.reshape(-1, k)] @ place, 1)
            cols.append(v)
        else:
            return GeneratorMatrix(spec, tower, np.ascontiguousarray(np.stack(cols, axis=1)))


def planted_at_block_edges(spec, table_bytes):
    """Planted generators whose first t = 3 sum is the first sum of a block,
    (i0, i0 + 1, 1), or the last sum of a block that can be one: a first
    sum col_i + a col_j with col_m in its span has j < m <= n - 1, so that
    is (min(i1 - 1, n - 3), n - 2, the last scalar).  In a block of three
    or more rows, also the first and the last pair within its rows,
    (i0 + 1, i0 + 2, 1) and (i1 - 2, i1 - 1, the last scalar), where the
    scan's rectangle blanks the pairs j <= i before them; each comes with
    a decoy at the next pair, col_i + col_(j+1) = col_(n-2), where there is
    room for one, so that a scan which also blanked (i, j) would return
    the decoy, not the same word found later at (i, n - 1)."""
    n, r = spec.n, spec.alphabet - 1
    last = int(code_scalars(spec, tower_for_q(spec.q))[-1])
    with mock.patch.object(du, "TABLE_BYTES", table_bytes):
        blocks = list(du._pair_blocks(n, r))
    for b in sorted({0, 1, 2, len(blocks) // 2, len(blocks) - 2, len(blocks) - 1}):
        i0, i1 = blocks[b]
        edges = [(i0, i0 + 1, 1), (min(i1 - 1, n - 3), n - 2, last)]
        inner = [(i0 + 1, i0 + 2, 1), (i1 - 2, i1 - 1, last)] if i1 - i0 >= 3 else []
        for i, j, a in dict.fromkeys(edges + inner):
            if j < n - 1:
                triples = [(i, j, a, n - 1, 1)]
                if (i, j, a) in inner and j + 1 < n - 2:
                    triples.append((i, j + 1, 1, n - 2, 1))
                yield (i, j, n - 1), planted_generator(spec, triples, seed=b)


def test_pair_blocks_are_bounded_by_the_scan_modules_table_bytes():
    """`_pair_blocks` reads the bound through `dual.TABLE_BYTES`, so patching
    that name sizes the scan's blocks: one row each at 0, and doubling up
    to TABLE_BYTES // (n r) = 4 rows at 192 for 16 columns and 3 scalars."""
    with mock.patch.object(du, "TABLE_BYTES", 0):
        assert list(du._pair_blocks(16, 3)) == [(i, i + 1) for i in range(15)]
    with mock.patch.object(du, "TABLE_BYTES", 192):
        assert list(du._pair_blocks(16, 3)) == [(0, 1), (1, 3), (3, 7), (7, 11), (11, 15)]

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
    with mock.patch.object(du, "TABLE_BYTES", table_bytes):
        for gen in gens:
            assert_matches_oracle(gen)
            cert = outcome(du.dual_min_distance, gen, 4)
            if isinstance(cert, dict) and cert["d_dual"] == 4:
                # the earlier sum's row is the first column, and the
                # later sum's row is the second column or after it
                blocks = list(du._pair_blocks(gen.spec.n, len(gen.scalars) - 1))
                first, second = sorted(cert["columns"])[:2]
                partners.add(block_of(first, blocks) < block_of(second, blocks))
    assert True in partners


@pytest.mark.parametrize("family,q,table_bytes", [
    (FAMILY_HERMITIAN, 2, 100), (FAMILY_HERMITIAN, 3, 2000),
    (FAMILY_HERMITIAN, 2, 300), (FAMILY_AFFINE, 2, 100)],
    ids=["2-100", "3-2000", "2-300", "affine-2-100"])
def test_dual_search_finds_the_planted_word_at_block_edges(family, q, table_bytes):
    """A t = 3 word planted at the first and at the last sum of blocks of
    up to two (H2q2 at 100), three (H2q3) and six rows (H2q2 at 300, and
    the affine A2q2, F_2 columns), the last two blocks included, and
    within the rows of the blocks of three or more, is the certificate, as
    the oracle finds it."""
    spec = CodeSpec(family, q, 2)
    planted = list(planted_at_block_edges(spec, table_bytes))
    assert len(planted) >= 10
    with mock.patch.object(du, "TABLE_BYTES", table_bytes):
        for columns, gen in planted:
            cert = du.dual_min_distance(gen)
            assert (cert.d_dual, cert.columns) == (3, columns)
            assert_matches_oracle(gen)


@pytest.mark.parametrize("q,k", [(2, 6), (3, 20), (4, 20), (8, 70), (9, 70)])
def test_packed_keys_are_exact(q, k):
    """Keys of packed vectors, however many words wide (k = 70 at q^2 = 81
    takes fourteen), are equal exactly when the vectors are, and the keys of
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
    pack, key = du._packer(tower, k)
    raw = key(pack(vecs))
    normal = key(pack(du._normal_forms(tower, vecs)[0]))
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
        cert = du.dual_min_distance(gen, max_t=3)
        assert (cert.columns, cert.coefficients) == ((0, 1, n - 1), (1, 1, tower.neg(lam)))
        assert_matches_oracle(gen)


def distinct_keys(q, k, count):
    """Keys of `count` distinct random vectors of length k over F_{q^2},
    uint64 at (2, 6) and a raw byte string of several words at (9, 70)."""
    tower = tower_for_q(q)
    pack, key = du._packer(tower, k)
    vecs = np.random.default_rng(q).integers(0, tower.qq, size=(count, k), dtype=np.uint8)
    vecs = np.unique(vecs, axis=0)
    assert len(vecs) == count
    keys = key(pack(vecs))
    assert (keys.dtype == np.uint64) == (q == 2)
    return keys


@pytest.mark.parametrize("q,k", [(2, 6), (9, 70)])
def test_first_member_is_the_first_in_array_order(q, k):
    """`_first_member` returns the first member in array order, with its
    place among the sorted members, wherever it lies, and None without
    one."""
    keys = distinct_keys(q, k, 40)
    members, others = np.sort(keys[:10]), keys[10:]
    assert du._first_member(others, members) is None
    cases = {7: [(7, 3), (12, 0), (20, 3)], 0: [(0, 5), (29, 6)], 29: [(29, 9)]}
    for first, planted in cases.items():
        probe = others.copy()
        for at, member in planted:
            probe[at] = keys[member]
        s, i = du._first_member(probe, members)
        assert s == first and members[i] == probe[s]


@pytest.mark.parametrize("q,k", [(2, 6), (9, 70)])
def test_first_repeat_names_the_first_repeat_and_its_partner(q, k):
    """`_first_repeat` returns the first key that occurred before, inside
    the batch or among `seen`, at its position with its first position;
    when nothing repeats, the keys are merged into `seen` in order, each
    beside its first position."""
    keys = distinct_keys(q, k, 6)
    seen = np.sort(keys[4:])  # keys[4] first at 2, keys[5] at 5
    seen_at = np.where(seen == keys[4], 2, 5)
    at = np.arange(10, 15)
    nothing = keys[:0], np.arange(0)
    assert du._first_repeat(keys[[0, 1, 2, 1, 0]], at, *nothing)[0] == (13, 11)
    assert du._first_repeat(keys[[2, 5, 2, 4, 3]], at, seen, seen_at)[0] == (11, 5)
    assert du._first_repeat(keys[[2, 2, 5, 3, 0]], at, seen, seen_at)[0] == (11, 10)
    repeat, merged, merged_at = du._first_repeat(keys[[2, 0, 3]], at[:3], seen, seen_at)
    assert repeat is None
    first_at = {0: 11, 2: 10, 3: 12, 4: 2, 5: 5}
    assert (merged == np.sort(keys[list(first_at)])).all()
    assert merged_at.tolist() == [first_at[int(np.flatnonzero(keys == m)[0])] for m in merged]
