"""The position codec against a scalar reference decoder and the per-digit
vector codec it replaced, permutation oracles, codec properties, and the
fail-closed bijectivity check."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgrass.codebuild import (
    congruence_permutation,
    position_entries,
    translate_permutation,
    transpose_permutation,
)
from hermgrass.galois import SUPPORTED_Q, tower_for_q
from hermgrass.hermitian import (
    BUILD_LIMIT,
    FAMILY_AFFINE,
    FAMILY_HERMITIAN,
    GROUP_SIZE,
    _digit_group,
    _digit_groups,
    _entry_digits,
    decode,
    encode,
    position_digits,
    product,
    translate,
    upper_pairs,
)
from hermgrass.linalg import rank
from test_hermitian import congruence

FAMILIES = (FAMILY_HERMITIAN, FAMILY_AFFINE)
ORACLE_CELLS = [(ell, q) for ell in (1, 2, 3, 4) for q in sorted(SUPPORTED_Q)
                if q ** (ell * ell) <= 10**5]
PERMUTATION_CELLS = [(2, 2), (2, 3), (3, 2), (3, 3)]


# scalar reference decoder -------------------------------------------------------


def oracle_index_to_matrix(tower, ell, family, t):
    """Position t to a matrix by plain mixed-radix arithmetic, one digit at a time."""
    q, qq = tower.q, tower.qq
    entries = [[0] * ell for _ in range(ell)]
    if family == FAMILY_HERMITIAN:
        for i in range(ell):
            entries[i][i] = tower.subfield[t % q]
            t //= q
        for (i, j) in upper_pairs(ell):
            v = t % qq
            t //= qq
            entries[i][j] = v
            entries[j][i] = tower.conjugate(v)
    else:
        for i in range(ell):
            for j in range(ell):
                entries[i][j] = tower.subfield[t % q]
                t //= q
    return tuple(tuple(row) for row in entries)


def oracle_matrix_to_index(tower, ell, family, M):
    q, qq = tower.q, tower.qq
    t = 0
    if family == FAMILY_HERMITIAN:
        for (i, j) in reversed(upper_pairs(ell)):
            t = t * qq + M[i][j]
        for i in reversed(range(ell)):
            t = t * q + tower.subfield.index(M[i][i])
    else:
        for i in reversed(range(ell)):
            for j in reversed(range(ell)):
                t = t * q + tower.subfield.index(M[i][j])
    return t


def _oracle_sum(tower, values):
    acc = 0
    for v in values:
        acc = tower.add(acc, v)
    return acc


def oracle_mat_mul(tower, A, B):
    return tuple(
        tuple(_oracle_sum(tower, (tower.mul(A[i][s], B[s][j]) for s in range(len(B))))
              for j in range(len(B[0])))
        for i in range(len(A))
    )


def oracle_permutation(tower, ell, image):
    n = tower.q ** (ell * ell)
    return np.array([
        oracle_matrix_to_index(tower, ell, FAMILY_HERMITIAN,
                               image(oracle_index_to_matrix(tower, ell, FAMILY_HERMITIAN, t)))
        for t in range(n)
    ], dtype=np.int64)


# per-digit vector oracle ---------------------------------------------------------


def oracle_decode(tower, ell, family, t):
    """The matrices at positions t, one division and one gather per digit."""
    t = np.asarray(t, dtype=np.int64)
    E = [[None] * ell for _ in range(ell)]
    for (i, j), in_subfield in position_digits(ell, family):
        radix = tower.q if in_subfield else tower.qq
        high = t // radix
        d, t = t - high * radix, high
        if in_subfield:
            E[i][j] = tower.subfield_np[d]
        else:
            E[i][j], E[j][i] = d.astype(np.uint8), tower.conj_np[d]
    return np.array(E)


def oracle_encode(tower, ell, family, entries):
    """Positions of the matrices `entries`, one check per digit: the first
    bad digit in position order names its entry."""
    E = np.asarray(entries)
    if E.shape[:2] != (ell, ell):
        raise ValueError(f"expected {ell} x {ell} entries, got shape {E.shape[:2]}")
    if E.size and (E.min() < 0 or E.max() >= tower.qq):
        raise ValueError(f"entry outside F_{tower.qq}")
    t = np.zeros(E.shape[2:], dtype=np.int64)
    weight = 1
    for (i, j), in_subfield in position_digits(ell, family):
        e = E[i, j].astype(np.intp)
        if in_subfield:
            d, radix = tower.subfield_digit_np[e], tower.q
            if (d < 0).any():
                raise ValueError(f"entry ({i}, {j}) outside F_{tower.q}")
        else:
            d, radix = e, tower.qq
            if (E[j, i] != tower.conj_np[d]).any():
                raise ValueError(f"entry ({j}, {i}) is not the conjugate of entry ({i}, {j})")
        t += d * weight
        weight *= radix
    return t


def group_carries(tower, ell, family):
    """Every position on either side of a carry into the next digit group."""
    total, weight, positions = tower.q ** (ell * ell), 1, []
    for size, *_ in _digit_groups(tower, ell, family)[:-1]:
        weight *= size
        carries = np.arange(weight, total, weight)
        positions += [carries - 1, carries]
    return np.concatenate(positions)


def encode_error(encoder, tower, ell, family, E):
    with pytest.raises(ValueError) as exc:
        encoder(tower, ell, family, E)
    return str(exc.value)


@pytest.mark.parametrize("family", FAMILIES)
def test_codec_matches_digit_oracle_exhaustively(family):
    """Every position of the 3 x 3 spaces at q = 4, 262,144 each."""
    tower = tower_for_q(4)
    t = np.arange(4 ** 9)
    E = decode(tower, 3, family, t)
    assert E.dtype == np.uint8 and np.array_equal(E, oracle_decode(tower, 3, family, t))
    assert np.array_equal(encode(tower, 3, family, E), t)


@pytest.mark.parametrize("family", FAMILIES)
def test_codec_matches_digit_oracle_at_group_carries(family):
    """At q = 5, ell = 3: random positions, the ends of the space and both
    sides of every carry from one digit group into the next."""
    tower = tower_for_q(5)
    total = 5 ** 9
    carries = group_carries(tower, 3, family)
    (low, *_), _ = _digit_groups(tower, 3, family)
    assert len(carries) == 2 * (total // low - 1)
    rng = np.random.default_rng(5)
    t = np.concatenate([[0, total - 1], carries, rng.integers(0, total, 20000)])
    E = decode(tower, 3, family, t)
    assert np.array_equal(E, oracle_decode(tower, 3, family, t))
    assert np.array_equal(encode(tower, 3, family, E), t)
    assert np.array_equal(oracle_encode(tower, 3, family, E), t)


@pytest.mark.parametrize("family", FAMILIES)
def test_single_positions_at_ell_4_match_digit_oracle(family):
    """One position at a time at ell = 4 for every q, past BUILD_LIMIT up to
    9^16: random positions, the last one and the carries into the top group."""
    rng = random.Random(4)
    for q in sorted(SUPPORTED_Q):
        tower = tower_for_q(q)
        total = q ** 16
        top = total // _digit_groups(tower, 4, family)[-1][0]
        for t in [total - 1, top - 1, top] + [rng.randrange(total) for _ in range(40)]:
            M = decode(tower, 4, family, t)
            assert M.shape == (4, 4) and np.array_equal(M, oracle_decode(tower, 4, family, t)), (q, t)
            back = encode(tower, 4, family, M)
            assert np.ndim(back) == 0 and back == t, (q, t)


def test_position_digits_list_the_subfield_digits_first():
    """encode gathers the F_q digits, then the F_{q^2} digits, one gather
    each kind (`_digit_entries`), so position_digits must list them so."""
    for ell in (1, 2, 3, 4):
        for family in FAMILIES:
            kinds = [in_subfield for _, in_subfield in position_digits(ell, family)]
            assert kinds == sorted(kinds, reverse=True)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
@pytest.mark.parametrize("family,bad", [
    # (entry, matrix, value): None adds 1 to the entry, so that a conjugate
    # pair no longer matches; 7 lies outside F_5.  The first bad digit in
    # position order is named, whichever matrix holds it.
    (FAMILY_HERMITIAN, [((2, 2), 0, 7)]),                     # an F_q digit of the first group
    (FAMILY_HERMITIAN, [((2, 1), 3, None)]),                  # a pair of the second group
    (FAMILY_HERMITIAN, [((1, 0), 3, None), ((2, 1), 0, None)]),  # both groups: the first
    (FAMILY_HERMITIAN, [((2, 1), 0, None), ((1, 1), 5, 7)]),  # a later matrix, an earlier digit
    (FAMILY_HERMITIAN, [((0, 2), 1, None), ((0, 1), 4, None)]),  # upper entries changed
    (FAMILY_HERMITIAN, [((0, 0), 1, 7), ((2, 1), 6, 30)]),    # outside F_25 comes first
    (FAMILY_HERMITIAN, [((1, 2), 2, 200)]),                   # an upper entry past F_25
    (FAMILY_AFFINE, [((2, 1), 0, 7)]),                        # an F_q digit of the second group
    (FAMILY_AFFINE, [((2, 2), 1, 7), ((1, 1), 4, 9)]),        # both groups: the first
])
def test_encode_names_the_bad_entry_of_the_digit_oracle(family, bad, dtype):
    """At q = 5, ell = 3 (digit groups of 3125 and 625 positions), encode
    raises the ValueError of the per-digit codec, word for word."""
    tower = tower_for_q(5)
    E = decode(tower, 3, family, np.arange(1000, 1008)).astype(dtype)
    for (i, j), s, value in bad:
        E[i, j, s] = tower.add(int(E[i, j, s]), 1) if value is None else value
    assert encode_error(encode, tower, 3, family, E) == encode_error(oracle_encode, tower, 3, family, E)


def test_encode_accepts_exactly_the_family_entries():
    """One matrix at a time, encode accepts exactly the matrices of the
    family: every byte as a 1 x 1 matrix of either family, and as entries
    (0, 1) and (1, 0) of a 2 x 2 Hermitian matrix, every upper entry up to
    q^2 or 255 with every lower entry below 2 q^2 or 255."""
    for q in sorted(SUPPORTED_Q):
        tower = tower_for_q(q)
        for family in FAMILIES:
            for v in range(256):
                try:
                    t = encode(tower, 1, family, np.array([[v]], dtype=np.uint8))
                except ValueError:
                    assert not tower.in_base_subfield(v), (q, v)
                else:
                    assert t == tower.subfield.index(v), (q, v)
        for a in [*range(tower.qq + 1), 255]:
            for b in [*range(min(2 * tower.qq, 255)), 255]:
                try:
                    t = encode(tower, 2, FAMILY_HERMITIAN, np.array([[0, a], [b, 0]], dtype=np.uint8))
                except ValueError:
                    assert a >= tower.qq or b != tower.conjugate(a), (q, a, b)
                else:
                    assert b == tower.conjugate(a) and t == a * q * q, (q, a, b)


# Bytes of every codec table over every (tower, ell, family) a code is built
# over, decode's packed group tables and encode's 256-entry subfield and
# conjugate tables: 159,484 today.
CODEC_TABLE_BYTES_CAP = 160_000
BUILT_CELLS = [(q, ell, family) for q in sorted(SUPPORTED_Q) for ell in (1, 2, 3, 4)
               if q ** (ell * ell) <= BUILD_LIMIT for family in FAMILIES]


def test_codec_tables_stay_under_their_cap():
    total = 0
    for q in sorted(SUPPORTED_Q):
        for table in _entry_digits(tower_for_q(q)):
            assert table.shape == (256,) and table.dtype == np.uint8 and not table.flags.writeable
            total += table.nbytes
    for q, ell, family in BUILT_CELLS:
        for size, _, words in _digit_groups(tower_for_q(q), ell, family):
            assert size <= GROUP_SIZE
            for rows, table in words:
                assert table.dtype.kind == "u" and table.itemsize in (1, 2, 4, 8)
                assert len(table) <= GROUP_SIZE and not table.flags.writeable and not rows.flags.writeable
                total += table.nbytes
    assert total <= CODEC_TABLE_BYTES_CAP


def entry_tables(tower, ell, digits):
    """The per-entry tables of one digit group, read off position_digits one
    digit at a time: each cell (i, j) and table[u] = entry (i, j) of the
    matrix whose group digits, each ((i, j), in_subfield), read u in mixed
    radix."""
    radices = [tower.q if in_subfield else tower.qq for _, in_subfield in digits]
    u, cells, tables = np.arange(int(np.prod(radices))), [], []
    for ((i, j), in_subfield), radix in zip(digits, radices):
        d, u = u % radix, u // radix
        if in_subfield:
            cells.append((i, j))
            tables.append(tower.subfield_np[d])
        else:
            cells += [(i, j), (j, i)]
            tables += [d, tower.conj_np[d]]
    return cells, np.array(tables, dtype=np.uint8)


def unpacked_tables(ell, group):
    """The cells and per-entry tables held in one group's packed words."""
    size, _, words = group
    cells, tables = [], []
    for rows, table in words:
        assert len(rows) <= 8 and table.itemsize == 1 << (len(rows) - 1).bit_length()
        planes = table.view(np.uint8).reshape(size, table.itemsize)
        assert not planes[:, len(rows):].any()
        cells += [divmod(int(row), ell) for row in rows]
        tables.append(planes[:, :len(rows)].T)
    return cells, np.concatenate(tables)


def test_packed_group_tables_unpack_to_the_per_entry_tables():
    """Every group of every built (tower, ell, family): its words unpack to
    the per-entry tables of position_digits, in order.  The built groups
    hold one split group, 9 entries at ell = 3, q = 2 (8 + 1); ell = 4,
    q = 2 is cut into two groups of 8 entries, so a group of its first 12
    entries, which fits GROUP_SIZE, checks a split into 8 + 4 too."""
    splits = []
    for q, ell, family in BUILT_CELLS:
        tower, digits = tower_for_q(q), position_digits(ell, family)
        for group in _digit_groups(tower, ell, family):
            _, radices, words = group
            cells, tables = entry_tables(tower, ell, digits[:len(radices)])
            digits = digits[len(radices):]
            packed_cells, packed_tables = unpacked_tables(ell, group)
            assert packed_cells == cells and np.array_equal(packed_tables, tables), (q, ell, family)
            if len(words) > 1:
                splits.append((q, ell, family, [len(rows) for rows, _ in words]))
        assert digits == []
    assert splits == [(2, 3, family, [8, 1]) for family in FAMILIES]
    tower = tower_for_q(2)
    for family in FAMILIES:
        digits = position_digits(4, family)[:12 if family == FAMILY_AFFINE else 8]
        group = _digit_group(tower, 4, [(ij, s, 2 if s else 4) for ij, s in digits])
        assert group[0] == GROUP_SIZE and [len(rows) for rows, _ in group[2]] == [8, 4]
        cells, tables = unpacked_tables(4, group)
        expected_cells, expected = entry_tables(tower, 4, digits)
        assert cells == expected_cells and np.array_equal(tables, expected)


@pytest.mark.parametrize("family", FAMILIES)
def test_codec_matches_scalar_oracle_exhaustively(family):
    for ell, q in ORACLE_CELLS:
        tower = tower_for_q(q)
        n = q ** (ell * ell)
        matrices = [oracle_index_to_matrix(tower, ell, family, t) for t in range(n)]
        assert [oracle_matrix_to_index(tower, ell, family, M) for M in matrices] == list(range(n))
        expected = np.array(matrices, dtype=np.uint8).transpose(1, 2, 0)
        E = position_entries(tower, ell, family)
        for i in range(ell):
            for j in range(ell):
                assert E[i][j].dtype == np.uint8
                assert np.array_equal(E[i][j], expected[i, j]), (family, ell, q, i, j)
        assert np.array_equal(encode(tower, ell, family, expected), np.arange(n))


def test_scalar_decode_matches_oracle():
    # one position at a time, as the randomized checks draw them
    for ell, q in [(1, 9), (2, 3), (3, 2)]:
        tower = tower_for_q(q)
        for t in range(q ** (ell * ell)):
            M = oracle_index_to_matrix(tower, ell, FAMILY_HERMITIAN, t)
            assert np.array_equal(decode(tower, ell, FAMILY_HERMITIAN, t), M)
            assert encode(tower, ell, FAMILY_HERMITIAN, M) == t


@pytest.mark.parametrize("ell,q", PERMUTATION_CELLS)
def test_permutations_match_scalar_oracle(ell, q):
    tower = tower_for_q(q)
    rng = random.Random(100 * ell + q)
    while True:
        A = tuple(tuple(rng.randrange(tower.qq) for _ in range(ell)) for _ in range(ell))
        if rank(tower, A) == ell:
            break
    M = oracle_index_to_matrix(tower, ell, FAMILY_HERMITIAN,
                               rng.randrange(q ** (ell * ell)))
    A_star = tuple(tuple(tower.conjugate(A[r][i]) for r in range(ell)) for i in range(ell))

    def congruence_image(H):
        return oracle_mat_mul(tower, A_star, oracle_mat_mul(tower, H, A))

    def translate_image(H):
        return tuple(tuple(tower.add(a, b) for a, b in zip(hr, mr)) for hr, mr in zip(H, M))

    def transpose_image(H):
        return tuple(zip(*H))

    assert np.array_equal(congruence_permutation(tower, ell, A),
                          oracle_permutation(tower, ell, congruence_image))
    assert np.array_equal(translate_permutation(tower, ell, M),
                          oracle_permutation(tower, ell, translate_image))
    assert np.array_equal(transpose_permutation(tower, ell),
                          oracle_permutation(tower, ell, transpose_image))


@pytest.mark.parametrize("family", FAMILIES)
def test_decode_gives_one_uint8_array(family):
    """One position decodes to a uint8 (ell, ell) matrix, an array of them
    to a uint8 array of shape (ell, ell) + t.shape."""
    tower = tower_for_q(3)
    for ell in (1, 2, 3):
        M = decode(tower, ell, family, 2)
        assert M.dtype == np.uint8 and M.shape == (ell, ell)
        t = np.arange(3)
        E = decode(tower, ell, family, t)
        assert E.dtype == np.uint8 and E.shape == (ell, ell, 3)
        assert np.array_equal(E[..., 2], M)
        assert decode(tower, ell, family, t.reshape(3, 1)).shape == (ell, ell, 3, 1)


@pytest.mark.parametrize("ell,q", PERMUTATION_CELLS)
def test_congruence_of_one_matrix_is_a_column_of_a_chunk(ell, q):
    """Each matrix action maps one matrix to the column of a chunk's image
    at its position: the congruence, L X R with independent L and R over
    each family's scalars, and a translation."""
    tower = tower_for_q(q)
    rng = random.Random(10 * ell + q)

    def random_matrix(scalars):
        return [[rng.choice(scalars) for _ in range(ell)] for _ in range(ell)]

    A = random_matrix(range(tower.qq))
    L, R = random_matrix(range(tower.qq)), random_matrix(range(tower.qq))
    L_q, R_q = random_matrix(tower.subfield), random_matrix(tower.subfield)
    M = decode(tower, ell, FAMILY_HERMITIAN, rng.randrange(q ** (ell * ell)))
    cases = [
        (FAMILY_HERMITIAN, lambda X: congruence(tower, A, X)),
        (FAMILY_HERMITIAN, lambda X: product(tower, L, X, R)),
        (FAMILY_AFFINE, lambda X: product(tower, L_q, X, R_q)),
        (FAMILY_HERMITIAN, lambda X: translate(tower, M, X)),
    ]
    t = np.array([rng.randrange(q ** (ell * ell)) for _ in range(20)])
    for family, act in cases:
        images = act(decode(tower, ell, family, t))
        assert images.dtype == np.uint8 and images.shape == (ell, ell, 20)
        for s, position in enumerate(t):
            image = act(decode(tower, ell, family, position))
            assert image.dtype == np.uint8 and image.shape == (ell, ell)
            assert np.array_equal(image, images[..., s])


def test_decode_rejects_out_of_range():
    tower = tower_for_q(2)
    for family in FAMILIES:
        with pytest.raises(ValueError):
            decode(tower, 2, family, np.array([0, 16]))
        with pytest.raises(ValueError):
            decode(tower, 2, family, -1)
    with pytest.raises(ValueError):
        decode(tower, 2, "projective", 0)


def test_encode_rejects_bad_shape_and_range():
    tower = tower_for_q(2)
    with pytest.raises(ValueError):
        encode(tower, 2, FAMILY_HERMITIAN, ((0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        encode(tower, 2, FAMILY_HERMITIAN, ((0, 4), (4, 0)))  # 4 lies outside F_4


# properties -----------------------------------------------------------------------


@st.composite
def cell_positions(draw):
    family = draw(st.sampled_from(FAMILIES))
    ell = draw(st.integers(1, 4))
    q = draw(st.sampled_from(sorted(SUPPORTED_Q)))
    n = q ** (ell * ell)
    t = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))
    return family, ell, q, np.array(t, dtype=np.int64)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(cell_positions())
def test_round_trip_property(case):
    family, ell, q, t = case
    tower = tower_for_q(q)
    E = decode(tower, ell, family, t)
    assert np.array_equal(encode(tower, ell, family, E), t)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(cell_positions(), st.data())
def test_encode_rejects_perturbed_entries(case, data):
    family, ell, q, t = case
    tower = tower_for_q(q)
    E = np.array(decode(tower, ell, family, t), dtype=np.int64)
    s = data.draw(st.integers(0, len(t) - 1))
    outside_fq = [x for x in range(tower.qq) if not tower.in_base_subfield(x)]
    i = data.draw(st.integers(0, ell - 1))
    j = data.draw(st.integers(0, ell - 1))
    if family == FAMILY_AFFINE or i == j:
        # an entry that must lie in F_q is moved outside it
        E[i, j, s] = data.draw(st.sampled_from(outside_fq))
    else:
        # a lower entry no longer the conjugate of its upper partner
        r, c = max(i, j), min(i, j)
        wrong = [x for x in range(tower.qq) if x != tower.conjugate(int(E[c, r, s]))]
        E[r, c, s] = data.draw(st.sampled_from(wrong))
    with pytest.raises(ValueError):
        encode(tower, ell, family, E)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(cell_positions(), st.data())
def test_encode_errors_match_digit_oracle(case, data):
    """Up to three entries of a batch changed to any byte: encode accepts
    exactly what the per-digit codec accepts, and names the same entry."""
    family, ell, q, t = case
    tower = tower_for_q(q)
    E = decode(tower, ell, family, t)
    for _ in range(data.draw(st.integers(1, 3))):
        index = (data.draw(st.integers(0, ell - 1)), data.draw(st.integers(0, ell - 1)),
                 data.draw(st.integers(0, len(t) - 1)))
        E[index] = data.draw(st.sampled_from([0, 1, tower.qq - 1, tower.qq, 255])
                             | st.integers(0, tower.qq - 1))
    try:
        expected = oracle_encode(tower, ell, family, E)
    except ValueError as exc:
        for entries in (E, E.astype(np.int64)):
            assert encode_error(encode, tower, ell, family, entries) == str(exc)
    else:
        assert np.array_equal(encode(tower, ell, family, E), expected)


# fail closed ---------------------------------------------------------------------


def test_bijectivity_check_fails_closed_under_optimize(run_optimized):
    """With encode off by one, enumeration_bijectivity must FAIL and the run
    exit 1 even under python -O, which strips assert statements."""
    script = (
        "import sys\n"
        "assert False, 'asserts are live'\n"
        "import hermgrass.hermitian as hm\n"
        "encode = hm.encode\n"
        "hm.encode = lambda *args: encode(*args) + 1\n"
        "from hermgrass.cli import main\n"
        "sys.exit(main(['verify', '--suite', 'counts']))\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL enumeration_bijectivity" in proc.stdout
    assert "3/4 checks passed" in proc.stdout
