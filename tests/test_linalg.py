"""`linalg.combine`, the one field linear combination: on field elements, on
equal-shape arrays, and on no rows at all, by a coefficient vector or a
stack of them given as lists, tuples or arrays, checked against the table
sum it replaced, with the row counts at every lane-width boundary of its
packed digit sums and on both sides of the most rows each kernel adds
exactly; and its residue tables against the per-lane residues."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgrass import linalg
from hermgrass.galois import SUPPORTED_Q, tower_for_q

QS = sorted(SUPPORTED_Q)


def scalar_sum(tower, rows, coeffs):
    acc = 0
    for c, x in zip(coeffs, rows):
        acc = tower.add(acc, tower.mul(c, x))
    return acc


def table_sum(tower, rows, coeffs):
    """The former `linalg.combine` of one coefficient vector: each row scaled
    by a `mul_np` row and added into the sum by an `add_np[acc, term]`
    gather; no rows sum to zeros of the row shape."""
    acc = None
    for s, row in zip(coeffs, rows):
        if s:
            term = tower.mul_np[s][row]
            acc = term if acc is None else tower.add_np[acc, term]
    if acc is None:
        return tower.mul_np[0][rows[0]] if len(rows) else np.zeros(np.shape(rows)[1:], np.uint8)
    return acc


def lane_bits(t, count):
    """All 2e lanes of the stacked product of `count` rows: a lane sums
    count * 2e products of two base-p digits."""
    deg = 2 * t.e
    return deg * (count * deg * (t.p - 1) ** 2).bit_length()


def as_tuples(a):
    """An array of coefficients as a tuple, or a tuple of tuples."""
    return tuple(as_tuples(x) for x in a) if np.ndim(a) > 1 else tuple(a.tolist())


def lane_boundaries(p, top=8):
    """Row counts on both sides of every lane width up to 2^top: the most
    rows whose digit sum len(rows) * (p - 1) is at most 2^j - 1, and the
    fewest whose sum is at least 2^j (exactly 2^j - 1 and 2^j at p = 2)."""
    counts = set()
    for j in range(1, top + 1):
        counts.add((2**j - 1) // (p - 1))
        counts.add(-(-2**j // (p - 1)))
    return sorted(c for c in counts if c)


def test_combine_of_field_elements_is_the_scalar_sum():
    rng = random.Random(1)
    for q in QS:
        t = tower_for_q(q)
        for size in range(5):
            for _ in range(20):
                rows = [rng.randrange(t.qq) for _ in range(size)]
                coeffs = [rng.randrange(t.qq) for _ in range(size)]
                got = linalg.combine(t, rows, coeffs)
                assert got == scalar_sum(t, rows, coeffs)
                assert np.ndim(got) == 0
                assert hash(got) == hash(int(got))  # images of one matrix go into sets


def test_combine_of_entry_arrays_is_the_positionwise_sum():
    for q in QS:
        t = tower_for_q(q)
        rng = np.random.default_rng(q)
        rows = rng.integers(0, t.qq, size=(4, 3, 5), dtype=np.uint8)
        draws = [(0, 0, 0, 0), (0, 1, 0, 0)] + [tuple(rng.integers(0, t.qq, size=4))
                                                for _ in range(10)]
        for coeffs in draws:
            want = np.zeros((3, 5), dtype=np.uint8)
            for i, j in itertools.product(range(3), range(5)):
                want[i, j] = scalar_sum(t, [int(r[i, j]) for r in rows], coeffs)
            for given in (rows, list(rows)):
                got = linalg.combine(t, given, coeffs)
                assert got.shape == (3, 5)
                assert np.array_equal(got, want)


def test_combine_of_no_rows_is_zero():
    """No rows sum to zeros of the row shape, by a vector or a stack; a
    number of coefficients other than the number of rows raises."""
    t = tower_for_q(3)
    assert linalg.combine(t, [], []) == 0
    assert type(linalg.combine(t, [], [])) is np.uint8
    empty = np.ones((0, 4), dtype=np.uint8)
    for coeffs, shape in (([], (4,)), (np.zeros((3, 0), np.uint8), (3, 4)), ([[]], (1, 4))):
        got = linalg.combine(t, empty, coeffs)
        assert got.dtype == np.uint8 and got.shape == shape and not got.any()
    with pytest.raises(ValueError, match="2 rows"):
        linalg.combine(t, np.ones((2, 4), dtype=np.uint8), [])


def test_unequal_lengths_raise():
    """A last coefficient axis longer or shorter than the rows raises; no
    missing coefficient counts as zero."""
    t = tower_for_q(4)
    rows = np.ones((3, 5), dtype=np.uint8)
    for coeffs in ([1, 2], [1, 2, 3, 1], [[1, 2]] * 4, np.ones((1, 2), np.uint8), 1, []):
        with pytest.raises(ValueError, match="combine of 3 rows"):
            linalg.combine(t, rows, coeffs)
    with pytest.raises(ValueError, match="combine of 2 rows"):
        linalg.combine(t, [1, 2], [1, 2, 3])


def test_a_stack_of_one_is_the_vector():
    """A (1, c) stack gives the vector's sum with a leading axis of one, for
    element rows and array rows, as list, tuple or array."""
    for q in QS:
        t = tower_for_q(q)
        rng = np.random.default_rng(q)
        for shape in ((), (5,), (2, 3)):
            rows = rng.integers(0, t.qq, size=(6,) + shape, dtype=np.uint8)
            vector = rng.integers(0, t.qq, size=6)
            want = linalg.combine(t, rows, vector)
            for stack in (vector[None], [vector.tolist()], (tuple(vector.tolist()),)):
                got = linalg.combine(t, rows, stack)
                assert got.shape == (1,) + shape
                assert np.array_equal(got[0], want)


def test_lane_boundaries_straddle_each_width():
    assert lane_boundaries(2, 3) == [1, 2, 3, 4, 7, 8]  # sums 2^j - 1 and 2^j
    assert lane_boundaries(3, 3) == [1, 2, 3, 4]  # sums 2, 4, 6, 8: widths 2, 3, 3, 4


@pytest.mark.parametrize("q", QS)
def test_combine_at_every_lane_width_boundary(q):
    """At each boundary count, the largest digit sum a lane can hold (every
    product with all digits p - 1) and random rows both give the table sum."""
    t = tower_for_q(q)
    rng = np.random.default_rng(q)
    top = t.qq - 1  # every base-p digit is p - 1
    for count in lane_boundaries(t.p) + [70]:
        full = np.full((count, 3), top, dtype=np.uint8)
        ones = [1] * count
        assert np.array_equal(linalg.combine(t, full, ones), table_sum(t, full, ones))
        rows = rng.integers(0, t.qq, size=(count, 2, 3), dtype=np.uint8)
        coeffs = rng.integers(0, t.qq, size=count)
        coeffs[rng.random(count) < 0.3] = 0
        got = linalg.combine(t, rows, coeffs)
        assert got.dtype == np.uint8 and got.shape == (2, 3)
        assert np.array_equal(got, table_sum(t, rows, coeffs))


def lane_residues(t, width, words):
    """The per-lane definition of the residue tail: lane i of each word
    reduced mod p and placed as digit i of the index."""
    words = words.astype(np.uint64)
    mask = np.uint64((1 << width) - 1)
    return sum((words >> np.uint64(i * width) & mask) % np.uint64(t.p) * np.uint64(t.p**i)
               for i in range(2 * t.e))


def test_residue_tables_are_the_per_lane_tail():
    """`_residues` agrees with the per-lane definition on every packed word
    where the 2e lanes take at most 16 bits (one table, one gather), and on
    random words, the emptiest and the fullest where the lanes fall into
    several groups; no table has more than max(2^16, 2^width) entries.

    The widths are every one `combine` can choose, those of the 1-D sum,
    whose 2e lanes fill at most 64 bits (the stacked product's fill 53),
    but for the widths past 18 at 2e = 2 (2^19 rows and more at p = 2):
    there, as from 9 bits on, each lane is a group of its own, and its
    table of 2^width entries is too large to build in a test."""
    rng = np.random.default_rng(2)
    split = set()
    for q in QS:
        t = tower_for_q(q)
        deg = 2 * t.e
        for width in range(1, min(64 // deg, 18) + 1):
            lanes, tables = linalg._lanes(t, width)
            assert all(tb.dtype == np.uint8 and not tb.flags.writeable for tb in tables)
            assert max(tb.size for tb in tables) <= max(1 << 16, 1 << width)
            bits = deg * width
            if bits <= 16:
                assert len(tables) == 1
                words = np.arange(1 << bits).astype(lanes.dtype)
            else:
                split.add((q, width))
                words = rng.integers(0, 1 << bits, 4096, dtype=np.uint64)
                words = np.append(words, np.array([0, (1 << bits) - 1], np.uint64)).astype(lanes.dtype)
            got = linalg._residues(tables, words)
            assert got.dtype == np.uint8
            assert np.array_equal(got, lane_residues(t, width, words)), (q, width)
    assert {4, 8, 9} <= {q for q, width in split}


# Past this many rows a kernel's exact limit is too costly to reach in a test.
REACHABLE = 1 << 16


def test_exact_rows_is_the_lane_rule():
    """`_exact_rows` is the most rows whose 2e lanes fit 64 bits when one
    vector adds c digits to a lane, and 53 when a stack adds c * 2e digit
    products; one more row widens every lane past that.  F_64 has 6 lanes:
    10 bits each hold 1,023 digits, and 8 bits the products of 42 stacked
    rows (43 need 9 bits, 54 in all)."""
    for q in QS:
        t = tower_for_q(q)
        deg, most = 2 * t.e, linalg._exact_rows(t, False)
        assert deg * (most * (t.p - 1)).bit_length() <= 64 < deg * ((most + 1) * (t.p - 1)).bit_length()
        most = linalg._exact_rows(t, True)
        assert lane_bits(t, most) <= 53 < lane_bits(t, most + 1)
    assert [linalg._exact_rows(tower_for_q(8), s) for s in (False, True)] == [1023, 42]


@pytest.mark.parametrize("stacked", [False, True], ids=["vector", "stack"])
@pytest.mark.parametrize("q", QS)
def test_combine_past_the_exact_limit(q, stacked, monkeypatch):
    """At the most rows a kernel adds exactly, one more, and twice as many
    plus one, rows with every digit p - 1 by coefficients all 1, all
    qq - 1 and random give the table sum: past the limit the kernel adds
    the rows in groups.  A vector takes each coefficient row alone, a stack
    all three.  Where the limit is past REACHABLE rows (the fields of degree
    2, whose lanes take 26 or 32 bits) it is lowered to 7 by patching
    `_exact_rows`, which tests the grouping there but not the widest lane."""
    t = tower_for_q(q)
    most = linalg._exact_rows(t, stacked)
    if most > REACHABLE:
        most = 7
        monkeypatch.setattr(linalg, "_exact_rows", lambda tower, stacked: most)
    rng = np.random.default_rng(q)
    for count in (most, most + 1, 2 * most + 1):
        rows = np.full((count, 2), t.qq - 1, dtype=np.uint8)
        coeffs = np.ones((3, count), dtype=np.uint8)
        coeffs[1] = t.qq - 1
        coeffs[2] = rng.integers(0, t.qq, size=count)
        want = np.stack([table_sum(t, rows, c) for c in coeffs])
        got = linalg.combine(t, rows, coeffs) if stacked else [linalg.combine(t, rows, c) for c in coeffs]
        assert np.array_equal(got, want), count


@st.composite
def combinations(draw):
    """A tower, rows of one shape as elements (ints or np.uint8), 0-d, 1-D
    or 2-D arrays, stacked or listed, and coefficients that are often 0: a
    vector or an (m, c) stack, as nested lists, tuples or an array."""
    t = tower_for_q(draw(st.sampled_from(QS)))
    count = draw(st.sampled_from(lane_boundaries(t.p) + [70]) | st.integers(0, 12))
    pool = draw(st.lists(st.integers(0, t.qq - 1), min_size=1, max_size=4))
    shape = draw(st.sampled_from([None, (), (3,), (2, 3)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.choice(pool, size=(count,) + (shape or ())).astype(np.uint8)
    if shape is None:
        rows = [draw(st.sampled_from([int, np.uint8]))(v) for v in values]
    elif shape == ():
        rows = [np.array(v) for v in values]
    elif draw(st.booleans()):
        rows = values
    else:
        rows = list(values)
    scalars = draw(st.lists(st.integers(0, t.qq - 1), min_size=1, max_size=3))
    m = draw(st.sampled_from([None, 1, 3]))
    coeffs = rng.choice([0] + scalars, size=(count,) if m is None else (m, count))
    form = draw(st.sampled_from([np.asarray, np.ndarray.tolist, as_tuples]))
    return t, rows, form(coeffs)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(combinations())
def test_combine_equals_table_sum(case):
    """A vector gives the table sum and a stack the table sum of each of its
    vectors, also past the stacked product's 53-bit rule; a list, a tuple
    and an array of the same coefficients give the same result."""
    t, rows, coeffs = case
    array = np.asarray(coeffs)
    got = linalg.combine(t, rows, coeffs)
    if array.ndim == 1:
        want = table_sum(t, rows, coeffs)
    else:
        want = np.stack([table_sum(t, rows, c) for c in array])
    for form in (array, array.tolist(), as_tuples(array)):
        same = linalg.combine(t, rows, form)
        assert np.shape(same) == np.shape(got) and np.array_equal(same, got)
    assert np.shape(got) == np.shape(want)
    assert got.dtype == np.uint8
    if not np.ndim(want):
        assert type(got) is np.uint8
    assert np.array_equal(got, want)
