"""`linalg.combine`, the one field linear combination: on field elements, on
equal-shape arrays, and on no rows at all, checked against the table sum it
replaced, with the row counts at every lane-width boundary of its packed
digit sums."""

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
    """The former `linalg.combine`: each row scaled by a `mul_np` row and
    added into the sum by an `add_np[acc, term]` gather."""
    acc = None
    for s, row in zip(coeffs, rows):
        if s:
            term = tower.mul_np[s][row]
            acc = term if acc is None else tower.add_np[acc, term]
    if acc is None:
        return tower.mul_np[0][rows[0]] if len(rows) else np.uint8(0)
    return acc


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
    t = tower_for_q(3)
    assert linalg.combine(t, [], []) == 0
    # rows past the end of the coefficients count as zero
    assert np.array_equal(linalg.combine(t, np.ones((2, 4), dtype=np.uint8), []),
                          np.zeros(4, dtype=np.uint8))


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


def test_combine_rejects_lanes_beyond_64_bits():
    """F_64 has 6 lanes, so 10 bits each: at most 1,023 rows at p = 2."""
    t = tower_for_q(8)
    rows = np.full((1024, 2), t.qq - 1, dtype=np.uint8)
    got = linalg.combine(t, rows[:1023], [1] * 1023)
    assert np.array_equal(got, table_sum(t, rows[:1023], [1] * 1023))
    with pytest.raises(ValueError, match="64-bit limit"):
        linalg.combine(t, rows, [1] * 1024)


@st.composite
def combinations(draw):
    """A tower, rows of one shape as elements (ints or np.uint8), 0-d, 1-D
    or 2-D arrays, stacked or listed, and coefficients that are often 0."""
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
    coeffs = rng.choice([0] + scalars, size=draw(st.sampled_from([count, max(count - 1, 0)])))
    return t, rows, coeffs.tolist()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(combinations())
def test_combine_equals_table_sum(case):
    t, rows, coeffs = case
    got = linalg.combine(t, rows, coeffs)
    want = table_sum(t, rows, coeffs)
    assert np.shape(got) == np.shape(want)
    assert got.dtype == np.uint8
    if not np.ndim(want):
        assert type(got) is np.uint8
    assert np.array_equal(got, want)
