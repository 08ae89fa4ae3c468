"""`linalg.combine`, the one field linear combination: on field elements, on
equal-shape arrays, and on no rows at all."""

import itertools
import random

import numpy as np

from hermgrass import linalg
from hermgrass.galois import tower_for_q

QS = (2, 3, 4, 9)


def scalar_sum(tower, rows, coeffs):
    acc = 0
    for c, x in zip(coeffs, rows):
        acc = tower.add(acc, tower.mul(c, x))
    return acc


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
