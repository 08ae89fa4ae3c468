"""The walk's words and table layouts on rows wider than one packed word:
each scaled row is packed once per walk, the characteristic-2 table is
word-major, and the odd-p state is kept negated; a brute-force property
over n = 65..200 and a count of the packs a walk makes."""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from hermgrass import analysis as an
from hermgrass.galois import tower_for_q

# characteristic 2 with words of F_{q^2} values on two or more bit planes
# (q = 4, 8), and odd p
WALK_Q = (3, 4, 5, 7, 8, 9)


@st.composite
def wide_rows(draw):
    """Rows of 65..200 positions, so a packed plane spans two to four
    uint64 words and its last one is padded, over an alphabet (F_q or
    F_{q^2}) with at most 1024 messages, a lead and a value pool of up to
    five F_{q^2} elements."""
    q = draw(st.sampled_from(WALK_Q))
    tower = tower_for_q(q)
    scalars = draw(st.sampled_from([list(tower.subfield), list(range(tower.qq))]))
    r = len(scalars)
    k = draw(st.integers(1, max(k for k in range(1, 7) if r**k <= 1024)))
    lead = draw(st.integers(1, k))
    n = draw(st.integers(65, 200))
    pool = draw(st.lists(st.integers(0, tower.qq - 1), min_size=1, max_size=5))
    rows = np.array([draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
                     for _ in range(k)], dtype=np.uint8)
    return tower, rows, scalars, lead


def brute_force(tower, rows, scalars, lead):
    """Least (weight, digits) over the digit vectors whose first `lead`
    digits are not all zero, every word summed by the field's add table."""
    words = np.zeros((1, rows.shape[1]), dtype=np.uint8)
    for row in rows:  # append the next digit, the least significant
        words = np.stack([tower.add_np[words, tower.mul_np[s][row]] for s in scalars], axis=1)
        words = words.reshape(-1, rows.shape[1])
    digits = itertools.product(range(len(scalars)), repeat=len(rows))
    return min((w, d) for w, d in zip(np.count_nonzero(words, axis=1).tolist(), digits)
               if any(d[:lead]))


@pytest.mark.parametrize("table_bytes", [0, 100, an.TABLE_BYTES])
@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(wide_rows())
def test_wide_walk_equals_brute_force(table_bytes, case):
    """The engine, and the same walk dealt to three in-process jobs (heads
    of several nonzero digits), find the brute-force least word."""
    tower, rows, scalars, lead = case
    expected = brute_force(tower, rows, scalars, lead)
    with mock.patch.object(an, "TABLE_BYTES", table_bytes):
        w, digits, _ = an.min_weight_over_combinations(tower, rows, scalars, lead=lead)
        form, kt, jobs = an._plan(tower, rows, scalars, lead, threads=3)
    assert (w, digits) == expected
    assert min(an._least_weight(tower, rows, scalars, kt, job, form) for job in jobs) == expected


@pytest.mark.parametrize("q, table_bytes", [(3, 0), (3, 100), (4, 0), (4, 100)])
def test_walk_packs_each_word_once(q, table_bytes):
    """A walk of 7 dense rows of 130 positions over F_q packs the zero word,
    the r - 1 scaled words of each tabled row and at most r - 1 words of
    each walked row: never one per Gray step."""
    tower = tower_for_q(q)
    rng = np.random.default_rng(q)
    rows = rng.integers(1, tower.qq, (7, 130)).astype(np.uint8)
    scalars = list(tower.subfield)
    packs = []
    additive_form = an._additive_form

    def counting_form(*args):
        form = additive_form(*args)

        def pack(v):
            packs.append(1)
            return form[0](v)

        return (pack,) + form[1:]

    with mock.patch.object(an, "TABLE_BYTES", table_bytes), \
            mock.patch.object(an, "_additive_form", counting_form):
        form, kt, [heads] = an._plan(tower, rows, scalars, len(rows))
        packs.clear()
        weights = [w.copy() for _, _, w in an._walk(tower, rows, scalars, form, kt, heads)]
    assert len(weights) * len(weights[0]) == (q**7 - 1) // (q - 1) + (kt > 0)
    assert len(packs) <= 1 + len(rows) * (q - 1)
