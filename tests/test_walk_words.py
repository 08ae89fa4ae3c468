"""The walk's words and table layouts on rows wider than one packed word:
each scaled row is packed once per walk, the characteristic-2 table is
word-major, and the odd-p state is kept negated; a brute-force property
over n = 65..200, a count of the packs a walk makes, the rule that sizes
the table, and the same answer wherever the table split falls."""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from hermgrass import walk as wk
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


@pytest.mark.parametrize("table_bytes", [0, 100, wk.TABLE_BYTES])
@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(wide_rows())
def test_wide_walk_equals_brute_force(table_bytes, case):
    """The engine, and the same walk dealt to three in-process jobs (heads
    of several nonzero digits), find the brute-force least word."""
    tower, rows, scalars, lead = case
    expected = brute_force(tower, rows, scalars, lead)
    with mock.patch.object(wk, "TABLE_BYTES", table_bytes):
        w, digits, _ = wk.min_weight_over_combinations(tower, rows, scalars, lead=lead)
        form, kt, jobs = wk._plan(tower, rows, scalars, lead, threads=3)
    assert (w, digits) == expected
    assert min(wk._least_weight(tower, rows, scalars, kt, job, form) for job in jobs) == expected


@pytest.mark.parametrize("q, table_bytes", [(3, 0), (3, 100), (3, wk.TABLE_BYTES),
                                           (4, 0), (4, 100)])
def test_walk_packs_each_word_once(q, table_bytes):
    """A walk of 7 dense rows of 130 positions over F_q packs the zero word,
    the r - 1 scaled words of each tabled row and at most r - 1 words of
    each walked row: never one per Gray step.  Each head weighs r^kt tails
    per Gray state, the all-zero head too, whose first tail is the zero
    message."""
    tower = tower_for_q(q)
    rng = np.random.default_rng(q)
    rows = rng.integers(1, tower.qq, (7, 130)).astype(np.uint8)
    scalars = list(tower.subfield)
    packs = []
    additive_form = wk._additive_form

    def counting_form(*args):
        form = additive_form(*args)

        def pack(v):
            packs.append(1)
            return form[0](v)

        return (pack,) + form[1:]

    with mock.patch.object(wk, "TABLE_BYTES", table_bytes), \
            mock.patch.object(wk, "_additive_form", counting_form):
        form, kt, [heads] = wk._plan(tower, rows, scalars, len(rows))
        packs.clear()
        weights = [w.copy() for _, _, w in wk._walk(tower, rows, scalars, form, kt, heads)]
    assert (kt > 0) == (table_bytes > 0)
    kw = len(rows) - kt
    assert sum(map(len, weights)) == sum(q ** (kw - len(head)) * q**kt for head in heads)
    assert len(packs) <= 1 + len(rows) * (q - 1)


def documented_kt(r, k, lead, row_bytes, table_bytes):
    """The table digits of `_plan`'s rule, the steps counted in closed form:
    a walk covers (r^lead - 1) / (r - 1) r^(k - lead) projective messages,
    r^kt to a Gray state, and the zero message with them when the table
    takes a lead digit."""
    most = k if lead == k else k - lead
    messages = (r**lead - 1) // (r - 1) * r ** (k - lead)

    def cost(kt):
        steps = -(-messages // r**kt)
        return (steps + 1) * r**kt * row_bytes + steps * table_bytes

    fits = [kt for kt in range(most + 1) if kt == 0 or r**kt * row_bytes <= 8 * table_bytes]
    return min(fits, key=lambda kt: (cost(kt), kt))


@pytest.mark.parametrize("full", [False, True], ids=["F_q", "F_q2"])
@pytest.mark.parametrize("q", [2, 3, 4, 7, 8])
def test_plan_takes_the_cheapest_table(q, full):
    """kt minimizes (steps + 1) * table + steps * TABLE_BYTES over the tables
    within 8 * TABLE_BYTES, for one to six rows of 1 to 5,000 positions,
    every lead and one or three threads; TABLE_BYTES = 0 gives kt = 0."""
    tower = tower_for_q(q)
    scalars = list(range(tower.qq)) if full else list(tower.subfield)
    r = len(scalars)
    rng = np.random.default_rng(q + 10 * full)
    for k, n in itertools.product((1, 2, 4, 6), (1, 200, 5000)):
        rows = rng.integers(0, tower.qq, (k, n)).astype(np.uint8)
        for lead, table_bytes, threads in itertools.product(
                range(1, k + 1), (0, 100, 4096, wk.TABLE_BYTES), (1, 3)):
            with mock.patch.object(wk, "TABLE_BYTES", table_bytes):
                form, kt, _ = wk._plan(tower, rows, scalars, lead, threads)
            row_bytes = form[0](rows[0]).nbytes
            assert kt == documented_kt(r, k, lead, row_bytes, table_bytes), (k, n, lead)
            assert kt == 0 or r**kt * row_bytes <= 8 * table_bytes
            assert table_bytes or kt == 0


# (q, alphabet F_q or F_{q^2}, k, n): characteristic 2 on one plane and on
# several, and odd p
SPLIT_CASES = [(2, False, 6, 70), (3, False, 4, 130), (4, True, 2, 65), (5, False, 3, 100)]


@pytest.mark.parametrize("q, full, k, n", SPLIT_CASES)
def test_every_table_split_gives_the_brute_force_word(q, full, k, n):
    """TABLE_BYTES values that move kt through every split the rule allows,
    0 to k at lead = k and 0 to k - 1 at lead = 1, on one process and on
    two: each gives the brute-force least word and the message count."""
    tower = tower_for_q(q)
    scalars = list(range(tower.qq)) if full else list(tower.subfield)
    r = len(scalars)
    rows = np.random.default_rng(q).integers(0, tower.qq, (k, n)).astype(np.uint8)
    for lead in (k, 1):
        splits = {}
        for table_bytes in [0] + [int(1.25**i) for i in range(100)]:
            with mock.patch.object(wk, "TABLE_BYTES", table_bytes):
                splits.setdefault(wk._plan(tower, rows, scalars, lead)[1], table_bytes)
        assert sorted(splits) == list(range(k + 1 if lead == k else k - lead + 1))
        expected = brute_force(tower, rows, scalars, lead) + ((r**lead - 1) * r ** (k - lead),)
        for table_bytes, threads in itertools.product(splits.values(), (1, 2)):
            with mock.patch.object(wk, "TABLE_BYTES", table_bytes):
                got = wk.min_weight_over_combinations(tower, rows, scalars, threads=threads,
                                                      lead=lead)
            assert got == expected, (lead, table_bytes, threads)


@pytest.mark.parametrize("q, full", [(2, False), (3, False), (4, True)])
@pytest.mark.parametrize("lead", [1, 3])
def test_a_walk_writes_no_word_it_walks_with(q, full, lead):
    """At kt = 0 the table holds one packed zero word, the state a head
    with no nonzero digit starts from, and a head of one nonzero digit
    starts from a cached scaled word: a walk that XORed the state into
    either would weigh wrong words, and a second walk with the same form
    would start from them.  Two walks in one process weigh every message
    as the add table does."""
    tower = tower_for_q(q)
    scalars = list(range(tower.qq)) if full else list(tower.subfield)
    rows = np.random.default_rng(q).integers(0, tower.qq, (3, 70)).astype(np.uint8)
    with mock.patch.object(wk, "TABLE_BYTES", 0):
        form, kt, [heads] = wk._plan(tower, rows, scalars, lead)
    assert kt == 0
    walks = [[(head + tuple(walked), int(w[0]))
              for head, walked, w in wk._walk(tower, rows, scalars, form, kt, heads)]
             for _ in range(2)]
    assert walks[0] == walks[1]
    for digits, w in walks[0]:
        word = np.zeros(rows.shape[1], dtype=np.uint8)
        for d, row in zip(digits, rows):
            word = tower.add_np[word, tower.mul_np[scalars[d]][row]]
        assert w == np.count_nonzero(word), digits
    assert wk._least_weight(tower, rows, scalars, kt, heads, form) == \
        brute_force(tower, rows, scalars, lead)
