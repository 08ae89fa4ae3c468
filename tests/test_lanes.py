"""The one packed layout of the walk and the dual scan against the field
tables: base-p digits in lanes of w bits (w = 1 at p = 2, bit_length(2(p -
1)) at odd p), added lane by lane and weighed by flagging nonzero lanes."""

import numpy as np
import pytest

from hermgrass import analysis as an
from hermgrass.galois import SUPPORTED_Q, tower_for_q

WIDTH = {2: 1, 3: 3, 5: 4, 7: 4}


def alphabet_rows(tower, alphabet, n, rng):
    """Two rows of n positions over the alphabet, the first holding every
    element of it, so the sum of a word with itself reaches the lane sum
    2(p - 1) at the element whose digits are all p - 1 on the pivots."""
    rows = rng.choice(alphabet, size=(2, n)).astype(np.uint8)
    rows[0, :len(alphabet)] = alphabet
    return rows


@pytest.mark.parametrize("full", [False, True], ids=["F_q", "F_q2"])
@pytest.mark.parametrize("q", sorted(SUPPORTED_Q))
def test_lane_words_add_and_weigh_as_the_field(q, full):
    tower = tower_for_q(q)
    p = tower.p
    alphabet = np.arange(tower.qq) if full else tower.subfield_np
    per = 64 // WIDTH[p]
    n = (tower.qq // per + 1) * per + 5  # the last word of every plane has pad lanes
    rng = np.random.default_rng(q + 100 * full)
    rows = alphabet_rows(tower, alphabet, n, rng)
    scalars = [int(s) for s in alphabet]
    pack, add, weigh = an._additive_form(tower, rows, scalars)

    # combinations of the two rows, the words a table holds: b rows[1] for
    # every b, then 100 drawn at random
    pairs = [(0, b) for b in scalars] + rng.choice(scalars, size=(100, 2)).tolist()
    words = np.array([tower.add_np[tower.mul_np[a][rows[0]], tower.mul_np[b][rows[1]]]
                      for a, b in pairs], dtype=np.uint8)
    packed = [pack(v) for v in words]
    planes = 2 * tower.e if full else tower.e  # the alphabet's dimension over F_p
    assert packed[0].shape == (planes, -(-n // per), 1) and packed[0].dtype == np.uint64
    assert not any(np.array_equal(packed[0], x) for x in packed[1:len(scalars)])

    table = np.concatenate(packed, axis=-1)
    # rows[0] + rows[0] reaches the lane sum 2(p - 1) on every plane
    for u in words[rng.permutation(len(words))[:12]].tolist() + [rows[0]]:
        u = np.asarray(u, dtype=np.uint8)
        sums = tower.add_np[words, u]
        assert all(np.array_equal(add(x, pack(u)), pack(s)) for x, s in zip(packed, sums))
        assert np.array_equal(add(table, pack(u)), np.concatenate([pack(s) for s in sums], -1))
        # the walk keeps its state negated, and its table XORed with the state
        x = table ^ pack(tower.neg_np[u])
        before = x.copy()
        got = weigh(x, np.empty(x.shape[1:], dtype=x.dtype))
        assert got.tolist() == np.count_nonzero(sums, axis=1).tolist()
        assert np.array_equal(x, before)


@pytest.mark.parametrize("q", sorted(SUPPORTED_Q))
@pytest.mark.parametrize("k", [1, 6, 20])
def test_packed_keys_add_in_lanes(q, k):
    """The dual scan's keys are the same lanes: the lane sum of two packed
    vectors is the packed field sum, also where every digit is p - 1."""
    tower = tower_for_q(q)
    rng = np.random.default_rng(q * k)
    u = rng.integers(0, tower.qq, size=(50, k), dtype=np.uint8)
    v = rng.integers(0, tower.qq, size=(50, k), dtype=np.uint8)
    u[0] = v[0] = tower.qq - 1
    pack, key = an._packer(tower, k)
    add = an._digit_lanes(tower.p)[1]
    assert (key(add(pack(u), pack(v))) == key(pack(tower.add_np[u, v]))).all()
    assert (key(add(pack(u), pack(tower.neg_np[u]))) == key(pack(np.zeros_like(u)))).all()
