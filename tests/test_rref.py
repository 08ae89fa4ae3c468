"""`linalg.rref`, the one elimination, against the dense Gauss-Jordan loop
it replaced: equal pivots and transform on random matrices at every
supported q with column blocks 1, 2, 3 and 7 wide, on matrices whose
blocks past the first need more rows than one stacked product adds, and
on every generator with n <= 19,683.  An entry outside F_{q^2} raises
ValueError before any work, also under python -O."""

import numpy as np
import pytest

from hermgrass import linalg
from hermgrass.codebuild import FAMILY_AFFINE, FAMILY_HERMITIAN, build_generator
from hermgrass.galois import SUPPORTED_Q, tower_for_q

QS = sorted(SUPPORTED_Q)
WIDTHS = (1, 2, 3, 7)


def dense_rref(tower, rows):
    """The former `linalg.rref`: Gauss-Jordan elimination on the whole k x n
    matrix R and its transform T, a table row operation per row and pivot.
    Returns (R, pivots, T) where R = T.rows has unit pivot columns and zero
    rows are dropped."""
    add, mul, neg, inv = tower.add_np, tower.mul_np, tower.neg_np, tower.inv_np
    R = np.array(rows, dtype=np.uint8, copy=True)
    k, n = R.shape
    T = np.eye(k, dtype=np.uint8)
    pivots = []
    r = c = 0
    while r < k:
        # the next pivot column: the first from c with a nonzero entry in rows r:
        nz = np.flatnonzero(R[r:, c:].any(axis=0))
        if nz.size == 0:
            break
        c += int(nz[0])
        pr = r + int(np.flatnonzero(R[r:, c])[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
            T[[r, pr]] = T[[pr, r]]
        pv = int(R[r, c])
        if pv != 1:
            lut = mul[inv[pv]]
            R[r] = lut[R[r]]
            T[r] = lut[T[r]]
        for i in range(k):
            f = int(R[i, c])
            if i != r and f:
                lut = mul[neg[f]]
                R[i] = add[R[i], lut[R[r]]]
                T[i] = add[T[i], lut[T[r]]]
        pivots.append(c)
        r += 1
        c += 1
    return R[:r], pivots, T[:r]


def random_matrix(tower, rng, k, n):
    """A k x n matrix of random rank: table combinations of a few random
    rows, with some rows zeroed, some rows repeated and some columns
    zeroed."""
    rank = int(rng.integers(0, min(k, n) + 1))
    basis = rng.integers(0, tower.qq, (rank, n))
    coeffs = rng.integers(0, tower.qq, (k, rank))
    M = np.zeros((k, n), dtype=np.uint8)
    for j in range(rank):
        M = tower.add_np[M, tower.mul_np[coeffs[:, j, None], basis[j]]]
    M[rng.random(k) < 0.15] = 0
    repeat = rng.random(k) < 0.15
    M[repeat] = M[rng.integers(0, k, int(repeat.sum()))]
    M[:, rng.random(n) < 0.2] = 0
    return M


def assert_matches_dense(tower, rows):
    R, want_pivots, want_T = dense_rref(tower, rows)
    pivots, T = linalg.rref(tower, rows)
    assert pivots == want_pivots
    assert T.dtype == np.uint8 and T.shape == want_T.shape
    assert np.array_equal(T, want_T)
    reduced = np.zeros(R.shape, dtype=np.uint8)
    for i in range(len(rows)):
        reduced = tower.add_np[reduced, tower.mul_np[T[:, i, None], rows[i]]]
    assert np.array_equal(reduced, R)


@pytest.mark.parametrize("q", QS)
def test_rref_equals_the_dense_elimination(q, monkeypatch):
    """Random matrices, rank-deficient or not, with zero and repeated rows,
    k from 1 to 70, reduced in blocks 1, 2, 3 and 7 columns wide, give the
    dense loop's pivots and transform; T.rows is its reduced form."""
    t = tower_for_q(q)
    rng = np.random.default_rng(q)
    for k in list(range(1, 71, 7)) + [70]:
        for width in WIDTHS:
            monkeypatch.setattr(linalg, "TABLE_BYTES", width * k)
            n = int(rng.integers(1, 24))
            assert_matches_dense(t, random_matrix(t, rng, k, n))
            # at full rank the walk stops at the k-th pivot's block
            wide = rng.integers(0, t.qq, (k, k + 3 * width))
            assert_matches_dense(t, wide)


@pytest.mark.parametrize("q", [8, 9])
def test_blocks_past_the_first_take_every_row_count(q, monkeypatch):
    """At k = 70 the blocks past the first are multiplied by 70 rows of the
    transform, more than one stacked product adds at q = 8 (`combine` adds
    them in two groups); the first 500 columns are zero but for one entry,
    so 69 pivots fall in the third block of 250 columns."""
    t = tower_for_q(q)
    rng = np.random.default_rng(q)
    rows = np.zeros((70, 600), dtype=np.uint8)
    rows[:, 500:] = rng.integers(0, t.qq, (70, 100))
    rows[17, 123] = 1
    for tb in (linalg.TABLE_BYTES, 70 * 250):
        monkeypatch.setattr(linalg, "TABLE_BYTES", tb)
        assert_matches_dense(t, rows)
    assert linalg.rref(t, rows)[0][:2] == [123, 500]


CELLS = [(family, ell, q) for family in (FAMILY_HERMITIAN, FAMILY_AFFINE)
         for ell in (1, 2, 3) for q in QS if q ** (ell * ell) <= 19_683]


@pytest.mark.parametrize("family,ell,q", CELLS)
def test_generator_elimination_equals_the_dense_elimination(family, ell, q):
    gen = build_generator(family, ell, q)
    _, pivots, T = dense_rref(gen.tower, gen.rows)
    assert gen.pivots == pivots
    assert np.array_equal(gen.transform, T)


def test_empty_matrices():
    t = tower_for_q(4)
    for shape in ((0, 5), (3, 0), (0, 0)):
        pivots, T = linalg.rref(t, np.zeros(shape, dtype=np.uint8))
        assert pivots == [] and T.shape == (0, shape[0])
    assert linalg.rank(t, np.zeros((4, 6), dtype=np.uint8)) == 0


# Each refused before any work: 256 and -1 wrap to 0 and 255 as uint8, 90
# is past the tables of F_9, and 1.5 is not an index.
OUTSIDE = [[[256]], [[-1, 0]], [[1, 90], [1, 90]], [[1.5, 0]], np.array([[0, 9]], np.uint8)]


@pytest.mark.parametrize("rows", OUTSIDE, ids=["256", "-1", "90", "1.5", "uint8-9"])
def test_entries_outside_the_field_raise(rows):
    t = tower_for_q(3)
    for fn in (linalg.rref, linalg.rank):
        with pytest.raises(ValueError, match=r"field indices in \[0, 9\)"):
            fn(t, np.array(rows) if isinstance(rows, list) else rows)
        if isinstance(rows, list):
            with pytest.raises(ValueError, match="field indices"):
                fn(t, rows)


def test_an_entry_past_the_last_pivot_block_raises(monkeypatch):
    """Two pivots fill the first block of 2 columns and the walk would stop
    there; the 90 in the next block is refused all the same."""
    t = tower_for_q(3)
    monkeypatch.setattr(linalg, "TABLE_BYTES", 4)
    rows = np.array([[1, 0, 90], [0, 1, 0]])
    with pytest.raises(ValueError, match="field indices"):
        linalg.rank(t, rows)
    rows[0, 2] = 8
    assert linalg.rank(t, rows) == 2


def test_entries_outside_the_field_raise_under_optimize(run_optimized):
    script = (
        "assert False, 'asserts are live'\n"
        "import numpy as np\n"
        "from hermgrass import linalg\n"
        "from hermgrass.galois import tower_for_q\n"
        "linalg.TABLE_BYTES = 4\n"
        "t = tower_for_q(3)\n"
        "for rows in (np.array([[256]]), [[1, 90], [1, 90]], [[1, 0, 90], [0, 1, 0]], [[-1]]):\n"
        "    try:\n"
        "        print(linalg.rank(t, rows))\n"
        "    except ValueError as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    refusal = "ValueError rref entries must be field indices in [0, 9)"
    assert proc.stdout.splitlines() == [refusal] * 4
