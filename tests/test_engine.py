"""The projective weight engine against the scalar Gray walk it replaced,
pinned certificates, a brute-force property, and the fail-closed subfield
precondition."""

import itertools
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgrass import analysis as an
from hermgrass import minors as mn
from hermgrass import walk as wk
from hermgrass.codebuild import FAMILY_AFFINE, FAMILY_HERMITIAN, build_generator, fq_basis
from hermgrass.galois import SUPPORTED_Q, tower_for_q

BIG = 2**40


def big_budget():
    """The message budget raised past every walk here; `mock.patch.dict`,
    not the function-scoped monkeypatch fixture, which Hypothesis rejects
    inside @given tests."""
    return mock.patch.dict(os.environ, {"HERMGRASS_BUDGET_MESSAGES": str(BIG)})


# scalar reference walk --------------------------------------------------------


def search_general(tower, rows, scalars):
    """Min weight over all nonzero digit vectors, digit d meaning coefficient
    scalars[d]; incremental update by one scaled row per Gray step, ties to
    the lexicographically smallest digits."""
    n = len(rows[0])
    add = tower.add_np
    r = len(scalars)
    scaled = []
    for row in rows:
        per = {}
        for old in range(r):
            for new in (old - 1, old + 1):
                if 0 <= new < r:
                    d = tower.sub(scalars[new], scalars[old])
                    per[(old, new)] = tower.mul_np[d][row]
        scaled.append(per)
    state = np.zeros(n, dtype=np.uint8)
    best_w = n + 1
    best_digits = None
    for j, old, new, digits in wk.gray_steps(r, len(rows)):
        state = add[state, scaled[j][(old, new)]]
        w = int(np.count_nonzero(state))
        if w < best_w or (w == best_w and tuple(digits) < best_digits):
            best_w = w
            best_digits = tuple(digits)
    return best_w, best_digits


def walk_inputs(cell):
    """(tower, rows, scalars) as min_distance_subfield / _exhaustive pass them."""
    family, ell, q, exhaustive = cell
    gen = build_generator(family, ell, q)
    tower = gen.tower
    if not exhaustive:
        rows = [gen.encode(f) for f in fq_basis(ell, q)]
        return tower, rows, list(tower.subfield)
    scalars = list(range(tower.qq)) if family == FAMILY_HERMITIAN else list(tower.subfield)
    return tower, list(gen.rows), scalars


@pytest.mark.parametrize("radix, k", [(2, 0), (2, 1), (2, 10), (3, 6), (4, 5), (9, 4)])
def test_gray_steps_visit_every_digit_vector_once(radix, k):
    """The walk starts at all zeros, each step changes the one digit it
    names by +-1, and it visits each of the radix^k digit vectors once."""
    visited = [(0,) * k]
    for j, old, new, digits in wk.gray_steps(radix, k):
        before = visited[-1]
        assert [i for i in range(k) if digits[i] != before[i]] == [j]
        assert (before[j], digits[j]) == (old, new) and abs(new - old) == 1
        visited.append(tuple(digits))
    assert len(visited) == radix**k
    assert set(visited) == set(itertools.product(range(radix), repeat=k))


ORACLE_CELLS = ([(FAMILY_HERMITIAN, 2, q, False) for q in (2, 3, 4, 5)]
                + [(FAMILY_AFFINE, 2, q, True) for q in (2, 3, 4, 5)]
                + [(FAMILY_HERMITIAN, 2, 3, True)])


@pytest.mark.parametrize("cell", ORACLE_CELLS)
def test_engine_matches_scalar_walk(cell):
    tower, rows, scalars = walk_inputs(cell)
    with big_budget():
        w, digits, searched = wk.min_weight_over_combinations(tower, rows, scalars)
    assert (w, digits) == search_general(tower, rows, scalars)
    assert searched == len(scalars) ** len(rows) - 1


# certificates of the scalar walk, recorded before it was replaced
PINNED = {
    (FAMILY_HERMITIAN, 2, 7): (2051, "43*[I:{1} J:{2}] + 7*[I:{2} J:{1}] + 1*[I:{1,2} J:{1,2}]"),
    (FAMILY_HERMITIAN, 2, 8): (3576, "55*[I:{1} J:{2}] + 2*[I:{2} J:{1}] + 1*[I:{1,2} J:{1,2}]"),
    (FAMILY_HERMITIAN, 3, 2): (192, "3*[I:{2} J:{3}] + 2*[I:{3} J:{2}] + 1*[I:{2,3} J:{2,3}]"),
    (FAMILY_AFFINE, 3, 2): (168, "1*[I:{1,2,3} J:{1,2,3}]"),
}


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_engine_reproduces_pinned_certificates(cell):
    family, ell, q = cell
    gen = build_generator(family, ell, q)
    if family == FAMILY_HERMITIAN:
        cert = an.min_distance_subfield(gen)
    else:
        cert = an.min_distance_exhaustive(gen)
    assert (cert.d, mn.format_combination(cert.witness)) == PINNED[cell]


@pytest.mark.parametrize("ell, q, table_bytes", [(2, 3, wk.TABLE_BYTES), (2, 3, 200),
                                                 (3, 2, wk.TABLE_BYTES)])
def test_threads_give_the_same_certificate(ell, q, table_bytes):
    gen = build_generator(FAMILY_HERMITIAN, ell, q)
    with mock.patch.object(wk, "TABLE_BYTES", table_bytes):
        one = an.min_distance_subfield(gen, threads=1)
        two = an.min_distance_subfield(gen, threads=2)
    assert one.as_dict() == two.as_dict()


def test_engine_rejects_scalars_it_cannot_reduce():
    tower = tower_for_q(2)
    rows = [np.array([1, 2, 3], dtype=np.uint8)]
    with big_budget(), pytest.raises(ValueError):
        wk.min_weight_over_combinations(tower, rows, [1, 0])
    with big_budget(), pytest.raises(ValueError):
        wk.min_weight_over_combinations(tower, rows, [0, 1, 2])  # 2 * 2 = 3 in F_4


def test_threads_and_lead_are_keyword_only():
    """A positional argument after the rows and scalars, or after the
    generator (and basis), is refused, not taken as a thread count."""
    tower = tower_for_q(2)
    rows = [np.array([1, 2, 3], dtype=np.uint8)]
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    with pytest.raises(TypeError):
        wk.min_weight_over_combinations(tower, rows, [0, 1], 2)
    with pytest.raises(TypeError):
        an.min_distance(gen, None, 2)
    with pytest.raises(TypeError):
        an.min_distance_subfield(gen, None, 2)
    with pytest.raises(TypeError):
        an.min_distance_exhaustive(gen, 2)


# brute-force property ---------------------------------------------------------


@st.composite
def row_sets(draw):
    """Small rows over a field with p = 2 or odd p, an alphabet (F_q or
    F_{q^2}) with at most 4096 messages, and a table bound that moves the
    split between walked and tabled digits.  Values come from a short pool
    so that equal weights are common."""
    q = draw(st.sampled_from(sorted(SUPPORTED_Q)))
    tower = tower_for_q(q)
    scalars = draw(st.sampled_from([list(tower.subfield), list(range(tower.qq))]))
    r = len(scalars)
    k_max = max(k for k in range(1, 5) if r**k <= 4096)
    k = draw(st.integers(1, k_max))
    n = draw(st.integers(1, 64))
    pool = draw(st.lists(st.integers(0, tower.qq - 1), min_size=1, max_size=4))
    rows = [np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                     dtype=np.uint8) for _ in range(k)]
    table_bytes = draw(st.integers(0, 1 << 12))
    return tower, rows, scalars, table_bytes


def brute_force(tower, rows, scalars):
    """Least (weight, digits) over every nonzero digit vector."""
    best = None
    for digits in itertools.product(range(len(scalars)), repeat=len(rows)):
        if any(digits):
            word = np.zeros(len(rows[0]), dtype=np.uint8)
            for d, row in zip(digits, rows):
                word = tower.add_np[word, tower.mul_np[scalars[d]][row]]
            cand = (int(np.count_nonzero(word)), digits)
            if best is None or cand < best:
                best = cand
    return best


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(row_sets())
def test_engine_equals_brute_force(case):
    tower, rows, scalars, table_bytes = case
    with mock.patch.object(wk, "TABLE_BYTES", table_bytes), big_budget():
        w, digits, _ = wk.min_weight_over_combinations(tower, rows, scalars)
    assert (w, digits) == brute_force(tower, rows, scalars)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(row_sets())
def test_threaded_engine_equals_brute_force(case):
    tower, rows, scalars, table_bytes = case
    with mock.patch.object(wk, "TABLE_BYTES", table_bytes), big_budget():
        w, digits, _ = wk.min_weight_over_combinations(tower, rows, scalars, threads=2)
    assert (w, digits) == brute_force(tower, rows, scalars)


def brute_force_lead(tower, rows, scalars, lead):
    """Least (weight, digits) over the digit vectors whose first `lead`
    digits are not all zero."""
    best = None
    for digits in itertools.product(range(len(scalars)), repeat=len(rows)):
        if any(digits[:lead]):
            word = np.zeros(len(rows[0]), dtype=np.uint8)
            for d, row in zip(digits, rows):
                word = tower.add_np[word, tower.mul_np[scalars[d]][row]]
            cand = (int(np.count_nonzero(word)), digits)
            if best is None or cand < best:
                best = cand
    return best


@pytest.mark.parametrize("table_bytes", [0, 100, wk.TABLE_BYTES])
def test_lead_walk_is_the_same_on_two_threads(table_bytes):
    """A walk over the messages of 6 rows over F_4 with a nonzero among
    their first 2 digits: one process and two give the brute-force least
    word and count (r^2 - 1) r^4 messages.  The 2 lead rows are dense and
    the 4 others unit vectors, so a walk that let the zero lead in would
    find weight 1."""
    tower = tower_for_q(2)
    rows = np.array([[1] * 8, [1, 2, 3, 1, 2, 3, 1, 2]] + np.eye(4, 8, dtype=int).tolist(),
                    dtype=np.uint8)
    scalars = list(range(4))
    with mock.patch.object(wk, "TABLE_BYTES", table_bytes), big_budget():
        one = wk.min_weight_over_combinations(tower, rows, scalars, lead=2)
        two = wk.min_weight_over_combinations(tower, rows, scalars, threads=2, lead=2)
    assert one == two
    assert one[:2] == brute_force_lead(tower, rows, scalars, 2)
    assert one[0] > 1
    assert one[2] == (4**2 - 1) * 4**4


# fail closed ------------------------------------------------------------------


def test_subfield_precondition_fails_closed_under_optimize(run_optimized):
    """A basis row with values outside F_q must make min_distance_subfield
    raise even under python -O, which strips assert statements."""
    script = (
        "assert False, 'asserts are live'\n"
        "from hermgrass import analysis as an, codebuild\n"
        "from hermgrass.codebuild import build_generator, fq_basis\n"
        "gen = build_generator('hermitian', 2, 3)\n"
        "basis = fq_basis(2, 3)\n"
        "outside = next(x for x in range(9) if not gen.tower.in_base_subfield(x))\n"
        "basis[0] = {m: gen.tower.mul(outside, v) for m, v in basis[0].items()}\n"
        "codebuild.fq_basis = lambda ell, q: basis\n"
        "an.min_distance_subfield(gen)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "AssertionError: F_q basis row takes values outside the subfield" in proc.stderr
