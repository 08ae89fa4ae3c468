"""The packed layouts of the walk and the dual scan against the field
tables: base-p digits in lanes of w bits (w = 1 at p = 2, bit_length(2(p -
1)) at odd p), added lane by lane and weighed by flagging nonzero lanes;
and the fiber lanes, which pack a word as its affine coefficients along
the first position digits, against the position lanes and the field."""

import concurrent.futures
import functools
import itertools
import threading
from unittest import mock

import numpy as np
import pytest

from hermgrass import dual as du
from hermgrass import strata as st
from hermgrass import walk as wk
from hermgrass.codebuild import (FAMILY_AFFINE, FAMILY_HERMITIAN, build_generator, fq_basis,
                                 subfield_rows)
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
    pack, add, weigh = wk._additive_form(tower, rows, wk._lane_basis(tower, rows, scalars))

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
    pack, key = du._packer(tower, k)
    add = wk._digit_lanes(tower.p)[1]
    assert (key(add(pack(u), pack(v))) == key(pack(tower.add_np[u, v]))).all()
    assert (key(add(pack(u), pack(tower.neg_np[u]))) == key(pack(np.zeros_like(u)))).all()


# fiber lanes ------------------------------------------------------------------

# every ell = 2 cell in both families, and (3, 2)
FIBER_CELLS = [(family, ell, q) for family in (FAMILY_HERMITIAN, FAMILY_AFFINE)
               for ell, q in [(2, q) for q in sorted(SUPPORTED_Q)] + [(3, 2)]]


def cell_id(cell):
    family, ell, q = cell
    return f"{family[0].upper()}{ell}q{q}"


@functools.cache
def certifying_rows(family, ell, q):
    """(tower, rows, scalars, fibers) of the family's certifying walk: the F_q
    basis rows of the Hermitian code, affine in h_00 (1 fiber digit), or the
    generator rows of the affine code, affine in its first row (ell digits)
    and so in x_00 as well."""
    gen = build_generator(family, ell, q)
    if family == FAMILY_HERMITIAN:
        return gen.tower, subfield_rows(gen, fq_basis(ell, q)), list(gen.tower.subfield), (1,)
    return gen.tower, gen.rows, list(gen.scalars), (ell, 1)


def field_sum(tower, rows, scalars, digits):
    word = np.zeros(rows.shape[1], dtype=np.uint8)
    for d, row in zip(digits, rows):
        word = tower.add_np[word, tower.mul_np[scalars[d]][row]]
    return word


@pytest.mark.parametrize("cell", FIBER_CELLS, ids=cell_id)
def test_fiber_words_add_and_weigh_as_the_field(cell):
    """Packed on fiber lanes, words of the certifying rows add as the field
    adds them, and weigh of the table XORed with the negated state counts
    the nonzero positions of every table word plus the state's word."""
    tower, rows, scalars, fibers = certifying_rows(*cell)
    q, n = tower.q, rows.shape[1]
    rng = np.random.default_rng(n + len(rows))
    messages = [np.eye(len(rows), dtype=int)[i] for i in range(len(rows))]
    messages += list(rng.integers(0, q, (40, len(rows))))
    words = np.array([field_sum(tower, rows, scalars, d) for d in messages], dtype=np.uint8)
    basis = wk._lane_basis(tower, rows, scalars)
    for m in fibers:
        pack, add, weigh = wk._additive_form(tower, rows, basis, m)
        assert weigh.fiber == m
        per = 64 // WIDTH[tower.p]
        packed = [pack(v) for v in words]
        assert packed[0].shape[1:] == ((m + 1) * -(-n // q**m // per), 1)
        table = np.concatenate(packed, axis=-1)
        for u in words[rng.permutation(len(words))[:6]]:
            sums = tower.add_np[words, u]
            assert np.array_equal(add(table, pack(u)), np.concatenate([pack(s) for s in sums], -1))
            x = table ^ pack(tower.neg_np[u])
            before = x.copy()
            got = weigh(x, np.empty(x.shape[1:], dtype=x.dtype))
            assert got.tolist() == np.count_nonzero(sums, axis=1).tolist(), m
            assert np.array_equal(x, before)


@pytest.mark.parametrize("cell", FIBER_CELLS, ids=cell_id)
def test_fiber_walk_equals_the_position_walk(cell):
    """The plain walk and the fiber walk of the certifying rows yield the
    same weights at every Gray state, over every message, at the plan's
    table digits."""
    tower, rows, scalars, fibers = certifying_rows(*cell)
    _, kt, [heads] = wk._plan(tower, rows, scalars, len(rows))
    basis = wk._lane_basis(tower, rows, scalars)
    plain = wk._additive_form(tower, rows, basis)
    for m in fibers[:1]:
        fiber = wk._additive_form(tower, rows, basis, m)
        walks = [wk._walk(tower, rows, scalars, form, kt, heads) for form in (plain, fiber)]
        states = 0
        for (head, walked, w), (head2, walked2, w2) in zip(*walks):
            assert (head, walked) == (head2, walked2)
            assert np.array_equal(w, w2), (head, walked)
            states += 1
        assert all(next(walk, None) is None for walk in walks)
        assert states * len(scalars) ** kt >= (len(scalars) ** len(rows) - 1) // (len(scalars) - 1)


# (family, ell, q) -> (fiber digits, kt) of the plan for the certifying
# walk, 0 digits for positions: the fiber wins from q = 7 and at A3q2;
# positions keep q <= 5, where the fiber's build, check and second count
# cost more than its smaller words save, and H3q2, where the first-row
# fiber, cheaper by the cost, does not fit the Hermitian rows
CERTIFYING_PLANS = {
    (FAMILY_HERMITIAN, 2, 2): (0, 6), (FAMILY_HERMITIAN, 2, 3): (0, 6),
    (FAMILY_HERMITIAN, 2, 4): (0, 5), (FAMILY_HERMITIAN, 2, 5): (0, 4),
    (FAMILY_HERMITIAN, 2, 7): (1, 4), (FAMILY_HERMITIAN, 2, 8): (1, 3),
    (FAMILY_HERMITIAN, 2, 9): (1, 3), (FAMILY_HERMITIAN, 3, 2): (0, 14),
    (FAMILY_AFFINE, 2, 2): (0, 6), (FAMILY_AFFINE, 2, 3): (0, 6),
    (FAMILY_AFFINE, 2, 4): (0, 5), (FAMILY_AFFINE, 2, 5): (0, 4),
    (FAMILY_AFFINE, 2, 7): (2, 4), (FAMILY_AFFINE, 2, 8): (2, 4),
    (FAMILY_AFFINE, 2, 9): (2, 3), (FAMILY_AFFINE, 3, 2): (3, 15),
}


@pytest.mark.parametrize("cell", sorted(CERTIFYING_PLANS), ids=cell_id)
def test_plan_chooses_the_layout_by_its_cost(cell):
    tower, rows, scalars, _ = certifying_rows(*cell)
    form, kt, _ = wk._plan(tower, rows, scalars, len(rows))
    assert (form[2].fiber, kt) == CERTIFYING_PLANS[cell]


def caller_walks():
    """(name, tower, rows, scalars, lead) of the walks the strata and the
    classifiers plan: the ell = 2 strata over F_q and over the alphabet,
    the ell = 3 self-conjugate det stratum, the two-weight classification's
    walk, and the Hermitian generator rows over the alphabet (H2q3x)."""
    for q in (2, 3):
        gen = build_generator(FAMILY_HERMITIAN, 2, q)
        for k, self_conjugate in itertools.product((0, 1, 2), (True, False)):
            rows, _, scalars, lead = st._stratum(gen, k, self_conjugate)
            over = "F_q" if self_conjugate else "F_q^2"
            yield f"stratum (2, {k}, {q}) over {over}", gen.tower, rows, list(scalars), lead
        rows, _, scalars, _ = st._stratum(gen, 2, True)
        yield f"weights by digits at q = {q}", gen.tower, rows, list(scalars), 1
    gen = build_generator(FAMILY_HERMITIAN, 3, 2)
    rows, _, scalars, lead = st._stratum(gen, 3, True)
    yield "stratum (3, 3, 2) over F_q", gen.tower, rows, list(scalars), lead
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    yield "H2q3x", gen.tower, gen.rows, list(gen.scalars), len(gen.rows)


# name -> (fiber digits, kt) of the plan for each of `caller_walks`: all on positions
CALLER_PLANS = {
    **{f"stratum (2, {k}, {q}) over {over}": (0, kt)
       for q in (2, 3) for over in ("F_q", "F_q^2") for k, kt in enumerate((0, 1, 5))},
    "stratum (2, 2, 3) over F_q^2": (0, 4),
    "weights by digits at q = 2": (0, 5), "weights by digits at q = 3": (0, 5),
    "stratum (3, 3, 2) over F_q": (0, 10), "H2q3x": (0, 4),
}


@pytest.mark.parametrize("walk", list(caller_walks()), ids=lambda walk: walk[0])
def test_plan_of_every_caller_walk(walk):
    name, tower, rows, scalars, lead = walk
    form, kt, _ = wk._plan(tower, rows, scalars, lead)
    assert (form[2].fiber, kt) == CALLER_PLANS[name]


def recording_forms():
    """A stand-in for `_additive_form` that records (fiber, outcome, thread)
    of every call."""
    calls, build = [], wk._additive_form

    def record(tower, rows, basis, fiber=0):
        try:
            form = build(tower, rows, basis, fiber)
        except ValueError:
            calls.append((fiber, "refused", threading.get_ident()))
            raise
        calls.append((fiber, "built", threading.get_ident()))
        return form

    return calls, record


# (family, ell, q) -> the (fiber digits, outcome) of every form the plan
# builds, in order: the cheapest layout first, and a fiber that does not fit
# (m = ell = 2 at H2q7 and H2q9, m = 3 at H3q2) before the next one
PLAN_CALLS = {
    (FAMILY_HERMITIAN, 2, 7): [(2, "refused"), (1, "built")],
    (FAMILY_HERMITIAN, 2, 9): [(2, "refused"), (1, "built")],
    (FAMILY_AFFINE, 2, 7): [(2, "built")],
    (FAMILY_AFFINE, 3, 2): [(3, "built")],
    (FAMILY_HERMITIAN, 3, 2): [(3, "refused"), (0, "built")],
    (FAMILY_HERMITIAN, 2, 5): [(0, "built")],
}


@pytest.mark.parametrize("cell", sorted(PLAN_CALLS), ids=cell_id)
def test_plan_builds_only_the_layout_it_walks(cell):
    """The plan builds no form it does not walk, apart from the fibers that
    do not fit, and a walk in one process scans the values once."""
    tower, rows, scalars, _ = certifying_rows(*cell)
    calls, record = recording_forms()
    scans, lane_basis = [], wk._lane_basis
    with mock.patch.object(wk, "_additive_form", record), \
            mock.patch.object(wk, "_lane_basis", lambda *args: scans.append(1) or lane_basis(*args)):
        form, _, _ = wk._plan(tower, rows, scalars, len(rows))
        assert [(fiber, status) for fiber, status, _ in calls] == PLAN_CALLS[cell]
        calls.clear()
        scans.clear()
        wk.min_weight_over_combinations(tower, rows, scalars)
    assert [(fiber, status) for fiber, status, _ in calls] == PLAN_CALLS[cell]
    assert len(scans) == 1


@pytest.mark.parametrize("full", [False, True], ids=["F_q", "F_q2"])
@pytest.mark.parametrize("q", sorted(SUPPORTED_Q))
def test_every_layout_packs_on_the_basis_planes(q, full):
    """Every word packed by every layout that fits the rows has one plane per
    pivot digit of the rows' `_lane_basis`, and distinct words pack apart:
    a fiber's coefficients are differences of values, so they lie in the
    values' span, on which the pivot digits are injective.  The F_q rows are
    the certifying rows of both families, which fit fibers; the F_{q^2}
    rows are the Hermitian generator rows, which only positions fit."""
    if full:
        gen = build_generator(FAMILY_HERMITIAN, 2, q)
        cases = [(gen.tower, gen.rows, list(gen.scalars), ())]
    else:
        cases = [certifying_rows(family, 2, q) for family in (FAMILY_HERMITIAN, FAMILY_AFFINE)]
    for tower, rows, scalars, fibers in cases:
        rng = np.random.default_rng(q)
        messages = rng.integers(0, len(scalars), (20, len(rows)))
        words = [field_sum(tower, rows, scalars, d) for d in messages]
        words += words[:5]  # the same words again pack the same
        basis = wk._lane_basis(tower, rows, scalars)
        for m in (0,) + fibers:
            pack = wk._additive_form(tower, rows, basis, m)[0]
            packed = [pack(v) for v in words]
            assert all(len(x) == len(basis[1]) for x in packed), m
            distinct = {v.tobytes() for v in words}
            assert len({x.tobytes() for x in packed}) == len(distinct), m
        for m in {1, 2} - set(fibers):
            with pytest.raises(ValueError, match="not F_q-affine"):
                wk._additive_form(tower, rows, basis, m)


def position_walk(tower, rows, scalars, lead):
    """The least (weight, digits) of the walk on position lanes, whatever
    the plan would choose."""
    _, kt, [heads] = wk._plan(tower, rows, scalars, lead)
    form = wk._additive_form(tower, rows, wk._lane_basis(tower, rows, scalars))
    return wk._least_weight(tower, rows, scalars, kt, heads, form)


def changed_entry(tower, rows, at):
    """rows with the entry of row 3 at position `at` moved to another F_q value."""
    rows = rows.copy()
    sub = tower.subfield_np
    rows[3, at] = sub[(np.flatnonzero(sub == rows[3, at])[0] + 1) % len(sub)]
    return rows


def fail_closed_cases():
    """(name, tower, rows, scalars, lead) of walks a fiber layout does not fit."""
    tower, rows, scalars, _ = certifying_rows(FAMILY_AFFINE, 2, 7)
    rng = np.random.default_rng(7)
    yield "random F_q rows", tower, rng.choice(tower.subfield_np, rows.shape), scalars, len(rows)
    for at in (5, rows.shape[1] - 1):  # in the first fiber, and in the last
        yield f"A2q7 generator rows, entry {at} changed", tower, changed_entry(tower, rows, at), \
            scalars, len(rows)
    tower, rows, scalars, _ = certifying_rows(FAMILY_HERMITIAN, 2, 7)
    yield "H2q7 F_q basis rows, entry 9 changed", tower, changed_entry(tower, rows, 9), \
        scalars, len(rows)
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    yield "H2q3x", gen.tower, gen.rows, list(gen.scalars), len(gen.rows)
    for k, q in [(2, 2), (1, 2), (0, 2), (2, 3)]:
        gen = build_generator(FAMILY_HERMITIAN, 2, q)
        rows, _, scalars, lead = st._stratum(gen, k, False)
        yield f"stratum (2, {k}, {q}) over F_q^2", gen.tower, rows, list(scalars), lead


# what the position walk gave these cases before the fiber layout existed
FAIL_CLOSED_RESULTS = {
    "H2q3x": (51, (0, 0, 1, 1, 0, 1), 531440),
    "stratum (2, 2, 2) over F_q^2": (6, (1, 0, 0, 1, 1, 0), 3072),
    "stratum (2, 1, 2) over F_q^2": (8, (0, 0, 0, 1, 0), 1020),
    "stratum (2, 0, 2) over F_q^2": (16, (1,), 3),
    "stratum (2, 2, 3) over F_q^2": (51, (1, 0, 0, 1, 1, 0), 472392),
}


@pytest.mark.parametrize("case", list(fail_closed_cases()), ids=lambda case: case[0])
def test_a_fiber_that_does_not_fit_falls_back_to_positions(case):
    """Rows that are not F_q-affine on a fiber, or values outside F_q: the
    fiber form raises ValueError, the plan walks positions, and the walk
    gives what the position walk gives."""
    name, tower, rows, scalars, lead = case
    n, q = rows.shape[1], tower.q
    basis = wk._lane_basis(tower, rows, scalars)
    for m in (1, 2):
        with pytest.raises(ValueError, match="not F_q-affine"):
            wk._additive_form(tower, rows, basis, m)
    calls, record = recording_forms()
    with mock.patch.object(wk, "_additive_form", record):
        form, kt, _ = wk._plan(tower, rows, scalars, lead)
        got = wk.min_weight_over_combinations(tower, rows, scalars, lead=lead)
    assert form[2].fiber == 0 and form[0](rows[0]).shape[1] == -(-n // (64 // WIDTH[tower.p]))
    assert all(status == "refused" for fiber, status, _ in calls if fiber)
    if q >= 7:  # the cost model prefers a fiber here, so the plan tried one and fell back
        assert any(fiber for fiber, _, _ in calls)
    r, k = len(scalars), len(rows)
    assert got == position_walk(tower, rows, scalars, lead) + ((r**lead - 1) * r ** (k - lead),)
    assert got == FAIL_CLOSED_RESULTS.get(name, got)


@pytest.mark.parametrize("family", [FAMILY_AFFINE, FAMILY_HERMITIAN])
def test_workers_walk_the_plans_layout(family):
    """threads=2 gives the certificate of threads=1 at q = 7, where the plan
    takes fiber lanes; with the process pool swapped for threads, every
    job builds its form on the plan's fiber digits."""
    tower, rows, scalars, _ = certifying_rows(family, 2, 7)
    one = wk.min_weight_over_combinations(tower, rows, scalars, threads=1)
    assert wk.min_weight_over_combinations(tower, rows, scalars, threads=2) == one
    form, _, jobs = wk._plan(tower, rows, scalars, len(rows), threads=2)
    assert form[2].fiber > 0 and len(jobs) == 2
    calls, record = recording_forms()
    with mock.patch.object(wk, "_additive_form", record), \
            mock.patch.object(wk.concurrent.futures, "ProcessPoolExecutor",
                              concurrent.futures.ThreadPoolExecutor):
        assert wk.min_weight_over_combinations(tower, rows, scalars, threads=2) == one
    main = threading.get_ident()
    workers = [(fiber, status) for fiber, status, thread in calls if thread != main]
    assert workers == [(form[2].fiber, "built")] * len(jobs)
