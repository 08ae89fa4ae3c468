"""The classifier reductions of the weight engine: the maximal-minor strata,
the two-weight classification and the table walk they share, against
pinned reports and brute force; and the translation clearing that lets
the ell = 3 det stratum walk det plus its degree <= 1 part."""

import itertools
from unittest import mock

import numpy as np
import pytest

from hermgrass import analysis as an
from hermgrass import minors as mn
from hermgrass import strata as st
from hermgrass import walk as wk
from hermgrass.codebuild import FAMILY_HERMITIAN, build_generator, fq_basis, subfield_rows

# (functions_examined, min_weight) for k = 0, 1, 2, recorded from the
# hand-written Gray walk the engine replaced
STRATA = {
    (2, False): [(3, 16), (1020, 8), (3072, 6)],
    (2, True): [(1, 16), (30, 8), (32, 6)],
    (3, False): [(8, 81), (59040, 54), (472392, 51)],
    (3, True): [(2, 81), (240, 54), (486, 51)],
}


@pytest.mark.parametrize("q, sc", sorted(STRATA))
def test_min_weight_by_max_minor_pinned(q, sc):
    got = []
    for k in (0, 1, 2):
        r = st.min_weight_by_max_minor(2, k, q, self_conjugate_only=sc)
        got.append((r["functions_examined"], r["min_weight"]))
    assert got == STRATA[(q, sc)]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("sc", [False, True])
def test_strata_account_for_every_nonzero_message(q, sc):
    """The k = 0, 1, 2 strata walk disjoint message sets that together are
    every nonzero message over the r = q (self-conjugate) or q^2 scalars."""
    r = q if sc else q * q
    examined = [st.min_weight_by_max_minor(2, k, q, self_conjugate_only=sc)["functions_examined"]
                for k in (0, 1, 2)]
    assert sum(examined) == r**6 - 1


def strata_brute_force(q, self_conjugate):
    """{k: (count, min weight)} over every nonzero ell = 2 combination (or
    every self-conjugate one), classed by the sizes of its maximal minors."""
    gen = build_generator(FAMILY_HERMITIAN, 2, q)
    tower = gen.tower
    sub = tower.subfield
    if self_conjugate:
        x12, x21 = ((1,), (2,)), ((2,), (1,))
        combos = ({((), ()): f0, ((1,), (1,)): f11, x12: f12, x21: tower.conjugate(f12),
                   ((2,), (2,)): f22, ((1, 2), (1, 2)): fd}
                  for f0, f11, f12, f22, fd in itertools.product(
                      sub, sub, range(tower.qq), sub, sub))
    else:
        combos = (dict(zip(gen.basis, digits))
                  for digits in itertools.product(range(tower.qq), repeat=len(gen.basis)))
    out = {}
    for f in combos:
        f = {m: c for m, c in f.items() if c}
        if not f:
            continue
        sizes = {len(m[0]) for m in mn.maximal_minors(f)}
        assert len(sizes) == 1  # the classes are nested at ell = 2
        (k,) = sizes
        w = an.weight(gen.encode(f))
        count, best = out.get(k, (0, w))
        out[k] = (count + 1, min(best, w))
    return out


@pytest.mark.parametrize("sc", [False, True])
@pytest.mark.parametrize("table_bytes", [0, 100, wk.TABLE_BYTES])
def test_min_weight_by_max_minor_equals_brute_force(sc, table_bytes):
    expected = strata_brute_force(2, sc)
    with mock.patch.object(wk, "TABLE_BYTES", table_bytes):
        for k in (0, 1, 2):
            r = st.min_weight_by_max_minor(2, k, 2, self_conjugate_only=sc)
            assert (r["functions_examined"], r["min_weight"]) == expected[k]


def test_classify_weights_l2_q5_pinned():
    r = st.classify_weights_l2(5)
    assert r["weights"] == r["expected_weights"] == [495, 520]
    assert r["family_size"] == 3125
    assert r["resolved_predicate"] == "plus_f0"


def test_classify_weights_l2_q4_pinned():
    r = st.classify_weights_l2(4)
    assert r["weights"] == r["expected_weights"] == [188, 204]
    assert r["family_size"] == 1024
    assert r["count_weight_high"] == 256
    assert r["count_weight_low"] == 768
    assert r["resolved_predicate"] == "both"


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("table_bytes", [0, 300, wk.TABLE_BYTES])
def test_weights_by_digits_equals_brute_force(q, table_bytes):
    """Every message with first digit 1 once, with the weight its digits
    give as a plain sum of scaled rows, wherever the table split falls."""
    gen = build_generator(FAMILY_HERMITIAN, 2, q)
    tower = gen.tower
    rows = list(gen.rows[::-1][:4])
    scalars = list(tower.subfield)
    with mock.patch.object(wk, "TABLE_BYTES", table_bytes):
        got = sorted(wk._weights_by_digits(tower, rows, scalars))
    expected = []
    for digits in itertools.product(range(q), repeat=len(rows) - 1):
        digits = (1,) + digits
        word = np.zeros(gen.spec.n, dtype=np.uint8)
        for d, row in zip(digits, rows):
            word = tower.add_np[word, tower.mul_np[scalars[d]][row]]
        expected.append((digits, an.weight(word)))
    assert got == expected


# the ell = 3 det stratum, cleared by translation ---------------------------------


def test_cleared_det_stratum_equals_the_full_walk():
    """At H3q2 the det stratum walked over all 20 F_q rows, det leading,
    2^19 messages, has the least weight of the cleared walk over det and
    the ten degree <= 1 rows."""
    gen = build_generator(FAMILY_HERMITIAN, 3, 2)
    combos = fq_basis(3, 2)
    rows = subfield_rows(gen, combos)
    det = combos.index({((1, 2, 3), (1, 2, 3)): 1})
    order = [det] + [i for i in range(len(combos)) if i != det]
    full = wk.min_weight_over_combinations(gen.tower, rows[order], gen.tower.subfield, lead=1)
    assert (full[0], full[2]) == (216, 2**19)
    assert st.min_weight_by_max_minor(3, 3, 2, self_conjugate_only=True)["min_weight"] == 216


@pytest.mark.parametrize("q, sc, expected", [
    (3, True, (12582, 118098, 12419)),  # (3 - 1) 3^10 messages; 3^20 before the clearing
    (2, False, (216, 3145728, 199)),  # over F_4: (4 - 1) 4^10; 4^20 before the clearing
])
def test_cleared_det_stratum_pinned(q, sc, expected):
    r = st.min_weight_by_max_minor(3, 3, q, self_conjugate_only=sc)
    assert (r["min_weight"], r["functions_examined"], r["bound"]) == expected


def test_clearing_is_checked_on_the_nine_size_2_rows_at_ell_3_only(monkeypatch):
    """det + g for each F_q basis row g of size 2, once per det stratum at
    ell = 3, in both alphabets; never at ell = 2, where no row is left out."""
    calls = []
    clear = st.verify_translation_clearing

    def counted(gen, f, I):
        calls.append((gen.spec.ell, f, I))
        return clear(gen, f, I)

    monkeypatch.setattr(st, "verify_translation_clearing", counted)
    for k in (0, 1, 2):
        st.min_weight_by_max_minor(2, k, 2)
        st.min_weight_by_max_minor(2, k, 3, self_conjugate_only=True)
    st.classify_weights_l2(2)
    assert calls == []
    full = (1, 2, 3)
    expected = [(3, {(full, full): 1, **g}, full)
                for g in fq_basis(3, 2) if len(next(iter(g))[0]) == 2]
    assert len(expected) == 9
    for sc in (True, False):
        st.min_weight_by_max_minor(3, 3, 2, self_conjugate_only=sc)
        assert calls == expected
        calls.clear()


class Sized(Exception):
    """Raised by the stub budget check, so no generator is built or walked."""


@pytest.mark.parametrize("sc", [False, True])
@pytest.mark.parametrize("ell, k", [(2, 0), (2, 1), (2, 2), (3, 3)])
def test_the_pre_build_size_is_the_stratum(monkeypatch, ell, k, sc):
    """The row count sized before the build is the number of rows the walk
    then takes from `_stratum`, at every (ell, k) the classifier accepts."""
    sized = []

    def stub(size, what):
        sized.append((size, what))
        raise Sized

    monkeypatch.setattr(st, "_require_size", stub)
    with pytest.raises(Sized):
        st.min_weight_by_max_minor(ell, k, 2, self_conjugate_only=sc)
    rows, _, scalars, _ = st._stratum(build_generator(FAMILY_HERMITIAN, ell, 2), k, sc)
    r, m = len(scalars), len(rows)
    assert sized == [(r**m, f"message space {r}^{m} =")]


def zeroed_corner(clearing_matrix):
    """A clearing matrix with its (1, 1) entry zeroed: still Hermitian, and
    it fails to clear only det + the principal minor on {2, 3}, the last of
    the nine size-2 F_q rows."""
    def mutant(tower, ell, f, I):
        H = [list(row) for row in clearing_matrix(tower, ell, f, I)]
        H[0][0] = 0
        return tuple(map(tuple, H))
    return mutant


def test_a_broken_clearing_fails_before_any_walk(monkeypatch):
    def no_walk(*args):
        raise RuntimeError("walked")

    monkeypatch.setattr(st, "translation_clearing_matrix",
                        zeroed_corner(st.translation_clearing_matrix))
    monkeypatch.setattr(wk, "_walk", no_walk)
    with pytest.raises(AssertionError, match=r"leaves a 2-minor of det \+ \{\(\(2, 3\), \(2, 3\)\): 1\}"):
        st.min_weight_by_max_minor(3, 3, 2, self_conjugate_only=True)
