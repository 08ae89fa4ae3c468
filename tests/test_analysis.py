import itertools
import random

import numpy as np
import pytest

from hermgrass import analysis as an
from hermgrass import dual as du
from hermgrass import linalg
from hermgrass import minors as mn
from hermgrass import strata as st
from hermgrass import walk as wk
from hermgrass.codebuild import (
    FAMILY_AFFINE,
    FAMILY_HERMITIAN,
    CodeSpec,
    build_generator,
    congruence_permutation,
    fq_basis,
    subfield_rows,
)
from hermgrass.errors import BudgetExceeded, NoneFoundWithinBound
from hermgrass.galois import SUPPORTED_Q, tower_for_q
from hermgrass.hermitian import count_invertible
from test_hermitian import matrices_at, unit_matrix, zero_matrix


def test_weight():
    assert an.weight([0, 0, 0]) == 0
    assert an.weight([0, 2, 3]) == 2


def test_weight_of_function_values():
    det_plus_one = {((1, 2), (1, 2)): 1, ((), ()): 1}
    assert an.weight_of_function(det_plus_one, 3, 2) == 192
    assert an.weight_of_function(det_plus_one, 2, 3) == 51
    assert an.weight_of_function({}, 2, 2) == 0
    assert an.weight_of_function(det_plus_one, 2, 2) == 6
    with pytest.raises(BudgetExceeded):
        an.weight_of_function(det_plus_one, 3, 7)


@pytest.mark.parametrize("f", [{((2, 1), (1, 2)): 1, ((), ()): 1},
                               {((1, 2), (1,)): 1},
                               {((3,), (3,)): 1}])
def test_weight_of_function_rejects_a_minor_outside_the_basis(f, monkeypatch):
    """An unsorted, non-square or out-of-range minor raises ValueError, worded
    as `GeneratorMatrix.message` words it, before any chunk is decoded."""
    with pytest.raises(ValueError) as built:
        build_generator(FAMILY_HERMITIAN, 2, 3).encode(f)

    def no_chunks(*args):
        raise RuntimeError("decoded a chunk")

    monkeypatch.setattr(an, "decoded_chunks", no_chunks)
    with pytest.raises(ValueError) as weighed:
        an.weight_of_function(f, 2, 3)
    assert str(weighed.value) == str(built.value)


def test_weight_of_function_matches_encoding():
    """The chunked weigh equals the weight of the built codeword, in both
    families, with coefficients over the code's scalars.  At (3, 3) the
    19,683 positions span two chunks, so a weigh that drops or repeats one
    fails."""
    rng = random.Random(3)
    for family in (FAMILY_HERMITIAN, FAMILY_AFFINE):
        for ell, q in [(2, 3), (3, 2), (3, 3)]:
            gen = build_generator(family, ell, q)
            for _ in range(10):
                f = {m: c for m in mn.basis(ell) if (c := rng.choice(gen.scalars))}
                assert an.weight_of_function(f, ell, q, family) == an.weight(gen.encode(f))


def test_engine_matches_independent_enumeration():
    # the Gray-walk engine agrees with brute-force re-encoding of every
    # message, on both a binary-path case and a general-radix case
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    t = gen.tower
    combos = fq_basis(2, 2)
    rows = [gen.encode(f) for f in combos]
    brute = min(
        an.weight(linalg.combine(t, rows, msg))
        for msg in itertools.product(t.subfield, repeat=6)
        if any(msg)
    )
    cert = an.min_distance_subfield(gen)
    assert cert.d == brute == 6

    full = min(
        an.weight(linalg.combine(t, list(gen.rows), msg))
        for msg in itertools.product(range(t.qq), repeat=6)
        if any(msg)
    )
    assert an.min_distance_exhaustive(gen).d == full == 6

    g23 = build_generator(FAMILY_HERMITIAN, 2, 3)
    combos = fq_basis(2, 3)
    rows = [g23.encode(f) for f in combos]
    brute = min(
        an.weight(linalg.combine(g23.tower, rows, msg))
        for msg in itertools.product(g23.tower.subfield, repeat=6)
        if any(msg)
    )
    assert an.min_distance_subfield(g23).d == brute == 51


def test_min_distance_exhaustive():
    cert = an.min_distance_exhaustive(build_generator(FAMILY_HERMITIAN, 2, 2))
    assert cert.d == 6
    assert cert.method == "ExhaustiveFull"
    assert cert.messages_searched == 4**6 - 1
    assert an.weight(build_generator(FAMILY_HERMITIAN, 2, 2).encode(cert.witness)) == 6

    cert_a = an.min_distance_exhaustive(build_generator(FAMILY_AFFINE, 2, 2))
    assert cert_a.d == 6
    assert cert_a.messages_searched == 2**6 - 1

    assert an.min_distance_exhaustive(build_generator(FAMILY_HERMITIAN, 1, 2)).d == 1

    with pytest.raises(BudgetExceeded):
        an.min_distance_exhaustive(build_generator(FAMILY_HERMITIAN, 3, 2))


def test_min_distance_subfield():
    expected = {2: 6, 3: 51, 4: 188, 5: 495}
    for q, d in expected.items():
        gen = build_generator(FAMILY_HERMITIAN, 2, q)
        cert = an.min_distance_subfield(gen)
        assert cert.d == d
        assert cert.method == "ExhaustiveSubfield"
        assert cert.messages_searched == q**6 - 1
        assert an.weight(gen.encode(cert.witness)) == d


def test_min_distance_subfield_l3():
    gen = build_generator(FAMILY_HERMITIAN, 3, 2)
    cert = an.min_distance_subfield(gen)
    assert cert.d == 192
    assert cert.messages_searched == 2**20 - 1
    assert an.weight(gen.encode(cert.witness)) == 192


def test_min_distance_subfield_budget_and_family():
    with pytest.raises(BudgetExceeded):
        an.min_distance_subfield(build_generator(FAMILY_HERMITIAN, 3, 3))
    with pytest.raises(ValueError):
        an.min_distance_subfield(build_generator(FAMILY_AFFINE, 2, 2))


def test_walk_heads_do_not_call_combine(monkeypatch):
    """Each walk head's state is built by the walk's own add and pack from the
    zero word, so the H2q8 subfield walk (six-lane words) calls no `combine`."""
    gen = build_generator(FAMILY_HERMITIAN, 2, 8)
    t = gen.tower
    rows = subfield_rows(gen, fq_basis(2, 8))

    def no_combine(*args, **kwargs):
        raise AssertionError("linalg.combine called")

    monkeypatch.setattr(linalg, "combine", no_combine)
    w, digits, searched = wk.min_weight_over_combinations(t, rows, t.subfield)
    assert (w, searched) == (3576, 8**6 - 1)
    word = np.zeros(gen.spec.n, dtype=np.uint8)
    for d, row in zip(digits, rows):
        word = t.add_np[word, t.mul_np[t.subfield[d]][row]]
    assert an.weight(word) == w


def test_require_budget_sizes_each_enumeration_from_the_spec(monkeypatch):
    monkeypatch.delenv("HERMGRASS_BUDGET_MESSAGES", raising=False)
    h25, a25 = CodeSpec(FAMILY_HERMITIAN, 5, 2), CodeSpec(FAMILY_AFFINE, 5, 2)
    assert (h25.alphabet, a25.alphabet) == (25, 5)
    assert wk.require_budget(h25) == "subfield"
    assert wk.require_budget(a25) == "exhaustive"
    with pytest.raises(BudgetExceeded, match=r"message space 25\^6 = 244140625 exceeds budget"):
        wk.require_budget(h25, "exhaustive")
    # the dual scan: n(n - 1)/2 column pairs times the nonzero scalars
    pairs = 625 * 624 // 2 * 24
    assert wk.require_budget(h25, "dual") == "dual"
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", str(25**6))
    assert wk.require_budget(h25, "exhaustive") == "exhaustive"
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", str(5**6 - 1))
    with pytest.raises(BudgetExceeded, match=r"message space 5\^6 = 15625 exceeds budget 15624"):
        wk.require_budget(a25)
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", str(pairs - 1))
    with pytest.raises(BudgetExceeded, match=f"pair search size {pairs} exceeds budget {pairs - 1}"):
        wk.require_budget(h25, "dual")
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", "1000")
    with pytest.raises(BudgetExceeded, match=f"pair search size {625 * 624 // 2 * 4} exceeds"):
        wk.require_budget(a25, "dual")


def test_require_budget_refuses_subfield_on_affine_before_sizing(monkeypatch):
    """Validity comes before size: even at a zero budget the affine
    subfield request is a ValueError, not BudgetExceeded."""
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", "0")
    with pytest.raises(ValueError, match="subfield enumeration applies to the Hermitian family"):
        wk.require_budget(CodeSpec(FAMILY_AFFINE, 2, 2), "subfield")
    with pytest.raises(BudgetExceeded):
        wk.require_budget(CodeSpec(FAMILY_HERMITIAN, 2, 2), "subfield")


def test_require_budget_charges_the_pair_scan_only_from_max_t_3(monkeypatch):
    """t <= 2 is read off the column keys, with no pair scan, so the H3q3
    dual search to max_t = 2 passes the default budget; from max_t = 3 its
    1,549,603,224 pair sums do not."""
    monkeypatch.delenv("HERMGRASS_BUDGET_MESSAGES", raising=False)
    h33 = CodeSpec(FAMILY_HERMITIAN, 3, 3)
    for max_t in (1, 2):
        assert wk.require_budget(h33, "dual", max_t=max_t) == "dual"
    for max_t in (3, 4):
        with pytest.raises(BudgetExceeded,
                           match="pair search size 1549603224 exceeds budget 16777216"):
            wk.require_budget(h33, "dual", max_t=max_t)


def test_min_distance_runs_the_family_enumeration():
    cert = an.min_distance(build_generator(FAMILY_HERMITIAN, 2, 3))
    assert (cert.method, cert.d) == ("ExhaustiveSubfield", 51)
    cert = an.min_distance(build_generator(FAMILY_AFFINE, 2, 3))
    assert (cert.method, cert.d) == ("ExhaustiveFull", 48)
    cert = an.min_distance(build_generator(FAMILY_HERMITIAN, 2, 3), "exhaustive")
    assert (cert.method, cert.d) == ("ExhaustiveFull", 51)
    # no silent fallback to another enumeration
    with pytest.raises(ValueError, match="subfield enumeration applies to the Hermitian family"):
        an.min_distance(build_generator(FAMILY_AFFINE, 2, 3), "subfield")


@pytest.mark.parametrize("q", [3, 5])
def test_min_distance_refuses_a_method_it_does_not_run(q):
    """An unknown method is a usage error at every q, never a budget error:
    at q = 5 the alphabet walk (25^6 messages) is over budget, and the gate
    refuses the method before it sizes anything.  "dual" names the pair
    scan, not a walk, and is refused before the scan is sized."""
    gen = build_generator(FAMILY_HERMITIAN, 2, q)
    with pytest.raises(ValueError, match="^unknown enumeration method 'formula'$"):
        an.min_distance(gen, "formula")
    with pytest.raises(ValueError, match="^unknown enumeration method 'formula'$"):
        wk.require_budget(gen.spec, "formula")
    with pytest.raises(ValueError, match="does not certify a minimum distance"):
        an.min_distance(gen, "dual")


def test_distance_formula():
    assert an.distance_formula(FAMILY_HERMITIAN, 1, 2) == (None, None)
    for family, ell, q, d in [(FAMILY_HERMITIAN, 2, 3, 51), (FAMILY_HERMITIAN, 3, 2, 192),
                              (FAMILY_AFFINE, 2, 3, 48), (FAMILY_AFFINE, 3, 2, 168)]:
        formula, witness = an.distance_formula(family, ell, q)
        assert formula == d
        assert an.weight_of_function(witness, ell, q, family) == d


def test_min_distance_threads_match():
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    one = an.min_distance_subfield(gen, threads=1)
    two = an.min_distance_subfield(gen, threads=2)
    assert one.d == two.d
    assert one.witness == two.witness


def test_min_distance_formula():
    cert = an.min_distance_formula(FAMILY_HERMITIAN, 3, 3)
    assert cert.d == 12393
    assert cert.method == "WitnessOnly"
    cert = an.min_distance_formula(FAMILY_HERMITIAN, 3, 7)
    assert cert.d == 34471157
    assert cert.method == "Formula"
    cert = an.min_distance_formula(FAMILY_AFFINE, 3, 2)
    assert cert.d == 168
    assert cert.method == "WitnessOnly"


def _recheck_dual(gen, cert):
    t = gen.tower
    for row in gen.rows:
        acc = 0
        for pos, c in zip(cert.columns, cert.coefficients):
            acc = t.add(acc, t.mul(c, int(row[pos])))
        assert acc == 0


def test_dual_min_distance_q3():
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    cert = du.dual_min_distance(gen)
    assert cert.d_dual == 3
    assert cert.columns == (0, 1, 2)
    assert cert.coefficients == (1, 1, 1)
    assert cert.exhausted_below == 3
    _recheck_dual(gen, cert)
    # the support is {0, E11, 2 E11}
    assert matrices_at(gen.tower, 2, [1, 2]) == [unit_matrix(2, 0, 0),
                                                 unit_matrix(2, 0, 0, value=2)]


def test_dual_min_distance_q2():
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    cert = du.dual_min_distance(gen)
    assert cert.d_dual == 4
    assert cert.columns == (0, 1, 4, 5)
    assert cert.coefficients == (1, 1, 1, 1)
    _recheck_dual(gen, cert)
    e11 = unit_matrix(2, 0, 0)
    cross = ((0, 1), (1, 0))
    both = ((1, 1), (1, 0))
    assert matrices_at(gen.tower, 2, cert.columns) == [zero_matrix(2), e11, cross, both]


def test_dual_min_distance_more():
    for q in (4, 5):
        gen = build_generator(FAMILY_HERMITIAN, 2, q)
        cert = du.dual_min_distance(gen)
        assert cert.d_dual == 3
        _recheck_dual(gen, cert)
    gen = build_generator(FAMILY_HERMITIAN, 3, 2)
    cert = du.dual_min_distance(gen)
    assert cert.d_dual == 4
    assert cert.exhausted_below == 4
    _recheck_dual(gen, cert)


def test_dual_min_distance_affine():
    # the affine family shows the same 4 (q=2) / 3 (q>2) split, with F_q
    # dependency coefficients
    cert = du.dual_min_distance(build_generator(FAMILY_AFFINE, 2, 2))
    assert cert.d_dual == 4
    cert = du.dual_min_distance(build_generator(FAMILY_AFFINE, 2, 3))
    assert cert.d_dual == 3
    t = tower_for_q(3)
    assert all(t.in_base_subfield(c) for c in cert.coefficients)
    _recheck_dual(build_generator(FAMILY_AFFINE, 2, 3), cert)


def test_dual_none_found_within_bound():
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    with pytest.raises(NoneFoundWithinBound):
        du.dual_min_distance(gen, max_t=2)


def test_dual_budget(monkeypatch):
    gen = build_generator(FAMILY_HERMITIAN, 3, 2)
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", "1000")
    with pytest.raises(BudgetExceeded):
        du.dual_min_distance(gen)
    # max_t = 2 scans no pairs, so the same budget lets it run
    with pytest.raises(NoneFoundWithinBound):
        du.dual_min_distance(gen, max_t=2)


def test_dual_word_weight3():
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    positions, coeffs = du.dual_word_weight3(gen, alpha=2, c0=1)
    # -2/(2-1) = 1 and 1/(2-1) = 1 in F_3
    assert positions == (0, 1, 2)
    assert coeffs == (1, 1, 1)
    with pytest.raises(ValueError):
        du.dual_word_weight3(gen, alpha=1)
    with pytest.raises(ValueError):
        du.dual_word_weight3(gen, alpha=0)
    with pytest.raises(ValueError):
        du.dual_word_weight3(build_generator(FAMILY_HERMITIAN, 2, 2), alpha=1)
    with pytest.raises(ValueError, match="nonzero vector"):
        du.dual_word_weight3(gen, alpha=2, b=(0, 0))


def test_dual_word_weight4():
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    positions, coeffs = du.dual_word_weight4(gen)
    assert positions == (0, 1, 4, 5)
    assert coeffs == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        du.dual_word_weight4(gen, a1=(1, 0), a2=(2, 0))  # dependent
    with pytest.raises(ValueError):
        du.dual_word_weight4(build_generator(FAMILY_HERMITIAN, 2, 3))


def test_independence_test_agrees_with_rank():
    """The pair test of dual_support_families accepts exactly the pairs of
    rank 2: every pair of vectors in F_4^2, and random pairs in F_4^3 and
    F_9^3, zero and proportional vectors among them."""
    rng = random.Random(3)
    for ell, q in [(2, 2), (3, 2), (3, 3)]:
        t = tower_for_q(q)
        vectors = list(itertools.product(range(t.qq), repeat=ell))
        if ell == 2:
            pairs = list(itertools.product(vectors, repeat=2))
        else:
            pairs = [(u, rng.choice([v, tuple(t.mul(rng.randrange(t.qq), x) for x in u)]))
                     for u, v in (rng.sample(vectors, 2) for _ in range(300))]
        for u, v in pairs:
            assert du._independent(t, u, v) == (linalg.rank(t, [u, v]) == 2)


def test_dual_support_families_randomized():
    for ell, q in [(2, 2), (2, 3), (3, 2)]:
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        words = du.dual_support_families(gen, seed=5)
        assert len(words) == 50
        t = gen.tower
        for positions, coeffs in words:
            assert len(positions) == (4 if q == 2 else 3)
            for row in gen.rows:
                acc = 0
                for pos, c in zip(positions, coeffs):
                    acc = t.add(acc, t.mul(c, int(row[pos])))
                assert acc == 0


def test_hyperbolic_zero_count():
    t3 = tower_for_q(3)
    assert st.hyperbolic_zero_count(t3, 0) == 5
    assert st.hyperbolic_zero_count(t3, 1) == 2
    t9 = tower_for_q(9)
    assert st.hyperbolic_zero_count(t9, t9.subfield[1]) == 8
    with pytest.raises(ValueError):
        st.hyperbolic_zero_count(t3, 3)  # 3 is not in F_3 inside F_9


def test_system_solution_count():
    t = tower_for_q(2)
    assert st.system_solution_count(t, [0, 0], [[0, 0], [0, 0]]) == 1
    assert st.system_solution_count(t, [1], [[1]]) == 3  # q + 1 norm preimages
    rng = random.Random(17)
    for n in (1, 2, 3):
        for q in (2, 3, 4):
            tw = tower_for_q(q)
            for i in range(100):
                a, b = st.random_system(tw, n, rng, consistent=(i % 2 == 0))
                count = st.system_solution_count(tw, a, b)
                assert count <= q + 1
                if i % 2 == 0:
                    assert count >= 1


def oracle_hyperbolic_count(tower, a, b, lam):
    """Scalar oracle: solutions (x1, x2) over F_q of (x1 + a)(x2 + b) = lam."""
    count = 0
    for x1 in tower.subfield:
        u = tower.add(x1, a)
        for x2 in tower.subfield:
            if tower.mul(u, tower.add(x2, b)) == lam:
                count += 1
    return count


def oracle_system_count(tower, a, b):
    """Scalar oracle: X in F_{q^2}^n with x_i^(q+1) = a_i and
    x_i x_j^q = b[i][j] for i != j."""
    n = len(a)
    count = 0
    for X in itertools.product(range(tower.qq), repeat=n):
        if all(tower.norm(X[i]) == a[i] for i in range(n)) and all(
                tower.mul(X[i], tower.conjugate(X[j])) == b[i][j]
                for i in range(n) for j in range(n) if i != j):
            count += 1
    return count


def test_counts_match_scalar_oracles():
    """The table counts equal the scalar loops on every case the verify
    checks draw from: every lam for every q, against the oracle at every
    (a, b), since the count does not depend on them, and consistent and
    inconsistent systems for n <= 3, q <= 4."""
    for q in sorted(SUPPORTED_Q):
        t = tower_for_q(q)
        for a, b, lam in itertools.product(t.subfield, repeat=3):
            assert st.hyperbolic_zero_count(t, lam) == oracle_hyperbolic_count(t, a, b, lam)
    rng = random.Random(5)
    counts = set()
    for n in (1, 2, 3):
        for q in (2, 3, 4):
            t = tower_for_q(q)
            for i in range(10):
                a, b = st.random_system(t, n, rng, consistent=(i % 2 == 0))
                count = st.system_solution_count(t, a, b)
                assert count == oracle_system_count(t, a, b)
                counts.add(count)
    assert 0 in counts and max(counts) > 1


def test_classify_weights_l2():
    r2 = st.classify_weights_l2(2)
    assert r2["weights"] == [6, 10]
    assert r2["resolved_predicate"] == "both"  # the two forms agree in char 2
    r3 = st.classify_weights_l2(3)
    assert r3["weights"] == [51, 60]
    assert r3["plus_f0_predicate_matches"]
    assert not r3["minus_f0_predicate_matches"]
    assert r3["resolved_predicate"] == "plus_f0"
    assert r3["family_size"] == 243


def test_verify_l3_bounds():
    r = st.verify_l3_bounds(2)
    assert r["min_weight"] == 216 == r["bound"]
    assert r["all_above_bound"]
    assert r["weight_det"] == 280 == count_invertible(3, 2)
    assert r["weight_det_matches_product_form"]
    assert not r["weight_det_matches_alt_expansion"]
    assert r["weight_det_plus_const"] == [232]


def test_verify_l3_bounds_q3():
    """At q = 3 the least weight of the det stratum, walked as det plus the
    degree <= 1 part over its (3 - 1) 3^10 messages, is the structural
    bound."""
    r = st.verify_l3_bounds(3)
    assert r["min_weight"] == r["bound"] == 12582
    assert r["family_size"] == 118098
    assert r["weight_det"] == 14040 == count_invertible(3, 3)
    assert r["weight_det_plus_const"] == [12663]


def test_min_weight_by_max_minor():
    r = st.min_weight_by_max_minor(2, 2, 2)
    assert r["min_weight"] == 6
    assert r["bound"] == 6
    r = st.min_weight_by_max_minor(2, 1, 2)
    assert r["min_weight"] == 8  # q^4 - q^3
    r = st.min_weight_by_max_minor(2, 0, 2)
    assert r["min_weight"] == 16
    r = st.min_weight_by_max_minor(2, 2, 3)
    assert r["min_weight"] == 51
    r_sc = st.min_weight_by_max_minor(2, 2, 2, self_conjugate_only=True)
    assert r_sc["min_weight"] == 6
    assert r_sc["functions_examined"] == 2**3 * 4  # f0, f11, f22 in F_2; f12 in F_4


def test_min_weight_by_max_minor_l3_q2():
    """The det stratum at (3, 2), cleared of its 2-minors by translation:
    det plus the ten degree <= 1 F_q rows, 2^10 messages, least weight
    216 >= 199."""
    r = st.min_weight_by_max_minor(3, 3, 2, self_conjugate_only=True)
    assert (r["min_weight"], r["functions_examined"], r["bound"]) == (216, 2**10, 199)
    assert r["meets_bound"]


def test_min_weight_by_max_minor_refuses_before_the_build(monkeypatch):
    """A walk over the message budget raises BudgetExceeded, and a stratum
    that cannot be read off the digits, or whose det stratum one
    translation does not clear (ell = 4), raises ValueError, before any
    build."""
    def no_build(*args):
        raise AssertionError("built a generator")

    monkeypatch.setattr(st, "build_generator", no_build)
    with pytest.raises(BudgetExceeded, match=r"message space 9\^11 = "):
        st.min_weight_by_max_minor(3, 3, 3)
    with pytest.raises(BudgetExceeded, match=r"message space 5\^11 = "):
        st.min_weight_by_max_minor(3, 3, 5, self_conjugate_only=True)
    with pytest.raises(ValueError, match="not read off the digits"):
        st.min_weight_by_max_minor(3, 2, 2)
    with pytest.raises(ValueError, match="up to ell = 3"):
        st.min_weight_by_max_minor(4, 4, 2, self_conjugate_only=True)


def test_min_weight_by_max_minor_sizes_its_stratum(monkeypatch):
    """The walk is sized by the stratum's own rows, r^(sum_{j <= k} C(ell, j)^2)
    messages: the constant stratum at q = 5 and 9 walks 24 and 80 messages,
    while the whole-code strata keep their refusals, before any build."""
    for q, n, messages in ((5, 625, 24), (9, 6561, 80)):
        r = st.min_weight_by_max_minor(2, 0, q)
        assert (r["min_weight"], r["functions_examined"]) == (n, messages)

    def no_build(*args):
        raise AssertionError("built a generator")

    monkeypatch.setattr(st, "build_generator", no_build)
    with pytest.raises(BudgetExceeded, match=r"message space 25\^6 = 244140625 "):
        st.min_weight_by_max_minor(2, 2, 5)


@pytest.mark.parametrize("ell, k, q", [(1, 1, 3), (1, 0, 2)])
def test_min_weight_by_max_minor_refuses_ell_below_2(monkeypatch, ell, k, q):
    """The induction bound is the paper's for k >= 2, so ell < 2 is refused
    before any build."""
    def no_build(*args):
        raise AssertionError("built a generator")

    monkeypatch.setattr(st, "build_generator", no_build)
    with pytest.raises(ValueError, match="ell >= 2"):
        st.min_weight_by_max_minor(ell, k, q)


def test_translation_clearing():
    g22 = build_generator(FAMILY_HERMITIAN, 2, 2)
    assert st.verify_translation_clearing(g22, {((1, 2), (1, 2)): 1}, (1, 2))
    f = {((1, 2), (1, 2)): 1, ((1,), (1,)): 1, ((2,), (2,)): 1}
    assert st.verify_translation_clearing(g22, f, (1, 2))
    with pytest.raises(ValueError):
        st.verify_translation_clearing(g22, {((1,), (2,)): 1}, (1, 2))
    with pytest.raises(ValueError):
        # det coefficient present, so the 1x1 minor is not maximal
        st.verify_translation_clearing(
            g22, {((1, 2), (1, 2)): 1, ((1,), (1,)): 1}, (1,)
        )
    g32 = build_generator(FAMILY_HERMITIAN, 3, 2)
    rng = random.Random(23)
    full = ((1, 2, 3), (1, 2, 3))
    for _ in range(50):
        f = mn.random_combination(g32.tower, 3, rng, self_conjugate=True)
        if not f.get(full, 0):
            f[full] = 1
        assert st.verify_translation_clearing(g32, f, (1, 2, 3))


def test_spread_reduction_worked_example():
    g32 = build_generator(FAMILY_HERMITIAN, 3, 2)
    f = {((1, 2), (2, 3)): 1}
    f2, info = st.spread_reduction_step(g32, f)
    assert (info["size"], info["spread"]) == (2, 3)
    assert info["new_minor"] == ((1, 2), (1, 2))
    assert f2.get(((1, 2), (1, 2)), 0)
    assert an.weight(g32.encode(f)) == an.weight(g32.encode(f2))


def test_spread_reduction_guard():
    g32 = build_generator(FAMILY_HERMITIAN, 3, 2)
    with pytest.raises(ValueError):
        st.spread_reduction_step(g32, {((1, 2), (1, 2)): 1})
    with pytest.raises(ValueError):
        st.spread_reduction_step(g32, {})


def test_spread_reduction_counts_the_minors_below_a_larger_maximal_one():
    """At H3q3 the minimal-spread maximal minor of this f is I:{1} J:{3}
    (spread 2), and I:{3} J:{3}, under the maximal I:{2,3} J:{1,3}, adds
    lambda^(q+1) * 3 to the reduced minor's coefficient.  A lambda that
    ignored it cancelled the reduced minor; the step now keeps it, at equal
    weight."""
    g33 = build_generator(FAMILY_HERMITIAN, 3, 3)
    f = {((2, 3), (1, 3)): 4, ((3,), (3,)): 3, ((1,), (3,)): 6}
    f2, info = st.spread_reduction_step(g33, f)
    assert (info["minor"], info["size"], info["spread"]) == (((1,), (3,)), 1, 2)
    assert f2.get(info["new_minor"], 0)
    assert an.weight(g33.encode(f)) == an.weight(g33.encode(f2))


@pytest.mark.parametrize("q", [2, 3])
def test_spread_reduction_on_random_combinations(q):
    """Random combinations at ell = 3 with no full determinant, half of them
    self-conjugate and some holding smaller minors under larger ones: each
    either has nothing to reduce or is reduced at equal weight."""
    gen = build_generator(FAMILY_HERMITIAN, 3, q)
    rng = random.Random(q)
    reduced = 0
    for _ in range(60):
        f = mn.random_combination(gen.tower, 3, rng, self_conjugate=rng.random() < 0.5)
        f = {m: c for m, c in f.items() if len(m[0]) < 2 or (len(m[0]) == 2 and rng.random() < 0.5)}
        try:
            f2, info = st.spread_reduction_step(gen, f)
        except ValueError as exc:
            assert "nothing to reduce" in str(exc)
            continue
        assert f2.get(info["new_minor"], 0)
        assert an.weight(gen.encode(f)) == an.weight(gen.encode(f2))
        reduced += 1
    assert reduced >= 15


@pytest.mark.parametrize("q", [2, 3])
def test_spread_reduction_lambda_is_the_first_scalar_that_keeps_the_minor(q):
    """The chosen lambda is the least nonzero scalar whose congruence, applied
    to the relabeled word, keeps the reduced minor: every smaller one cancels
    it.  The random combinations include some where lambda = 1 cancels."""
    gen = build_generator(FAMILY_HERMITIAN, 3, q)
    rng = random.Random(10 + q)
    lambdas = []
    for _ in range(60):
        f = mn.random_combination(gen.tower, 3, rng, self_conjugate=rng.random() < 0.5)
        f = {m: c for m, c in f.items() if len(m[0]) < 2 or (len(m[0]) == 2 and rng.random() < 0.5)}
        try:
            f2, info = st.spread_reduction_step(gen, f)
        except ValueError as exc:
            assert "nothing to reduce" in str(exc)
            continue
        pi, s, reduced = info["relabeling"], info["spread"], info["new_minor"]
        P = tuple(tuple(int(pi[i + 1] == j + 1) for j in range(3)) for i in range(3))
        w1 = gen.encode(f)[congruence_permutation(gen.tower, 3, P)]
        for lam in range(1, info["lambda"] + 1):
            A = np.eye(3, dtype=np.uint8)
            A[0, s - 1] = lam  # I + lam E_{1,s}
            g = gen.interpolate(w1[congruence_permutation(gen.tower, 3, A)])
            assert bool(g.get(reduced, 0)) == (lam == info["lambda"])
        assert g == f2
        lambdas.append(info["lambda"])
    assert lambdas.count(1) >= 5 and sum(lam > 1 for lam in lambdas) >= 3


def test_induction_bound_values():
    assert st.induction_bound(2, 2) == 16 - 8 - 2 + 1 - 1 == 6
    assert st.induction_bound(2, 3) == 81 - 27 - 3 + 1 - 1 == 51
    assert st.induction_bound(3, 2) == 512 - 256 - 64 + 8 - 1 == 199


def test_certificate_serialization():
    from hermgrass import reports

    cert = an.min_distance_subfield(build_generator(FAMILY_HERMITIAN, 2, 2))
    d = cert.as_dict()
    assert d["d"] == 6
    assert "witness" in d and "generator" in d
    text = reports.to_text(d)
    assert "d = 6" in text
    tree = reports.to_tree(d)
    import json

    assert json.loads(tree)["method"] == "ExhaustiveSubfield"
