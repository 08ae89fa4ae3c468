"""Executable invariant suites behind `hermgrass verify`.

Every check either returns a short detail string or raises AssertionError;
the runner times each one and reports per-check pass/fail, any other
exception as a failure with its type.  Randomized checks draw from a
seeded generator so two runs produce identical reports apart from the
timing fields.
"""

from __future__ import annotations

import random
import tempfile
import time

import numpy as np

from . import analysis as an
from . import hermitian as hm
from . import linalg
from . import minors as mn
from . import strata as st
from .codebuild import (
    FAMILY_AFFINE,
    FAMILY_HERMITIAN,
    build_generator,
    congruence_permutation,
    eval_minor_vector,
    fq_basis,
    position_entries,
    q_invariance_check,
    read_generator,
    subfield_rows,
    translate_permutation,
    transpose_permutation,
    write_generator,
)
from .dual import dual_support_families
from .errors import require
from .galois import SUPPORTED_Q, tower_for_q
from .hermitian import count_invertible

HERMITIAN_DESK = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]
CERTIFIED_PAIRS = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]


def check_field_axioms(seed):
    for q in sorted(SUPPORTED_Q):
        t = tower_for_q(q)
        aa = np.arange(t.qq, dtype=np.uint8)
        add, mul, b, c = t.adds, t.muls, aa[:, None], aa
        # q values of a at a time, so the kernels' keys of q^5 triples stay small
        for a in np.array_split(aa[:, None, None], q):
            require(np.array_equal(add(add(a, b), c), add(a, add(b, c))), f"add assoc q={q}")
            require(np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c))), f"mul assoc q={q}")
            require(np.array_equal(mul(a, add(b, c)), add(mul(a, b), mul(a, c))),
                    f"distrib q={q}")
        require(not add(aa, t.neg_np).any())
        require((mul(aa[1:], t.inv_np[1:]) == 1).all())
    return f"axioms exhaustive for q in {sorted(SUPPORTED_Q)}"


def check_subfield_structure(seed):
    for q in sorted(SUPPORTED_Q):
        t = tower_for_q(q)
        require(len(t.subfield) == q)
        for x in range(t.qq):
            require((t.conjugate(x) == x) == t.in_base_subfield(x))
            require(t.conjugate(t.conjugate(x)) == x)
    return "subfield = Frobenius fixed points, conjugation involutive"


def check_trace_norm_fibers(seed):
    for q in sorted(SUPPORTED_Q):
        t = tower_for_q(q)
        traces = [t.trace(x) for x in range(t.qq)]
        norms = [t.norm(x) for x in range(t.qq)]
        for c in t.subfield:
            require(traces.count(c) == q, f"trace fiber at q={q}")
            if c:
                require(norms.count(c) == q + 1, f"norm fiber at q={q}")
    return "trace fibers q, nonzero norm fibers q+1, all towers"


def check_enumeration_bijectivity(seed):
    pairs = [(ell, q) for ell in (1, 2, 3, 4) for q in sorted(SUPPORTED_Q)
             if q ** (ell * ell) <= hm.BUILD_LIMIT]
    checked = 0
    for ell, q in pairs:
        t = tower_for_q(q)
        for positions, E in hm.decoded_chunks(t, ell, FAMILY_HERMITIAN):
            try:
                back = hm.encode(t, ell, FAMILY_HERMITIAN, E)
            except ValueError as exc:
                raise AssertionError(f"(ell={ell}, q={q}): {exc}") from exc
            require(np.array_equal(back, positions), f"(ell={ell}, q={q}): encode(decode(t)) != t")
        checked += q ** (ell * ell)
    return f"{checked} round trips over {len(pairs)} (ell, q) pairs"


def check_invertible_counts(seed):
    cases = [(1, q) for q in sorted(SUPPORTED_Q)] + [(2, q) for q in (2, 3, 4, 5)] + [(3, 2), (3, 3)]
    brute = {(ell, q): an.weight_of_function({(tuple(range(1, ell + 1)),) * 2: 1}, ell, q)
             for ell, q in cases}  # the weight of det, over every position
    for (ell, q), count in brute.items():
        formula = count_invertible(ell, q)
        require(formula == count, f"(ell={ell}, q={q}): formula {formula} != brute {count}")
    return (f"formula = brute force on {len(cases)} cases, "
            f"incl. {brute[2, 2]} at (2,2) and {brute[3, 2]} at (3,2)")


def check_hyperbolic_counts(seed):
    total = 0
    for q in sorted(SUPPORTED_Q):
        t = tower_for_q(q)
        for lam in t.subfield:
            st.hyperbolic_zero_count(t, lam)
            total += 1
    return f"{total} (q, lam) pairs, formula = brute force"


def check_system_solutions(seed):
    rng = random.Random(seed)
    total = 0
    for n in (1, 2, 3):
        for q in (2, 3, 4):
            t = tower_for_q(q)
            a, b = zip(*(st.random_system(t, n, rng, consistent=(i % 2 == 0)) for i in range(100)))
            counts = st.system_solution_count(t, a, b)
            require(counts[::2].all(), "consistent system lost its solution")
            total += len(counts)
    return f"{total} systems, all within the q+1 bound"


def check_two_weight_classifier(seed):
    reports = [st.classify_weights_l2(q) for q in (2, 3)]
    for r in reports:
        require(r["resolved_predicate"] in ("plus_f0", "both"), r)
    resolved = {r["q"]: r["resolved_predicate"] for r in reports}
    return f"two weights exact at q=2,3; resolved predicate: {resolved}"


def check_l3_reduced_family(seed):
    r = st.verify_l3_bounds(2)
    return (
        f"{r['family_size']} members >= {r['bound']}; weight(det) = {r['weight_det']} "
        f"(product form {r['weight_det_product_form']}, alt expansion "
        f"{r['weight_det_alt_expansion']} matches: {r['weight_det_matches_alt_expansion']}); "
        f"weight(det+c) = {r['weight_det_plus_const']}"
    )


def check_min_weight_strata(seed):
    r22 = st.min_weight_by_max_minor(2, 2, 2)
    require(r22["min_weight"] == 6)
    r21 = st.min_weight_by_max_minor(2, 1, 2)
    require(r21["min_weight"] >= 2**4 - 2**3)
    r20 = st.min_weight_by_max_minor(2, 0, 2)
    require(r20["min_weight"] == 16)
    r23 = st.min_weight_by_max_minor(2, 2, 3)
    require(r23["min_weight"] == 51)
    r33 = st.min_weight_by_max_minor(3, 3, 2, self_conjugate_only=True)
    return (
        f"minima: (2,2,q=2)={r22['min_weight']}, (2,1,q=2)={r21['min_weight']}, "
        f"(2,0,q=2)={r20['min_weight']}, (2,2,q=3)={r23['min_weight']}, "
        f"(3,3,q=2)={r33['min_weight']} >= {r33['bound']}"
    )


def check_translation_clearing(seed):
    g22 = build_generator(FAMILY_HERMITIAN, 2, 2)
    require(st.verify_translation_clearing(g22, {((1, 2), (1, 2)): 1}, (1, 2)))
    f = {((1, 2), (1, 2)): 1, ((1,), (1,)): 1, ((2,), (2,)): 1}
    require(st.verify_translation_clearing(g22, f, (1, 2)))
    g32 = build_generator(FAMILY_HERMITIAN, 3, 2)
    tower = g32.tower
    rng = random.Random(seed)
    full = ((1, 2, 3), (1, 2, 3))
    cleared = 0
    for _ in range(50):
        f = mn.random_combination(tower, 3, rng, self_conjugate=True)
        if not f.get(full, 0):
            f[full] = 1
        require(st.verify_translation_clearing(g32, f, (1, 2, 3)))
        cleared += 1
    return f"2 fixed cases and {cleared} random self-conjugate functions cleared"


def check_spread_reduction(seed):
    g32 = build_generator(FAMILY_HERMITIAN, 3, 2)
    f = {((1, 2), (2, 3)): 1}
    f2, info = st.spread_reduction_step(g32, f)
    require(info["new_minor"] == ((1, 2), (1, 2)))
    w0 = an.weight(g32.encode(f))
    w1 = an.weight(g32.encode(f2))
    require(w0 == w1, f"weight changed: {w0} -> {w1}")
    f3 = {((1, 3), (2, 3)): 1, ((), ()): 1}
    f4, info2 = st.spread_reduction_step(g32, f3)
    require(an.weight(g32.encode(f3)) == an.weight(g32.encode(f4)))
    require(any(len(m[0]) == info2["size"] and mn.spread(m) <= info2["spread"] - 1
                for m in mn.support(f4)))
    return f"size-2 spread-3 minors reduced to spread 2 at equal weight ({w0})"


def check_dual_distances(seed):
    got = {}
    for ell, q in CERTIFIED_PAIRS:
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        cert = an.dual_min_distance(gen)
        want = an.dual_distance_formula(q)
        require(cert.d_dual == want, f"(ell={ell}, q={q}): d_dual {cert.d_dual} != {want}")
        require(cert.exhausted_below == cert.d_dual)
        got[(ell, q)] = cert.d_dual
    return f"dual distances {got}"


def check_dual_support_families(seed):
    counts = {}
    for ell, q in ((2, 2), (2, 3), (3, 2)):
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        words = dual_support_families(gen, seed=seed)
        counts[(ell, q)] = len(words)
    return f"orthogonality-verified families: {counts}"


def check_generator_dimensions(seed):
    dims = {}
    for ell, q in HERMITIAN_DESK:
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        require(gen.rank == gen.spec.k)
        dims[(ell, q)] = gen.rank
    return f"ranks equal binom(2 ell, ell): {dims}"


def check_q_invariance(seed):
    for ell, q in ((2, 2), (2, 3), (3, 2)):
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        require(q_invariance_check(gen), f"(ell={ell}, q={q})")
    return "conjugated generator rows are codewords at (2,2), (2,3), (3,2)"


def check_automorphism_membership(seed):
    rng = random.Random(seed)
    checked = 0
    for ell, q in ((2, 2), (2, 3), (3, 2)):
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        tower = gen.tower
        perms = [transpose_permutation(tower, ell)]
        while True:
            A = [[rng.randrange(tower.qq) for _ in range(ell)] for _ in range(ell)]
            if linalg.rank(tower, A) == ell:
                break
        perms.append(congruence_permutation(tower, ell, A))
        M = hm.decode(tower, ell, FAMILY_HERMITIAN, rng.randrange(gen.spec.n))
        perms.append(translate_permutation(tower, ell, M))
        for perm in perms:
            gen.action(perm)  # a bijection whose images of every generator row are codewords
            checked += 1
    return f"{checked} permutations map the code onto itself, checked on every generator row"


def check_conjugate_minor_identity(seed):
    for ell, q in ((2, 2), (3, 2), (2, 3)):
        tower = tower_for_q(q)
        E = position_entries(tower, ell, FAMILY_HERMITIAN)
        for I, J in mn.basis(ell):
            require(np.array_equal(eval_minor_vector(tower, E, (J, I)),
                                   tower.conj_np[eval_minor_vector(tower, E, (I, J))]))
    return "det_JI = det_IJ^q exhaustive at q=2 (ell<=3) and q=3 (ell=2)"


def check_interpolation_round_trip(seed):
    """200 random combinations per desk cell, each encoded and interpolated
    back.  They go through in blocks, a block's messages as one stack: at
    most TABLE_BYTES of words, or k words when that is more, so each block
    holds its words, their re-encodes and their comparison at that size,
    and its matrix products have at least as many messages as the
    generator has rows."""
    rng = random.Random(seed)
    total = 0
    for ell, q in HERMITIAN_DESK:
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        block = max(gen.spec.k, linalg.TABLE_BYTES // gen.spec.n)
        for start in range(0, 200, block):
            fs = [mn.random_combination(gen.tower, ell, rng) for _ in range(min(block, 200 - start))]
            messages = np.array([gen.message(f) for f in fs], dtype=np.uint8)
            recovered = gen.coefficients_of(gen.encode_message(messages))
            require(np.array_equal(recovered, messages))
            total += len(fs)
    return f"{total} random combinations recovered exactly"


def check_distance_certifications(seed):
    details = []
    for letter, family in (("H", FAMILY_HERMITIAN), ("A", FAMILY_AFFINE)):
        for ell, q in CERTIFIED_PAIRS:
            cert = an.min_distance(build_generator(family, ell, q))
            formula = an.distance_formula(family, ell, q)[0]
            require(cert.d == formula, f"{letter} (ell={ell}, q={q}): {cert.d} != {formula}")
            details.append(f"{letter}({ell},{q})={cert.d}")
    for ell, q in ((2, 2), (2, 3)):
        cert = an.min_distance(build_generator(FAMILY_HERMITIAN, ell, q), "exhaustive")
        require(cert.d == an.distance_formula(FAMILY_HERMITIAN, ell, q)[0])
    w = an.weight_of_function(an.distance_formula(FAMILY_HERMITIAN, 3, 2)[1], 3, 2)
    require(w == 192)
    return "; ".join(details) + f"; witness weight at (3,2) = {w}"


def check_fq_basis_structure(seed):
    for ell, q in ((2, 2), (2, 3), (3, 2)):
        subfield_rows(build_generator(FAMILY_HERMITIAN, ell, q), fq_basis(ell, q))
    return "F_q-valued, full F_q-rank, spans the minor row space"


def check_file_round_trip(seed):
    import os

    for ell, q in ((2, 2), (3, 2)):
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "gen.txt")
            write_generator(gen, path)
            with open(path) as fh:
                header, *body = fh.read().splitlines()
            rows = np.array([line.split() for line in body], dtype=np.int64)
            require(header == gen.spec.header and np.array_equal(rows, gen.rows),
                    f"(ell={ell}, q={q}): the written file differs from the generator")
            require(linalg.rank(gen.tower, rows) == gen.spec.k, f"(ell={ell}, q={q}): file rank")
            require(read_generator(path) is gen, f"(ell={ell}, q={q}): read-back is not the code")
            rows[0, 0] = (rows[0, 0] + 1) % gen.tower.qq  # a valid entry; only the row check fails
            with open(path, "w") as fh:
                fh.write("\n".join([header] + [" ".join(map(str, row)) for row in rows.tolist()])
                         + "\n")
            try:
                read_generator(path)
            except ValueError:
                continue
            raise AssertionError(f"(ell={ell}, q={q}): a file with one entry changed reads back")
    return "write/read identical at (2,2) and (3,2), rank re-verified"


SUITES = {
    "fields": [
        ("field_axioms", check_field_axioms),
        ("subfield_structure", check_subfield_structure),
        ("trace_norm_fibers", check_trace_norm_fibers),
    ],
    "counts": [
        ("enumeration_bijectivity", check_enumeration_bijectivity),
        ("invertible_counts", check_invertible_counts),
        ("hyperbolic_zero_counts", check_hyperbolic_counts),
        ("system_solution_counts", check_system_solutions),
    ],
    "classifiers": [
        ("two_weight_classifier", check_two_weight_classifier),
        ("l3_reduced_family", check_l3_reduced_family),
        ("min_weight_strata", check_min_weight_strata),
        ("translation_clearing", check_translation_clearing),
        ("spread_reduction", check_spread_reduction),
    ],
    "duals": [
        ("dual_distances", check_dual_distances),
        ("dual_support_families", check_dual_support_families),
    ],
}

CODE_CHECKS = [
    ("generator_dimensions", check_generator_dimensions),
    ("q_invariance", check_q_invariance),
    ("automorphism_membership", check_automorphism_membership),
    ("conjugate_minor_identity", check_conjugate_minor_identity),
    ("interpolation_round_trip", check_interpolation_round_trip),
    ("distance_certifications", check_distance_certifications),
    ("fq_basis_structure", check_fq_basis_structure),
    ("file_round_trip", check_file_round_trip),
]


def checks_for(suite: str):
    if suite == "all":
        return [check for checks in SUITES.values() for check in checks] + CODE_CHECKS
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return SUITES[suite]


def run_suite(suite: str, seed: int, emit=print):
    """Run every check in the suite; returns the list of result records."""
    results = []
    for name, fn in checks_for(suite):
        start = time.perf_counter()
        try:
            detail = fn(seed)
            ok = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            ok = False
        except Exception as exc:  # an unexpected error fails its check, not the suite
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        elapsed = time.perf_counter() - start
        results.append({"check": name, "ok": ok, "detail": detail, "seconds": round(elapsed, 3)})
        status = "ok  " if ok else "FAIL"
        emit(f"{status} {name}: {detail} ({elapsed:.2f}s)")
    return results
