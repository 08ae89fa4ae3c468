"""The dual distance search against the scalar pair loops it replaced, on
the desk cells, on permuted columns and on random generators."""

import random

import numpy as np
import pytest

from hermgrass import analysis as an
from hermgrass.codebuild import FAMILY_HERMITIAN, CodeSpec, GeneratorMatrix, build_generator
from hermgrass.errors import NoneFoundWithinBound
from hermgrass.galois import tower_for_q

CELLS = [(FAMILY_HERMITIAN, 2, q) for q in (2, 3, 4, 5)] + [("affine", 2, q) for q in (2, 3, 4)]

# the certificate of the scalar search at (ell, q) = (3, 2), where it takes seconds
H3Q2_COLUMNS = (0, 1, 8, 9)
H3Q2_COEFFICIENTS = (1, 1, 1, 1)


def oracle_dual_min_distance(gen, max_t=4):
    """The scalar search: t = 1..4 by separate pure-Python loops over
    tuple columns, normalizing each vector by its first nonzero entry."""
    tower = gen.tower
    spec = gen.spec
    n, k = spec.n, spec.k
    if spec.family == FAMILY_HERMITIAN:
        nonzero = [s for s in range(1, tower.qq)]
    else:
        nonzero = [s for s in tower.subfield if s]
    add, mul, neg, inv = tower.add, tower.mul, tower.neg, tower.inv
    cols = [tuple(int(gen.rows[r, c]) for r in range(k)) for c in range(n)]

    def finish(t, positions, coeffs):
        assert len(set(positions)) == t
        order = sorted(range(t), key=lambda i: positions[i])
        positions = tuple(positions[i] for i in order)
        coeffs = tuple(coeffs[i] for i in order)
        scale = inv(coeffs[0])
        coeffs = tuple(mul(scale, c) for c in coeffs)
        return an.DualDistanceCertificate(spec, t, positions, coeffs, t)

    for i, col in enumerate(cols):
        if not any(col):
            return finish(1, (i,), (1,))
    if max_t == 1:
        raise NoneFoundWithinBound(1)

    def normalize(vec):
        lead = next(v for v in vec if v)
        if lead == 1:
            return bytes(vec), 1
        lut = tower.mul_np[inv(lead)]
        return bytes(int(lut[v]) for v in vec), lead

    seen = {}
    for i, col in enumerate(cols):
        key, lead = normalize(col)
        if key in seen:
            j, lead_j = seen[key]
            return finish(2, (j, i), (inv(lead_j), neg(inv(lead))))
        seen[key] = (i, lead)
    if max_t == 2:
        raise NoneFoundWithinBound(2)

    scaled = [{a: [mul(a, v) for v in col] for a in nonzero} for col in cols]
    for i in range(n):
        for j in range(i + 1, n):
            for a in nonzero:
                vec = [add(x, y) for x, y in zip(cols[i], scaled[j][a])]
                key, lead = normalize(vec)
                hit = seen.get(key)
                if hit is not None:
                    m, lead_m = hit
                    return finish(3, (i, j, m), (1, a, neg(mul(lead, inv(lead_m)))))
    if max_t == 3:
        raise NoneFoundWithinBound(3)

    pair_seen = {}
    for i in range(n):
        for j in range(i + 1, n):
            for a in nonzero:
                vec = [add(x, y) for x, y in zip(cols[i], scaled[j][a])]
                key, lead = normalize(vec)
                hit = pair_seen.get(key)
                if hit is not None:
                    i2, j2, a2, lead2 = hit
                    inv1, inv2 = inv(lead), inv(lead2)
                    coeffs = (mul(inv2, 1), mul(inv2, a2), neg(inv1), neg(mul(inv1, a)))
                    return finish(4, (i2, j2, i, j), coeffs)
                pair_seen[key] = (i, j, a, lead)
    raise NoneFoundWithinBound(max_t)


def outcome(search, gen, max_t):
    try:
        return search(gen, max_t=max_t).as_dict()
    except NoneFoundWithinBound as exc:
        return ("none", exc.max_t)


def assert_matches_oracle(gen):
    for max_t in (1, 2, 3, 4):
        assert outcome(an.dual_min_distance, gen, max_t) == outcome(oracle_dual_min_distance,
                                                                     gen, max_t), max_t


@pytest.mark.parametrize("family,ell,q", CELLS)
def test_dual_search_matches_oracle(family, ell, q):
    assert_matches_oracle(build_generator(family, ell, q))


def permuted_generators():
    rng = np.random.default_rng(2024)
    for index in range(21):
        gen = build_generator(*CELLS[index % len(CELLS)])
        yield GeneratorMatrix(gen.spec, gen.tower, gen.rows[:, rng.permutation(gen.spec.n)])


def random_generators():
    """Full-rank rows with random columns.  Unlike the columns of a code
    transitive on its positions, where the first column already lies in a
    t = 3 word, these put pair collisions (t = 4) before the first t = 3 hit."""
    rng = random.Random(11)
    for family, ell, q in CELLS:
        spec = CodeSpec(family, q, ell)
        if spec.n > 81:
            continue
        tower = tower_for_q(q)
        alphabet = range(tower.qq) if family == FAMILY_HERMITIAN else tower.subfield
        for _ in range(3):
            rows = np.array([[rng.choice(alphabet) for _ in range(spec.n)] for _ in range(spec.k)],
                            dtype=np.uint8)
            yield GeneratorMatrix(spec, tower, rows)


def test_dual_search_matches_oracle_on_permuted_columns():
    for gen in permuted_generators():
        assert_matches_oracle(gen)


def test_dual_search_matches_oracle_on_random_generators():
    for gen in random_generators():
        assert_matches_oracle(gen)


def test_dual_search_pinned_l3_q2():
    cert = an.dual_min_distance(build_generator(FAMILY_HERMITIAN, 3, 2))
    assert (cert.d_dual, cert.exhausted_below) == (4, 4)
    assert cert.columns == H3Q2_COLUMNS
    assert cert.coefficients == H3Q2_COEFFICIENTS
