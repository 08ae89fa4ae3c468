"""Stacked messages: `linalg.combine` with an (m, c) coefficient array, for
m > 1 one float matrix product over the rows' digit planes, checked against
the row-by-row 1-D combine; and `GeneratorMatrix.encode_message`,
`coefficients_of` and `membership` on stacks, checked against their
per-word results."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgrass import linalg
from hermgrass.codebuild import FAMILY_AFFINE, FAMILY_HERMITIAN, CodeSpec, build_generator
from hermgrass.errors import NotInCode
from hermgrass.galois import SUPPORTED_Q, tower_for_q
from hermgrass.hermitian import BUILD_LIMIT
from test_linalg import lane_bits, table_sum

QS = sorted(SUPPORTED_Q)


def float_switch(t):
    """The most rows whose lanes fit float32's 24 bits, and one more."""
    top = max(c for c in range(1, 4096) if lane_bits(t, c) <= 24)
    assert lane_bits(t, top + 1) > 24
    return [top, top + 1]


def row_by_row(t, rows, coeffs, shape):
    """The 1-D combine of each coefficient row; with no coefficient rows,
    zeros of the shape."""
    if not len(coeffs):
        return np.zeros((0,) + shape, dtype=np.uint8)
    return np.stack([linalg.combine(t, rows, list(c)) for c in coeffs])


@st.composite
def stacks(draw):
    """A tower, rows of one shape (stacked or listed), and an (m, c)
    coefficient array with m in {0, 1, several} and c the row count; rows
    and coefficients are often all qq - 1, every digit p - 1."""
    t = tower_for_q(draw(st.sampled_from(QS)))
    count = draw(st.sampled_from(float_switch(t)) | st.integers(0, 12))
    shape = draw(st.sampled_from([(), (3,), (2, 3)]))
    m = draw(st.sampled_from([0, 1, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = t.qq - 1
    if draw(st.booleans()):
        rows = np.full((count,) + shape, top, dtype=np.uint8)
    else:
        rows = rng.integers(0, t.qq, size=(count,) + shape, dtype=np.uint8)
    if draw(st.booleans()):
        coeffs = np.full((m, count), draw(st.sampled_from([1, top])), dtype=np.uint8)
    else:
        coeffs = rng.integers(0, t.qq, size=(m, count), dtype=np.uint8)
        coeffs[rng.random((m, count)) < 0.3] = 0
    if count and shape and draw(st.booleans()):  # no listed rows, no shape
        rows = list(rows)
    return t, rows, coeffs, shape


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(stacks())
def test_stacked_combine_equals_row_by_row(case):
    t, rows, coeffs, shape = case
    got = linalg.combine(t, rows, coeffs)
    assert got.dtype == np.uint8
    assert got.shape == (len(coeffs),) + shape
    assert np.array_equal(got, row_by_row(t, rows, coeffs, shape))


@pytest.mark.parametrize("q", QS)
def test_stacked_combine_at_the_float_switch_and_the_largest_lane_sum(q):
    """On both sides of the float32 -> float64 switch, rows and coefficients
    with every digit p - 1, and random ones, give the table sum."""
    t = tower_for_q(q)
    rng = np.random.default_rng(q)
    for count in float_switch(t):
        full = np.full((count, 4), t.qq - 1, dtype=np.uint8)
        coeffs = np.full((2, count), t.qq - 1, dtype=np.uint8)
        coeffs[1] = rng.integers(0, t.qq, size=count)
        want = np.stack([table_sum(t, full, c) for c in coeffs])
        assert np.array_equal(linalg.combine(t, full, coeffs), want)


def test_every_buildable_generator_fits_the_stacked_product():
    """k rows of every code within BUILD_LIMIT fit one stacked product, so
    no elimination of a generator splits its rows into groups (q = 2 with
    k = 70 needs 16 bits, the widest, q = 9 with k = 20, 36)."""
    for family in (FAMILY_HERMITIAN, FAMILY_AFFINE):
        for q in QS:
            for ell in range(1, 5):
                spec = CodeSpec(family, q, ell)
                if spec.n <= BUILD_LIMIT:
                    assert spec.k <= linalg._exact_rows(tower_for_q(q), True), spec
    assert lane_bits(tower_for_q(2), 70) == 16
    assert lane_bits(tower_for_q(9), 20) == 36


CELLS = [(FAMILY_HERMITIAN, 2, 2), (FAMILY_HERMITIAN, 2, 3), (FAMILY_HERMITIAN, 3, 2),
         (FAMILY_AFFINE, 2, 3), (FAMILY_AFFINE, 2, 4), (FAMILY_AFFINE, 3, 2)]


def random_messages(gen, rng, m):
    return np.array(gen.scalars, dtype=np.uint8)[rng.integers(0, len(gen.scalars),
                                                              size=(m, gen.spec.k))]


@pytest.mark.parametrize("family, ell, q", CELLS)
def test_generator_stacks_equal_their_rows(family, ell, q):
    """Stacked encode_message, coefficients_of and membership give the
    per-word results, also on an empty stack and a stack of one."""
    gen = build_generator(family, ell, q)
    rng = np.random.default_rng(ell * 10 + q)
    for m in (0, 1, 7):
        messages = random_messages(gen, rng, m)
        words = gen.encode_message(messages)
        assert words.shape == (m, gen.spec.n)
        for message, word in zip(messages, words):
            assert np.array_equal(word, gen.encode_message(list(message)))
        recovered = gen.coefficients_of(words)
        assert recovered.shape == (m, gen.spec.k)
        assert np.array_equal(recovered, messages)
        assert gen.membership(words).tolist() == [True] * m
    bad = gen.encode_message(random_messages(gen, rng, 6))
    bad[1, 3] = gen.tower.add(int(bad[1, 3]), 1)
    outside = next(a for a in range(gen.tower.qq) if a not in gen.tower.subfield)
    bad[4] = gen.tower.mul_np[outside][bad[4]]  # a member only of the Hermitian code
    member = gen.membership(bad)
    assert member.dtype == bool
    assert member.tolist() == [gen.membership(word) for word in bad]
    assert not member[1]
    assert member[4] == (family == FAMILY_HERMITIAN)


@pytest.mark.parametrize("family, ell, q", [(FAMILY_HERMITIAN, 2, 2), (FAMILY_AFFINE, 2, 3)])
def test_listed_messages_encode_as_the_array(family, ell, q):
    """A k x k stack of messages as nested lists gives the k codewords of the
    array, not one word: the identity gives the generator rows."""
    gen = build_generator(family, ell, q)
    k = gen.spec.k
    for M in (np.eye(k, dtype=np.uint8), random_messages(gen, np.random.default_rng(q), k)):
        words = gen.encode_message(M.tolist())
        assert words.shape == (k, gen.spec.n)
        assert np.array_equal(words, gen.encode_message(M))
    assert np.array_equal(gen.encode_message(np.eye(k, dtype=np.uint8).tolist()), gen.rows)


@pytest.mark.parametrize("family, ell, q", CELLS)
def test_stack_with_one_word_off_the_code_raises(family, ell, q):
    """One entry of one word, past the first, changed among good words."""
    gen = build_generator(family, ell, q)
    rng = np.random.default_rng(q)
    words = gen.encode_message(random_messages(gen, rng, 5))
    gen.coefficients_of(words)
    words[3, 7] = gen.tower.add(int(words[3, 7]), 1)
    with pytest.raises(NotInCode, match="row space"):
        gen.coefficients_of(words)
    assert gen.membership(words).tolist() == [True, True, True, False, True]


@pytest.mark.parametrize("ell, q", [(2, 2), (2, 3), (3, 2)])
def test_stack_with_one_affine_word_off_the_alphabet_raises(ell, q):
    """An affine word of a message outside F_q is in the F_{q^2} span but
    not in the F_q code; past the first word of a stack it still raises."""
    gen = build_generator(FAMILY_AFFINE, ell, q)
    rng = np.random.default_rng(q)
    messages = random_messages(gen, rng, 4)
    outside = next(a for a in range(gen.tower.qq) if a not in gen.tower.subfield)
    messages[2, 0] = outside
    words = gen.encode_message(messages)
    with pytest.raises(NotInCode, match="F_q code"):
        gen.coefficients_of(words)
    assert gen.membership(words).tolist() == [True, True, False, True]


def test_stack_shapes_are_checked():
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    with pytest.raises(ValueError, match="message length"):
        gen.encode_message(np.zeros((2, gen.spec.k + 1), dtype=np.uint8))
    for shape in ((2, gen.spec.n + 1), (1, 1, gen.spec.n), ()):
        with pytest.raises(ValueError, match="codeword length"):
            gen.coefficients_of(np.zeros(shape, dtype=np.uint8))
