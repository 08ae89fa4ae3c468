import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermgrass import codebuild, linalg
from hermgrass import minors as mn
from hermgrass.analysis import min_distance_subfield, weight
from hermgrass.codebuild import (
    FAMILY_AFFINE,
    FAMILY_HERMITIAN,
    CodeSpec,
    GeneratorMatrix,
    build_generator,
    congruence_permutation,
    conjugate_codeword,
    fq_basis,
    q_invariance_check,
    read_generator,
    subfield_generator_element,
    subfield_rows,
    translate_permutation,
    transpose_permutation,
    write_generator,
)
from hermgrass.errors import BudgetExceeded
from hermgrass.strata import _stratum
from hermgrass.galois import SUPPORTED_Q, tower_for_q
from hermgrass.hermitian import decode
from test_hermitian import identity_matrix, matrices_at, unit_matrix, zero_matrix
from test_minors import eval_minor


def test_generator_shapes_and_ranks():
    cases = [(2, 2, 6, 16), (3, 2, 20, 512), (1, 2, 2, 2), (2, 3, 6, 81)]
    for ell, q, k, n in cases:
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        assert gen.rows.shape == (k, n)
        assert gen.rank == k
        assert gen.spec == CodeSpec(FAMILY_HERMITIAN, q, ell)


def test_generator_columns_match_scalar_evaluation():
    # vectorized build agrees with per-matrix evaluation
    for ell, q in [(2, 2), (2, 3), (3, 2)]:
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        t = gen.tower
        rng = random.Random(1)
        positions = [rng.randrange(gen.spec.n) for _ in range(25)]
        for pos, H in zip(positions, matrices_at(t, ell, positions)):
            for r, minor in enumerate(gen.basis):
                assert int(gen.rows[r, pos]) == eval_minor(t, minor, H)


def test_generator_too_large():
    with pytest.raises(BudgetExceeded):
        build_generator(FAMILY_HERMITIAN, 4, 3)  # 3^16 positions


def test_affine_generator():
    gen = build_generator(FAMILY_AFFINE, 2, 2)
    assert gen.rows.shape == (6, 16)
    assert gen.rank == 6
    t = gen.tower
    assert all(t.in_base_subfield(int(v)) for v in np.unique(gen.rows))
    # ell = 1, q = 2: the code is the full space of length 2
    g1 = build_generator(FAMILY_AFFINE, 1, 2)
    assert g1.rows.shape == (2, 2)
    assert g1.rank == 2
    words = {tuple(linalg.combine(g1.tower, g1.rows, m)) for m in
             [(0, 0), (0, 1), (1, 0), (1, 1)]}
    assert words == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_affine_positions_row_major():
    gen = build_generator(FAMILY_AFFINE, 2, 3)
    t = gen.tower
    # position t decodes entries (1,1),(1,2),(2,1),(2,2) least significant
    # first through the sorted subfield; check via the 1x1 minor rows
    entry_rows = {
        ((1,), (1,)): 0,
        ((1,), (2,)): 1,
        ((2,), (1,)): 2,
        ((2,), (2,)): 3,
    }
    for minor, digit_pos in entry_rows.items():
        r = gen.basis.index(minor)
        for pos in range(gen.spec.n):
            expected = t.subfield[(pos // 3**digit_pos) % 3]
            assert int(gen.rows[r, pos]) == expected


def test_subfield_generator_element():
    for q in sorted(SUPPORTED_Q):
        t = tower_for_q(q)
        alpha = subfield_generator_element(t)
        alpha_q = t.conjugate(alpha)
        assert alpha_q != alpha
        # {alpha, alpha^q} spans F_{q^2} over F_q
        span = {t.add(t.mul(a, alpha), t.mul(b, alpha_q))
                for a in t.subfield for b in t.subfield}
        assert len(span) == t.qq


def test_fq_basis_structure():
    b1 = fq_basis(1, 2)
    assert b1 == [{((), ()): 1}, {((1,), (1,)): 1}]
    for ell, q in [(2, 2), (2, 3), (3, 2)]:
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        t = gen.tower
        combos = fq_basis(ell, q)
        assert len(combos) == gen.spec.k
        rows = np.stack([gen.encode(f) for f in combos])
        assert all(t.in_base_subfield(int(v)) for v in np.unique(rows))
        assert linalg.rank(t, rows) == gen.spec.k


def test_subfield_rows_fails_closed():
    """subfield_rows returns the codewords of a basis, and rejects a repeated
    combination (rank k - 1) and a row scaled outside F_q."""
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    combos = fq_basis(2, 3)
    assert np.array_equal(subfield_rows(gen, combos), [gen.encode(f) for f in combos])
    with pytest.raises(AssertionError, match=r"^F_q basis rows do not have rank k = 6$"):
        subfield_rows(gen, combos[:-1] + combos[:1])
    outside = next(x for x in range(gen.tower.qq) if not gen.tower.in_base_subfield(x))
    with pytest.raises(AssertionError, match="^F_q basis row takes values outside the subfield$"):
        scaled = {m: gen.tower.mul(outside, v) for m, v in combos[0].items()}
        subfield_rows(gen, [scaled] + combos[1:])



@pytest.mark.parametrize("ell, q", [(2, 2), (2, 8), (3, 2)])
def test_subfield_basis_is_checked_once_per_generator(monkeypatch, ell, q):
    """The F_q basis and its rows are worked out and checked on first use
    and then kept: a second certificate and the self-conjugate stratum read
    the same read-only rows, which are the checked codewords of `fq_basis`."""
    built = build_generator(FAMILY_HERMITIAN, ell, q)
    gen = GeneratorMatrix(built.spec, built.tower, built.rows)  # nothing cached yet
    checks = []

    def counted(g, combos):
        checks.append(g)
        return subfield_rows(g, combos)

    monkeypatch.setattr(codebuild, "subfield_rows", counted)
    first = min_distance_subfield(gen)
    combos, rows = gen.subfield_basis
    assert min_distance_subfield(gen).as_dict() == first.as_dict()
    _stratum(gen, 2, True)
    assert checks == [gen]
    assert gen.subfield_basis[1] is rows and not rows.flags.writeable
    assert combos == tuple(fq_basis(ell, q))
    assert np.array_equal(rows, [gen.encode(f) for f in combos])
    assert not subfield_rows(gen, list(combos)).flags.writeable

def test_conjugated_rows_are_codewords():
    for ell, q in [(2, 2), (2, 3), (3, 2)]:
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        assert q_invariance_check(gen)
        for row in gen.rows:
            assert gen.membership(conjugate_codeword(gen.tower, row))


def test_membership():
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    rng = random.Random(8)
    for row in gen.rows:
        assert gen.membership(row)
    for _ in range(20):
        f = mn.random_combination(gen.tower, 2, rng)
        c = gen.encode(f)
        assert gen.membership(c)
        bad = np.array(c, dtype=np.uint8)
        pos = rng.randrange(gen.spec.n)
        bad[pos] = gen.tower.add(int(bad[pos]), 1)
        assert not gen.membership(bad)


def test_affine_membership_stays_in_subfield():
    gen = build_generator(FAMILY_AFFINE, 2, 3)
    t = gen.tower
    # an F_9-multiple of a row is in the F_9 span but not the F_3 code
    scaled = t.mul_np[3][gen.rows[1]]
    assert not gen.membership(scaled)
    assert gen.membership(t.mul_np[2][gen.rows[1]])


def test_message_alphabet():
    for q in (2, 3, 4):
        gen_h, gen_a = build_generator(FAMILY_HERMITIAN, 2, q), build_generator(FAMILY_AFFINE, 2, q)
        t = gen_h.tower
        assert gen_h.scalars == tuple(range(t.qq))
        assert gen_a.scalars == t.subfield == tuple(sorted(t.subfield))
        assert gen_h.scalars[:2] == gen_a.scalars[:2] == (0, 1)
        # the pivots kept from the rank check serve interpolation
        assert len(gen_h.pivots) == gen_h.rank == gen_h.spec.k
        f = {((1,), (2,)): 2 % t.qq, ((), ()): 1}
        assert gen_h.message(f) == [1, 0, 2 % t.qq, 0, 0, 0]
        assert gen_h.interpolate(gen_h.encode(f)) == {m: c for m, c in f.items() if c}
    with pytest.raises(ValueError):
        gen_h.message({((1, 2), (1, 3)): 1})


def test_automorphism_permutations():
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    t = gen.tower
    n = gen.spec.n
    ident = congruence_permutation(t, 2, identity_matrix(2))
    assert list(ident) == list(range(n))
    ident2 = translate_permutation(t, 2, zero_matrix(2))
    assert list(ident2) == list(range(n))
    trans = transpose_permutation(t, 2)
    assert list(trans[trans]) == list(range(n))

    # translating by E_{1,1} maps ev(det + 1) to a weight-6 codeword
    perm = translate_permutation(t, 2, unit_matrix(2, 0, 0))
    c = gen.encode({((1, 2), (1, 2)): 1, ((), ()): 1})
    image = np.asarray(c)[perm]
    assert gen.membership(image)
    assert weight(image) == weight(c) == 6

    with pytest.raises(ValueError):
        congruence_permutation(t, 2, zero_matrix(2))
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) outside F_2$"):
        translate_permutation(t, 2, ((2, 0), (0, 0)))


def test_automorphisms_preserve_membership_randomized():
    rng = random.Random(13)
    for ell, q in [(2, 2), (2, 3), (3, 2)]:
        gen = build_generator(FAMILY_HERMITIAN, ell, q)
        t = gen.tower
        while True:
            A = tuple(tuple(rng.randrange(t.qq) for _ in range(ell)) for _ in range(ell))
            if linalg.rank(t, A) == ell:
                break
        M = decode(t, ell, FAMILY_HERMITIAN, rng.randrange(gen.spec.n))
        perms = [
            congruence_permutation(t, ell, A),
            translate_permutation(t, ell, M),
            transpose_permutation(t, ell),
        ]
        for perm in perms:
            assert sorted(perm) == list(range(gen.spec.n))
            for _ in range(5):
                f = mn.random_combination(t, ell, rng)
                c = np.asarray(gen.encode(f))
                image = c[perm]
                assert gen.membership(image)
                assert weight(image) == weight(c)


def test_generator_file_round_trip(tmp_path):
    for ell, q, family in [(2, 2, FAMILY_HERMITIAN), (3, 2, FAMILY_HERMITIAN),
                           (2, 3, FAMILY_AFFINE)]:
        gen = build_generator(family, ell, q)
        path = tmp_path / f"gen_{family}_{ell}_{q}.txt"
        write_generator(gen, path)
        back = read_generator(path)
        assert back is gen  # the one cached generator of the spec
        assert back.spec.header == gen.spec.header
        assert np.array_equal(back.rows, gen.rows)
        assert back.rank == gen.spec.k


def test_generator_file_validation(tmp_path):
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    path = tmp_path / "gen.txt"
    write_generator(gen, path)
    text = path.read_text().splitlines()
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(["not a header"] + text[1:]) + "\n")
    with pytest.raises(ValueError):
        read_generator(bad)
    bad.write_text("\n".join([text[0].replace("modulus=111", "modulus=101")] + text[1:]) + "\n")
    with pytest.raises(ValueError):
        read_generator(bad)
    bad.write_text("\n".join(text[:-1]) + "\n")
    with pytest.raises(ValueError):
        read_generator(bad)


def test_read_generator_rejects_empty_and_header_only(tmp_path):
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    path = tmp_path / "gen.txt"
    path.write_text("")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_generator(path)
    path.write_text("\n  \n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_generator(path)
    path.write_text(gen.spec.header + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_generator(path)


def test_readers_reject_entries_beyond_int64(tmp_path):
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    path = tmp_path / "m.txt"
    write_generator(gen, path)
    header, first, rest = path.read_text().split("\n", 2)
    path.write_text("\n".join([header, "99999999999999999999999" + first[1:], rest]))
    with pytest.raises(ValueError, match="body row 1 differs"):
        read_generator(path)


def test_readers_reject_repeated_header_fields(tmp_path):
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    path = tmp_path / "m.txt"
    write_generator(gen, path)
    path.write_text(path.read_text().replace("modulus=111", "modulus=111 modulus=111", 1))
    with pytest.raises(ValueError, match="not the header of a supported code"):
        read_generator(path)


def test_read_generator_rejects_rank_deficient_body(tmp_path):
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    path = tmp_path / "gen.txt"
    write_generator(gen, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + [lines[1]] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match="body row 2 differs"):
        read_generator(path)


def test_read_generator_rejects_swapped_rows(tmp_path):
    # a full-rank body that is not the family's generator
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    path = tmp_path / "gen.txt"
    write_generator(gen, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + [lines[2], lines[1]] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match="body row 1 differs"):
        read_generator(path)


# (edit of the H2q2 file's lines, the reader's error)
NON_CANONICAL = {
    "reordered header fields": (
        lambda lines: [lines[0].replace("p=2 e=1", "e=1 p=2")] + lines[1:],
        "is not the header of a supported code"),
    "blank line between rows": (lambda lines: lines[:2] + [""] + lines[2:],
                                "expected 6 rows, found 7"),
    "trailing spaces": (lambda lines: lines[:1] + [lines[1] + "  "] + lines[2:],
                        "body row 1 differs"),
    "doubled space": (lambda lines: lines[:1] + [lines[1].replace(" ", "  ", 1)] + lines[2:],
                      "body row 1 differs"),
    "leading-zero entry": (lambda lines: lines[:1] + ["0" + lines[1]] + lines[2:],
                           "body row 1 differs"),
    "CRLF line endings": (lambda lines: [line + "\r" for line in lines],
                          "is not the header of a supported code"),
    "NUL in a body row": (lambda lines: lines[:1] + [lines[1].replace(" ", " \0", 1)] + lines[2:],
                          "body row 1 differs"),
    "lone CR in a body row": (  # a lone CR ends a line
        lambda lines: lines[:1] + [lines[1].replace(" ", "\r", 1)] + lines[2:],
        "expected 6 rows, found 7"),
}


@pytest.mark.parametrize("edit", sorted(NON_CANONICAL))
def test_read_generator_rejects_non_canonical_text(tmp_path, edit):
    """The reader accepts only the text write_generator writes: each edit
    keeps the header's fields and the body's values, and is rejected."""
    gen = build_generator(FAMILY_HERMITIAN, 2, 2)
    path = tmp_path / "gen.txt"
    write_generator(gen, path)
    change, error = NON_CANONICAL[edit]
    lines = change(path.read_text().splitlines())
    assert lines != path.read_text().splitlines()
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + error):
        read_generator(path)


def test_read_generator_rejects_a_header_that_is_not_utf8(tmp_path):
    """Only the header is decoded; a byte that is not UTF-8 is replaced, so
    the line names no code, and the error names the path."""
    path = tmp_path / "gen.txt"
    write_generator(build_generator(FAMILY_HERMITIAN, 2, 2), path)
    path.write_bytes(b"\xff" + path.read_bytes())
    error = "is not the header of a supported code"
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + error):
        read_generator(path)


@pytest.mark.parametrize("family", [FAMILY_HERMITIAN, FAMILY_AFFINE])
def test_file_lines_are_the_plain_text(family):
    """The file's bytes are the header and each row's indices joined by single
    spaces, as str formatting writes them: every supported q at ell <= 2,
    q <= 4 at ell = 3."""
    for q in SUPPORTED_Q:
        for ell in (1, 2, 3) if q <= 4 else (1, 2):
            gen = build_generator(family, ell, q)
            text = [gen.spec.header] + [" ".join(map(str, row)) for row in gen.rows.tolist()]
            assert b"".join(codebuild._file_lines(gen)) == "".join(
                line + "\n" for line in text).encode(), (family, ell, q)


def test_spec_header_is_the_written_header(tmp_path, monkeypatch):
    """CodeSpec.header is the header formula over the tower's p, e and
    modulus for every supported spec, computed without a generator, and it
    is line 1 of the written file."""
    from hermgrass import codebuild

    def formula(spec):
        t = tower_for_q(spec.q)
        letter = {FAMILY_HERMITIAN: "H", FAMILY_AFFINE: "A"}[spec.family]
        return (f"hermgrass-gen v1 family={letter} p={t.p} e={t.e} ell={spec.ell} "
                f"k={spec.k} n={spec.n} modulus={''.join(str(d) for d in t.modulus)}")

    specs = [CodeSpec(family, q, ell) for family in (FAMILY_HERMITIAN, FAMILY_AFFINE)
             for q in SUPPORTED_Q for ell in (1, 2, 3, 4)]
    expected = [formula(spec) for spec in specs]

    def refuse(*args):
        raise AssertionError("built a tower or a generator")

    with monkeypatch.context() as m:
        for name in ("tower_for_q", "build_generator", "GeneratorMatrix"):
            m.setattr(codebuild, name, refuse)
        assert [spec.header for spec in specs] == expected
    assert len(set(expected)) == 56
    for family, ell, q in ((FAMILY_HERMITIAN, 2, 2), (FAMILY_AFFINE, 2, 3), (FAMILY_HERMITIAN, 3, 2)):
        gen = build_generator(family, ell, q)
        write_generator(gen, tmp_path / "gen.txt")
        assert (tmp_path / "gen.txt").read_text().split("\n", 1)[0] == CodeSpec(family, q, ell).header


def test_read_generator_refuses_a_code_past_the_build_limit(tmp_path, monkeypatch):
    """The header of H4q3 (n = 3^16 > BUILD_LIMIT) with its 70 rows is not the
    header of a supported code: a ValueError, raised before any build."""
    from hermgrass import codebuild

    def refuse(*args):
        raise AssertionError("built a generator")

    monkeypatch.setattr(codebuild, "build_generator", refuse)
    spec = CodeSpec(FAMILY_HERMITIAN, 3, 4)
    assert (spec.k, spec.n > codebuild.BUILD_LIMIT) == (70, True)
    path = tmp_path / "gen.txt"
    path.write_text(spec.header + "\n" + "0\n" * 70)
    with pytest.raises(ValueError, match="is not the header of a supported code"):
        read_generator(path)


# header fuzz: a file written from a small code, then up to two edits ---------

READER_CELLS = [(family, ell, q) for family in (FAMILY_HERMITIAN, FAMILY_AFFINE)
                for ell, q in ((1, 2), (1, 3), (1, 4), (2, 2))]
FIELD_VALUES = st.one_of(st.integers(-2, 17).map(str),
                         st.sampled_from(["", "x", "1.5", "111", "1011", "H", "A",
                                          "99999999999999999999999"]))


@st.composite
def reader_inputs(draw):
    """(header, body lines) of a generator file with up to two edits: a
    header field set, repeated, dropped or garbled, or a body entry or row
    changed."""
    gen = build_generator(*draw(st.sampled_from(READER_CELLS)))
    tokens = gen.spec.header.split()
    body = [[str(int(v)) for v in row] for row in gen.rows]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["set", "repeat", "drop", "garble", "entry", "row"]))
        fields = range(2, len(tokens))
        if edit == "set" and fields:
            i = draw(st.sampled_from(fields))
            tokens[i] = tokens[i].split("=")[0] + "=" + draw(FIELD_VALUES)
        elif edit == "repeat" and fields:
            tokens.insert(draw(st.integers(2, len(tokens))), tokens[draw(st.sampled_from(fields))])
        elif edit == "drop" and fields:
            del tokens[draw(st.sampled_from(fields))]
        elif edit == "garble":
            tokens.insert(draw(st.integers(2, len(tokens))), draw(st.sampled_from(["x", "=", "n=="])))
        elif edit == "entry" and body:
            row = draw(st.sampled_from(body))
            row[draw(st.integers(0, len(row) - 1))] = draw(FIELD_VALUES)
        elif edit == "row" and body:
            del body[draw(st.integers(0, len(body) - 1))]
    return " ".join(tokens), [" ".join(row) for row in body]


def header_spec(header):
    """(spec, k) of a header that names each field once, with values that
    describe a supported code of the stated length; None otherwise."""
    pairs = [token.split("=", 1) for token in header.split()[2:]]
    fields = dict(pair for pair in pairs if len(pair) == 2)
    if len(fields) != len(pairs) or set(fields) != {"family", "p", "e", "ell", "k", "n",
                                                    "modulus"}:
        return None
    try:
        family = {"H": FAMILY_HERMITIAN, "A": FAMILY_AFFINE}[fields["family"]]
        q = int(fields["p"]) ** int(fields["e"])
        spec = CodeSpec(family, q, int(fields["ell"]))
        tower = tower_for_q(q)
        if (tower.p, tower.e) != (int(fields["p"]), int(fields["e"])):
            return None
    except (KeyError, ValueError):
        return None
    if int(fields["n"]) != spec.n or fields["modulus"] != "".join(map(str, tower.modulus)):
        return None
    return spec, int(fields["k"])


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(reader_inputs())
def test_readers_accept_only_consistent_files(case):
    """The reader returns the generator a well-formed header describes, or
    raises ValueError; no other exception type escapes."""
    header, body = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_text("\n".join([header] + body) + "\n")
        try:
            result = read_generator(path)
        except ValueError:
            return
    described = header_spec(header)
    assert described is not None, header
    spec, count = described
    entries = [[int(v) for v in line.split()] for line in body]
    assert result.spec == spec and count == spec.k
    assert result.rows.tolist() == entries
    assert all(len(row) == spec.n for row in entries)
