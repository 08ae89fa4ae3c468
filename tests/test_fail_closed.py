"""Checks and certificates fail closed: no assert statement in the package,
and injected faults still fail under python -O."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hermgrass import dual as du
from hermgrass.codebuild import FAMILY_HERMITIAN, CodeSpec, build_generator
from hermgrass.galois import tower_for_q
from hermgrass.hermitian import FAMILY_AFFINE, decode, encode

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hermgrass"


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_counts_suite_fails_closed_under_optimize(run_optimized):
    """With count_invertible off by one, invertible_counts must FAIL and the
    run exit 1 even under python -O, which strips assert statements."""
    script = (
        "import sys\n"
        "assert False, 'asserts are live'\n"
        "import hermgrass.verify as verify\n"
        "count = verify.count_invertible\n"
        "verify.count_invertible = lambda ell, q: count(ell, q) + 1\n"
        "from hermgrass.cli import main\n"
        "sys.exit(main(['verify', '--suite', 'counts']))\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL invertible_counts: (ell=1, q=2): formula 2 != brute 1" in proc.stdout
    assert "3/4 checks passed" in proc.stdout


def test_dual_word_check_fails_closed_under_optimize(run_optimized):
    """A dual word that fails its orthogonality check must make
    dual_min_distance raise even under python -O."""
    script = (
        "assert False, 'asserts are live'\n"
        "from hermgrass import dual as du\n"
        "from hermgrass.codebuild import build_generator\n"
        "du._verify_dual_word = lambda *args: False\n"
        "du.dual_min_distance(build_generator('hermitian', 2, 3))\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "AssertionError" in proc.stderr


def test_subfield_rows_fails_closed_under_optimize(run_optimized):
    """A repeated basis combination (rank k - 1) and a row scaled outside F_q
    must each make subfield_rows raise even under python -O."""
    script = (
        "assert False, 'asserts are live'\n"
        "from hermgrass.codebuild import build_generator, fq_basis, subfield_rows\n"
        "gen = build_generator('hermitian', 2, 3)\n"
        "basis = fq_basis(2, 3)\n"
        "outside = next(x for x in range(9) if not gen.tower.in_base_subfield(x))\n"
        "for bad in (basis[:-1] + basis[:1],\n"
        "            [{m: gen.tower.mul(outside, v) for m, v in basis[0].items()}] + basis[1:]):\n"
        "    try:\n"
        "        subfield_rows(gen, bad)\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["F_q basis rows do not have rank k = 6",
                                        "F_q basis row takes values outside the subfield"]


def test_translation_clearing_fails_closed_under_optimize(run_optimized):
    """A clearing matrix with its (1, 1) entry zeroed must make the ell = 3
    det stratum raise before its walk even under python -O."""
    script = (
        "assert False, 'asserts are live'\n"
        "from hermgrass import strata as st, walk as wk\n"
        "clear = st.translation_clearing_matrix\n"
        "def mutant(tower, ell, f, I):\n"
        "    H = [list(row) for row in clear(tower, ell, f, I)]\n"
        "    H[0][0] = 0\n"
        "    return tuple(map(tuple, H))\n"
        "def no_walk(*args):\n"
        "    raise RuntimeError('walked')\n"
        "st.translation_clearing_matrix = mutant\n"
        "wk._walk = no_walk\n"
        "st.min_weight_by_max_minor(3, 3, 2, self_conjugate_only=True)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert ("AssertionError: the clearing translation leaves a 2-minor of det + "
            "{((2, 3), (2, 3)): 1}") in proc.stderr


def test_fiber_check_fails_closed_under_optimize(run_optimized):
    """Generator rows with one entry changed must make the fiber layout
    raise, and the plan fall back to positions, even under python -O."""
    script = (
        "assert False, 'asserts are live'\n"
        "from hermgrass import walk as wk\n"
        "from hermgrass.codebuild import build_generator\n"
        "gen = build_generator('affine', 2, 7)\n"
        "rows = gen.rows.copy()\n"
        "rows[3, 100] = gen.tower.add(int(rows[3, 100]), 1)\n"
        "basis = wk._lane_basis(gen.tower, rows, list(gen.scalars))\n"
        "try:\n"
        "    wk._additive_form(gen.tower, rows, basis, 2)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print(wk._plan(gen.tower, rows, list(gen.scalars), len(rows))[0][2].fiber)\n"
        "print(wk._plan(gen.tower, gen.rows, list(gen.scalars), len(rows))[0][2].fiber)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["the rows are not F_q-affine on fibers of 49 positions",
                                        "0", "2"]


# values outside F_{q^2} (or outside F_q where F_q is asked for) given to
# the package's entries, each an expression over OUT_OF_FIELD_SETUP's names:
# numpy would read -1 as q^2 - 1, 99 would index past a table, and -8 and
# 256 would wrap in uint8
OUT_OF_FIELD_SETUP = (
    "import numpy as np\n"
    "from hermgrass import dual as du, strata as st\n"
    "from hermgrass.analysis import min_distance_formula, weight_of_function\n"
    "from hermgrass.codebuild import (FAMILY_HERMITIAN, CodeSpec, build_generator,\n"
    "                                 conjugate_codeword, translate_permutation)\n"
    "from hermgrass.galois import tower_for_q\n"
    "from hermgrass.hermitian import FAMILY_AFFINE, decode, encode, outer, translate\n"
    "from hermgrass.walk import min_weight_over_combinations\n"
    "h2q2, h2q3 = (build_generator('hermitian', 2, q) for q in (2, 3))\n"
    "word = h2q2.rows[1].astype(np.int64)\n"
    "word[3] += 256\n"
    "half = h2q2.rows[1] + 0.5 * (np.arange(16) == 3)\n"
)
OUT_OF_FIELD = {
    "weight-3 word, c0 = -1": "du.dual_word_weight3(h2q3, 2, c0=-1)",
    "weight-3 word, c0 = 99": "du.dual_word_weight3(h2q3, 2, c0=99)",
    "weight-3 word, b = (99, 0)": "du.dual_word_weight3(h2q3, 2, b=(99, 0))",
    "weight-3 word, b = (-8, 0)": "du.dual_word_weight3(h2q3, 2, b=(-8, 0))",
    "weight-3 word, an H entry of 99": "du.dual_word_weight3(h2q3, 2, H=np.array([[99, 0], [0, 0]]))",
    "weight-4 word, a1 = (99, 0)": "du.dual_word_weight4(h2q2, a1=(99, 0))",
    "weight-4 word, a1 = (-1, 0)": "du.dual_word_weight4(h2q2, a1=(-1, 0))",
    "weight-4 word, a2 = (0, 4)": "du.dual_word_weight4(h2q2, a2=(0, 4))",
    "verify, coefficient -1": "du._verify_dual_word(h2q3, (0, 1, 2), (-1, 8, 8))",
    "dual word, coefficient -1": "du._dual_word(h2q3, (0, 1, 2), (-1, 8, 8))",
    "dual word, coefficient 9": "du._dual_word(h2q3, (0, 1, 2), (9, 8, 8))",
    "weight of function, coefficient -1": "weight_of_function({((1, 2), (1, 2)): -1}, 2, 3)",
    "weight of function, coefficient 99": "weight_of_function({((1, 2), (1, 2)): 99}, 2, 3)",
    "membership, an entry 256 that uint8 wraps to 0": "h2q2.membership(word)",
    "coefficients of, an entry 256": "h2q2.coefficients_of(word)",
    "interpolate, an entry 256": "h2q2.interpolate(word)",
    "encode, coefficient -1": "h2q3.encode({((), ()): -1})",
    "encode message, an entry 9": "h2q3.encode_message([9] + [0] * (h2q3.spec.k - 1))",
    "weight-3 word, alpha = 2.0": "du.dual_word_weight3(h2q3, 2.0)",
    "hyperbolic zero count, lam = 1.0": "st.hyperbolic_zero_count(tower_for_q(3), 1.0)",
    "system count, a_1 = 1.0": "st.system_solution_count(tower_for_q(3), [1.0, 1], [[0, 1], [1, 0]])",
    "system count, a term 9": "st.system_solution_count(tower_for_q(3), [1, 1], [[0, 9], [1, 0]])",
    "system count, a term -1": "st.system_solution_count(tower_for_q(3), [1, 1], [[0, -1], [1, 0]])",
    "outer, u = (-1, 0)": "outer(tower_for_q(2), [-1, 0], [1, 0])",
    "outer, v = (0, 256)": "outer(tower_for_q(2), [1, 0], np.array([0, 256]))",
    "conjugate codeword, an entry 256": "conjugate_codeword(tower_for_q(2), word)",
    "min weight, a row entry 256": "min_weight_over_combinations(tower_for_q(2), [h2q2.rows[0], word], [0, 1])",
    "min weight, a scalar -1": "min_weight_over_combinations(tower_for_q(2), h2q2.rows[:2], [0, 1, -1])",
}


@pytest.mark.parametrize("expression", OUT_OF_FIELD.values(), ids=OUT_OF_FIELD)
def test_out_of_field_values_are_refused(expression):
    """A coefficient, vector entry or matrix entry outside [0, q^2) raises
    ValueError before any table lookup, and no word is returned."""
    names = {}
    exec(OUT_OF_FIELD_SETUP, names)
    with pytest.raises(ValueError, match="F_4|F_9"):
        eval(expression, names)


def refusals_under_optimize(run_optimized, expressions):
    """The exception type each expression raises under python -O, or
    'accepted'."""
    script = OUT_OF_FIELD_SETUP + (
        "assert False, 'asserts are live'\n"
        f"for expression in {list(expressions)!r}:\n"
        "    try:\n"
        "        eval(expression)\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_out_of_field_values_are_refused_under_optimize(run_optimized):
    assert refusals_under_optimize(run_optimized, OUT_OF_FIELD.values()) == ["ValueError"] * len(OUT_OF_FIELD)


def test_verify_dual_word():
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    cert = du.dual_min_distance(gen)
    assert du._verify_dual_word(gen, cert.columns, cert.coefficients)
    for i in range(len(cert.coefficients)):
        coeffs = list(cert.coefficients)
        coeffs[i] = gen.tower.add(coeffs[i], 1)
        assert not du._verify_dual_word(gen, cert.columns, coeffs)


@pytest.mark.parametrize("positions", [(-81, 1, 2), (81, 1, 2)])
def test_dual_word_refuses_positions_outside_the_code(positions):
    """A position outside [0, n) raises ValueError before any lookup: numpy
    would read -81 as position 0 of H2q3 and 81 past its end."""
    gen = build_generator(FAMILY_HERMITIAN, 2, 3)
    for check in (du._verify_dual_word, du._dual_word):
        with pytest.raises(ValueError, match=re.escape("lie outside [0, 81)")):
            check(gen, positions, (1, 1, 1))


def test_file_round_trip_fails_on_a_reader_that_skips_the_body(monkeypatch):
    """file_round_trip parses the written body itself and changes one entry,
    so a reader that trusts the header alone fails the check."""
    from hermgrass import verify

    monkeypatch.setattr(verify, "read_generator",
                        lambda path: build_generator(FAMILY_HERMITIAN, 2, 2))
    with pytest.raises(AssertionError, match=r"\(ell=2, q=2\): a file with one entry changed"):
        verify.check_file_round_trip(0)


# positions and entries that are not integers, each an expression over
# OUT_OF_FIELD_SETUP's names: numpy would truncate 1.7 to position 1, 80.9
# to position 80 and the entry 1.5 to 1, and uint8 would take 0.5 off
NOT_INTEGER = {
    "decode, position 1.7": "decode(tower_for_q(3), 2, FAMILY_HERMITIAN, 1.7)",
    "decode, positions [80.9]": "decode(tower_for_q(3), 2, FAMILY_HERMITIAN, np.array([80.9]))",
    "decode, position 2.0": "decode(tower_for_q(3), 2, FAMILY_AFFINE, 2.0)",
    "decode, an object array": "decode(tower_for_q(3), 2, FAMILY_HERMITIAN, np.array([1], dtype=object))",
    "encode, entry 1.5": "encode(tower_for_q(3), 2, FAMILY_HERMITIAN, [[1.5, 0], [0, 1.0]])",
    "encode, float zeros": "encode(tower_for_q(3), 2, FAMILY_AFFINE, np.zeros((2, 2, 3)))",
    "encode, complex entries": "encode(tower_for_q(2), 1, FAMILY_HERMITIAN, [[1j]])",
    "translate by an entry 1.5": "translate_permutation(tower_for_q(3), 2, [[1.5, 0], [0, 1.0]])",
    "translate, an entry of M 1.5": "translate(tower_for_q(3), [[1.5, 0], [0, 0]], np.zeros((2, 2), np.uint8))",
    "membership, an entry plus 0.5": "h2q2.membership(half)",
    "coefficients of, an entry plus 0.5": "h2q2.coefficients_of(half)",
    "encode message, an entry 1.5": "h2q3.encode_message([1.5] + [0] * (h2q3.spec.k - 1))",
    "action, the identity as floats": "h2q2.action(np.arange(16.0))",
    "weight-3 word, an H entry 1.5": "du.dual_word_weight3(h2q3, 2, H=[[1.5, 0], [0, 0]])",
    "weight-3 word, b = (1.0, 0.5)": "du.dual_word_weight3(h2q3, 2, b=(1.0, 0.5))",
    "weight-3 word, c0 = 1.5": "du.dual_word_weight3(h2q3, 2, c0=1.5)",
    "weight-4 word, an H entry 1.7": "du.dual_word_weight4(h2q2, H=[[1.7, 0], [0, 0]])",
    "verify, coefficient 1.5": "du._verify_dual_word(h2q3, (0, 1, 2), (1.5, 8, 8))",
    "dual word, position 0.5": "du._dual_word(h2q3, (0.5, 1, 2), (1, 8, 8))",
    "weight of function, coefficient 1.5": "weight_of_function({((1, 2), (1, 2)): 1.5}, 2, 3)",
    "system count, a term 1.5": "st.system_solution_count(tower_for_q(9), [1, 1], [[0, 1.5], [1, 0]])",
}


@pytest.mark.parametrize("expression", NOT_INTEGER.values(), ids=NOT_INTEGER)
def test_non_integer_positions_and_entries_are_refused(expression):
    names = {}
    exec(OUT_OF_FIELD_SETUP, names)
    with pytest.raises(ValueError, match="must be integers"):
        eval(expression, names)


def test_non_integer_positions_and_entries_are_refused_under_optimize(run_optimized):
    assert refusals_under_optimize(run_optimized, NOT_INTEGER.values()) == ["ValueError"] * len(NOT_INTEGER)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8, object])
def test_empty_positions_and_entries_give_empty_results(dtype):
    tower = tower_for_q(3)
    for family in (FAMILY_HERMITIAN, FAMILY_AFFINE):
        E = decode(tower, 2, family, np.array([], dtype=dtype))
        assert E.dtype == np.uint8 and E.shape == (2, 2, 0)
        t = encode(tower, 2, family, np.zeros((2, 2, 0), dtype=dtype))
        assert t.dtype == np.int64 and t.shape == (0,)


# inputs of the wrong form, each an expression over OUT_OF_FIELD_SETUP's
# names with the words its refusal must hold: a float or bool q or ell was
# certified as given (q = 2.0 gave n = 16.0), a b that is not n x n was
# read past a short row or with a row missed, rows that are not 2-D were
# read past their shape, and a clearing label 3 indexed past H, 0 wrapped
# to its last row and 1.0 was no index
MALFORMED = {
    "code spec, q = 2.0": ("CodeSpec('hermitian', 2.0, 2)", "q must be an integer"),
    "code spec, q = np.float64(3)": ("CodeSpec('affine', np.float64(3), 2)", "q must be an integer"),
    "code spec, ell = True": ("CodeSpec('hermitian', 2, True)", "ell must be an integer"),
    "code spec, ell = np.bool_": ("CodeSpec('hermitian', 2, np.True_)", "ell must be an integer"),
    "formula, q = 2.0": ("min_distance_formula('hermitian', 2, 2.0)", "q must be an integer"),
    "system count, a short first row of b": (
        "st.system_solution_count(tower_for_q(3), [1, 1], [[0], [0, 0]])", "b must have 2 rows"),
    "system count, a short last row of b": (
        "st.system_solution_count(tower_for_q(3), [1, 1], [[0, 0], [0]])", "b must have 2 rows"),
    "system count, a row of b too many": (
        "st.system_solution_count(tower_for_q(3), [1, 1], [[0, 0]] * 3)", "b must have 2 rows"),
    "min weight, rows not 2-D": (
        "min_weight_over_combinations(tower_for_q(3), [1, 2, 3], [0, 1, 2])", "rows must be a k x n"),
    "clearing matrix, a label 3 at ell = 2": (
        "st.translation_clearing_matrix(tower_for_q(3), 2, {}, (1, 3))", "I must hold labels in 1..2"),
    "clearing matrix, a label 0": (
        "st.translation_clearing_matrix(tower_for_q(3), 2, {}, (0, 1))", "I must hold labels in 1..2"),
    "clearing matrix, a label 1.0": (
        "st.translation_clearing_matrix(tower_for_q(3), 2, {}, (1.0, 2))", "I must hold labels in 1..2"),
}


@pytest.mark.parametrize("expression, words", MALFORMED.values(), ids=MALFORMED)
def test_malformed_inputs_are_refused(expression, words):
    names = {}
    exec(OUT_OF_FIELD_SETUP, names)
    with pytest.raises(ValueError, match=re.escape(words)):
        eval(expression, names)


def test_malformed_inputs_are_refused_under_optimize(run_optimized):
    expressions = [expression for expression, _ in MALFORMED.values()]
    assert refusals_under_optimize(run_optimized, expressions) == ["ValueError"] * len(MALFORMED)


def test_code_spec_stores_numpy_integers_as_int():
    """q and ell given as numpy integers are kept as int, so the spec equals
    the one of Python ints and a tree report writes them as numbers."""
    spec = CodeSpec(FAMILY_HERMITIAN, np.int64(2), np.uint8(2))
    assert type(spec.q) is int and type(spec.ell) is int
    assert spec == CodeSpec(FAMILY_HERMITIAN, 2, 2)
    assert spec.header.endswith(" n=16 modulus=111")
    assert json.dumps(spec.fields, default=str) == (
        '{"family": "hermitian", "q": 2, "ell": 2, "n": 16, "k": 6}')
