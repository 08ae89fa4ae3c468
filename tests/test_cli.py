import ast
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from hermgrass import analysis as an
from hermgrass import cli
from hermgrass import verify as verify_mod
from hermgrass import walk as wk
from hermgrass.cli import main
from hermgrass.codebuild import (
    FAMILY_AFFINE,
    FAMILY_HERMITIAN,
    CodeSpec,
    build_generator,
    read_generator,
    write_generator,
)
from hermgrass.errors import BudgetExceeded
from hermgrass.galois import SUPPORTED_Q


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_work(*args, **kwargs):
    """Stands in for build_generator where a usage error must come first."""
    raise AssertionError("work started")


def test_params(capsys):
    code, out, _ = run(capsys, "params", "--q", "2", "--ell", "2")
    assert code == 0
    assert "n = 16" in out and "k = 6" in out
    assert "d_hermitian = 6" in out and "d_affine = 6" in out

    code, out, _ = run(capsys, "params", "--q", "3", "--ell", "3")
    assert code == 0
    assert "n = 19683" in out and "d_hermitian = 12393" in out and "d_affine = 11232" in out

    code, out, _ = run(capsys, "params", "--q", "2", "--ell", "1")
    assert code == 0
    assert "d_hermitian = n/a" in out


def test_params_tree_format(capsys):
    code, out, _ = run(capsys, "params", "--q", "7", "--ell", "2", "--format", "tree")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2401 and data["d_hermitian"] == 2051 and data["d_affine"] == 2016


def test_usage_errors(capsys):
    assert main(["params", "--q", "6", "--ell", "2"]) == 2
    capsys.readouterr()
    assert main(["mindist", "--q", "2", "--ell", "2", "--method", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    # subfield enumeration is a Hermitian-family method
    assert main(["mindist", "--q", "2", "--ell", "2", "--family", "affine",
                 "--method", "subfield"]) == 2
    capsys.readouterr()


def test_gen_round_trip(tmp_path, capsys):
    path = tmp_path / "gen.txt"
    code, out, _ = run(capsys, "gen", "--q", "2", "--ell", "2", "--out", str(path))
    assert code == 0
    assert "rank = 6" in out
    back = read_generator(path)
    assert np.array_equal(back.rows, build_generator(FAMILY_HERMITIAN, 2, 2).rows)

    code, out, _ = run(capsys, "gen", "--q", "2", "--ell", "3", "--out",
                       str(tmp_path / "g32.txt"))
    assert code == 0
    assert "k=20 n=512" in out

    assert main(["gen", "--q", "2", "--ell", "2"]) == 2
    capsys.readouterr()


def test_mindist_subfield(capsys):
    code, out, _ = run(capsys, "mindist", "--q", "3", "--ell", "2", "--method", "subfield")
    assert code == 0
    assert "d = 51" in out and "matches_formula = true" in out

    code, out, _ = run(capsys, "mindist", "--q", "2", "--ell", "3", "--method", "subfield")
    assert code == 0
    assert "d = 192" in out


def test_mindist_exhaustive_affine(capsys):
    code, out, _ = run(capsys, "mindist", "--q", "2", "--ell", "2",
                       "--family", "affine", "--method", "exhaustive")
    assert code == 0
    assert "d = 6" in out


def test_mindist_formula(capsys):
    code, out, _ = run(capsys, "mindist", "--q", "9", "--ell", "3", "--method", "formula")
    assert code == 0
    assert "d = 343842327" in out and "method = Formula" in out
    code, out, _ = run(capsys, "mindist", "--q", "3", "--ell", "3", "--method", "formula")
    assert code == 0
    assert "d = 12393" in out and "method = WitnessOnly" in out


def test_mindist_budget_exceeded(capsys):
    code, _, err = run(capsys, "mindist", "--q", "2", "--ell", "3", "--method", "exhaustive")
    assert code == 3
    assert "budget" in err


def test_budget_env_override(capsys, monkeypatch):
    """The one budget variable bounds the walk and the pair scan: each H2q2
    run fits a budget of exactly its size (4^6 messages; 120 pairs times 3
    scalars) and exits 3 below."""
    for size, argv, result in [
        (4**6, ("mindist", "--q", "2", "--ell", "2", "--method", "exhaustive"), "d = 6"),
        (16 * 15 // 2 * 3, ("dualdist", "--q", "2", "--ell", "2"), "d_dual = 4"),
    ]:
        monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", str(size))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert result in out
        monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", str(size - 1))
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"{size} exceeds budget {size - 1}" in err


def test_mindist_threads(capsys):
    code1, out1, _ = run(capsys, "mindist", "--q", "3", "--ell", "2", "--method", "subfield")
    code2, out2, _ = run(capsys, "mindist", "--q", "3", "--ell", "2", "--method", "subfield",
                         "--threads", "2")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("threads", [0, (os.cpu_count() or 1) + 1])
def test_mindist_threads_out_of_range(capsys, monkeypatch, threads):
    monkeypatch.setattr(cli, "build_generator", no_work)
    code, out, err = run(capsys, "mindist", "--q", "3", "--ell", "2", "--method", "subfield",
                         "--threads", str(threads))
    assert code == 2
    assert out == ""
    assert "--threads must be in 1.." in err


@pytest.mark.parametrize("argv", [
    ("mindist", "--q", "2", "--ell", "2"),
    ("dualdist", "--q", "2", "--ell", "2"),
])
def test_negative_budget_variable_exits_2_before_the_build(capsys, monkeypatch, argv):
    """The budget variable, malformed, stops either command."""
    monkeypatch.setattr(cli, "build_generator", no_work)
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", "-1")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "HERMGRASS_BUDGET_MESSAGES must be a non-negative integer, got '-1'" in err


@pytest.mark.parametrize("argv", [
    ("mindist", "--q", "2", "--ell", "2", "--budget-messages", "5000"),
    ("dualdist", "--q", "2", "--ell", "2", "--budget-subsets", "5000"),
])
def test_budgets_have_no_flags(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "build_generator", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {argv[-2]} 5000" in err


def test_affine_subfield_exits_2_before_the_build(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_generator", no_work)
    code, out, err = run(capsys, "mindist", "--q", "9", "--ell", "3", "--family", "affine",
                         "--method", "subfield")
    assert code == 2
    assert out == ""
    assert "error: subfield enumeration applies to the Hermitian family" in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(("gen", "--q", "2", "--ell", "2"),
                 "the following arguments are required: --out", id="no-out"),
    pytest.param(("gen", "--q", "2", "--ell", "2", "--out", "g.txt", "--format", "tree"),
                 "unrecognized arguments: --format tree", id="format"),
])
def test_gen_usage_exits_2_before_the_build(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "build_generator", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_gen_read_back_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    def write_swapped(gen, path):
        write_generator(gen, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:1] + [lines[2], lines[1]] + lines[3:]) + "\n")

    monkeypatch.setattr(cli, "write_generator", write_swapped)
    code, out, err = run(capsys, "gen", "--q", "2", "--ell", "2", "--out", str(tmp_path / "g.txt"))
    assert code == 1
    assert out == ""
    assert "read-back mismatch" in err


def test_budget_env_malformed(capsys, monkeypatch):
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", "12x")
    with pytest.raises(ValueError, match="HERMGRASS_BUDGET_MESSAGES"):
        wk.budget_messages()
    code, out, err = run(capsys, "mindist", "--q", "3", "--ell", "2", "--method", "subfield")
    assert code == 2
    assert out == ""
    assert "HERMGRASS_BUDGET_MESSAGES must be a non-negative integer, got '12x'" in err


def test_message_budget_variable_bounds_the_default_mindist(capsys, monkeypatch):
    """The subfield walk, which `mindist` runs by default on the Hermitian
    family, reads the message budget variable."""
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", "100")
    code, out, err = run(capsys, "mindist", "--q", "3", "--ell", "2")
    assert code == 3
    assert out == ""
    assert "exceeds budget 100" in err


def test_desk_cells_are_the_cells_within_the_message_budget(monkeypatch):
    """`require_budget` passes a code's certifying enumeration exactly when its
    q^k messages fit the default budget, in both families: the Hermitian
    subfield walk and the affine walk both have q scalars."""
    monkeypatch.delenv("HERMGRASS_BUDGET_MESSAGES", raising=False)
    for family in (FAMILY_HERMITIAN, FAMILY_AFFINE):
        for ell in (2, 3):
            for q in sorted(SUPPORTED_Q):
                fits = q ** math.comb(2 * ell, ell) <= wk.DEFAULT_BUDGET_MESSAGES
                try:
                    wk.require_budget(CodeSpec(family, q, ell))
                    within = True
                except BudgetExceeded:
                    within = False
                assert within == fits, (family, ell, q)


@pytest.mark.parametrize("argv", [
    pytest.param(("mindist", "--q", "3", "--ell", "3"), id="mindist-H3q3"),
    pytest.param(("mindist", "--q", "4", "--ell", "3"), id="mindist-H3q4"),
    pytest.param(("mindist", "--q", "5", "--ell", "3"), id="mindist-H3q5"),
    pytest.param(("mindist", "--q", "3", "--ell", "3", "--family", "affine"), id="mindist-A3q3"),
    pytest.param(("mindist", "--q", "5", "--ell", "3", "--family", "affine"), id="mindist-A3q5"),
    pytest.param(("mindist", "--q", "5", "--ell", "2", "--method", "exhaustive"),
                 id="mindist-H2q5-exhaustive"),
    pytest.param(("dualdist", "--q", "3", "--ell", "3"), id="dualdist-H3q3"),
    pytest.param(("dualdist", "--q", "5", "--ell", "3"), id="dualdist-H3q5"),
])
def test_over_budget_exits_3_before_the_build(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "build_generator", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "exceeds budget" in err


@pytest.mark.parametrize("q", ["3", "4"])
def test_dualdist_to_max_t_2_scans_no_pairs(capsys, monkeypatch, q):
    """The t <= 2 search is read off the column keys, so the default
    budget, which the full H3q3 and H3q4 pair scans exceed, does not refuse it."""
    monkeypatch.delenv("HERMGRASS_BUDGET_MESSAGES", raising=False)
    code, out, err = run(capsys, "dualdist", "--q", q, "--ell", "3", "--max-t", "2")
    assert code == 0
    assert err == ""
    assert "d_dual = > 2" in out and "searched_upto = 2" in out


def test_table_certifies_the_cells_within_a_lowered_budget(capsys, monkeypatch):
    """At a budget of 100,000 messages the ell = 2 walks of q^6 messages fit
    for q <= 5 (15,625) and not for q >= 7 (117,649)."""
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", "100000")
    code, out, _ = run(capsys, "table", "--ell", "2")
    assert code == 0
    flags = {int(line.split(",")[0]): line.split(",")[-1]
             for line in out.strip().splitlines()[2:]}
    assert flags == {2: "certified", 3: "certified", 4: "certified", 5: "certified",
                     7: "no", 8: "no", 9: "no"}


def test_readme_names_the_budget_variables_src_reads():
    """Every "HERMGRASS_..." string literal in the package, wherever it is
    read, is a variable the README names, and the README names no other."""
    root = Path(__file__).resolve().parents[1]
    readme = set(re.findall(r"HERMGRASS_\w+", (root / "README.md").read_text()))
    src = {node.value for path in (root / "src" / "hermgrass").glob("*.py")
           for node in ast.walk(ast.parse(path.read_text()))
           if isinstance(node, ast.Constant) and isinstance(node.value, str)
           and re.fullmatch(r"HERMGRASS_\w+", node.value)}
    assert readme == src == {"HERMGRASS_BUDGET_MESSAGES"}


def test_dualdist(capsys):
    code, out, _ = run(capsys, "dualdist", "--q", "3", "--ell", "2")
    assert code == 0
    assert "d_dual = 3" in out and "matches_expected = true" in out

    code, out, _ = run(capsys, "dualdist", "--q", "2", "--ell", "2", "--format", "tree")
    assert code == 0
    data = json.loads(out)
    assert data["d_dual"] == 4
    assert data["columns"] == [0, 1, 4, 5]
    assert data["support"][1]["matrix"] == [[1, 0], [0, 0]]

    code, out, _ = run(capsys, "dualdist", "--q", "3", "--ell", "2", "--max-t", "2")
    assert code == 0
    assert "d_dual = > 2" in out


def test_dualdist_l3(capsys):
    code, out, _ = run(capsys, "dualdist", "--q", "2", "--ell", "3")
    assert code == 0
    assert "d_dual = 4" in out and "matches_expected = true" in out


def test_verify_fields_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fields")
    assert code == 0
    assert "field_axioms" in out
    assert "3/3 checks passed" in out


def test_verify_unexpected_error_fails_one_check(capsys, monkeypatch):
    def broken(seed):
        raise KeyError("missing")

    checks = verify_mod.SUITES["fields"]
    monkeypatch.setitem(verify_mod.SUITES, "fields", [("field_axioms", broken)] + checks[1:])
    code, out, _ = run(capsys, "verify", "--suite", "fields")
    assert code == 1
    assert "FAIL field_axioms: KeyError: 'missing'" in out
    assert "ok   subfield_structure" in out and "ok   trace_norm_fibers" in out
    assert "2/3 checks passed" in out


def test_verify_tree_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fields", "--format", "tree")
    assert code == 0
    data = json.loads(out)
    assert all(r["ok"] for r in data["results"])


def test_table(capsys, monkeypatch):
    monkeypatch.setenv("HERMGRASS_BUDGET_MESSAGES", "0")  # no cell may walk
    code, out, _ = run(capsys, "table", "--ell", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "q,n,k,d(C^A),d(C^H),certified"
    assert lines[2].startswith("2,16,6,6,6")
    assert "7,2401,6,2016,2051,no" in lines
    assert "9,6561,6,5760,5823,no" in lines


def test_table_certified(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert "2,16,6,6,6,certified" in lines
    assert "3,81,6,48,51,certified" in lines
    assert "4,256,6,180,188,certified" in lines
    assert "5,625,6,480,495,certified" in lines
    assert "2,512,20,168,192,certified" in lines
    assert "9,387420489,20,339655680,343842327,no" in lines


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "params", "--q", "2", "--ell", "2", "--out", str(path))
    assert code == 0
    assert "n = 16" in path.read_text()


@pytest.mark.parametrize("argv", [
    ["gen", "--q", "2", "--ell", "2"],
    ["mindist", "--q", "2", "--ell", "2"],
    ["verify", "--suite", "fields"],
], ids=["gen", "mindist", "verify"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    """An output under a missing directory is an error on stderr with exit 2,
    not a traceback with exit 1, the code of a verification mismatch."""
    path = tmp_path / "missing" / "out.txt"
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not path.exists()


TRACED = ("min_distance_subfield", "min_distance_exhaustive", "dual_min_distance")


def test_traced_names_stay_on_the_call_path(capsys, monkeypatch):
    """The benchmark traces these three by wrapping the attributes of
    `analysis`; `mindist`, `dualdist` and the verify checks that certify
    distances must reach each through that attribute, or the traced times
    read zero."""
    calls = dict.fromkeys(TRACED, 0)

    def counted(name):
        fn = getattr(an, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in TRACED:
        monkeypatch.setattr(an, name, counted(name))
    for family in (FAMILY_HERMITIAN, FAMILY_AFFINE):
        assert run(capsys, "mindist", "--q", "2", "--ell", "2", "--family", family)[0] == 0
    assert calls["min_distance_subfield"] == 1 and calls["min_distance_exhaustive"] == 1
    assert run(capsys, "dualdist", "--q", "2", "--ell", "2")[0] == 0
    assert calls["dual_min_distance"] == 1
    checks = dict(verify_mod.checks_for("all"))
    before = dict(calls)
    checks["distance_certifications"](0)
    checks["dual_distances"](0)
    assert all(calls[name] > before[name] for name in TRACED), calls
