"""The family policy lives behind `GeneratorMatrix.scalars`,
`analysis.distance_formula`, `analysis.min_distance` and
`analysis.require_budget`, which rejects `--family affine --method
subfield` before the build: neither `verify` nor `cli` compares a family
constant."""

import ast
from pathlib import Path

from hermgrass.codebuild import FAMILY_AFFINE, FAMILY_HERMITIAN

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hermgrass"
FAMILY_NAMES = {"FAMILY_HERMITIAN", "FAMILY_AFFINE"}
FAMILY_VALUES = {FAMILY_HERMITIAN, FAMILY_AFFINE}


def names_a_family(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in FAMILY_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in FAMILY_NAMES
    return isinstance(node, ast.Constant) and node.value in FAMILY_VALUES


def family_comparisons(module: str):
    """(enclosing if-test, comparison) of every comparison with a family."""
    tree = ast.parse((PACKAGE / module).read_text())
    tests = {id(c): node.test for node in ast.walk(tree) if isinstance(node, ast.If)
             for c in ast.walk(node.test)}
    return [(tests.get(id(node)), node) for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(names_a_family(x) for x in [node.left, *node.comparators])]


def test_verify_compares_no_family():
    assert family_comparisons("verify.py") == []


def test_cli_compares_no_family():
    assert family_comparisons("cli.py") == []
