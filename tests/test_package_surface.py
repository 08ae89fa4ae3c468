"""Every top-level function and method of the package is used by the package,
exported from `__init__`, or on a short list of public API; helpers that only
tests call live in `tests/`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hermgrass"
PUBLIC_API = {"analysis.distance", "galois.FieldTower.pow",
              "codebuild.read_codewords", "codebuild.write_codewords"}


def definitions(tree):
    """(qualified name, node) of each top-level function and non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def referenced_names(trees, outside):
    """Names loaded as a bare name or an attribute anywhere in the trees,
    except inside the node `outside`."""
    skip = {id(n) for n in ast.walk(outside)}
    return {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees for n in ast.walk(tree)
            if id(n) not in skip and isinstance(n, (ast.Name, ast.Attribute))}


def unused_definitions():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    exported = {alias.name for node in trees.pop("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return [f"{module}.{name}" for module, tree in trees.items()
            for name, node in definitions(tree)
            if node.name not in exported and f"{module}.{name}" not in PUBLIC_API
            and node.name not in referenced_names(trees.values(), node)]


def test_every_definition_is_used_exported_or_public():
    assert unused_definitions() == []
