"""Every top-level function and method of the package is used by the package,
exported from `__init__`, or on a short list of public API; helpers that only
tests call live in `tests/`."""

import ast
from collections import defaultdict
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


def references(node, owner=None):
    """(name, enclosing definition) for each bare name or attribute under the
    node, in one walk; the definition is the outermost function or method
    the name sits in, or None at module or class level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            yield child.id, owner
        elif isinstance(child, ast.Attribute):
            yield child.attr, owner
        inner = child if owner is None and isinstance(child, ast.FunctionDef) else owner
        yield from references(child, inner)


def unused_definitions():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    exported = {alias.name for node in trees.pop("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    owners = defaultdict(set)
    for tree in trees.values():
        for name, owner in references(tree):
            owners[name].add(owner)
    return [f"{module}.{name}" for module, tree in trees.items()
            for name, node in definitions(tree)
            if node.name not in exported and f"{module}.{name}" not in PUBLIC_API
            and not owners[node.name] - {node}]


def test_every_definition_is_used_exported_or_public():
    assert unused_definitions() == []
