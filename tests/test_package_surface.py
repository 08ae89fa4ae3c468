"""Every top-level function, method and module-level name of the package is
used by the package, exported from `__init__`, or on a short list of public
API; helpers and constants that only tests use live in `tests/`."""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hermgrass"
PUBLIC_API = set()


def definitions(tree):
    """(qualified name, bare name, node) of each top-level function,
    non-dunder method and non-dunder name assigned at module level."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if not name.id.startswith("__"):
                    yield name.id, name.id, node


def references(node, owner=None):
    """(name, enclosing definition) for each bare name read or attribute under
    the node, in one walk; the definition is the outermost function or method
    the name sits in, or None at module or class level.  A name assigned to
    is not a reference, so a module-level name is not used by its own
    assignment."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
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
            for name, bare, node in definitions(tree)
            if bare not in exported and f"{module}.{name}" not in PUBLIC_API
            and not owners[bare] - {node}]


def test_every_definition_is_used_exported_or_public():
    assert unused_definitions() == []


def test_no_function_takes_a_budget_parameter():
    """Each budget has one setting, its environment variable: no function
    of the package takes a budget as an argument to forward or override."""
    found = [f"{path.stem}.{node.name}({arg.arg})"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                         *filter(None, [node.args.vararg, node.args.kwarg])]
             if "budget" in arg.arg]
    assert found == []


def internal_imports():
    """{module: the package modules it imports}, from every `from .x import`
    and `from . import x` statement, at any depth."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                graph[path.stem].update(name.split(".")[0] for name in names)
    return graph


def test_internal_imports_form_no_cycle():
    graph = internal_imports()
    assert {"analysis", "walk", "dual", "strata"} <= graph.keys()
    done, path = set(), []

    def visit(module):
        if module in path:
            raise AssertionError(" -> ".join(path[path.index(module):] + [module]))
        if module not in done:
            path.append(module)
            for imported in sorted(graph[module]):
                visit(imported)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)


def test_the_split_imports_downward():
    """walk <- dual <- analysis and walk <- strata -> analysis: the engine
    imports none of the three, and analysis imports neither the strata nor
    anything that does."""
    graph = internal_imports()
    assert graph["walk"].isdisjoint({"analysis", "dual", "strata"})
    assert graph["dual"].isdisjoint({"analysis", "strata"})
    assert {"walk", "analysis"} <= graph["strata"]
    assert "strata" not in graph["analysis"] and {"walk", "dual"} <= graph["analysis"]


def test_no_function_or_class_is_defined_in_two_modules():
    """A top-level function or class name has one defining module, so a
    moved definition cannot survive as a copy."""
    owners = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owners[node.name].append(path.stem)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def test_dtype_kind_is_read_only_by_the_index_check():
    """A caller's field elements and positions go through one check,
    `errors.indices`, the only code that reads a dtype's kind, so a
    hand-rolled index check cannot grow back beside it."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "kind"
                        and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"):
                    readers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert readers == {"errors.indices"}


def two_index_table_reads():
    """module.function of each read of a tower's `add_np` or `mul_np` that
    is not a subscript by one index: two index arrays (a tuple of two or
    more entries that are neither constants nor slices, or `np.ix_`), or
    the table read under another name, which hides its subscripts.  The
    methods of `galois.FieldTower` are the kernels and scalar operations
    themselves, and are not searched."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if path.stem == "galois" and isinstance(top, ast.ClassDef) and top.name == "FieldTower":
                continue
            parents = {child: node for node in ast.walk(top) for child in ast.iter_child_nodes(node)}
            for node in ast.walk(top):
                if not (isinstance(node, ast.Attribute) and node.attr in ("add_np", "mul_np")
                        and isinstance(node.ctx, ast.Load)):
                    continue
                parent = parents.get(node)
                if isinstance(parent, ast.Subscript) and parent.value is node:
                    index = parent.slice
                    entries = index.elts if isinstance(index, ast.Tuple) else [index]
                    arrays = [e for e in entries if not isinstance(e, (ast.Constant, ast.Slice))]
                    ix = any(isinstance(e, ast.Call) and getattr(e.func, "attr", getattr(e.func, "id", ""))
                             == "ix_" for e in entries)
                    if len(arrays) < 2 and not ix:
                        continue
                found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_add_and_mul_tables_are_gathered_by_the_kernels():
    """Arrays of elements add and multiply through one flat gather each,
    `FieldTower.adds` and `FieldTower.muls`; no module indexes `add_np` or
    `mul_np` with two index arrays.  `linalg.rref` keeps 2-D indexing: its
    eliminations are mostly a few entries wide, where building a key costs
    more than it saves."""
    assert two_index_table_reads() == {"linalg.rref"}
