"""Code lines of src/hermgrass: the lines that hold code, not docstrings,
comments or blank lines, per module and in total, and beside them the
lines of import statements among them.

    python tests/code_lines.py [package directory] [--against REF]

With --against, each module's counts at the git revision REF (read with
`git show`, nothing is checked out) are printed beside its counts now, with
the differences, and a last row gives the code lines that are not imports.

A line counts when a token other than a comment or a docstring lies on it;
a token that spans lines (a multi-line string) counts every line it spans.
An import line is a line of an `import` or `from ... import` statement, at
any depth.  The file name keeps pytest from collecting it.
"""

import argparse
import ast
import io
import pathlib
import subprocess
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    docs = docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP and tok.start[0] not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def import_lines(source):
    """The number of lines spanned by the module's import statements."""
    return len({line for node in ast.walk(ast.parse(source))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for line in range(node.lineno, node.end_lineno + 1)})


def counts(source):
    return code_lines(source), import_lines(source)


def git(root, *args):
    """The output of a git command run in root; its error message and exit 1
    if it fails."""
    done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    if done.returncode:
        sys.exit(done.stderr.strip())
    return done.stdout


def counts_at(root, ref):
    """{module name: (code lines, import lines)} of the package directory at
    revision ref."""
    names = git(root, "ls-tree", "--name-only", ref, "./").split()
    return {name: counts(git(root, "show", f"{ref}:./{name}"))
            for name in names if name.endswith(".py")}


def main():
    parser = argparse.ArgumentParser(description="Code lines per module of a package.")
    parser.add_argument("root", nargs="?", type=pathlib.Path,
                        default=pathlib.Path(__file__).parents[1] / "src" / "hermgrass")
    parser.add_argument("--against", metavar="REF", help="also count at this git revision")
    args = parser.parse_args()
    now = {path.name: counts(path.read_text()) for path in sorted(args.root.glob("*.py"))}
    if args.against is None:
        print(f"{'':16} {'code':>5} {'imports':>7}")
        for name, (code, imports) in now.items():
            print(f"{name:16} {code:5} {imports:7}")
        code, imports = map(sum, zip(*now.values()))
        print(f"{'total':16} {code:5} {imports:7}")
        print(f"{'not imports':16} {code - imports:5}")
        return
    before = counts_at(args.root, args.against)
    print(f"{'':16} {args.against[:10]:>10} {'now':>5} {'diff':>5}"
          f" {'imports':>10} {'now':>5} {'diff':>5}")
    for name in sorted(before.keys() | now.keys()):
        (a, ai), (b, bi) = before.get(name, (0, 0)), now.get(name, (0, 0))
        print(f"{name:16} {a:10} {b:5} {b - a:+5} {ai:10} {bi:5} {bi - ai:+5}")
    (a, ai), (b, bi) = (map(sum, zip(*c.values())) for c in (before, now))
    print(f"{'total':16} {a:10} {b:5} {b - a:+5} {ai:10} {bi:5} {bi - ai:+5}")
    print(f"{'not imports':16} {a - ai:10} {b - bi:5} {b - bi - a + ai:+5}")

if __name__ == "__main__":
    main()
