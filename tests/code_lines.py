"""Code lines of src/hermgrass: the lines that hold code, not docstrings,
comments or blank lines, per module and in total.

    python tests/code_lines.py [package directory] [--against REF]

With --against, each module's count at the git revision REF (read with
`git show`, nothing is checked out) is printed beside its count now, with
the difference.

A line counts when a token other than a comment or a docstring lies on it;
a token that spans lines (a multi-line string) counts every line it spans.
The file name keeps pytest from collecting it.
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


def git(root, *args):
    """The output of a git command run in root; its error message and exit 1
    if it fails."""
    done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    if done.returncode:
        sys.exit(done.stderr.strip())
    return done.stdout


def counts_at(root, ref):
    """{module name: code lines} of the package directory at revision ref."""
    names = git(root, "ls-tree", "--name-only", ref, "./").split()
    return {name: code_lines(git(root, "show", f"{ref}:./{name}"))
            for name in names if name.endswith(".py")}


def main():
    parser = argparse.ArgumentParser(description="Code lines per module of a package.")
    parser.add_argument("root", nargs="?", type=pathlib.Path,
                        default=pathlib.Path(__file__).parents[1] / "src" / "hermgrass")
    parser.add_argument("--against", metavar="REF", help="also count at this git revision")
    args = parser.parse_args()
    now = {path.name: code_lines(path.read_text()) for path in sorted(args.root.glob("*.py"))}
    if args.against is None:
        for name, count in now.items():
            print(f"{name:16} {count:5}")
        print(f"{'total':16} {sum(now.values()):5}")
        return
    before = counts_at(args.root, args.against)
    print(f"{'':16} {args.against[:10]:>10} {'now':>5} {'diff':>5}")
    for name in sorted(before.keys() | now.keys()):
        a, b = before.get(name, 0), now.get(name, 0)
        print(f"{name:16} {a:10} {b:5} {b - a:+5}")
    a, b = sum(before.values()), sum(now.values())
    print(f"{'total':16} {a:10} {b:5} {b - a:+5}")


if __name__ == "__main__":
    main()
