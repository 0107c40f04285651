"""Print the code lines of each module of ``src/barhom`` and their total: the
lines that hold a token other than a comment or a docstring.  Blank lines,
comment lines and docstrings are left out, so a trimmed docstring cannot hide
code that grew.  Run it as ``python tests/code_lines.py``."""

import ast
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "barhom"
NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    tree = ast.parse(path.read_text())
    docstrings = {(node.body[0].lineno, node.body[0].col_offset) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    with path.open("rb") as source:
        return len({row for tok in tokenize.tokenize(source.readline)
                    if tok.type not in NOT_CODE and tok.start not in docstrings
                    for row in range(tok.start[0], tok.end[0] + 1)})


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = code_lines(path)
        total += lines
        print(f"{path.name:16} {lines:6,}")
    print(f"{'total':16} {total:6,}")
