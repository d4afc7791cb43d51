"""Count the code lines of Python sources, by token.

A code line is a line that holds part of a token other than a comment, a
docstring or the layout tokens (newlines, indents, dedents): blank lines,
comment lines and docstring lines do not count, and a statement spread
over several lines counts each of them. A docstring is a string literal
that is a statement of its own; this also drops bare string statements
that are not at the head of a module, class or function.

    python tests/code_lines.py src/gdr       # one total for every *.py below

This is the count that CHANGES.md and ROADMAP.md give for ``src/gdr``.
"""
from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# the tokens after which a string literal starts a statement
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    tokens = [
        t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines = set()
    for k, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        if (
            token.type == tokenize.STRING
            and (k == 0 or tokens[k - 1].type in _STATEMENT_START)
            and tokens[k + 1].type == tokenize.NEWLINE
        ):
            continue  # a docstring
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count(root: Path) -> int:
    """Code lines of every ``*.py`` file at or below `root`."""
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    return sum(code_lines(path.read_text(encoding="utf-8")) for path in paths)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/code_lines.py PATH")
    print(count(Path(sys.argv[1])))
