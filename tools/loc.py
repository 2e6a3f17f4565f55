"""Lines of code of each module of a package, as ROADMAP.md quotes them.

A line counts when it holds a token of code.  Blank lines, comments and
docstrings (a string that is a statement on its own) do not count; a
token that spans lines, such as a multi-line string, counts every line
it spans.  Usage::

    python tools/loc.py [PACKAGE_DIR]

prints ``module count`` for each ``*.py`` file of PACKAGE_DIR (by
default ``src/hindimorph``), sorted by name, then ``total N``: the sum
without ``__main__.py``.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hindimorph"

# Tokens that hold no code, and those that end or open a statement.
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_STATEMENT_END = {tokenize.NEWLINE, tokenize.ENDMARKER}


def count_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for prev, tok, nxt in zip([None, *tokens], tokens, tokens[1:]):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING and nxt.type in _STATEMENT_END
                and (prev is None or prev.type in _STATEMENT_START)):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = count_lines(path.read_text(encoding="utf-8"))
        print(f"{path.name} {count}")
        if path.name != "__main__.py":
            total += count
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
