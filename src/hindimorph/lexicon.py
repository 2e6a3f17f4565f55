"""Root-word lexicons: corpus extraction, root lists and their machines.

A root list is a UTF-8 text file with one root per line::

    root
    % comment

``%`` starts a comment anywhere in a line.  A root list has no class
column: a paradigm class is a root list of its own, which a grammar
includes with ``#include``.  A root list compiles to the minimal
machine of its roots through :func:`fst.string_set`, which builds and
folds their trie.  :func:`extract_unique_sorted` harvests a corpus's
word types into a list that reads back as a root list.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path
from typing import Iterable

from . import _text, fst
from .fst import SymbolTable, Transducer


class LexiconError(Exception):
    pass


class DuplicateRoot(LexiconError):
    def __init__(self, name: str, root: str, line: int, first: int):
        super().__init__(f"{name}:{line}: duplicate root {root!r} (first on line {first})")
        self.root = root
        self.line = line


# Token boundaries when harvesting corpus text: punctuation, and the
# characters a root list cannot hold as written (``%`` starts a comment,
# ``<`` and ``>`` write tags, and a leading U+FEFF is read as a
# byte-order mark).
PUNCTUATION = "।?!,\"'()%<>\ufeff"
_PUNCT_TRANS = str.maketrans({c: " " for c in PUNCTUATION})


def extract_unique_sorted(corpus: str) -> list[str]:
    """Unique word types of a raw corpus text, sorted by Unicode scalar values.

    Tokens split on whitespace and on the characters of
    :data:`PUNCTUATION`, which are dropped: danda, question and
    exclamation marks, commas, quotes, parentheses, and ``%``, ``<``,
    ``>`` and U+FEFF, so that each word, written one per line, reads
    back unchanged through :func:`read_lexicon_file`.  The text is
    NFC-normalized before deduplication.
    """
    normalized = unicodedata.normalize("NFC", corpus)
    return sorted(set(normalized.translate(_PUNCT_TRANS).split()))


def read_lexicon_file(path) -> list[str]:
    """The roots of a root list, in file order.

    Each line ends at its first ``%``; blank lines are skipped, and each
    root is NFC-normalized and stripped.  :class:`LexiconError` names
    ``FILE:LINE`` for a line holding a TAB before any ``%`` (a root list
    has no second column), for a root holding ``<`` or ``>`` (compiled,
    they would read as tag syntax), and, as :class:`DuplicateRoot`, for
    a root listed twice.
    """
    path = Path(path)
    first: dict[str, int] = {}
    for lineno, line in _text.records(path, LexiconError):
        root = line.strip()
        if "\t" in line:
            raise LexiconError(f"{path.name}:{lineno}: TAB in a root (one root per line)")
        if "<" in root or ">" in root:
            raise LexiconError(
                f"{path.name}:{lineno}: '<' or '>' in a root (tags belong in the rules)")
        if root in first:
            raise DuplicateRoot(path.name, root, lineno, first[root])
        first[root] = lineno
    return list(first)


def compile_root_fst(roots: Iterable[str], symbols: SymbolTable) -> Transducer:
    """The minimal identity machine of a set of roots, the machine
    :func:`fst.minimize` makes of their trie: each root is scanned, its
    new symbols interned root by root in sorted root order, and
    :func:`fst.string_set` compiles the id strings.  Duplicates collapse.
    """
    return fst.string_set([fst.scan(root, symbols, intern=True) for root in sorted(roots)],
                          symbols)
