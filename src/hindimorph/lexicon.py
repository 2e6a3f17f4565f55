"""Root-word lexicons: corpus extraction, root lists, trie compilation.

A root list is a UTF-8 text file with one root per line::

    root
    % comment

A root list has no class column: a paradigm class is a root list of
its own, which a grammar includes with ``#include``.  A directory of
classified lexicons uses one file per word class (nouns.txt,
pronouns.txt, adjectives.txt, verbs.txt, adverbs.txt, particles.txt,
adj_noun.txt); adj_noun.txt lists words that function as both adjective
and noun.
"""

from __future__ import annotations

import enum
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from . import _text, fst
from .fst import SymbolTable, Transducer


class LexiconError(Exception):
    pass


class DuplicateRoot(LexiconError):
    def __init__(self, name: str, root: str, line: int, first: int):
        super().__init__(f"{name}:{line}: duplicate root {root!r} (first on line {first})")
        self.root = root
        self.line = line


class PosClass(enum.Enum):
    NOUN = "Noun"
    PRONOUN = "Pronoun"
    ADJECTIVE = "Adjective"
    VERB = "Verb"
    ADVERB = "Adverb"
    PARTICLE = "Particle"
    ADJECTIVE_NOUN = "AdjectiveNoun"


STANDARD_FILES: dict[PosClass, str] = {
    PosClass.NOUN: "nouns.txt",
    PosClass.PRONOUN: "pronouns.txt",
    PosClass.ADJECTIVE: "adjectives.txt",
    PosClass.VERB: "verbs.txt",
    PosClass.ADVERB: "adverbs.txt",
    PosClass.PARTICLE: "particles.txt",
    PosClass.ADJECTIVE_NOUN: "adj_noun.txt",
}

# Punctuation treated as token boundaries when harvesting corpus text.
PUNCTUATION = "।?!,\"'()"
_PUNCT_TRANS = str.maketrans({c: " " for c in PUNCTUATION})


@dataclass(frozen=True)
class LexiconStats:
    """Per-class root counts plus the number of distinct roots overall.

    A root listed under several classes (adjective-noun duals, say)
    counts once in `total`.
    """
    counts: Mapping[PosClass, int]
    total: int


def extract_unique_sorted(corpus: str | Iterable[str]) -> list[str]:
    """Unique word types of a raw corpus, sorted by Unicode scalar values.

    Tokens split on whitespace and on punctuation characters (danda,
    question/exclamation marks, commas, quotes, parentheses are
    dropped).  Every token is NFC-normalized before deduplication.
    """
    if isinstance(corpus, str):
        corpus = [corpus]
    words: set[str] = set()
    for chunk in corpus:
        normalized = unicodedata.normalize("NFC", chunk)
        words.update(normalized.translate(_PUNCT_TRANS).split())
    return sorted(words)


def read_lexicon_file(path) -> list[str]:
    """The roots of a root list, in file order.

    Blank lines and ``%`` comment lines are skipped; each root is
    NFC-normalized and stripped.  :class:`LexiconError` names
    ``FILE:LINE`` for a line holding a TAB anywhere (a root list has no
    second column), for a root holding ``<`` or ``>`` (compiled, they
    would read as tag syntax), and, as :class:`DuplicateRoot`, for a
    root listed twice.
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


def load_classified(paths: Mapping[PosClass, str | Path]) -> LexiconStats:
    """Count the roots of one lexicon file per word class.

    The same root in different classes is a legitimate dual-category
    word and counts once in the total.
    """
    roots = {c: read_lexicon_file(paths[c]) for c in PosClass if c in paths}
    return LexiconStats({c: len(r) for c, r in roots.items()},
                        len(set().union(*roots.values())))


def compile_root_fst(roots: Iterable[str], symbols: SymbolTable) -> Transducer:
    """Identity trie over root strings, minimized.

    Duplicate roots collapse.  Minimization shares common suffixes, so
    the result is the smallest deterministic machine for the set.
    """
    children: list[dict[int, int]] = [{}]
    finals: set[int] = set()
    for root in sorted(roots):
        node = 0
        for sid in fst.scan(root, symbols, intern=True):
            nxt = children[node].get(sid)
            if nxt is None:
                nxt = len(children)
                children.append({})
                children[node][sid] = nxt
            node = nxt
        finals.add(node)
    arcs = [(src, sid, sid, dst)
            for src, kids in enumerate(children)
            for sid, dst in kids.items()]
    trie = fst.build(len(children), 0, finals, arcs, symbols)
    return fst.minimize(trie)
