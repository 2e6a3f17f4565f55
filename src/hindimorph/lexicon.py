"""Root-word lexicons: corpus extraction, classified files, trie compilation.

Lexicon files are UTF-8 text, one entry per line::

    root
    root<TAB>inflection_class
    % comment

The inflection class is a bare label; when present it compiles into a
trailing identity arc over the tag symbol ``<label>`` so grammars can
dispatch on it.  A directory of classified lexicons uses one file per
word class (nouns.txt, pronouns.txt, adjectives.txt, verbs.txt,
adverbs.txt, particles.txt, adj_noun.txt); adj_noun.txt lists words
that function as both adjective and noun.
"""

from __future__ import annotations

import enum
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from . import fst
from .fst import SymbolTable, Transducer


class LexiconError(Exception):
    pass


class DuplicateRoot(LexiconError):
    def __init__(self, pos_class: "PosClass", root: str, line: int):
        super().__init__(
            f"duplicate root {root!r} in {pos_class.value} lexicon (line {line})")
        self.pos_class = pos_class
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
class LexiconEntry:
    root: str
    pos_class: PosClass
    infl_class: str | None = None


@dataclass(frozen=True)
class LexiconStats:
    """Per-class entry counts plus the number of distinct roots overall.

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


def read_lexicon_file(path) -> list[tuple[int, str, str | None]]:
    """Rows of a lexicon file as (line_number, root, infl_class|None).

    Blank lines and ``%`` comment lines are skipped; roots are
    NFC-normalized.
    """
    path = Path(path)
    rows: list[tuple[int, str, str | None]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = unicodedata.normalize("NFC", raw.rstrip("\n"))
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            fields = [f.strip() for f in line.split("\t")]
            if len(fields) > 2:
                raise LexiconError(
                    f"{path.name}:{lineno}: too many fields (expected root or root<TAB>class)")
            root = fields[0]
            infl = fields[1] if len(fields) == 2 else None
            if not root:
                raise LexiconError(f"{path.name}:{lineno}: empty root")
            if infl == "":
                raise LexiconError(f"{path.name}:{lineno}: empty inflection class")
            rows.append((lineno, root, infl))
    return rows


def load_classified(paths: Mapping[PosClass, str | Path]) -> tuple[list[LexiconEntry], LexiconStats]:
    """Load one lexicon file per word class.

    Returns the entries (file order, classes in enum order) and the
    stats.  A root repeated inside one class raises
    :class:`DuplicateRoot`; the same root in different classes is a
    legitimate dual-category word and counts once in the total.
    """
    entries: list[LexiconEntry] = []
    counts: dict[PosClass, int] = {}
    roots: set[str] = set()
    for pos_class in PosClass:
        if pos_class not in paths:
            continue
        seen: set[str] = set()
        count = 0
        for lineno, root, infl in read_lexicon_file(paths[pos_class]):
            if root in seen:
                raise DuplicateRoot(pos_class, root, lineno)
            seen.add(root)
            entries.append(LexiconEntry(root, pos_class, infl))
            roots.add(root)
            count += 1
        counts[pos_class] = count
    return entries, LexiconStats(counts, len(roots))


def compile_root_fst(rows: Iterable[tuple[str, str | None]],
                     symbols: SymbolTable) -> Transducer:
    """Identity trie over root strings, minimized.

    Each row is (root, infl_class|None); a class label appends one
    identity arc over the ``<label>`` tag symbol before acceptance.
    Duplicate rows collapse.  Minimization shares common suffixes, so
    the result is the smallest deterministic machine for the set.
    """
    children: list[dict[int, int]] = [{}]
    finals: set[int] = set()
    for root, infl in sorted(set(rows), key=lambda r: (r[0], r[1] or "")):
        ids = fst.scan(root, symbols, intern=True)
        if infl is not None:
            ids = ids + [symbols.intern(f"<{infl}>")]
        node = 0
        for sid in ids:
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


def compile_lexicon_fst(entries: Iterable[LexiconEntry],
                        symbols: SymbolTable) -> Transducer:
    """Compile classified lexicon entries into one identity transducer."""
    rows = [(e.root, e.infl_class) for e in entries]
    if not rows:
        raise LexiconError("cannot compile an empty lexicon")
    return compile_root_fst(rows, symbols)
