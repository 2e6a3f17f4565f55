"""Morphological analysis and generation over a compiled grammar.

A grammar maps lexical forms (root plus ``<Tag>`` symbols) to surface
forms.  The one machine serves both directions: generation reads the
lexical form on its input tape, and analysis reads the surface word on
its output tape (``fst.apply(grammar, word, side="output")``).
Indeclinable words that no rule should touch live in a plain dictionary
file that shadows the transducer in both directions.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path

from . import _text, fst
from .fst import Transducer


class MorphError(Exception):
    pass


class MalformedAnalysis(MorphError):
    pass


# A model keeps the analyses of at most this many distinct surface words
# (about 370 bytes each); a miss on a full memo clears it first.
_MEMO_WORDS = 4096

_ANALYSIS_RE = re.compile(r"([^<>]+)((?:<[^<>]+>)+)")
_TAG_RE = re.compile(r"<([^<>]+)>")


@dataclass(frozen=True)
class Analysis:
    """A root with its ordered tag sequence, e.g. लडका + (Noun, masculine, sg)."""

    root: str
    tags: tuple[str, ...]

    def render(self) -> str:
        return self.root + "".join(f"<{t}>" for t in self.tags)

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def parse(cls, text: str) -> "Analysis":
        """Parse ``root<Tag1><Tag2>...``; anything else is malformed."""
        m = _ANALYSIS_RE.fullmatch(text)
        if not m:
            raise MalformedAnalysis(f"not a root<Tag>... analysis: {text!r}")
        return cls(m.group(1), tuple(_TAG_RE.findall(m.group(2))))


def load_indeclinables(path) -> dict[str, list[Analysis]]:
    """Read a word<TAB>analysis file; repeated words accumulate analyses.

    Each line ends at its first ``%``; blank lines are skipped.  Both
    columns are NFC-normalized; a record with a second TAB, or whose
    analysis has no root or no tags, raises :class:`MalformedAnalysis`
    naming the line.
    """
    result: dict[str, list[Analysis]] = {}
    path = Path(path)
    for lineno, line in _text.records(path, MorphError):
        word, sep, rest = line.partition("\t")
        word, analysis = word.strip(), rest.strip()
        if not sep or "\t" in rest or not word or not analysis:
            raise MalformedAnalysis(
                f"{path.name}:{lineno}: expected word<TAB>analysis")
        try:
            parsed = Analysis.parse(analysis)
        except MalformedAnalysis as exc:
            raise MalformedAnalysis(f"{path.name}:{lineno}: {exc}") from exc
        result.setdefault(word, []).append(parsed)
    return result


class MorphModel:
    """A generation-direction grammar plus the indeclinable dictionary.

    The grammar is the only machine: :func:`analyze` applies it on its
    output (surface) tape and :func:`generate` on its input (lexical)
    tape.  Each word's indeclinable analyses are kept once each, sorted
    by rendered form, the order :func:`analyze` answers in.  The model
    also keeps the grammar's analyses of up to 4,096 distinct surface
    words, about 370 bytes each (see :func:`analyze`), so a later
    replacement of ``grammar`` is not seen.
    """

    def __init__(self, grammar: Transducer,
                 indeclinables: dict[str, list[Analysis]] | None = None):
        self.grammar = grammar
        self.indeclinables: dict[str, list[Analysis]] = {}
        self._words_by_analysis: dict[str, list[str]] = {}
        self._analyses: dict[str, tuple[Analysis, ...]] = {}
        for word, analyses in (indeclinables or {}).items():
            # a repeated record answers once; the keys are unique, so the
            # sort never compares two analyses
            rendered = dict(sorted({a.render(): a for a in analyses}.items()))
            self.indeclinables[word] = list(rendered.values())
            for text in rendered:
                self._words_by_analysis.setdefault(text, []).append(word)
        for words in self._words_by_analysis.values():
            words.sort()

    @classmethod
    def load(cls, grammar_path, indeclinables_path=None) -> "MorphModel":
        grammar = fst.load(grammar_path)
        indecl = (load_indeclinables(indeclinables_path)
                  if indeclinables_path is not None else None)
        return cls(grammar, indecl)


def analyze(model: MorphModel, surface: str) -> list[Analysis]:
    """All analyses of a surface word, ordered by rendered form.

    The indeclinable dictionary shadows the grammar, which is read
    from its surface side.  A word outside both yields an empty list (a
    soft miss, not an error); so does a word with a symbol outside the
    grammar's alphabet.  A surface word is plain text, so one that holds
    a ``<`` is a soft miss too: the grammar's tag syntax (``<>``,
    ``<Tag>``) belongs to the lexical tape.

    The grammar's answers, soft misses included, are kept on the model
    for up to 4,096 distinct words, so a repeated word is read once; a
    later replacement of ``model.grammar`` is not seen.  A miss on a
    full memo clears it first.  Each call returns a new list.
    """
    surface = unicodedata.normalize("NFC", surface)
    stored = model.indeclinables.get(surface)
    if stored is not None:
        return list(stored)
    if "<" in surface:
        return []
    memo = model._analyses
    found = memo.get(surface)
    if found is None:
        try:
            pairs = fst.apply(model.grammar, surface, side="output")
        except fst.UnknownSymbol:
            pairs = []
        # the read string is fixed, so the pairs are already in lexical order
        found = tuple(Analysis.parse(out) for _, out in pairs)
        if len(memo) >= _MEMO_WORDS:
            memo.clear()
        memo[surface] = found
    return list(found)


def generate(model: MorphModel, lexical: str) -> list[str]:
    """Surface forms for a rendered lexical string, sorted.

    The lexical string must look like ``root<Tag>...`` (otherwise
    :class:`MalformedAnalysis`); an indeclinable analysis generates its
    dictionary word, shadowing the grammar.  An unknown-but-well-formed
    lexical form yields an empty list.
    """
    lexical = unicodedata.normalize("NFC", lexical)
    Analysis.parse(lexical)
    stored = model._words_by_analysis.get(lexical)
    if stored is not None:
        return list(stored)
    try:
        pairs = fst.apply(model.grammar, lexical)
    except fst.UnknownSymbol:
        return []
    return [out for _, out in pairs]
