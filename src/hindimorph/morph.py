"""Morphological analysis and generation over a compiled grammar.

A grammar maps lexical forms (root plus ``<Tag>`` symbols) to surface
forms.  The one machine serves both directions: generation reads the
lexical form on its input tape, and analysis reads the surface word on
its output tape.  Analysis asks :func:`fst.apply` for the texts the
grammar writes and parses each into an :class:`Analysis`; generation
takes its label ids from the :class:`Analysis` it parses anyway, so it
calls :func:`fst.lookup` directly.  Both render each written id tuple
once.  Indeclinable words that no rule should touch live in a plain
dictionary file that shadows the transducer in both directions.
Nothing is kept per word: a repeated word is looked up again.  The
tagger, where words repeat, keeps the per-word answers it reuses.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path

from . import _text, fst
from .fst import Transducer


class MorphError(Exception):
    pass


class MalformedAnalysis(MorphError):
    pass


_set = object.__setattr__


class Analysis:
    """A root with its ordered tag sequence, e.g. लडका + (Noun, masculine, sg).

    Immutable; equal and hashed by ``(root, tags)``.  It keeps the text
    it renders to, so :meth:`render` builds no string.  The fields obey
    the rule of :meth:`parse`, so two analyses never render alike: a
    root and at least one tag, none of them empty or holding ``<`` or
    ``>``; anything else raises :class:`MalformedAnalysis`.
    """

    __slots__ = ("root", "tags", "_text")

    def __init__(self, root: str, tags: tuple[str, ...]):
        tags = tuple(tags)
        fields = "".join((root, *tags))
        if not root or not tags or not all(tags) or "<" in fields or ">" in fields:
            raise MalformedAnalysis(f"not a root and tags: {root!r}, {tags!r}")
        _set(self, "root", root)
        _set(self, "tags", tags)
        _set(self, "_text", root + "".join(f"<{t}>" for t in tags))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.root == other.root and self.tags == other.tags

    def __hash__(self) -> int:
        return hash((self.root, self.tags))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(root={self.root!r}, tags={self.tags!r})"

    def __reduce__(self):
        return type(self), (self.root, self.tags)

    def render(self) -> str:
        return self._text

    def __str__(self) -> str:
        return self._text

    @classmethod
    def parse(cls, text: str) -> "Analysis":
        """Parse ``root<Tag1><Tag2>...``; anything else is malformed.

        The root and each tag are non-empty and hold no ``<`` or ``>``;
        nothing follows the last tag.
        """
        root, sep, rest = text.partition("<")
        tags = rest[:-1].split("><")
        n = len(tags) - 1
        if (not root or not sep or ">" in root or rest[-1:] != ">"
                or "" in tags or rest.count("<") != n or rest.count(">") != n + 1):
            raise MalformedAnalysis(f"not a root<Tag>... analysis: {text!r}")
        analysis = object.__new__(cls)
        _set(analysis, "root", root)
        _set(analysis, "tags", tuple(tags))
        _set(analysis, "_text", text)
        return analysis


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

    The grammar is the only machine: :func:`analyze` looks words up on
    its output (surface) tape and :func:`generate` on its input
    (lexical) tape, each through :func:`fst.lookup` (analysis by way of
    :func:`fst.apply`), which keeps each side's epsilon closures on the
    grammar.  Each word's indeclinable analyses are kept once each,
    sorted by rendered form, the order :func:`analyze` answers in.  The
    model keeps no analysis of the grammar's: each lookup reads it.
    """

    def __init__(self, grammar: Transducer,
                 indeclinables: dict[str, list[Analysis]] | None = None):
        self.grammar = grammar
        self.indeclinables: dict[str, list[Analysis]] = {}
        self._words_by_analysis: dict[str, list[str]] = {}
        indeclinables = indeclinables or {}
        # words in sorted order, so each list of words comes out sorted
        for word in sorted(indeclinables):
            # a repeated record answers once
            kept = {a._text: a for a in indeclinables[word]}
            self.indeclinables[word] = [kept[text] for text in sorted(kept)]
            for text in kept:
                self._words_by_analysis.setdefault(text, []).append(word)

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
    ``<Tag>``) belongs to the lexical tape.  The grammar is read through
    :func:`fst.apply`, so tuples that render alike give one analysis.  A
    text the grammar writes that is not ``root<Tag>...`` raises
    :class:`MalformedAnalysis` naming the surface word.

    Each call that reaches the grammar makes one :func:`fst.apply` call,
    for a repeated word too, and returns a new list.
    """
    surface = unicodedata.normalize("NFC", surface)
    stored = model.indeclinables.get(surface)
    if stored is not None:
        return list(stored)
    if "<" in surface:
        return []
    try:
        return list(map(Analysis.parse, fst.apply(model.grammar, surface, "output")))
    except fst.UnknownSymbol:
        return []
    except MalformedAnalysis as exc:  # the grammar wrote it, not the user
        raise MalformedAnalysis(
            f"grammar wrote a lexical form for surface word {surface!r} that is {exc}"
        ) from None


def generate(model: MorphModel, lexical: str) -> list[str]:
    """Surface forms for a rendered lexical string, sorted.

    The lexical string must look like ``root<Tag>...`` (otherwise
    :class:`MalformedAnalysis`); an indeclinable analysis generates its
    dictionary word, shadowing the grammar.  An unknown-but-well-formed
    lexical form yields an empty list.
    """
    lexical = unicodedata.normalize("NFC", lexical)
    analysis = Analysis.parse(lexical)
    stored = model._words_by_analysis.get(lexical)
    if stored is not None:
        return list(stored)
    grammar = model.grammar
    id_of = grammar.symbols._ids.get
    ids = [*map(id_of, analysis.root), *[id_of(f"<{tag}>") for tag in analysis.tags]]
    if None in ids:  # a symbol outside the grammar's alphabet
        return []
    return fst._texts(grammar, fst.lookup(grammar, ids))
