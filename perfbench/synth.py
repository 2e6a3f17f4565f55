"""Seeded synthetic grammar and input streams, standard library only.

The grammar has four paradigm classes modelled on the bundled
``hindi.mrl`` (-ā masculine, -ī feminine, invariant, verb), each over a
root list pulled in with ``#include``, and one ``||`` composition with
an orthographic rule: a morpheme boundary ``+`` is deleted, and ``ी``
shortens to ``ि`` before it (कहानी+याँ → कहानियाँ).

The expected analysis and generation tables are built here by string
construction from :data:`PARADIGMS` and :func:`ortho`, never through
``hindimorph``; that independence is what lets the benchmark check the
library's outputs.  One seed gives byte-identical files and streams:
every choice draws from one ``random.Random`` and never iterates a set
in hash order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CONSONANTS = "कखगघचछजझटठडढतथदधनपफबभमयरलवशसह"
NUKTA = "़"
# Bases whose nukta letters U+0958..U+095F exist precomposed; NFC
# decomposes those letters, so stems store the decomposed pair.
NUKTA_BASES = "कखगजडढफय"
PRECOMPOSED = {base + NUKTA: chr(0x958 + i) for i, base in enumerate(NUKTA_BASES)}
VOWEL_SIGNS = ("", "ा", "ि", "ी", "ु", "ू", "े", "ो")
# Every scalar the grammar's surface tape can carry.
ALPHABET = sorted(set(CONSONANTS + NUKTA + "".join(VOWEL_SIGNS) + "ँ"))
# Scalars no generated file mentions: words holding one are out of alphabet.
OUT_OF_ALPHABET = "ऋॠऌॐ०१२३"
# Wrong endings for near misses: in alphabet, never a paradigm suffix.
NEAR_ENDINGS = ("ो", "ू", "ु", "ोत", "ाय", "ेक", "ुन", "ोम")

# class -> (lexicon file, root suffix, ((lexical tags, intermediate suffix), ...))
# The lexical form is stem + root suffix + tags; the surface form is
# ortho(stem + intermediate suffix).
PARADIGMS = {
    "masc_a": ("masc_a.lex", "ा", (
        ("<Noun><masculine><sg>", "ा"),
        ("<Noun><masculine><pl>", "े"),
        ("<Noun><Vocative>", "े"),
    )),
    "fem_i": ("fem_i.lex", "ी", (
        ("<Noun><feminine><sg>", "ी"),
        ("<Noun><feminine><pl>", "ी+याँ"),
    )),
    "invariant": ("invariant.lex", "", (
        ("<Noun><Masculine><sg>", ""),
    )),
    "verb": ("verbs.lex", "", (
        ("<Verb><Imperative>", ""),
        ("<Verb><Habitual><Masculine><sg>", "+ता"),
        ("<Verb><Habitual><Masculine><pl>", "+ते"),
        ("<Verb><Habitual><Feminine>", "+ती"),
    )),
}
INDECL_TAGS = ("<Adverb>", "<Particle>", "<Postposition>")

RULES_TEMPLATE = """\
% Synthetic grammar (seed {seed}): four paradigm classes over included
% root lists, then an orthographic rule composed on the surface side.

$MascA$ = ( #include "masc_a.lex" ) ( ा <Noun>:<> <masculine>:<> <sg>:<>
                                    | ा:े <Noun>:<> <masculine>:<> <pl>:<>
                                    | ा:े <Noun>:<> <Vocative>:<> )

$FemI$ = ( #include "fem_i.lex" ) ( ी <Noun>:<> <feminine>:<> <sg>:<>
                                  | ी <>:\\+ <>:य <>:ा <>:ँ <Noun>:<> <feminine>:<> <pl>:<> )

$Invariant$ = ( #include "invariant.lex" ) <Noun>:<> <Masculine>:<> <sg>:<>

$Verb$ = ( #include "verbs.lex" ) <Verb>:<> ( <Imperative>:<>
            | <Habitual>:<> ( <Masculine>:<> <sg>:<> <>:\\+ <>:त <>:ा
                            | <Masculine>:<> <pl>:<> <>:\\+ <>:त <>:े
                            | <Feminine>:<> <>:\\+ <>:त <>:ी ) )

$Lexical$ = $MascA$ | $FemI$ | $Invariant$ | $Verb$

% the boundary + disappears; ी before it shortens to ि
$Other$ = [{other}]
$Ortho$ = ( $Other$ | \\+:<> | ी:ि \\+:<> | ी $Other$ )* ी?

$Lexical$ || $Ortho$
"""


def ortho(intermediate: str) -> str:
    """The orthographic rule of the grammar, as string rewriting."""
    return intermediate.replace("ी+", "ि").replace("+", "")


@dataclass
class Grammar:
    """Generated root lists plus the expected tables derived from them."""

    seed: int
    roots: dict[str, list[str]]            # class -> sorted stems
    indeclinables: dict[str, str]          # word -> rendered analysis
    analyses: dict[str, tuple[str, ...]]   # surface -> sorted analyses
    surfaces: dict[str, tuple[str, ...]]   # lexical -> sorted surfaces

    def write(self, directory: Path) -> Path:
        """Write the rule file, root lists and indeclinables; return the rule path."""
        # The nukta leads the class: after न, र or ळ, NFC would fuse it.
        other = NUKTA + "".join(ch for ch in ALPHABET if ch not in (NUKTA, "ी"))
        (directory / "synth.mrl").write_text(
            RULES_TEMPLATE.format(seed=self.seed, other=other), encoding="utf-8")
        for cls, (filename, _, _) in PARADIGMS.items():
            text = "".join(stem + "\n" for stem in self.roots[cls])
            (directory / filename).write_text(text, encoding="utf-8")
        (directory / "indeclinables.tsv").write_text(
            "".join(f"{w}\t{a}\n" for w, a in sorted(self.indeclinables.items())),
            encoding="utf-8")
        return directory / "synth.mrl"


def _consonant(rng: random.Random) -> str:
    if rng.random() < 0.06:
        return rng.choice(NUKTA_BASES) + NUKTA
    return rng.choice(CONSONANTS)


def _syllable(rng: random.Random) -> str:
    return _consonant(rng) + rng.choice(VOWEL_SIGNS)


def _stem(rng: random.Random) -> str:
    """Syllables closed by a bare consonant, so no stem ends in ी."""
    return "".join(_syllable(rng) for _ in range(rng.choice((1, 2, 2, 3)))) + _consonant(rng)


def _distinct(rng: random.Random, n: int, make, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        s = make(rng)
        if s and s not in taken:
            taken.add(s)
            out.append(s)
    return out


def generate_grammar(seed: int, n_stems: int = 10_000, n_indecl: int = 1200) -> Grammar:
    """Roots for about `n_stems` stems, with a few deliberate cross-class collisions."""
    rng = random.Random(f"grammar-{seed}")
    shares = {"masc_a": 0.30, "fem_i": 0.25, "invariant": 0.25, "verb": 0.20}
    roots: dict[str, list[str]] = {}
    for cls, share in shares.items():
        taken: set[str] = set()
        if cls == "invariant":
            make = lambda r: "".join(_syllable(r) for _ in range(r.choice((2, 2, 3))))
        else:
            make = _stem
        roots[cls] = _distinct(rng, int(n_stems * share), make, taken)
    # Collisions: surfaces that two classes share get two analyses.
    for stem in rng.sample(roots["masc_a"], 40):
        roots["invariant"].append(stem + "ा")          # Xा: masculine sg and invariant
    for stem in rng.sample(roots["verb"], 40):
        roots["invariant"].append(stem)                # X: imperative and invariant
    for stem in rng.sample(roots["verb"], 40):
        roots["fem_i"].append(stem + "त")              # Xती: feminine sg and verb
    roots = {cls: sorted(set(stems)) for cls, stems in roots.items()}

    analyses: dict[str, set[str]] = {}
    surfaces: dict[str, set[str]] = {}
    for cls, (_, root_suffix, forms) in PARADIGMS.items():
        for stem in roots[cls]:
            for tags, suffix in forms:
                lexical = stem + root_suffix + tags
                surface = ortho(stem + suffix)
                analyses.setdefault(surface, set()).add(lexical)
                surfaces.setdefault(lexical, set()).add(surface)

    indecl_words = _distinct(
        rng, n_indecl, lambda r: "".join(_syllable(r) for _ in range(r.choice((2, 3)))),
        set())
    indeclinables = {w: w + rng.choice(INDECL_TAGS) for w in sorted(indecl_words)}
    return Grammar(
        seed, roots, indeclinables,
        {s: tuple(sorted(a)) for s, a in analyses.items()},
        {lx: tuple(sorted(s)) for lx, s in surfaces.items()})


def _precompose(word: str) -> str:
    for pair, letter in PRECOMPOSED.items():
        word = word.replace(pair, letter)
    return word


def word_stream(grammar: Grammar, seed: int, n: int = 24_000) -> list[tuple[str, tuple[str, ...], str]]:
    """Distinct (word, expected analyses, kind) items in seeded order.

    Kinds and shares: ``hit`` 70% (accepted forms, half of those with a
    nukta spelled precomposed), ``near`` 15% (a real stem with a wrong
    ending), ``ooa`` 10% (one out-of-alphabet scalar), ``indecl`` 5%.
    Expected analyses are keyed by the NFC spelling.
    """
    rng = random.Random(f"words-{seed}")
    accepted = sorted(s for s in grammar.analyses if s not in grammar.indeclinables)
    all_stems = sorted(s for stems in grammar.roots.values() for s in stems)
    counts = {"hit": int(n * 0.70), "near": int(n * 0.15), "ooa": int(n * 0.10)}
    counts["indecl"] = n - sum(counts.values())
    known = set(grammar.analyses) | set(grammar.indeclinables)
    items: list[tuple[str, tuple[str, ...], str]] = []

    for word in rng.sample(accepted, counts["hit"]):
        spelled = _precompose(word) if NUKTA in word and rng.random() < 0.5 else word
        items.append((spelled, grammar.analyses[word], "hit"))

    def near(r: random.Random) -> str:
        return r.choice(all_stems) + r.choice(NEAR_ENDINGS)

    for word in _distinct(rng, counts["near"], near, set(known)):
        items.append((word, (), "near"))

    def out_of_alphabet(r: random.Random) -> str:
        word = r.choice(accepted)
        i = r.randrange(len(word) + 1)
        return word[:i] + r.choice(OUT_OF_ALPHABET) + word[i:]

    for word in _distinct(rng, counts["ooa"], out_of_alphabet, set(known)):
        items.append((word, (), "ooa"))

    for word in rng.sample(sorted(grammar.indeclinables), counts["indecl"]):
        items.append((word, (grammar.indeclinables[word],), "indecl"))
    rng.shuffle(items)
    return items


def lexical_stream(grammar: Grammar, seed: int, n: int = 24_000) -> list[tuple[str, tuple[str, ...], str]]:
    """Distinct (lexical form, expected surfaces, kind) items in seeded order.

    Kinds and shares: ``hit`` 85% (a form of the grammar), ``miss`` 10%
    (a well-formed root<Tag>... the grammar lacks), ``indecl`` 5%.
    """
    rng = random.Random(f"lexical-{seed}")
    counts = {"hit": int(n * 0.85), "miss": int(n * 0.10)}
    counts["indecl"] = n - sum(counts.values())
    items = [(lx, grammar.surfaces[lx], "hit")
             for lx in rng.sample(sorted(grammar.surfaces), counts["hit"])]
    all_tags = [tags for _, _, forms in PARADIGMS.values() for tags, _ in forms]
    all_roots = sorted({stem + suffix for cls, (_, suffix, _) in PARADIGMS.items()
                        for stem in grammar.roots[cls]})

    def miss(r: random.Random) -> str:
        return r.choice(all_roots) + r.choice(all_tags)

    for lexical in _distinct(rng, counts["miss"], miss, set(grammar.surfaces)):
        items.append((lexical, (), "miss"))
    by_analysis: dict[str, list[str]] = {}
    for word, analysis in grammar.indeclinables.items():
        by_analysis.setdefault(analysis, []).append(word)
    for analysis in rng.sample(sorted(by_analysis), counts["indecl"]):
        items.append((analysis, tuple(sorted(by_analysis[analysis])), "indecl"))
    rng.shuffle(items)
    return items

