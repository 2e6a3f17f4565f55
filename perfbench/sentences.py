"""Seeded tagging streams built from the bundled corpus's sentence frames.

A frame is one corpus sentence.  About a third of its N_NN, JJ and V_VM
slots get a replacement the tagger dictionary lacks, so tagging falls
back on the morphology: a noun or verb form of the session's grammar
for most N_NN and V_VM slots, and a string no grammar analyses (which
opens the full tagset) for the rest and for JJ.  Gold tags stay those
of the frame.

Each token also carries the set of tags the tagger may choose.  It is
derived from the corpus and from analyses known independently of
``hindimorph`` (the hand-listed forms of the bundled grammar, or the
synthetic grammar's own tables), following the documented candidate
rule: punctuation, else dictionary tags, else the analyses' leading
categories, else the full tagset.
"""

from __future__ import annotations

import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

PUNCT_CHARS = frozenset("।?!,")
PUNCT_TAG = "I"
CATEGORY_TAGS = {"Noun": ("N_NN",), "Pronoun": ("PR_PRI",), "Adjective": ("JJ",),
                 "Verb": ("V_VM", "V_AUX"), "Adverb": ("RB",), "Particle": ("RP",)}
SLOTS = ("N_NN", "JJ", "V_VM")


def _nfc(words: str) -> list[str]:
    return unicodedata.normalize("NFC", words).split()


# The whole surface language of the bundled hindi.mrl, by leading category,
# less the spaced continuous forms (जा रहा), plus the bundled indeclinables.
BUNDLED_FORMS = {
    "Noun": _nfc("लडका लडके लडकी माली मालन कहानी कहानियाँ मेज़ मेज़े शेर शेरनी "
                 "शर्म बेशर्म मीठा मिठाई कमीना कमीनापन पवित्र पवित्रता अतःकरण"),
    "Verb": _nfc("जा जाते पढ़ पढ़ी करता करते"),
    "Particle": _nfc("अरे"),
}


@dataclass(frozen=True)
class Corpus:
    """The tagged corpus as the benchmark reads it, without ``hindimorph``."""

    sentences: tuple[tuple[tuple[str, str], ...], ...]
    dictionary: dict[str, frozenset[str]]
    tagset: tuple[str, ...]

    @classmethod
    def read(cls, path: Path) -> "Corpus":
        sentences = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = unicodedata.normalize("NFC", line).strip()
            if line:
                sentences.append(tuple(tuple(item.rsplit("/", 1)) for item in line.split()))
        observed: dict[str, set[str]] = {}
        for sentence in sentences:
            for surface, tag in sentence:
                observed.setdefault(surface, set()).add(tag)
        dictionary = {w: frozenset(t) for w, t in observed.items()}
        tagset = tuple(sorted({t for tags in observed.values() for t in tags}))
        return cls(tuple(sentences), dictionary, tagset)

    def allowed(self, word: str, categories: frozenset[str]) -> frozenset[str]:
        """Tags the tagger may give `word`, whose analyses lead with `categories`."""
        full = frozenset(self.tagset)
        if word and all(ch in PUNCT_CHARS for ch in word):
            cands = frozenset({PUNCT_TAG})
        elif word in self.dictionary:
            cands = self.dictionary[word]
        elif categories:
            cands = frozenset(t for c in categories for t in CATEGORY_TAGS.get(c, full))
        else:
            cands = full
        return (cands & full) or full


@dataclass(frozen=True)
class Sentence:
    text: str
    tokens: tuple[str, ...]
    gold: tuple[str, ...]
    allowed: tuple[frozenset[str], ...]
    unknown: int  # tokens outside the tagger dictionary


def sentence_stream(corpus: Corpus, fillers: dict[str, list[str]],
                    categories: dict[str, frozenset[str]], seed: int,
                    n: int) -> list[Sentence]:
    """`n` seeded sentences from corpus frames.

    `fillers` maps "N_NN", "V_VM" and "open" to replacement words outside
    the dictionary; `categories` gives each filler's leading analysis
    categories (empty for "open" words).
    """
    rng = random.Random(f"sentences-{seed}")
    pools = {tag: [w for w in words if w not in corpus.dictionary]
             for tag, words in fillers.items()}
    allowed_of: dict[str, frozenset[str]] = {}
    out = []
    for _ in range(n):
        frame = rng.choice(corpus.sentences)
        tokens, gold = [], []
        for surface, tag in frame:
            if tag in SLOTS and rng.random() < 1 / 3:
                pool = tag if tag != "JJ" and rng.random() < 0.8 else "open"
                surface = rng.choice(pools[pool])
            tokens.append(surface)
            gold.append(tag)
        for w in tokens:
            if w not in allowed_of:
                allowed_of[w] = corpus.allowed(w, categories.get(w, frozenset()))
        allowed = tuple(allowed_of[w] for w in tokens)
        unknown = sum(w not in corpus.dictionary for w in tokens)
        out.append(Sentence(" ".join(tokens), tuple(tokens), tuple(gold), allowed, unknown))
    return out


def bundled_fillers(rules_dir: Path, corpus: Corpus,
                    seed: int) -> tuple[dict[str, list[str]], dict[str, frozenset[str]]]:
    """Fillers from the bundled grammar, plus in-alphabet strings it rejects.

    The alphabet is every Devanagari scalar of the bundled rule and root
    files; an "open" word is a bundled noun stem with a one- or
    two-scalar ending from it that is no form of the grammar.
    """
    text = "".join(p.read_text(encoding="utf-8") for p in sorted(rules_dir.iterdir()))
    alphabet = sorted({ch for ch in unicodedata.normalize("NFC", text)
                       if "ऀ" <= ch <= "ॿ" and ch not in PUNCT_CHARS})
    categories = {w: frozenset({cat}) for cat, words in BUNDLED_FORMS.items() for w in words}
    rng = random.Random(f"open-{seed}")
    stems = _nfc("लडक माल कहान मेज़ शेर पढ़ कर")
    open_words: set[str] = set()
    while len(open_words) < 60:
        word = rng.choice(stems) + "".join(rng.choice(alphabet) for _ in range(rng.choice((1, 2))))
        if (unicodedata.normalize("NFC", word) == word
                and word not in categories and word not in corpus.dictionary):
            open_words.add(word)
    fillers = {"N_NN": BUNDLED_FORMS["Noun"], "V_VM": BUNDLED_FORMS["Verb"],
               "open": sorted(open_words)}
    return fillers, categories
