"""Maximum-entropy part-of-speech tagging with a morphological fallback.

The model is a conditional log-linear classifier per token,

    p(t | h) = exp(w . f(h, t)) / sum_t' exp(w . f(h, t')),

trained by full-batch gradient ascent on the mean per-token
log-likelihood minus an L2 penalty.  The model is first-order (a
position's scores read the previous tag and no earlier one), so decoding
is exact: Viterbi search over each token's candidate tags, in time
linear in the sentence's length.  On an exact tie of partial scores the
lower previous-tag index wins, and a sentence ends on the lowest tag
index of least score.  Words never seen in
training fall back on the morphological analyzer: the analyses' leading
categories map onto tagset candidates.

The public weights are one dict keyed ``template:value:tag``, one entry
per feature and tag.  Training and decoding run on interned feature rows
(one float per tag for each ``template:value`` feature); while training,
features that fire at the same positions share one row.  A model builds
its decode rows from its weights when it is made.
"""

from __future__ import annotations

import math
import re
import struct
import unicodedata
from itertools import chain
from operator import add, itemgetter, sub
from pathlib import Path
from typing import NamedTuple, Sequence

from . import _text, morph
from ._binary import Reader, pack_float_map, pack_str

BOUNDARY_WORD = "<s>"
BOUNDARY_WORD_END = "</s>"
BOUNDARY_TAG = "<s>"
PUNCT_TAG = "I"
PUNCT_CHARS = frozenset("।?!,")
# A model keeps the decode entries of at most this many distinct words;
# a miss on a full memo clears it first.
_MEMO_WORDS = 4096

# String-payload feature templates plus the two always-on boolean flags.
TEMPLATES = ("w", "pw", "nw", "pt", "s1", "s2", "s3", "s4", "p1", "punct", "dig")
# Where extract_features puts the features of a token's neighbours: the
# previous and next word, and the previous tag.
_PREV_WORD_SLOT, _NEXT_WORD_SLOT, _PREV_TAG_SLOT = map(TEMPLATES.index, ("pw", "nw", "pt"))

# First analysis tag -> plausible tagset candidates for unseen words.
MORPH_TAG_MAP: dict[str, tuple[str, ...]] = {
    "Noun": ("N_NN",),
    "Pronoun": ("PR_PRI",),
    "Adjective": ("JJ",),
    "Verb": ("V_VM", "V_AUX"),
    "Adverb": ("RB",),
    "Particle": ("RP",),
}


class TaggerError(Exception):
    """Base class for errors raised by this module, and the error of a bad
    training setting, a diverged training or a malformed model."""


class EmptyCorpus(TaggerError):
    """A training or evaluation corpus with no tokens."""


class TagsetMismatch(TaggerError):
    """Gold tags outside the model's tagset."""


class CorpusFormatError(TaggerError):
    """A corpus that is not UTF-8 lines of surface/TAG tokens."""


def _is_punct(word: str) -> bool:
    """A non-empty token made only of punctuation characters."""
    return bool(word) and all(ch in PUNCT_CHARS for ch in word)


_PUNCT_CLASS = re.escape("".join(sorted(PUNCT_CHARS)))
# One punctuation character, or a run of anything but whitespace and punctuation.
_TOKEN_RE = re.compile(f"[{_PUNCT_CLASS}]|[^\\s{_PUNCT_CLASS}]+")


def tokenize_sentence(text: str) -> list[str]:
    """Whitespace tokenization with punctuation detached as own tokens."""
    return _TOKEN_RE.findall(unicodedata.normalize("NFC", text))


class TaggedCorpus:
    """Sentences of (surface, tag) pairs; two corpora are equal when their
    sentences are."""

    def __init__(self, sentences: list[list[tuple[str, str]]]) -> None:
        self.sentences = sentences

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sentences == other.sentences

    def __repr__(self) -> str:
        return f"TaggedCorpus(sentences={self.sentences!r})"

    @classmethod
    def parse(cls, text: str, source: str = "<corpus>") -> "TaggedCorpus":
        """One sentence per line, tokens as surface/TAG (last slash splits).

        Lines break only at a newline, and CRLF and a bare CR read as one
        (:func:`_text.newlines`), as they do in a file that :meth:`read`
        reads; a form feed or U+2028 is whitespace.
        """
        sentences = []
        for lineno, raw in enumerate(_text.newlines(text).split("\n"), start=1):
            line = unicodedata.normalize("NFC", raw).strip()
            if not line:
                continue
            sentence = []
            for item in line.split():
                surface, sep, tag = item.rpartition("/")
                if not sep or not surface or not tag:
                    raise CorpusFormatError(
                        f"{source}:{lineno}: token {item!r} is not surface/TAG")
                if ":" in tag:
                    # weight keys are template:value:tag, split at the last ':'
                    raise CorpusFormatError(
                        f"{source}:{lineno}: tag {tag!r} contains ':'")
                sentence.append((surface, tag))
            sentences.append(sentence)
        return cls(sentences)

    @classmethod
    def read(cls, path) -> "TaggedCorpus":
        path = Path(path)
        return cls.parse(_text.read_text(path, CorpusFormatError), source=path.name)

    def tagset(self) -> tuple[str, ...]:
        return tuple(sorted({tag for sent in self.sentences for _, tag in sent}))


def extract_features(tokens: Sequence[str], i: int, prev_tag: str) -> list[str]:
    """Feature payloads (template:value) for position i.

    Every template fires at every position (boolean templates carry a
    0/1 payload), so the feature count per token is constant.
    """
    word = tokens[i]
    prev_word = tokens[i - 1] if i > 0 else BOUNDARY_WORD
    next_word = tokens[i + 1] if i + 1 < len(tokens) else BOUNDARY_WORD_END
    return [
        f"w:{word}",
        f"pw:{prev_word}",
        f"nw:{next_word}",
        f"pt:{prev_tag}",
        f"s1:{word[-1:]}",
        f"s2:{word[-2:]}",
        f"s3:{word[-3:]}",
        f"s4:{word[-4:]}",
        f"p1:{word[:1]}",
        f"punct:{1 if _is_punct(word) else 0}",
        f"dig:{1 if any(ch.isdigit() for ch in word) else 0}",
    ]


# What the first word of a sentence reads as its previous word, and the
# last word as its next word.
_START, _END = extract_features(("",), 0, BOUNDARY_TAG)[
    _PREV_WORD_SLOT:_NEXT_WORD_SLOT + 1]


class TagModel:
    """A tagger: its tagset, its weights keyed ``template:value:tag``, each
    training word's observed tags, its L2 coefficient and, from
    :func:`train`, the loss before each epoch and after the last.  Two
    models are equal when their tagset, weights, dictionary and L2
    coefficient are; a model is not hashable."""

    def __init__(self, tagset: tuple[str, ...], weights: dict[str, float],
                 dictionary: dict[str, frozenset[str]], l2_lambda: float,
                 loss_history: list[float] | None = None) -> None:
        self.tagset, self.weights, self.dictionary, self.l2_lambda = tagset, weights, dictionary, l2_lambda
        self.loss_history = [] if loss_history is None else loss_history
        # Word -> its decode entry (see _tag_tokens), filled by decoding
        # with the morph model `_entries_morph`, reset when a decode passes
        # another and, like `_rows`, blind to later edits of either.  It
        # holds the morph model itself, so no later one can take its id.
        self._entries, self._entries_morph = {}, None
        # What decoding reads of the model, `_rows`, built from `weights`
        # here, so later edits to `weights` are not seen by decoding:
        # feature -> one weight per tag, in tagset order; the row of a
        # feature without weights; the pt: row of each tag by index and of
        # the sentence start at -1; and the rows of _START and _END.  A key
        # splits at its last ':' into feature and tag; a key whose tag is
        # not in the tagset is skipped, as decoding never reads it.
        tag_index = {t: k for k, t in enumerate(self.tagset)}
        rows: dict[str, list[float]] = {}
        for key, w in self.weights.items():
            feature, _, t = key.rpartition(":")
            k = tag_index.get(t)
            if k is None:
                continue
            row = rows.get(feature)
            if row is None:
                row = rows[feature] = [0.0] * len(self.tagset)
            row[k] = w
        zero = [0.0] * len(self.tagset)
        prev_tag_rows = [rows.get(f"pt:{t}", zero) for t in (*self.tagset, BOUNDARY_TAG)]
        self._rows = (rows, zero, prev_tag_rows, rows.get(_START, zero), rows.get(_END, zero))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.tagset, self.weights, self.dictionary, self.l2_lambda)
                == (other.tagset, other.weights, other.dictionary, other.l2_lambda))

    def __repr__(self) -> str:
        return (f"TagModel(tagset={self.tagset!r}, weights={self.weights!r}, "
                f"dictionary={self.dictionary!r}, l2_lambda={self.l2_lambda!r})")


class TrainConfig(NamedTuple):
    l2_lambda: float = 0.1
    epochs: int = 100


# The gradient-ascent step size of every epoch.
_STEP = 0.1


def _row_log_probs(rows: Sequence[Sequence[float]]) -> list[float]:
    """The log-softmax of the column sums of `rows`, in tagset order: with
    one row of weights per firing feature, log p(t | h) for each tag t.

    Each score sums the rows in the order given, from 0.
    """
    scores = [sum(column) for column in zip(*rows)]
    peak = max(scores)
    log_z = peak + math.log(sum(math.exp(s - peak) for s in scores))
    return [s - log_z for s in scores]


def train(corpus: TaggedCorpus, config: TrainConfig | None = None) -> TagModel:
    """Train a tagger by full-batch gradient ascent from zero weights,
    with a fixed step of 0.1 (``_STEP``).

    Each feature string is interned once to a row of one weight per tag.
    Features that fire at the same positions start at zero and get the
    same gradient, so they share one row, and their weights stay
    bit-identical.  An epoch is one sweep over the positions: each
    position's log-probabilities are computed once, from one row per
    firing feature, and serve both the loss recorded before the epoch
    and the gradient, which is accumulated once into each shared row
    that fires.  ``weights`` is built once, at the end, with one entry
    per feature and tag: features as the corpus first fires them, each
    with its tags in tagset order.

    Iteration order is fixed by the corpus, so the result is
    deterministic.  The returned model records the loss (the L2 penalty
    minus the mean per-token log-likelihood) before each epoch and after
    the last one in ``loss_history``.  Raises :class:`TaggerError` unless
    ``epochs >= 0`` and ``l2_lambda`` is finite and ``>= 0``, and when the
    last loss is not at most the first: a large ``l2_lambda`` makes the
    fixed step overshoot, and the loss then grows without bound.
    """
    config = config or TrainConfig()
    if config.epochs < 0:
        raise TaggerError(f"epochs must be >= 0, got {config.epochs}")
    if not (math.isfinite(config.l2_lambda) and config.l2_lambda >= 0):
        raise TaggerError(f"l2_lambda must be finite and >= 0, got {config.l2_lambda}")
    if not any(corpus.sentences):
        raise EmptyCorpus("training corpus has no tokens")
    tagset = corpus.tagset()
    observed: dict[str, set[str]] = {}
    for sentence in corpus.sentences:
        for surface, tag in sentence:
            observed.setdefault(surface, set()).add(tag)
    dictionary = {surface: frozenset(tags) for surface, tags in observed.items()}

    tag_index = {t: k for k, t in enumerate(tagset)}
    feature_ids: dict[str, int] = {}
    firing: dict[int, list[int]] = {}  # feature id -> the positions it fires at
    # Each distinct list of feature ids, numbered in order of first use;
    # a position is its list's number and its gold tag index, and its
    # previous tag is the gold one.
    distinct: dict[tuple[int, ...], int] = {}
    sweep: list[tuple[int, int]] = []
    for sentence in corpus.sentences:
        tokens = [s for s, _ in sentence]
        prev_tag = BOUNDARY_TAG
        for i, (_, gold_tag) in enumerate(sentence):
            ids = tuple(feature_ids.setdefault(f, len(feature_ids))
                        for f in extract_features(tokens, i, prev_tag))
            for f in ids:
                firing.setdefault(f, []).append(len(sweep))
            sweep.append((distinct.setdefault(ids, len(distinct)), tag_index[gold_tag]))
            prev_tag = gold_tag
    feature_lists = list(distinct)
    # Features that fire at the same positions get the same gradient, so
    # while training they share one row.  A feature fires at most once at
    # a position, so a position updates each of its groups once; `rows`
    # holds each feature's group row, in feature order, for the scores
    # and the L2 term.
    groups: dict[tuple[int, ...], int] = {}
    group_of = [groups.setdefault(tuple(positions), len(groups))
                for positions in firing.values()]
    group_lists = [tuple(dict.fromkeys(map(group_of.__getitem__, ids))) for ids in feature_lists]

    shared = [[0.0] * len(tagset) for _ in groups]
    rows = list(map(shared.__getitem__, group_of))
    n = float(len(sweep))
    decay = 2.0 * config.l2_lambda

    def log_probs() -> list[list[float]]:
        # the rows do not change within an epoch: one result per distinct list
        return [_row_log_probs(list(map(rows.__getitem__, ids))) for ids in feature_lists]

    def loss(total: float) -> float:
        return -(total / n - config.l2_lambda * sum(w * w for w in chain.from_iterable(rows)))

    losses: list[float] = []
    for _ in range(config.epochs):
        grad = [[0.0] * len(tagset) for _ in shared]
        total = 0.0
        log_ps = log_probs()
        probs = [list(map(math.exp, log_p)) for log_p in log_ps]
        for d, gold in sweep:
            total += log_ps[d][gold]
            p = probs[d]
            for k in group_lists[d]:
                g = grad[k]
                g[gold] += 1.0
                grad[k] = list(map(sub, g, p))
        losses.append(loss(total))
        shared = [[w + _STEP * (g / n - decay * w) for w, g in zip(w_row, g_row)]
                  for w_row, g_row in zip(shared, grad)]
        rows = list(map(shared.__getitem__, group_of))
    log_ps = log_probs()
    total = 0.0
    for d, gold in sweep:
        total += log_ps[d][gold]
    losses.append(loss(total))
    if not losses[-1] <= losses[0]:  # a NaN loss fails this too
        raise TaggerError(f"training diverged (loss {losses[0]:.6g} -> {losses[-1]:.6g}): "
                          f"l2_lambda {config.l2_lambda} is too large for the step {_STEP}")

    weights: dict[str, float] = {}
    if config.epochs:  # with no step taken there is no weight, not even a zero one
        weights = {f"{name}:{t}": w for name, row in zip(feature_ids, rows)
                   for t, w in zip(tagset, row)}
    return TagModel(tagset, weights, dictionary, config.l2_lambda, losses)


def candidate_tags(model: TagModel, morph_model: morph.MorphModel | None,
                   word: str) -> tuple[str, ...]:
    """Plausible tags for a word, in tagset order.

    Dictionary words get their observed tags; other punctuation gets the
    punctuation tag; anything else falls back on morphological analyses
    (first tag through :data:`MORPH_TAG_MAP`, the full tagset for one
    outside the map).  A word none of whose candidates is in the tagset,
    such as one with no analyses, gets the full tagset.
    """
    word = unicodedata.normalize("NFC", word)
    if word in model.dictionary:
        cands = model.dictionary[word]
    elif _is_punct(word):
        cands = {PUNCT_TAG}
    else:
        analyses = morph.analyze(morph_model, word) if morph_model else []
        cands = {t for a in analyses for t in MORPH_TAG_MAP.get(a.tags[0], model.tagset)}
    return tuple(t for t in model.tagset if t in cands) or model.tagset


def _tag_tokens(model: TagModel, morph_model: morph.MorphModel | None,
                tokens: Sequence[str]) -> list[str]:
    """Exact Viterbi decode over each token's candidate tags.  On an exact
    tie of partial scores the lower previous-tag index wins, and the
    tokens end on the lowest tag index of least score.

    A word's entry is its candidate tag indices, the column sums (from 0,
    in :func:`extract_features` order) of its own rows, those of w:, s1:
    to s4:, p1:, punct: and dig:, and its rows as a neighbour's pw: and
    nw:.  A position's score for a previous tag is ``((own + pw of the
    previous word) + nw of the next word) + pt: of that tag``, turned
    into log-probabilities as :func:`_row_log_probs` does.  For each
    candidate the search keeps the least negated score over the previous
    token's candidates, comparing scores alone, and the path to it as a
    linked list of tag indices, so a decode takes time linear in the
    number of tokens.  Scoring stops at the token after the last one with
    two or more candidates, the last step that compares paths; each token
    past it takes its one candidate, and a line with no choice is scored
    not at all.  The tags are those of the full search.

    Each word's entry is kept on the model for up to :data:`_MEMO_WORDS`
    words, with the morph model it was built with; a decode with another
    morph model starts afresh.
    """
    index, zero, prev_tag_rows, start, end = model._rows
    if morph_model is not model._entries_morph:
        model._entries, model._entries_morph = {}, morph_model
    memo = model._entries
    entries = []
    for word in tokens:
        entry = memo.get(word)
        if entry is None:
            allowed = candidate_tags(model, morph_model, word)
            # Between two copies of itself, the token fires its own features
            # and, as pw: and nw:, those its neighbours fire for it.
            rows = [index.get(f, zero) for f in extract_features((word,) * 3, 1, BOUNDARY_TAG)]
            own = [sum(c) for c in zip(*rows[:_PREV_WORD_SLOT], *rows[_PREV_TAG_SLOT + 1:])]
            entry = (tuple(k for k, t in enumerate(model.tagset) if t in allowed),
                     own, rows[_PREV_WORD_SLOT], rows[_NEXT_WORD_SLOT])
            if len(memo) >= _MEMO_WORDS:
                memo.clear()
            memo[word] = entry
        entries.append(entry)
    # tag index -> the least negated score of a path ending in it, and that
    # path as a linked list (k, rest) back to the start, which is -1 and
    # None; the keys run in index order, so on a tie `<` keeps the lower one
    best: dict[int, tuple[float, tuple | None]] = {-1: (0.0, None)}
    # the search stops after the token that follows the last one with a
    # choice: from there on `best` holds one path, and no score is compared
    stop = next((i + 2 for i in reversed(range(len(entries))) if len(entries[i][0]) > 1), 0)
    # each entry between its neighbours, where the sentence's start and end
    # give the first word's pw: row and the last word's nw: row
    padded = [((), zero, start, zero), *entries, ((), zero, zero, end)]
    scored = zip(padded, entries[:stop], padded[2:])
    for (_, _, pw, _), (cands, own, _, _), (_, _, _, nw) in scored:
        base = [o + p + n for o, p, n in zip(own, pw, nw)]
        step: dict[int, tuple[float, tuple | None]] = {}
        for prev, (neg_score, path) in best.items():
            scores = list(map(add, base, prev_tag_rows[prev]))
            peak = max(scores)  # as in _row_log_probs
            log_z = peak + math.log(sum(math.exp(s - peak) for s in scores))
            for k in cands:
                neg = neg_score - (scores[k] - log_z)
                if k not in step or neg < step[k][0]:
                    step[k] = (neg, (k, path))
        best = step
    path = min(best.values(), key=itemgetter(0))[1]
    tags = []
    while path:
        k, path = path
        tags.append(model.tagset[k])
    tags.reverse()
    tags.extend(model.tagset[cands[0]] for cands, _, _, _ in entries[stop:])
    return tags


def tag(model: TagModel, morph_model: morph.MorphModel | None,
        sentence: str) -> list[tuple[str, str]]:
    """Tokenize and tag a raw sentence with the exact Viterbi decode of
    :func:`_tag_tokens`: a best-scoring tag path, where on an exact tie
    of partial scores the lower previous-tag index wins and the sentence
    ends on the lowest tag index of least score."""
    tokens = tokenize_sentence(sentence)
    return list(zip(tokens, _tag_tokens(model, morph_model, tokens)))


class EvalResult(NamedTuple):
    known_acc: float
    unknown_acc: float
    overall_acc: float
    known_total: int
    unknown_total: int


def evaluate(model: TagModel, morph_model: morph.MorphModel | None,
             gold: TaggedCorpus) -> EvalResult:
    """Token accuracy on a gold corpus, split by dictionary membership,
    of the taggings :func:`tag` would give.

    An empty partition (a zero ``*_total``) reports accuracy 1.0.  Gold
    tags outside the model's tagset raise :class:`TagsetMismatch`.
    """
    extra = sorted({t for s in gold.sentences for _, t in s} - set(model.tagset))
    if extra:
        raise TagsetMismatch(f"gold tags outside the model tagset: {extra}")
    known_hits = known_total = unknown_hits = unknown_total = 0
    for sentence in gold.sentences:
        surfaces = [unicodedata.normalize("NFC", s) for s, _ in sentence]
        predicted = _tag_tokens(model, morph_model, surfaces)
        for surface, (_, gold_tag), pred in zip(surfaces, sentence, predicted):
            if surface in model.dictionary:
                known_total += 1
                known_hits += pred == gold_tag
            else:
                unknown_total += 1
                unknown_hits += pred == gold_tag
    total = known_total + unknown_total
    if total == 0:
        raise EmptyCorpus("evaluation corpus has no tokens")
    return EvalResult(known_acc=known_hits / known_total if known_total else 1.0,
                      unknown_acc=unknown_hits / unknown_total if unknown_total else 1.0,
                      overall_acc=(known_hits + unknown_hits) / total,
                      known_total=known_total, unknown_total=unknown_total)


# ---------------------------------------------------------------------------
# Serialization

MAGIC = b"MTAG"
FORMAT_VERSION = 2
# The only code points that UTF-8 cannot encode.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _check_fields(tagset: tuple[str, ...], l2_lambda: float,
                  weights: dict[str, float]) -> None:
    """Refuse a tagset, L2 coefficient or weights that no model file holds."""
    if not tagset:
        raise TaggerError("tagger model has an empty tagset")
    if len(set(tagset)) != len(tagset):
        raise TaggerError("tagger model tagset repeats a tag")
    bad_tags = [t for t in tagset if ":" in t]
    if bad_tags:
        raise TaggerError(f"tagger model tags contain ':': {bad_tags}")
    if not math.isfinite(l2_lambda):
        raise TaggerError(f"tagger model l2_lambda is not finite: {l2_lambda}")
    if not all(map(math.isfinite, weights.values())):
        bad = [key for key, w in weights.items() if not math.isfinite(w)]
        raise TaggerError(f"tagger model weights are not finite: {bad[:3]}")


def model_to_bytes(model: TagModel) -> bytes:
    """Serialize (little-endian; dictionary words and weight keys sorted
    for stability).

    Raises :class:`TaggerError` for a model that :func:`model_from_bytes`
    would refuse, so every file written loads, and for a string that
    UTF-8 cannot encode (one holding a lone surrogate).
    """
    _check_fields(model.tagset, model.l2_lambda, model.weights)
    tag_index = {t: i for i, t in enumerate(model.tagset)}
    try:
        out = [MAGIC, struct.pack("<HdI", FORMAT_VERSION, model.l2_lambda, len(model.tagset))]
        out += map(pack_str, model.tagset)
        out.append(struct.pack("<I", len(TEMPLATES)))
        out += map(pack_str, TEMPLATES)
        out.append(struct.pack("<I", len(model.dictionary)))
        for word in sorted(model.dictionary):
            try:
                indices = sorted(tag_index[t] for t in model.dictionary[word])
            except KeyError as exc:
                raise TaggerError(f"tagger model dictionary tag {exc.args[0]!r} of {word!r} "
                                  "is not in the tagset") from None
            if not indices:
                raise TaggerError(f"tagger model dictionary lists no tag for {word!r}")
            out += (pack_str(word), struct.pack(f"<{1 + len(indices)}I", len(indices), *indices))
        out.append(pack_float_map(model.weights, TaggerError, "tagger model weight key"))
    except UnicodeEncodeError:
        what, bad = next((what, s) for what, strings in (
            ("tag", model.tagset), ("dictionary word", model.dictionary),
            ("weight key", model.weights)) for s in strings if _SURROGATE.search(s))
        raise TaggerError(f"tagger model {what} {bad!r} holds a lone surrogate") from None
    return b"".join(out)


def model_from_bytes(data: bytes) -> TagModel:
    reader = Reader(data, TaggerError, "tagger model")
    reader.header(MAGIC, FORMAT_VERSION)
    (l2_lambda,) = reader.unpack("<d")
    tagset = tuple(reader.text("model string") for _ in range(reader.u32()))
    templates = tuple(reader.text("model string") for _ in range(reader.u32()))
    dictionary: dict[str, frozenset[str]] = {}
    for _ in range(reader.u32()):
        word = reader.text("model string")
        indices = reader.array("<I")
        if word in dictionary:
            raise TaggerError(f"tagger model dictionary repeats the word {word!r}")
        if not indices:
            raise TaggerError(f"tagger model dictionary lists no tag for {word!r}")
        if len(set(indices)) != len(indices):
            raise TaggerError(f"tagger model dictionary repeats a tag index for {word!r}")
        try:
            dictionary[word] = frozenset(tagset[i] for (i,) in indices)
        except IndexError as exc:
            raise TaggerError(f"dictionary tag index out of range for {word!r}") from exc
    weights = reader.float_map("weight key")
    reader.finish()
    if templates != TEMPLATES:
        raise TaggerError(f"tagger model templates {templates} are not {TEMPLATES}")
    _check_fields(tagset, l2_lambda, weights)
    return TagModel(tagset, weights, dictionary, l2_lambda)


def save_model(model: TagModel, path) -> None:
    _text.write_atomic(path, model_to_bytes(model))


def load_model(path) -> TagModel:
    return model_from_bytes(Path(path).read_bytes())
