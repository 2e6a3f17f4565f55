"""Maximum-entropy part-of-speech tagging with a morphological fallback.

The model is a conditional log-linear classifier per token,

    p(t | h) = exp(w . f(h, t)) / sum_t' exp(w . f(h, t')),

trained by full-batch gradient ascent on the mean per-token
log-likelihood minus an L2 penalty.  Decoding is a beam search over tag
sequences conditioned on the previous tag.  Words never seen in
training fall back on the morphological analyzer: the analyses' leading
categories map onto tagset candidates.

The public weights are one dict keyed ``template:value:tag``; the
string-keyed :func:`objective`, :func:`gradient` and :func:`_log_probs`
are the reference definitions.  Training and decoding run on interned
feature rows instead (one float per tag for each ``template:value``
feature), with the reference's float operations in the reference's
order, so they give the same weights, losses and taggings bit for bit.
"""

from __future__ import annotations

import math
import re
import struct
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import _text, morph
from ._binary import Reader, pack_str

BOUNDARY_WORD = "<s>"
BOUNDARY_WORD_END = "</s>"
BOUNDARY_TAG = "<s>"
PUNCT_TAG = "I"
PUNCT_CHARS = frozenset("।?!,")

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
    pass


class EmptyCorpus(TaggerError):
    pass


class TagsetMismatch(TaggerError):
    pass


class CorpusFormatError(TaggerError):
    pass


def _is_punct(word: str) -> bool:
    """A non-empty token made only of punctuation characters."""
    return bool(word) and all(ch in PUNCT_CHARS for ch in word)


_PUNCT_CLASS = re.escape("".join(sorted(PUNCT_CHARS)))
# One punctuation character, or a run of anything but whitespace and punctuation.
_TOKEN_RE = re.compile(f"[{_PUNCT_CLASS}]|[^\\s{_PUNCT_CLASS}]+")


def tokenize_sentence(text: str) -> list[str]:
    """Whitespace tokenization with punctuation detached as own tokens."""
    return _TOKEN_RE.findall(unicodedata.normalize("NFC", text))


@dataclass
class TaggedCorpus:
    """Sentences of (surface, tag) pairs."""

    sentences: list[list[tuple[str, str]]]

    @classmethod
    def parse(cls, text: str, source: str = "<corpus>") -> "TaggedCorpus":
        """One sentence per line, tokens as surface/TAG (last slash splits).

        Lines break only at a newline: :meth:`read` has turned CR and
        CRLF line ends into one, and a form feed or U+2028 is whitespace.
        """
        sentences = []
        for lineno, raw in enumerate(text.split("\n"), start=1):
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


@dataclass
class TagModel:
    tagset: tuple[str, ...]
    weights: dict[str, float]
    dictionary: dict[str, frozenset[str]]
    l2_lambda: float
    loss_history: list[float] = field(default_factory=list, repr=False, compare=False)
    # Feature -> one weight per tag, in tagset order.  Filled by the first
    # decode (see _feature_rows); later edits to `weights` are not seen by
    # decoding.
    _rows: dict[str, list[float]] | None = field(
        default=None, init=False, repr=False, compare=False)
    # Word -> the candidate (tag, index) pairs and the feature rows of a
    # dictionary word or punctuation, which the model alone fixes; filled
    # by decoding and, like `_rows`, blind to later edits of the model.
    _entries: dict[str, tuple[tuple[tuple[str, int], ...], list[list[float]]]] | None = field(
        default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class TrainConfig:
    l2_lambda: float = 0.1
    epochs: int = 100
    step: float = 0.1


def _log_probs(weights: dict[str, float], feats: Sequence[str],
               tagset: Sequence[str]) -> dict[str, float]:
    scores = {t: sum(weights.get(f"{f}:{t}", 0.0) for f in feats) for t in tagset}
    peak = max(scores.values())
    log_z = peak + math.log(sum(math.exp(s - peak) for s in scores.values()))
    return {t: s - log_z for t, s in scores.items()}


def _row_log_probs(rows: Sequence[Sequence[float]]) -> list[float]:
    """:func:`_log_probs` over feature rows, in tagset order.

    Each score sums the rows in the order given, from 0, as the
    reference sums the features, so the results are the same floats.
    """
    scores = [sum(column) for column in zip(*rows)]
    peak = max(scores)
    log_z = peak + math.log(sum(math.exp(s - peak) for s in scores))
    return [s - log_z for s in scores]


def tag_probs(model: TagModel, feats: Sequence[str]) -> dict[str, float]:
    """p(tag | features) over the full tagset (sums to 1)."""
    return {t: math.exp(lp)
            for t, lp in _log_probs(model.weights, feats, model.tagset).items()}


def _positions(corpus: TaggedCorpus) -> list[tuple[list[str], str]]:
    """(features, gold tag) per token, with gold previous tags."""
    positions = []
    for sentence in corpus.sentences:
        tokens = [s for s, _ in sentence]
        for i, (_, gold) in enumerate(sentence):
            prev_tag = sentence[i - 1][1] if i > 0 else BOUNDARY_TAG
            positions.append((extract_features(tokens, i, prev_tag), gold))
    return positions


def objective(weights: dict[str, float], positions: Sequence[tuple[list[str], str]],
              tagset: Sequence[str], l2_lambda: float) -> float:
    """Mean per-token log-likelihood minus l2_lambda * ||w||^2."""
    total = 0.0
    for feats, gold in positions:
        total += _log_probs(weights, feats, tagset)[gold]
    penalty = l2_lambda * sum(v * v for v in weights.values())
    return total / len(positions) - penalty


def gradient(weights: dict[str, float], positions: Sequence[tuple[list[str], str]],
             tagset: Sequence[str], l2_lambda: float) -> dict[str, float]:
    """Exact gradient of :func:`objective` at `weights`.

    Observed minus expected feature counts (averaged per token) minus
    the L2 term.  Keys cover every feature/tag combination seen in the
    data plus every existing weight.
    """
    grad: dict[str, float] = {}
    for feats, gold in positions:
        log_p = _log_probs(weights, feats, tagset)
        for f in feats:
            gold_key = f"{f}:{gold}"
            grad[gold_key] = grad.get(gold_key, 0.0) + 1.0
            for t in tagset:
                key = f"{f}:{t}"
                grad[key] = grad.get(key, 0.0) - math.exp(log_p[t])
    n = float(len(positions))
    for key in grad:
        grad[key] /= n
    for key, w in weights.items():
        grad[key] = grad.get(key, 0.0) - 2.0 * l2_lambda * w
    return grad


def train(corpus: TaggedCorpus, config: TrainConfig | None = None) -> TagModel:
    """Train a tagger by full-batch gradient ascent from zero weights.

    Each feature string is interned once to a row of one weight per tag.
    An epoch is one sweep over the positions: each position's
    log-probabilities are computed once and serve both the loss recorded
    before the epoch and the gradient, which is accumulated only into the
    rows of the features that fire.  The float operations and their
    order are those of ascending with :func:`objective` and
    :func:`gradient`, so the weights and losses are the same floats;
    ``weights`` is built once, at the end, keyed in the order the
    reference first meets each key.

    Iteration order is fixed by the corpus, so the result is
    deterministic.  The returned model records the loss (negated
    objective) before each epoch and after the last one in
    ``loss_history``.  Raises :class:`TaggerError` unless ``epochs >= 0``,
    ``l2_lambda`` is finite and ``>= 0`` and ``step`` is finite and ``> 0``.
    """
    config = config or TrainConfig()
    if config.epochs < 0:
        raise TaggerError(f"epochs must be >= 0, got {config.epochs}")
    if not (math.isfinite(config.l2_lambda) and config.l2_lambda >= 0):
        raise TaggerError(f"l2_lambda must be finite and >= 0, got {config.l2_lambda}")
    if not (math.isfinite(config.step) and config.step > 0):
        raise TaggerError(f"step must be finite and > 0, got {config.step}")
    if not any(corpus.sentences):
        raise EmptyCorpus("training corpus has no tokens")
    tagset = corpus.tagset()
    dictionary: dict[str, frozenset[str]] = {}
    observed: dict[str, set[str]] = {}
    for sentence in corpus.sentences:
        for surface, tag in sentence:
            observed.setdefault(surface, set()).add(tag)
    for surface in observed:
        dictionary[surface] = frozenset(observed[surface])
    positions = _positions(corpus)

    tag_index = {t: k for k, t in enumerate(tagset)}
    feature_ids: dict[str, int] = {}
    # (feature id, tag index) in the order `gradient` first inserts the key:
    # a new feature's gold tag, then the rest of the tagset.
    key_order: list[tuple[int, int]] = []
    sweep: list[tuple[list[int], int]] = []
    for feats, gold_tag in positions:
        gold = tag_index[gold_tag]
        ids = []
        for f in feats:
            fid = feature_ids.get(f)
            if fid is None:
                fid = feature_ids[f] = len(feature_ids)
                key_order.append((fid, gold))
                key_order.extend((fid, k) for k in range(len(tagset)) if k != gold)
            ids.append(fid)
        sweep.append((ids, gold))

    rows = [[0.0] * len(tagset) for _ in feature_ids]
    n = float(len(positions))
    decay = 2.0 * config.l2_lambda
    step = config.step

    def loss(total: float) -> float:
        penalty = sum(rows[f][k] * rows[f][k] for f, k in key_order)
        return -(total / n - config.l2_lambda * penalty)

    losses: list[float] = []
    for _ in range(config.epochs):
        grad = [[0.0] * len(tagset) for _ in rows]
        total = 0.0
        for ids, gold in sweep:
            log_p = _row_log_probs([rows[f] for f in ids])
            total += log_p[gold]
            probs = [math.exp(lp) for lp in log_p]
            for f in ids:
                g = grad[f]
                g[gold] += 1.0
                grad[f] = [a - p for a, p in zip(g, probs)]
        losses.append(loss(total))
        rows = [[w + step * (g / n - decay * w) for w, g in zip(w_row, g_row)]
                for w_row, g_row in zip(rows, grad)]
    total = 0.0
    for ids, gold in sweep:
        total += _row_log_probs([rows[f] for f in ids])[gold]
    losses.append(loss(total))

    names = list(feature_ids)
    weights: dict[str, float] = {}
    if config.epochs:  # the reference's keys come from its first gradient step
        for f, k in key_order:
            weights[f"{names[f]}:{tagset[k]}"] = rows[f][k]
    return TagModel(tagset, weights, dictionary, config.l2_lambda, losses)


def candidate_tags(model: TagModel, morph_model: morph.MorphModel | None,
                   word: str) -> tuple[str, ...]:
    """Plausible tags for a word, in tagset order.

    Dictionary words get their observed tags; punctuation gets the
    punctuation tag; anything else falls back on morphological analyses
    (first tag through :data:`MORPH_TAG_MAP`).  A word with no analyses,
    or an analysis outside the map, opens the full tagset.
    """
    word = unicodedata.normalize("NFC", word)
    full = set(model.tagset)
    if _is_punct(word):
        cands = {PUNCT_TAG}
    elif word in model.dictionary:
        cands = set(model.dictionary[word])
    else:
        analyses = morph.analyze(morph_model, word) if morph_model else []
        if not analyses:
            cands = full
        else:
            cands = set()
            for analysis in analyses:
                mapped = MORPH_TAG_MAP.get(analysis.tags[0] if analysis.tags else "")
                cands.update(mapped if mapped else full)
    cands &= full
    if not cands:
        cands = full
    return tuple(t for t in model.tagset if t in cands)


def _feature_rows(model: TagModel) -> dict[str, list[float]]:
    """The model's weights as feature -> one weight per tag (built once).

    A key splits at its last ':' into feature and tag.  A key whose tag
    is not in the tagset is skipped: :func:`_log_probs` never reads it.
    """
    rows = model._rows
    if rows is None:
        tag_index = {t: k for k, t in enumerate(model.tagset)}
        rows = {}
        for key, w in model.weights.items():
            feature, _, t = key.rpartition(":")
            k = tag_index.get(t)
            if k is None:
                continue
            row = rows.get(feature)
            if row is None:
                row = rows[feature] = [0.0] * len(model.tagset)
            row[k] = w
        model._rows = rows
    return rows


def _check_beam(beam: int) -> None:
    if beam < 1:
        raise TaggerError(f"beam must be >= 1, got {beam}")


def _tag_tokens(model: TagModel, morph_model: morph.MorphModel | None,
                tokens: Sequence[str], beam: int = 3) -> list[str]:
    """Beam-search decode; ties break toward earlier tagset order.

    Each position's rows are its token's own rows, its neighbours' rows
    as previous and next word, and the previous tag's row, in the order
    of :func:`extract_features`.  The log-probabilities are computed once
    per distinct previous tag among the beam entries; they are the floats
    :func:`_log_probs` gives.
    """
    index = _feature_rows(model)
    zero = [0.0] * len(model.tagset)
    memo = model._entries
    if memo is None:
        memo = model._entries = {}
    entries = []
    for word in tokens:
        entry = memo.get(word)
        if entry is None:
            allowed = candidate_tags(model, morph_model, word)
            # Between two copies of itself, the token fires its own features
            # and, as pw: and nw:, those its neighbours fire for it.
            entry = (tuple((t, k) for k, t in enumerate(model.tagset) if t in allowed),
                     [index.get(f, zero) for f in extract_features((word,) * 3, 1, BOUNDARY_TAG)])
            # Kept for a punctuation character or a dictionary word, which
            # candidate_tags answers from the model alone, so the memo stays
            # bounded by the model.  Any other word is answered by the morph
            # model, from an unbounded vocabulary: built at each occurrence.
            if word in PUNCT_CHARS or (word in model.dictionary
                                       and unicodedata.is_normalized("NFC", word)):
                memo[word] = entry
        entries.append(entry)
    last = len(entries) - 1
    beams: list[tuple[float, tuple[str, ...], tuple[int, ...]]] = [(0.0, (), ())]
    for i, (cands, own) in enumerate(entries):
        rows = own.copy()
        rows[_PREV_WORD_SLOT] = (entries[i - 1][1][_PREV_WORD_SLOT] if i
                                 else index.get(_START, zero))
        rows[_NEXT_WORD_SLOT] = (entries[i + 1][1][_NEXT_WORD_SLOT] if i < last
                                 else index.get(_END, zero))
        by_prev: dict[str, list[float]] = {}
        expanded = []
        for score, tags, path in beams:
            prev_tag = tags[-1] if tags else BOUNDARY_TAG
            log_p = by_prev.get(prev_tag)
            if log_p is None:
                rows[_PREV_TAG_SLOT] = index.get(f"pt:{prev_tag}", zero)
                log_p = by_prev[prev_tag] = _row_log_probs(rows)
            for t, k in cands:
                expanded.append((score + log_p[k], tags + (t,), path + (k,)))
        expanded.sort(key=lambda item: (-item[0], item[2]))
        beams = expanded[:beam]
    return list(beams[0][1])


def tag(model: TagModel, morph_model: morph.MorphModel | None,
        sentence: str, beam: int = 3) -> list[tuple[str, str]]:
    """Tokenize and tag a raw sentence; ``beam`` must be at least 1."""
    _check_beam(beam)
    tokens = tokenize_sentence(sentence)
    return list(zip(tokens, _tag_tokens(model, morph_model, tokens, beam)))


@dataclass(frozen=True)
class EvalResult:
    known_acc: float
    unknown_acc: float
    overall_acc: float
    known_total: int
    unknown_total: int


def evaluate(model: TagModel, morph_model: morph.MorphModel | None,
             gold: TaggedCorpus, beam: int = 3) -> EvalResult:
    """Token accuracy on a gold corpus, split by dictionary membership.

    An empty partition (a zero ``*_total``) reports accuracy 1.0.  Gold
    tags outside the model's tagset raise :class:`TagsetMismatch`.
    """
    _check_beam(beam)
    extra = sorted({t for s in gold.sentences for _, t in s} - set(model.tagset))
    if extra:
        raise TagsetMismatch(f"gold tags outside the model tagset: {extra}")
    known_hits = known_total = unknown_hits = unknown_total = 0
    for sentence in gold.sentences:
        surfaces = [unicodedata.normalize("NFC", s) for s, _ in sentence]
        predicted = _tag_tokens(model, morph_model, surfaces, beam)
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
    return EvalResult(
        known_acc=known_hits / known_total if known_total else 1.0,
        unknown_acc=unknown_hits / unknown_total if unknown_total else 1.0,
        overall_acc=(known_hits + unknown_hits) / total,
        known_total=known_total,
        unknown_total=unknown_total,
    )


# ---------------------------------------------------------------------------
# Serialization

MAGIC = b"MTAG"
FORMAT_VERSION = 1


def model_to_bytes(model: TagModel) -> bytes:
    """Serialize (little-endian; weight map sorted by key for stability)."""
    tag_index = {t: i for i, t in enumerate(model.tagset)}
    out = [MAGIC, struct.pack("<HdI", FORMAT_VERSION, model.l2_lambda, len(model.tagset))]
    out += map(pack_str, model.tagset)
    out.append(struct.pack("<I", len(TEMPLATES)))
    out += map(pack_str, TEMPLATES)
    out.append(struct.pack("<I", len(model.dictionary)))
    for word in sorted(model.dictionary):
        indices = sorted(tag_index[t] for t in model.dictionary[word])
        out += (pack_str(word), struct.pack(f"<{1 + len(indices)}I", len(indices), *indices))
    out.append(struct.pack("<I", len(model.weights)))
    for key in sorted(model.weights):
        out += (pack_str(key), struct.pack("<d", model.weights[key]))
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
        try:
            dictionary[word] = frozenset(tagset[i] for (i,) in indices)
        except IndexError as exc:
            raise TaggerError(f"dictionary tag index out of range for {word!r}") from exc
    weights = reader.float_map("weight key")
    reader.finish()
    if templates != TEMPLATES:
        raise TaggerError(f"tagger model templates {templates} are not {TEMPLATES}")
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
    return TagModel(tagset, weights, dictionary, l2_lambda)


def save_model(model: TagModel, path) -> None:
    _text.write_atomic(path, model_to_bytes(model))


def load_model(path) -> TagModel:
    return model_from_bytes(Path(path).read_bytes())
