import hashlib
import math
import random
import struct
import tracemalloc

import pytest

import oracle
from hindimorph import tagger
from hindimorph._binary import pack_str
from hindimorph.tagger import (
    CorpusFormatError,
    EmptyCorpus,
    TagModel,
    TaggedCorpus,
    TagsetMismatch,
    TaggerError,
    TrainConfig,
    candidate_tags,
    evaluate,
    extract_features,
    gradient,
    model_from_bytes,
    model_to_bytes,
    objective,
    tag,
    tag_probs,
    tokenize_sentence,
    train,
)

MINI_TAGSET = ("I", "JJ", "N_NN", "PR_PRI", "PSP", "QT_QTC", "RB", "RP", "V_AUX", "V_VM")


# --- tokenization ---------------------------------------------------------


def test_tokenize_plain_words():
    assert tokenize_sentence("मैं घर जा रहा हूँ") == ["मैं", "घर", "जा", "रहा", "हूँ"]


def test_tokenize_detaches_trailing_danda():
    assert tokenize_sentence("खाता है।") == ["खाता", "है", "।"]


def test_tokenize_detaches_each_punct_char():
    assert tokenize_sentence("क्या?! हाँ,नहीं") == ["क्या", "?", "!", "हाँ", ",", "नहीं"]


def test_tokenize_empty_and_whitespace():
    assert tokenize_sentence("") == []
    assert tokenize_sentence("  \t \n ") == []


def test_tokenize_normalizes_to_nfc():
    # precomposed क़ (U+0958) is a composition exclusion: NFC keeps the
    # decomposed form, so both spellings must tokenize identically
    composed = "क़ी"
    decomposed = "क़ी"
    assert tokenize_sentence(composed) == tokenize_sentence(decomposed)
    assert tokenize_sentence(composed) == [decomposed]


def test_tokenize_splits_at_every_whitespace_character():
    # the regex's \s and str.split() must agree on every code point
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) > 20
    for ch in spaces:
        for text in (ch, f"आम{ch}है", f"?{ch}!", f"a{ch}{ch},b"):
            assert tokenize_sentence(text) == oracle.tokenize_reference(text), repr(text)


def test_tokenize_equals_reference_on_random_text():
    # Devanagari with signs, nukta and virama, a precomposed nukta letter,
    # Latin with a combining accent, digits, punctuation and whitespace
    alphabet = ("कखगजड़ढ़मरलसह" "अआइ" "\u093e\u093f\u0940\u0947\u094b\u0902\u0901\u093c\u094d"
                "\u0958\u0921\u0922" "abzE\u0301" "09\u0966\u096f"
                + "".join(tagger.PUNCT_CHARS) + " \t\n\r\u00a0\u2003\u3000\x1c\u0085.")
    rng = random.Random(1414)
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(25)))
        assert tokenize_sentence(text) == oracle.tokenize_reference(text), repr(text)


# --- corpus parsing -------------------------------------------------------


def test_parse_basic_corpus():
    c = TaggedCorpus.parse("आम/JJ आदमी/N_NN\n\nहै/V_AUX ।/I\n")
    assert c.sentences == [
        [("आम", "JJ"), ("आदमी", "N_NN")],
        [("है", "V_AUX"), ("।", "I")],
    ]


def test_parse_splits_on_last_slash():
    c = TaggedCorpus.parse("और/या/CC")
    assert c.sentences == [[("और/या", "CC")]]


def test_parse_rejects_missing_tag():
    with pytest.raises(CorpusFormatError, match="surface/TAG"):
        TaggedCorpus.parse("आम/JJ आदमी\n", source="x.txt")


def test_parse_rejects_empty_surface_or_tag():
    with pytest.raises(CorpusFormatError):
        TaggedCorpus.parse("/JJ")
    with pytest.raises(CorpusFormatError):
        TaggedCorpus.parse("आम/")


def test_parse_rejects_colon_in_tag():
    # w:a:B:A would be feature w:a with tag B:A, or feature w:a:B with tag A
    with pytest.raises(CorpusFormatError, match="<corpus>:1: tag 'B:A' contains ':'"):
        TaggedCorpus.parse("a:B/A x/B:A ।/I")
    assert TaggedCorpus.parse("a:B/A").sentences == [[("a:B", "A")]]


def test_parse_error_names_source_and_line():
    with pytest.raises(CorpusFormatError, match=r"mini\.txt:3"):
        TaggedCorpus.parse("a/X\nb/Y\nc\n", source="mini.txt")


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_parse_breaks_lines_only_at_newline(sep):
    # str.splitlines() would also break at these; every reader breaks at "\n"
    text = f"a/N{sep}b/V\nc/N\n"
    assert TaggedCorpus.parse(text).sentences == [[("a", "N"), ("b", "V")], [("c", "N")]]
    with pytest.raises(CorpusFormatError, match=r"^x\.txt:3: token 'bad'"):
        TaggedCorpus.parse(text + "bad\n", source="x.txt")


def test_read_drops_a_bom(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("a/X b/Y\nc/X\n", encoding="utf-8")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert TaggedCorpus.read(marked).sentences == TaggedCorpus.read(plain).sentences == [
        [("a", "X"), ("b", "Y")], [("c", "X")]]


def test_read_rejects_invalid_utf8(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a/X\n\xc3(/Y\n")
    with pytest.raises(CorpusFormatError, match=r"bad\.txt: invalid UTF-8 at byte 4"):
        TaggedCorpus.read(bad)


def test_tagset_is_sorted_and_deduped():
    c = TaggedCorpus.parse("a/Z b/A c/Z")
    assert c.tagset() == ("A", "Z")


def test_bundled_corpus_shape(mini_corpus):
    assert len(mini_corpus.sentences) == 83
    assert sum(len(s) for s in mini_corpus.sentences) == 501
    assert mini_corpus.tagset() == MINI_TAGSET


def test_bundled_corpus_ambiguity_is_deliberate(mini_corpus):
    observed = {}
    for sent in mini_corpus.sentences:
        for surface, t in sent:
            observed.setdefault(surface, set()).add(t)
    ambiguous = {w: ts for w, ts in observed.items() if len(ts) > 1}
    assert ambiguous == {"आम": {"JJ", "N_NN"}, "खाता": {"N_NN", "V_VM"}}


# --- features -------------------------------------------------------------


def test_extract_features_at_sentence_start():
    toks = tokenize_sentence("आम आदमी ।")
    assert extract_features(toks, 0, "<s>") == [
        "w:आम", "pw:<s>", "nw:आदमी", "pt:<s>",
        "s1:म", "s2:आम", "s3:आम", "s4:आम", "p1:आ",
        "punct:0", "dig:0",
    ]


def test_extract_features_at_sentence_end():
    toks = tokenize_sentence("आम आदमी ।")
    assert extract_features(toks, 2, "N_NN") == [
        "w:।", "pw:आदमी", "nw:</s>", "pt:N_NN",
        "s1:।", "s2:।", "s3:।", "s4:।", "p1:।",
        "punct:1", "dig:0",
    ]


def test_extract_features_suffixes_of_long_word():
    word = "लडकियाँ"
    feats = extract_features([word], 0, "<s>")
    assert feats[4] == "s1:" + word[-1:]
    assert feats[5] == "s2:" + word[-2:]
    assert feats[6] == "s3:" + word[-3:]
    assert feats[7] == "s4:" + word[-4:]


def test_extract_features_digit_flag():
    feats = extract_features(["२०२४"], 0, "<s>")
    assert "dig:1" in feats
    feats = extract_features(["a1b"], 0, "<s>")
    assert "dig:1" in feats


def test_feature_payloads_follow_templates():
    toks = tokenize_sentence("आम खाता है ।")
    for i in range(len(toks)):
        feats = extract_features(toks, i, "X")
        assert len(feats) == len(tagger.TEMPLATES)
        assert tuple(f.split(":", 1)[0] for f in feats) == tagger.TEMPLATES


# --- probabilities --------------------------------------------------------


def test_zero_weights_give_uniform_probs():
    model = TagModel(("A", "B", "C"), {}, {}, 0.1)
    probs = tag_probs(model, ["w:x", "pt:<s>"])
    for p in probs.values():
        assert p == pytest.approx(1 / 3)


def test_probs_sum_to_one_for_random_weights():
    rng = random.Random(11)
    tagset = ("A", "B", "C", "D")
    feats = ["w:x", "pw:y", "s1:z", "punct:0"]
    for _ in range(50):
        weights = {f"{f}:{t}": rng.uniform(-3, 3) for f in feats for t in tagset}
        probs = tag_probs(TagModel(tagset, weights, {}, 0.1), feats)
        assert abs(sum(probs.values()) - 1.0) <= 1e-9
        assert all(p >= 0.0 for p in probs.values())


def test_single_weight_shifts_probability():
    model = TagModel(("A", "B"), {"w:foo:A": 1.0}, {}, 0.1)
    probs = tag_probs(model, ["w:foo"])
    assert probs["A"] == pytest.approx(1 / (1 + math.exp(-1)))
    assert probs["A"] > probs["B"]


def test_probs_are_stable_under_huge_scores():
    weights = {"w:foo:A": 1000.0, "w:foo:B": 999.0}
    model = TagModel(("A", "B"), weights, {}, 0.1)
    probs = tag_probs(model, ["w:foo"])
    assert probs["A"] == pytest.approx(1 / (1 + math.exp(-1)))
    assert abs(sum(probs.values()) - 1.0) <= 1e-9


# --- objective and gradient -----------------------------------------------


def toy_corpus():
    return TaggedCorpus.parse(
        "राम/N आया/V ।/I\n"
        "राम/N फल/N खाता/V है/V ।/I\n"
        "वह/P फल/N लाया/V ।/I\n")


def test_objective_at_zero_weights_is_log_tagset_size():
    corpus = toy_corpus()
    positions = tagger._positions(corpus)
    got = objective({}, positions, corpus.tagset(), l2_lambda=0.1)
    assert got == pytest.approx(-math.log(len(corpus.tagset())))


def test_gradient_at_zero_weights_single_token():
    corpus = TaggedCorpus.parse("a/X")
    positions = tagger._positions(corpus)
    grad = gradient({}, positions, ("X", "Y"), l2_lambda=0.0)
    # observed(1) - expected(1/2) for the gold tag, -expected for the other
    assert grad["w:a:X"] == pytest.approx(0.5)
    assert grad["w:a:Y"] == pytest.approx(-0.5)


def test_gradient_includes_l2_pull_on_existing_weights():
    corpus = TaggedCorpus.parse("a/X")
    positions = tagger._positions(corpus)
    weights = {"unused:feature:X": 2.0}
    grad = gradient(weights, positions, ("X", "Y"), l2_lambda=0.25)
    # the feature never fires, so its gradient is purely -2*lambda*w
    assert grad["unused:feature:X"] == pytest.approx(-2 * 0.25 * 2.0)


def test_gradient_matches_central_finite_differences():
    corpus = toy_corpus()
    tagset = corpus.tagset()
    positions = tagger._positions(corpus)
    lam = 0.1
    rng = random.Random(23)
    base = gradient({}, positions, tagset, lam)
    weights = {key: rng.uniform(-0.5, 0.5) for key in base}
    grad = gradient(weights, positions, tagset, lam)
    h = 1e-5
    for key in rng.sample(sorted(grad), 50):
        hi = dict(weights)
        hi[key] = hi.get(key, 0.0) + h
        lo = dict(weights)
        lo[key] = lo.get(key, 0.0) - h
        fd = (objective(hi, positions, tagset, lam)
              - objective(lo, positions, tagset, lam)) / (2 * h)
        scale = max(abs(fd), abs(grad[key]), 1e-8)
        assert abs(fd - grad[key]) / scale <= 1e-4, key


# --- training -------------------------------------------------------------


def test_train_rejects_empty_corpus():
    with pytest.raises(EmptyCorpus):
        train(TaggedCorpus([]))
    with pytest.raises(EmptyCorpus):
        train(TaggedCorpus([[]]))


@pytest.mark.parametrize("config", [
    TrainConfig(epochs=-2),
    TrainConfig(l2_lambda=-0.1),
    TrainConfig(l2_lambda=math.nan),
    TrainConfig(l2_lambda=math.inf),
    TrainConfig(step=0.0),
    TrainConfig(step=-0.1),
    TrainConfig(step=math.nan),
    TrainConfig(step=math.inf),
], ids=["epochs-2", "lambda-0.1", "lambda-nan", "lambda-inf",
        "step0", "step-0.1", "step-nan", "step-inf"])
def test_train_rejects_invalid_config(config):
    with pytest.raises(TaggerError, match="must be"):
        train(toy_corpus(), config)


def test_train_separates_a_trivial_corpus():
    corpus = TaggedCorpus.parse("ab/X cd/Y\nab/X ef/Y\n")
    model = train(corpus, TrainConfig(epochs=30))
    assert model.tagset == ("X", "Y")
    assert tag(model, None, "ab cd") == [("ab", "X"), ("cd", "Y")]


def test_train_and_decode_agree_on_multichar_punctuation():
    # a gold "?!" token is punctuation when training, as when decoding
    corpus = TaggedCorpus.parse("ab/X ?!/I\ncd/Y ?!/I\n")
    model = train(corpus, TrainConfig(epochs=5))
    assert candidate_tags(model, None, "?!") == ("I",)
    assert "punct:1:I" in model.weights
    assert model.weights["punct:0:I"] < 0 < model.weights["punct:1:I"]


def test_train_is_deterministic():
    corpus = toy_corpus()
    config = TrainConfig(epochs=20)
    a = train(corpus, config)
    b = train(corpus, config)
    assert a.weights == b.weights
    assert a.loss_history == b.loss_history


def _bits(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("config", [
    TrainConfig(epochs=0),
    TrainConfig(epochs=1),
    TrainConfig(epochs=3),
    TrainConfig(l2_lambda=0.0, epochs=3, step=0.5),
], ids=["epochs0", "epochs1", "epochs3", "lambda0-step0.5"])
def test_train_equals_reference_ascent(config):
    model = train(toy_corpus(), config)
    weights, losses = oracle.train_reference(toy_corpus(), config)
    assert list(model.weights) == list(weights)
    assert _bits(model.weights.values()) == _bits(weights.values())
    assert _bits(model.loss_history) == _bits(losses)
    # the trained model decodes from rows built from its weights
    for sentence in toy_corpus().sentences:
        tokens = [s for s, _ in sentence]
        assert tagger._tag_tokens(model, None, tokens, 3) == (
            oracle.tag_tokens_reference(model, None, tokens, 3))


def test_train_equals_reference_ascent_on_bundled_corpus(mini_corpus):
    config = TrainConfig(epochs=5)
    model = train(mini_corpus, config)
    weights, losses = oracle.train_reference(mini_corpus, config)
    assert list(model.weights) == list(weights)
    assert _bits(model.weights.values()) == _bits(weights.values())
    assert _bits(model.loss_history) == _bits(losses)
    assert hashlib.sha256(model_to_bytes(model)).hexdigest() == (
        "158026d59bf9a54b1985595670491e0b949cb651eebdb98f412557da80497f0a")


def test_default_model_bytes_are_pinned(tag_model):
    assert hashlib.sha256(model_to_bytes(tag_model)).hexdigest() == (
        "fec3bf2a06a280389d1224ffef99e93e04e5d11e47ccf7e66d6d5f25b39da2ed")


def test_loss_history_starts_at_log_tagset_size_and_decreases(tag_model):
    assert len(tag_model.loss_history) == TrainConfig().epochs + 1
    assert tag_model.loss_history[0] == pytest.approx(math.log(len(tag_model.tagset)))
    diffs = [b - a for a, b in
             zip(tag_model.loss_history, tag_model.loss_history[1:])]
    assert max(diffs) < 0  # strictly decreasing on this corpus


def test_trained_model_records_dictionary(tag_model):
    assert tag_model.dictionary["आम"] == frozenset({"JJ", "N_NN"})
    assert tag_model.dictionary["खाता"] == frozenset({"N_NN", "V_VM"})
    assert tag_model.dictionary["आदमी"] == frozenset({"N_NN"})
    assert "मालन" not in tag_model.dictionary


def test_trained_model_metadata(tag_model):
    assert tag_model.tagset == MINI_TAGSET
    assert tag_model.l2_lambda == pytest.approx(0.1)


# --- tag candidates -------------------------------------------------------


def test_candidates_punctuation(tag_model, morph_model):
    assert candidate_tags(tag_model, morph_model, "।") == ("I",)
    assert candidate_tags(tag_model, morph_model, "?") == ("I",)


def test_candidates_dictionary_words_in_tagset_order(tag_model, morph_model):
    assert candidate_tags(tag_model, morph_model, "खाता") == ("N_NN", "V_VM")
    assert candidate_tags(tag_model, morph_model, "आम") == ("JJ", "N_NN")
    assert candidate_tags(tag_model, morph_model, "आदमी") == ("N_NN",)


def test_candidates_morph_fallback_noun(tag_model, morph_model):
    # feminine of माली: unseen in the corpus but analyzable
    assert "मालन" not in tag_model.dictionary
    assert candidate_tags(tag_model, morph_model, "मालन") == ("N_NN",)


def test_candidates_morph_fallback_verb(tag_model, morph_model):
    assert "पढ़ी" not in tag_model.dictionary
    # the map offers V_VM and V_AUX; output follows tagset order
    assert candidate_tags(tag_model, morph_model, "पढ़ी") == ("V_AUX", "V_VM")


def test_candidates_unanalyzable_word_opens_full_tagset(tag_model, morph_model):
    assert candidate_tags(tag_model, morph_model, "xyzzy") == MINI_TAGSET
    assert candidate_tags(tag_model, morph_model, "<") == MINI_TAGSET
    assert candidate_tags(tag_model, morph_model, "लड<") == MINI_TAGSET
    assert candidate_tags(tag_model, morph_model, "माल<>न") == MINI_TAGSET


def test_candidates_without_morph_model(tag_model):
    assert candidate_tags(tag_model, None, "मालन") == MINI_TAGSET


def test_candidates_clamped_to_model_tagset(morph_model):
    # a model whose tagset lacks N_NN: the mapped candidate is discarded
    # and the full (tiny) tagset opens up instead
    model = TagModel(("X", "Y"), {}, {}, 0.1)
    assert candidate_tags(model, morph_model, "मालन") == ("X", "Y")


# --- tagging --------------------------------------------------------------


GOLDEN_SENTENCES = [
    ("मैं घर जा रहा हूँ ।",
     [("मैं", "PR_PRI"), ("घर", "N_NN"), ("जा", "V_VM"),
      ("रहा", "V_AUX"), ("हूँ", "V_AUX"), ("।", "I")]),
    ("आम आदमी आम खाता है ।",
     [("आम", "JJ"), ("आदमी", "N_NN"), ("आम", "N_NN"),
      ("खाता", "V_VM"), ("है", "V_AUX"), ("।", "I")]),
    ("उसका खाता संख्या एक है ।",
     [("उसका", "PR_PRI"), ("खाता", "N_NN"), ("संख्या", "JJ"),
      ("एक", "QT_QTC"), ("है", "V_AUX"), ("।", "I")]),
    ("आम आदमी आम बेचता है ।",
     [("आम", "JJ"), ("आदमी", "N_NN"), ("आम", "N_NN"),
      ("बेचता", "V_VM"), ("है", "V_AUX"), ("।", "I")]),
]


@pytest.mark.parametrize("sentence,expected", GOLDEN_SENTENCES,
                         ids=[s for s, _ in GOLDEN_SENTENCES])
def test_tag_golden_sentences(tag_model, morph_model, sentence, expected):
    assert tag(tag_model, morph_model, sentence) == expected


def test_tag_disambiguates_the_same_surface_both_ways(tag_model, morph_model):
    tagged = tag(tag_model, morph_model, "आम आदमी आम खाता है ।")
    am_tags = [t for w, t in tagged if w == "आम"]
    assert am_tags == ["JJ", "N_NN"]


def test_tag_empty_sentence(tag_model, morph_model):
    assert tag(tag_model, morph_model, "") == []
    assert tag(tag_model, morph_model, "   ") == []


def test_tag_attached_punctuation_is_split_and_tagged(tag_model, morph_model):
    tagged = tag(tag_model, morph_model, "आम आदमी आम खाता है।")
    assert tagged[-1] == ("।", "I")
    assert tagged[-2] == ("है", "V_AUX")


def test_tag_ties_break_toward_earlier_tagset_order():
    model = TagModel(("A", "B"), {}, {}, 0.1)
    assert tag(model, None, "foo bar baz") == [
        ("foo", "A"), ("bar", "A"), ("baz", "A")]


def test_tag_beam_one_still_tags_goldens(tag_model, morph_model):
    sentence, expected = GOLDEN_SENTENCES[1]
    assert tag(tag_model, morph_model, sentence, beam=1) == expected


@pytest.mark.parametrize("beam", [0, -1])
def test_tag_and_evaluate_reject_beam_below_one(tag_model, morph_model, beam):
    with pytest.raises(TaggerError, match=f"beam must be >= 1, got {beam}"):
        tag(tag_model, morph_model, "आम आदमी आम खाता है ।", beam=beam)
    with pytest.raises(TaggerError, match="beam must be >= 1"):
        tag(tag_model, morph_model, "", beam=beam)
    with pytest.raises(TaggerError, match="beam must be >= 1"):
        evaluate(tag_model, morph_model, TaggedCorpus.parse("आम/JJ"), beam=beam)


# Not in the tagger dictionary: morph fallback (noun, verb), no analysis
# (Latin, digits) and a word that only the stray weight below knows.
UNKNOWN_WORDS = ("मालन", "पढ़ी", "xyzzy", "२०२४", "x")


def _substituted_sentences(corpus):
    """Each corpus sentence with two of its non-punctuation words made unknown."""
    out = []
    for i, sentence in enumerate(corpus.sentences):
        surfaces = [s for s, _ in sentence]
        words = [j for j, s in enumerate(surfaces) if s not in tagger.PUNCT_CHARS]
        for n, j in enumerate(words[i % len(words)::3][:2]):
            surfaces[j] = UNKNOWN_WORDS[(i + n) % len(UNKNOWN_WORDS)]
        out.append(surfaces)
    return out


def test_decode_equals_string_keyed_reference(tag_model, morph_model, mini_corpus):
    # The trained model decodes from its training rows; the loaded one
    # builds its rows from the file and must skip the key w:x:ZZ, whose
    # tag is outside the tagset.
    stray = TagModel(tag_model.tagset, {**tag_model.weights, "w:x:ZZ": 5.0},
                     tag_model.dictionary, tag_model.l2_lambda)
    loaded = model_from_bytes(model_to_bytes(stray))
    sentences = _substituted_sentences(mini_corpus)
    assert sum(t in UNKNOWN_WORDS for s in sentences for t in s) >= 100
    for model in (tag_model, loaded):
        for beam in (1, 3, 5):
            for tokens in sentences:
                assert tagger._tag_tokens(model, morph_model, tokens, beam) == (
                    oracle.tag_tokens_reference(model, morph_model, tokens, beam))


def test_decode_memo_keeps_only_model_fixed_entries(tag_model, morph_model, mini_corpus):
    # One loaded model decodes with the grammar, without it and with it
    # again: its memo must not carry one fallback's answers into the other.
    model = model_from_bytes(model_to_bytes(tag_model))
    sentences = _substituted_sentences(mini_corpus)
    for fallback in (morph_model, None, morph_model):
        for tokens in sentences:
            assert tagger._tag_tokens(model, fallback, tokens, 3) == (
                oracle.tag_tokens_reference(model, fallback, tokens, 3))
    assert model._entries
    assert all(word in model.dictionary or word in tagger.PUNCT_CHARS
               for word in model._entries)
    assert not any(word in UNKNOWN_WORDS for word in model._entries)


@pytest.mark.parametrize("tokens", [
    ["?!"],
    ["आम", "?!", "?!"],
    ["?", "आम", "आम"],
], ids=["lone", "both-flags", "flag-mismatch"])
def test_decode_tokens_whose_flag_disagrees_with_their_surface(tag_model, morph_model, tokens):
    # A gold corpus can hold "?!": its punct: flag is set, but it is not
    # one of PUNCT_CHARS, so the memo must not keep it.
    model = model_from_bytes(model_to_bytes(tag_model))
    for _ in range(2):  # the second decode reads the memo
        assert tagger._tag_tokens(model, morph_model, tokens, 3) == (
            oracle.tag_tokens_reference(model, morph_model, tokens, 3))


def test_decode_memo_skips_a_dictionary_word_that_is_not_nfc(morph_model):
    # precomposed क़ (U+0958) is not NFC, so candidate_tags looks it up
    # decomposed, misses the dictionary and asks the morph model
    word = "\u0958ी"
    model = TagModel(MINI_TAGSET, {}, {word: frozenset({"RB"})}, 0.1)
    tokens = [word]
    for fallback in (morph_model, None):
        assert tagger._tag_tokens(model, fallback, tokens, 3) == (
            oracle.tag_tokens_reference(model, fallback, tokens, 3))
    assert model._entries == {}


# --- evaluation -----------------------------------------------------------


def test_retag_training_corpus(tag_model, morph_model, mini_corpus):
    result = evaluate(tag_model, morph_model, mini_corpus)
    assert result.known_total == 501
    assert result.unknown_total == 0
    assert result.unknown_acc == 1.0  # empty partition convention
    assert result.known_acc >= 0.95
    assert result.overall_acc == result.known_acc


def test_evaluate_unknown_partition(tag_model, morph_model):
    gold = TaggedCorpus.parse("मालन/N_NN")
    result = evaluate(tag_model, morph_model, gold)
    assert result.known_total == 0
    assert result.unknown_total == 1
    assert result.unknown_acc == 1.0  # singleton morph candidate


def test_evaluate_skips_an_empty_sentence(tag_model, morph_model, mini_corpus):
    with_empty = TaggedCorpus([[], *mini_corpus.sentences])
    assert evaluate(tag_model, morph_model, with_empty) == (
        evaluate(tag_model, morph_model, mini_corpus))


def test_evaluate_rejects_foreign_tags(tag_model, morph_model):
    gold = TaggedCorpus.parse("आम/ZZZ")
    with pytest.raises(TagsetMismatch, match="ZZZ"):
        evaluate(tag_model, morph_model, gold)


def test_evaluate_rejects_empty_corpus(tag_model, morph_model):
    with pytest.raises(EmptyCorpus):
        evaluate(tag_model, morph_model, TaggedCorpus([]))
    with pytest.raises(EmptyCorpus):
        evaluate(tag_model, morph_model, TaggedCorpus([[]]))


# --- serialization --------------------------------------------------------


def test_model_round_trip_preserves_everything(tag_model):
    data = model_to_bytes(tag_model)
    loaded = model_from_bytes(data)
    assert loaded.tagset == tag_model.tagset
    assert loaded.dictionary == tag_model.dictionary
    assert loaded.l2_lambda == tag_model.l2_lambda
    assert loaded.weights == tag_model.weights  # exact float equality


def test_model_bytes_are_deterministic(tag_model):
    data = model_to_bytes(tag_model)
    assert data == model_to_bytes(tag_model)
    assert model_to_bytes(model_from_bytes(data)) == data


def test_loaded_model_tags_identically(tag_model, morph_model):
    loaded = model_from_bytes(model_to_bytes(tag_model))
    for sentence, _ in GOLDEN_SENTENCES:
        assert tag(loaded, morph_model, sentence) == tag(
            tag_model, morph_model, sentence)


def test_save_and_load(tmp_path, tag_model, morph_model):
    path = tmp_path / "mini.tag"
    tagger.save_model(tag_model, path)
    loaded = tagger.load_model(path)
    assert loaded.weights == tag_model.weights
    sentence, expected = GOLDEN_SENTENCES[1]
    assert tag(loaded, morph_model, sentence) == expected


def test_reject_bad_magic():
    with pytest.raises(TaggerError, match="magic"):
        model_from_bytes(b"NOPE" + b"\0" * 16)


def test_reject_empty_and_truncated(tag_model):
    with pytest.raises(TaggerError, match="truncated"):
        model_from_bytes(b"")
    data = model_to_bytes(tag_model)
    with pytest.raises(TaggerError, match="truncated"):
        model_from_bytes(data[:-1])
    with pytest.raises(TaggerError, match="truncated"):
        model_from_bytes(data[: len(data) // 2])


def test_reject_trailing_bytes(tag_model):
    data = model_to_bytes(tag_model)
    with pytest.raises(TaggerError, match="trailing"):
        model_from_bytes(data + b"\0")


def test_reject_unsupported_version(tag_model):
    data = bytearray(model_to_bytes(tag_model))
    data[4:6] = struct.pack("<H", 99)
    with pytest.raises(TaggerError, match="version 99"):
        model_from_bytes(bytes(data))


def test_reject_invalid_utf8_string():
    data = tagger.MAGIC + struct.pack("<H", 1) + struct.pack("<d", 0.1)
    data += struct.pack("<I", 1)  # one tag
    data += struct.pack("<I", 2) + b"\xff\xfe"  # not UTF-8
    with pytest.raises(TaggerError, match="UTF-8"):
        model_from_bytes(data)


def _template_list(templates) -> bytes:
    """The template list of a model file: a u32 count, then the strings."""
    return struct.pack("<I", len(templates)) + b"".join(map(pack_str, templates))


def _weight_block_bytes(records: list[bytes], count: int | None = None) -> bytes:
    """A model with a one-tag tagset and no dictionary, then the given weight records."""
    data = tagger.MAGIC + struct.pack("<Hd", 1, 0.1)
    data += struct.pack("<I", 1) + pack_str("A")
    data += _template_list(tagger.TEMPLATES)
    data += struct.pack("<I", 0)
    return data + struct.pack("<I", len(records) if count is None else count) + b"".join(records)


def _weight(key: bytes, value: float = 1.0) -> bytes:
    return struct.pack("<I", len(key)) + key + struct.pack("<d", value)


@pytest.mark.parametrize("records,count,message", [
    ([], 0xFFFFFFFF, "truncated"),
    ([_weight(b"w:a:A"), struct.pack("<I", 40) + b"\0" * 20], 3, "truncated"),
    ([_weight(b"w:a:A"), struct.pack("<I", 30) + b"w:b:A" + b"\0" * 8], None, "truncated"),
    ([_weight(b"w:a:A"), struct.pack("<I", 5) + b"w:b:A" + b"\0" * 7], None, "truncated"),
    ([_weight(b"w:a:A"), struct.pack("<I", 0xFFFFFFF0) + b"\0" * 12], None, "truncated"),
    ([_weight(b"w:a:A"), _weight(b"w:\xff\xfe:A")], None, "weight key is not valid UTF-8"),
    ([_weight(b"w:a:A"), _weight(b"w:b:A"), _weight(b"w:a:A", 2.0)], None,
     "repeats the weight key 'w:a:A'"),
], ids=["count-max", "prefix-past-end", "key-past-end", "value-past-end",
        "length-past-4GiB", "key-not-utf8", "repeated-key"])
def test_reject_malformed_weight_block(records, count, message):
    with pytest.raises(TaggerError, match=message):
        model_from_bytes(_weight_block_bytes(records, count))


def test_weight_count_past_the_data_is_rejected_before_the_walk():
    # The tail holds 100,000 well-formed empty records, far fewer than the
    # count says: the count is refused before any record is walked.
    data = _weight_block_bytes([b"\0" * 1_200_000], 0xFFFFFFFF)
    tracemalloc.start()
    try:
        with pytest.raises(TaggerError, match="truncated"):
            model_from_bytes(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_weight_block_loads_in_file_order():
    records = [_weight(b"w:b:A", 2.0), _weight(b"w:a:A", -1.0), _weight(b"w::A", 0.5)]
    model = model_from_bytes(_weight_block_bytes(records))
    assert list(model.weights.items()) == [("w:b:A", 2.0), ("w:a:A", -1.0), ("w::A", 0.5)]


def test_shuffled_model_file_loads_as_the_sorted_one():
    # Load -> save reproduces every file save wrote; a file with its
    # dictionary words and weight records out of order loads as the same
    # model and saves in canonical order.
    words = [("x1", (0,)), ("x2", (1,)), ("आम", (0, 1))]
    weights = [("nw:</s>:A", 0.5), ("s1:म:B", 0.25), ("w:a:A", 1.0), ("w:b:B", -2.0)]

    def model_file(words, weights):
        data = tagger.MAGIC + struct.pack("<HdI", 1, 0.1, 2) + pack_str("A") + pack_str("B")
        data += _template_list(tagger.TEMPLATES)
        data += struct.pack("<I", len(words)) + b"".join(
            pack_str(w) + struct.pack(f"<{1 + len(ix)}I", len(ix), *ix) for w, ix in words)
        return data + struct.pack("<I", len(weights)) + b"".join(
            _weight(k.encode(), v) for k, v in weights)

    canonical = model_file(words, weights)
    loaded = model_from_bytes(model_file(words[::-1], weights[::-1]))
    assert loaded == model_from_bytes(canonical)
    assert model_to_bytes(loaded) == canonical


def test_reject_repeated_dictionary_word():
    data = _small_model_bytes(dictionary={"x1": frozenset({"A"}), "x2": frozenset({"B"})})
    first, second = pack_str("x1"), pack_str("x2")
    assert data.count(second) == 1
    with pytest.raises(TaggerError, match="dictionary repeats the word 'x1'"):
        model_from_bytes(data.replace(second, first))


def test_round_trip_keeps_unusual_keys_and_weights_bit_for_bit():
    weights = {"w:आम:A": -0.0, "s1:म:B": 5e-324, "p1:\u0958:A": -2.2250738585072009e-308,
               "nw:</s>:B": 1.7976931348623157e308, "pw:<s>:A": 0.1}
    data = _small_model_bytes(weights=weights, dictionary={"आम": frozenset({"A", "B"})})
    loaded = model_from_bytes(data)
    assert list(loaded.weights) == sorted(weights)
    assert [struct.pack("<d", loaded.weights[k]) for k in weights] == [
        struct.pack("<d", w) for w in weights.values()]
    assert model_to_bytes(loaded) == data


def _small_model_bytes(templates=tagger.TEMPLATES, **fields) -> bytes:
    """The bytes of a small valid model, with the given fields replaced;
    `templates` replaces the file's template list, which no model holds."""
    model = dict(tagset=("A", "B"), weights={"w:a:A": 1.0}, dictionary={}, l2_lambda=0.1)
    model.update(fields)
    data = model_to_bytes(TagModel(**model))
    return data.replace(_template_list(tagger.TEMPLATES), _template_list(templates), 1)


def test_small_valid_model_loads():
    model = model_from_bytes(_small_model_bytes())
    assert tag(model, None, "a") == [("a", "A")]


@pytest.mark.parametrize("fields,message", [
    ({"templates": ()}, "templates"),
    ({"templates": tagger.TEMPLATES[:-1]}, "templates"),
    ({"templates": tagger.TEMPLATES[::-1]}, "templates"),
    ({"tagset": ()}, "empty tagset"),
    ({"tagset": ("A", "A")}, "repeats a tag"),
    ({"tagset": ("A", "B:A")}, "contain ':'"),
    ({"l2_lambda": math.nan}, "l2_lambda is not finite"),
    ({"l2_lambda": -math.inf}, "l2_lambda is not finite"),
    ({"weights": {"w:a:A": math.nan}}, "weights are not finite"),
    ({"weights": {"w:a:A": 1.0, "w:b:B": math.inf}}, "weights are not finite"),
], ids=["no-templates", "templates-short", "templates-reordered", "empty-tagset",
        "repeated-tag", "colon-tag", "lambda-nan", "lambda-inf", "weight-nan",
        "weight-inf"])
def test_reject_invalid_model_fields(fields, message):
    with pytest.raises(TaggerError, match=message):
        model_from_bytes(_small_model_bytes(**fields))


def test_mutated_model_bytes_raise_only_tagger_error(morph_model):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    corpus = TaggedCorpus.parse("ab/X cd/Y ।/I\nab/X ef/Y\n")
    blob = model_to_bytes(train(corpus, TrainConfig(epochs=2)))
    edit = st.one_of(
        st.tuples(st.just("set"), st.integers(0, len(blob) - 1), st.integers(0, 255)),
        st.tuples(st.just("insert"), st.integers(0, len(blob)), st.integers(0, 255)),
        st.tuples(st.just("delete"), st.integers(0, len(blob) - 1), st.integers(1, 16)))

    @hypothesis.settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.lists(edit, min_size=1, max_size=4))
    def check(edits):
        data = bytearray(blob)
        for kind, pos, value in edits:
            pos = min(pos, len(data))
            if kind == "insert":
                data[pos:pos] = bytes([value])
            elif kind == "delete":
                del data[pos:pos + value]
            elif pos < len(data):
                data[pos] = value
        try:
            model = model_from_bytes(bytes(data))
        except TaggerError:
            return
        for sentence in ("ab cd ।", "ef zz ab", "मालन पढ़ी ।"):
            for fallback in (morph_model, None):
                tagged = tag(model, fallback, sentence)
                assert all(t in model.tagset for _, t in tagged)

    check()


def test_reject_dictionary_index_out_of_range():
    data = tagger.MAGIC + struct.pack("<H", 1) + struct.pack("<d", 0.1)
    data += struct.pack("<I", 1) + struct.pack("<I", 1) + b"X"  # tagset ("X",)
    data += struct.pack("<I", 0)  # no templates
    data += struct.pack("<I", 1)  # one dictionary word
    data += struct.pack("<I", 1) + b"a"
    data += struct.pack("<I", 1) + struct.pack("<I", 7)  # index 7 > 0
    data += struct.pack("<I", 0)  # no weights
    with pytest.raises(TaggerError, match="out of range"):
        model_from_bytes(data)
