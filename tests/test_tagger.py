import hashlib
import math
import random
import struct
import tracemalloc

import pytest

import oracle
from hindimorph import fst, morph, tagger
from hindimorph.fst import SymbolTable
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
    model_from_bytes,
    model_to_bytes,
    tag,
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


@pytest.mark.parametrize("newline", ["\r", "\r\n", "\n"])
def test_parse_reads_newlines_as_read_does(tmp_path, newline):
    # a bare CR, a CRLF and an LF each end a sentence, in memory as in a file
    text = newline.join(["a/N b/V", "", "c/N", ""])
    path = tmp_path / "corpus.txt"
    path.write_bytes(text.encode("utf-8"))
    assert TaggedCorpus.parse(text) == TaggedCorpus.read(path)
    assert TaggedCorpus.parse(text).sentences == [[("a", "N"), ("b", "V")], [("c", "N")]]
    with pytest.raises(CorpusFormatError, match=r"^x\.txt:4: token 'bad'"):
        TaggedCorpus.parse(text + "bad" + newline, source="x.txt")


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


def _probs(weights, feats, tagset):
    # the kernel that training and decoding run, on one row per feature
    rows = [[weights.get(f"{f}:{t}", 0.0) for t in tagset] for f in feats]
    return dict(zip(tagset, map(math.exp, tagger._row_log_probs(rows))))


def test_zero_weights_give_uniform_probs():
    probs = _probs({}, ["w:x", "pt:<s>"], ("A", "B", "C"))
    for p in probs.values():
        assert p == pytest.approx(1 / 3)


def test_probs_sum_to_one_for_random_weights():
    rng = random.Random(11)
    tagset = ("A", "B", "C", "D")
    feats = ["w:x", "pw:y", "s1:z", "punct:0"]
    for _ in range(50):
        weights = {f"{f}:{t}": rng.uniform(-3, 3) for f in feats for t in tagset}
        probs = _probs(weights, feats, tagset)
        assert abs(sum(probs.values()) - 1.0) <= 1e-9
        assert all(p >= 0.0 for p in probs.values())


def test_single_weight_shifts_probability():
    probs = _probs({"w:foo:A": 1.0}, ["w:foo"], ("A", "B"))
    assert probs["A"] == pytest.approx(1 / (1 + math.exp(-1)))
    assert probs["A"] > probs["B"]


def test_probs_are_stable_under_huge_scores():
    weights = {"w:foo:A": 1000.0, "w:foo:B": 999.0}
    probs = _probs(weights, ["w:foo"], ("A", "B"))
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
    positions = oracle._positions(corpus)
    got = oracle.objective({}, positions, corpus.tagset(), l2_lambda=0.1)
    assert got == pytest.approx(-math.log(len(corpus.tagset())))


def test_gradient_at_zero_weights_single_token():
    corpus = TaggedCorpus.parse("a/X")
    positions = oracle._positions(corpus)
    grad = oracle.gradient({}, positions, ("X", "Y"), l2_lambda=0.0)
    # observed(1) - expected(1/2) for the gold tag, -expected for the other
    assert grad["w:a:X"] == pytest.approx(0.5)
    assert grad["w:a:Y"] == pytest.approx(-0.5)


def test_gradient_includes_l2_pull_on_existing_weights():
    corpus = TaggedCorpus.parse("a/X")
    positions = oracle._positions(corpus)
    weights = {"unused:feature:X": 2.0}
    grad = oracle.gradient(weights, positions, ("X", "Y"), l2_lambda=0.25)
    # the feature never fires, so its gradient is purely -2*lambda*w
    assert grad["unused:feature:X"] == pytest.approx(-2 * 0.25 * 2.0)


def test_gradient_matches_central_finite_differences():
    corpus = toy_corpus()
    tagset = corpus.tagset()
    positions = oracle._positions(corpus)
    lam = 0.1
    rng = random.Random(23)
    base = oracle.gradient({}, positions, tagset, lam)
    weights = {key: rng.uniform(-0.5, 0.5) for key in base}
    grad = oracle.gradient(weights, positions, tagset, lam)
    h = 1e-5
    for key in rng.sample(sorted(grad), 50):
        hi = dict(weights)
        hi[key] = hi.get(key, 0.0) + h
        lo = dict(weights)
        lo[key] = lo.get(key, 0.0) - h
        fd = (oracle.objective(hi, positions, tagset, lam)
              - oracle.objective(lo, positions, tagset, lam)) / (2 * h)
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
], ids=["epochs-2", "lambda-0.1", "lambda-nan", "lambda-inf"])
def test_train_rejects_invalid_config(config):
    with pytest.raises(TaggerError, match="must be"):
        train(toy_corpus(), config)


def test_train_refuses_a_diverged_model(mini_corpus):
    # on the bundled corpus the fixed step diverges once l2_lambda passes
    # about 9.9: at 12 the loss ends near 3e27, from log(10) at zero weights
    with pytest.raises(TaggerError, match=r"training diverged .*l2_lambda 12\.0 "):
        train(mini_corpus, TrainConfig(l2_lambda=12.0, epochs=100))
    model = train(mini_corpus, TrainConfig(l2_lambda=9.5, epochs=100))
    assert model.loss_history[-1] <= model.loss_history[0]


def test_train_config_has_no_step():
    # the step is the constant tagger._STEP; only the prior and the
    # epoch count are settings
    assert TrainConfig._fields == ("l2_lambda", "epochs")
    assert tagger._STEP == 0.1
    with pytest.raises(TypeError):
        TrainConfig(step=0.1)


def test_records_compare_by_value_and_show_their_fields(morph_model):
    # the settings and the evaluation result are immutable values
    assert TrainConfig() == TrainConfig(l2_lambda=0.1, epochs=100) == TrainConfig(0.1, 100)
    assert repr(TrainConfig()) == "TrainConfig(l2_lambda=0.1, epochs=100)"
    assert hash(TrainConfig(0.5, 3)) == hash(TrainConfig(epochs=3, l2_lambda=0.5))
    assert TrainConfig(epochs=3) != TrainConfig(epochs=4)
    with pytest.raises(TypeError):
        TrainConfig(step=0.1)
    result = tagger.EvalResult(known_acc=1.0, unknown_acc=0.5, overall_acc=0.75,
                               known_total=2, unknown_total=2)
    assert repr(result) == ("EvalResult(known_acc=1.0, unknown_acc=0.5, overall_acc=0.75, "
                            "known_total=2, unknown_total=2)")
    assert result == tagger.EvalResult(1.0, 0.5, 0.75, 2, 2)
    assert hash(result) == hash(tagger.EvalResult(1.0, 0.5, 0.75, 2, 2))
    for record, name in ((TrainConfig(), "epochs"), (result, "known_total")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    # a corpus compares by its sentences
    corpus = TaggedCorpus.parse("ab/X cd/Y\n")
    assert corpus == TaggedCorpus([[("ab", "X"), ("cd", "Y")]])
    assert corpus != TaggedCorpus([[("ab", "X")]])
    assert repr(corpus) == "TaggedCorpus(sentences=[[('ab', 'X'), ('cd', 'Y')]])"
    with pytest.raises(TypeError):
        hash(corpus)
    # a model compares by its tagset, weights, dictionary and prior, not by
    # its loss history or its decode memo, and is not hashable
    model = train(corpus, TrainConfig(epochs=2))
    fields = (model.tagset, model.weights, model.dictionary, model.l2_lambda)
    assert len(model.loss_history) == 3
    assert tag(model, morph_model, "ab cd") == [("ab", "X"), ("cd", "Y")]
    assert model._entries and model._entries_morph is morph_model
    fresh = TagModel(*fields)
    assert fresh.loss_history == [] and fresh._entries == {}
    assert model == fresh and not model != fresh
    assert model != TagModel(*fields[:3], 0.2)
    assert model != TagModel(fields[0], {**model.weights, "w:ab:X": 9.0}, *fields[2:])
    # each model has a loss history of its own
    assert TagModel(*fields).loss_history is not fresh.loss_history
    with pytest.raises(TypeError):
        hash(model)
    small = TagModel(("X",), {"w:a:X": 1.0}, {"a": frozenset({"X"})}, 0.1, [2.0, 1.0])
    assert repr(small) == ("TagModel(tagset=('X',), weights={'w:a:X': 1.0}, "
                           "dictionary={'a': frozenset({'X'})}, l2_lambda=0.1)")
    assert small.loss_history == [2.0, 1.0]


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
    TrainConfig(l2_lambda=0.0, epochs=3),
], ids=["epochs0", "epochs1", "epochs3", "lambda0"])
def test_train_equals_reference_ascent(config):
    for corpus in (toy_corpus(), _grouped_corpus()):
        model = train(corpus, config)
        weights, losses = oracle.train_reference(corpus, config)
        assert list(model.weights) == list(weights)
        assert _bits(model.weights.values()) == _bits(weights.values())
        assert _bits(model.loss_history) == _bits(losses)
        # the trained model decodes from rows built from its weights
        for sentence in corpus.sentences:
            tokens = [s for s, _ in sentence]
            assert tagger._tag_tokens(model, None, tokens) == (
                oracle.tag_tokens_reference(model, None, tokens))


def _firing_groups(corpus):
    """The features of `corpus`, grouped by the positions they fire at:
    a tuple of positions -> its features, in the order they first fire."""
    firing = {}
    for position, (features, _) in enumerate(oracle._positions(corpus)):
        for f in features:
            firing.setdefault(f, []).append(position)
    groups = {}
    for f, positions in firing.items():
        groups.setdefault(tuple(positions), []).append(f)
    return groups


def _grouped_corpus():
    """`ab` twice between `cd` and `ef`: w:ab, pw:cd, nw:ef and more fire
    together at two positions; s1:b and pt:X fire at `ab` and `cb` too."""
    return TaggedCorpus.parse("cd/X ab/Y ef/X\ncd/X ab/Y ef/X cb/Y\n")


def test_grouped_corpus_has_shared_and_overlapping_groups():
    groups = _firing_groups(_grouped_corpus())
    assert ["w:ab", "pw:cd", "nw:ef", "s2:ab", "s3:ab", "s4:ab", "p1:a"] in groups.values()
    assert [positions for positions, features in groups.items() if "w:ab" in features] == [(1, 4)]
    assert [positions for positions, features in groups.items() if "s1:b" in features] == [(1, 4, 6)]


def test_features_that_fire_at_the_same_positions_train_identical_rows(mini_corpus, tag_model):
    # why train may share one row per group: members of a group start at
    # zero and get the same gradient at every epoch
    groups = _firing_groups(mini_corpus)
    assert (sum(map(len, groups.values())), len(groups)) == (709, 382)
    for model in (train(mini_corpus, TrainConfig(epochs=5)), tag_model):
        for features in groups.values():
            rows = {tuple(model.weights[f"{f}:{t}"].hex() for t in model.tagset)
                    for f in features}
            assert len(rows) == 1, features


def _left_fold_sum(values):
    """``sum()`` of floats before Python 3.12: a left fold from 0."""
    total = 0
    for x in values:
        total += x
    return total


def _compensated_sum(values):
    """``sum()`` of floats from Python 3.12 on (gh-100425): the first value
    is added to 0, each next one with Neumaier's compensation, and the
    compensation is added to the total at the end."""
    values = iter(values)
    total = 0 + next(values, 0)
    compensation = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation else total


# Each reference, under the name of the model pins it gives: the
# interpreters whose sum() it is.
_SUMS = {"before_312": _left_fold_sum, "from_312": _compensated_sum}


def _builtin_summation():
    """The name of the reference that this interpreter's ``sum()`` gives,
    bit for bit, on seeded float lists."""
    rng = random.Random(12)
    samples = [[1e16, 1.0, -1e16]] + [
        [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 16) for _ in range(rng.randrange(8))]
        for _ in range(300)]
    matches = [name for name, reference in _SUMS.items()
               if all(repr(reference(v)) == repr(sum(v)) for v in samples)]
    assert len(matches) == 1, matches
    return matches[0]


def _use_sum(monkeypatch, summation):
    """Make ``sum()`` in the tagger and in its oracle the reference named
    `summation`."""
    for module in (tagger, oracle):
        monkeypatch.setattr(module, "sum", _SUMS[summation], raising=False)


def test_train_equals_reference_ascent_on_bundled_corpus(mini_corpus, monkeypatch):
    pins = dict(
        before_312="df9094559508f4589ee0c3a1ad822029bd17721a7c24cf453abbb7d90f8ff90a",
        from_312="ed69939db03555e31f4ef54f2dfcd1aa53fdd5f214b0e8ca8dd18f97c0cc2abf")
    config = TrainConfig(epochs=5)
    for summation, pin in pins.items():  # both, whatever this interpreter's sum()
        _use_sum(monkeypatch, summation)
        model = train(mini_corpus, config)
        weights, losses = oracle.train_reference(mini_corpus, config)
        assert list(model.weights) == list(weights)
        assert _bits(model.weights.values()) == _bits(weights.values())
        assert _bits(model.loss_history) == _bits(losses)
        assert hashlib.sha256(model_to_bytes(model)).hexdigest() == pin


def test_default_model_bytes_are_pinned(tag_model, mini_corpus, monkeypatch):
    pins = dict(
        before_312="31045dcccb4ba16b3c0c7e61c2186c8cd350c50683e23db382571eb708859fdf",
        from_312="f3db6656722978bbb62ecf3cb2211380a209b7cd286de02dc43881ad707b45a3")
    assert hashlib.sha256(model_to_bytes(tag_model)).hexdigest() == pins[_builtin_summation()]
    for summation, pin in pins.items():
        _use_sum(monkeypatch, summation)
        model = train(mini_corpus, TrainConfig())
        assert hashlib.sha256(model_to_bytes(model)).hexdigest() == pin


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


def test_candidates_of_punctuation_seen_in_training_are_its_observed_tags():
    # under a tagset without "I", a punctuation token keeps the tags it was
    # seen with, rather than opening the whole tagset
    model = train(TaggedCorpus.parse("राम/N घर/N ।/PUNC\nसीता/N ।/PUNC\n"),
                  TrainConfig(epochs=0))
    assert model.tagset == ("N", "PUNC")
    assert candidate_tags(model, None, "।") == ("PUNC",)
    assert tag(model, None, "राम ।") == [("राम", "N"), ("।", "PUNC")]
    # unseen punctuation gets only the punctuation tag, which this tagset
    # lacks, so it opens the whole tagset
    assert candidate_tags(model, None, "?") == ("N", "PUNC")


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


def test_candidates_equal_reference(tag_model, morph_model, mini_corpus):
    # the oracle states the rule on its own, so the decode-versus-oracle
    # tests see a fault in it
    punct_model = train(TaggedCorpus.parse("राम/N घर/N ।/PUNC\nसीता/N ?/N\n"),
                        TrainConfig(epochs=0))
    words = {s for sentence in mini_corpus.sentences for s, _ in sentence}
    words |= {*UNKNOWN_WORDS, "", "।", "?!", "।x", "<", "घर", "सीता", "मालन", "पढ़ी"}
    rng = random.Random(39)
    models = [tag_model, punct_model, *(_random_model(rng)[0] for _ in range(20))]
    for model in models:
        for fallback in (morph_model, None):
            for word in sorted(words | set(model.dictionary)):
                assert candidate_tags(model, fallback, word) == (
                    oracle.candidate_tags_reference(model, fallback, word)), word


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


def test_decode_equals_string_keyed_reference(tag_model, morph_model, mini_corpus,
                                              monkeypatch):
    # Each model decodes from the tables it built from its weights when it
    # was made; the loaded one must skip the key w:x:ZZ, whose tag is
    # outside the tagset.
    stray = TagModel(tag_model.tagset, {**tag_model.weights, "w:x:ZZ": 5.0},
                     tag_model.dictionary, tag_model.l2_lambda)
    blob = model_to_bytes(stray)
    sentences = _substituted_sentences(mini_corpus)
    assert sum(t in UNKNOWN_WORDS for s in sentences for t in s) >= 100
    # the second pass keeps the entries of only two words, so the decoder
    # drops them within a sentence
    for memo_words in (tagger._MEMO_WORDS, 2):
        monkeypatch.setattr(tagger, "_MEMO_WORDS", memo_words)
        # fresh models, so each pass starts from an empty memo
        for model in (TagModel(tag_model.tagset, tag_model.weights, tag_model.dictionary,
                               tag_model.l2_lambda), model_from_bytes(blob)):
            for tokens in sentences:
                assert tagger._tag_tokens(model, morph_model, tokens) == (
                    oracle.tag_tokens_reference(model, morph_model, tokens))
                assert len(model._entries) <= memo_words


def _random_model(rng):
    """A model with 8 tags, Gaussian weights of a random spread on most of
    the features its vocabulary fires, some dictionary words with one or
    two tags, and a sentence of 2 to 5 of its words."""
    tagset = tuple(f"T{k}" for k in range(8))
    words = ["".join(rng.choice("ab1।") for _ in range(rng.randint(1, 3))) for _ in range(5)]
    features = {tagger._START, tagger._END}
    for word in words:
        for prev_tag in (*tagset, tagger.BOUNDARY_TAG):
            features.update(tagger.extract_features((word,) * 3, 1, prev_tag))
    sigma = rng.uniform(0.5, 4.0)
    weights = {f"{f}:{t}": rng.gauss(0.0, sigma) for f in sorted(features) for t in tagset
               if rng.random() < 0.9}
    dictionary = {w: frozenset(rng.sample(tagset, rng.randint(1, 2)))
                  for w in words if rng.random() < 0.4}
    tokens = [rng.choice(words) for _ in range(rng.randint(2, 5))]
    return TagModel(tagset, weights, dictionary, 0.1), tokens


def test_decode_is_exact(mini_corpus, morph_model):
    # On models far from the trained one, a search that keeps only a few
    # paths per position loses the best path now and then; the decode must
    # find it.  No two paths of these models tie for the best score.
    rng = random.Random(2003)
    for _ in range(200):
        model, tokens = _random_model(rng)
        assert tagger._tag_tokens(model, None, tokens) == (
            oracle.tag_tokens_reference(model, None, tokens))
    # with no weights every path ties, so each token takes its first
    # candidate; without its final punctuation a sentence ends on a word
    # that has more than one
    zero = train(mini_corpus, TrainConfig(epochs=0))
    for sentence in _substituted_sentences(mini_corpus):
        for tokens in (sentence, sentence[:-1]):
            first = [candidate_tags(zero, morph_model, token)[0] for token in tokens]
            assert tagger._tag_tokens(zero, morph_model, tokens) == first
            assert oracle.tag_tokens_reference(zero, morph_model, tokens) == first


def test_decode_of_a_long_line_of_ties():
    # Two paths, all A and all B, tie on every prefix: the lower previous
    # tag wins each step, and the line ends on the lower tag.  A decode
    # that copied or compared whole paths would take quadratic time here.
    model = TagModel(("A", "B"), {"pt:A:A": 1.0, "pt:B:B": 1.0}, {}, 0.1)
    assert tagger._tag_tokens(model, None, ["x"] * 3000) == ["A"] * 3000


def test_decode_of_a_long_line_with_no_weights(mini_corpus, morph_model):
    # With no weights every path ties, so each token takes its first
    # candidate.  लडकू is neither a dictionary word nor a form of the
    # grammar, so it opens the whole tagset.
    zero = train(mini_corpus, TrainConfig(epochs=0))
    assert candidate_tags(zero, morph_model, "लडकू") == zero.tagset
    assert tagger._tag_tokens(zero, morph_model, ["लडकू"] * 3000) == [zero.tagset[0]] * 3000


def _tied_models():
    """300 seeded models and tokens, then a near tie: two partial scores
    one ulp apart, whose paths' totals round equal."""
    rng = random.Random(37)
    for _ in range(300):
        tagset = tuple("ABCD"[:rng.randint(2, 4)])
        tokens = [rng.choice("xyz") for _ in range(rng.randint(1, 5))]
        features = {tagger._START, tagger._END}
        for word in "xyz":
            for prev_tag in (*tagset, tagger.BOUNDARY_TAG):
                features.update(tagger.extract_features((word,) * 3, 1, prev_tag))
        weights = {f"{f}:{t}": rng.choice((0.0, 0.0, 1.0, -1.0, 0.5))
                   for f in sorted(features) for t in tagset if rng.random() < 0.3}
        yield TagModel(tagset, weights, {}, 0.1), tokens
    weights = {"pt:A:B": -1.0, "pt:B:A": 1.0, "w:x:A": -1.0, "w:y:A": 1.0, "w:y:B": -1.0,
               "s1:x:B": -1.0, "nw:y:A": -1.0}
    yield TagModel(("A", "B"), weights, {}, 0.1), list("xxyxz")


def test_decode_is_optimal_on_tied_models():
    # Sparse weights from a few values make many paths tie for the best
    # score: the decoded path's negated score, summed in the decoder's
    # order, is the least of every path's, bit for bit.
    tied = 0
    for model, tokens in _tied_models():
        tagset = model.tagset
        scores = {path: neg for neg, path in oracle.paths_reference(model, None, tokens)}
        least = min(scores.values())
        tied += sum(neg == least for neg in scores.values()) > 1
        decoded = tuple(map(tagset.index, tagger._tag_tokens(model, None, tokens)))
        assert scores[decoded] == least
    assert tied >= 30
    # the last model, the near tie: the decoder's path is not the oracle's
    # (the first in tagset order), and both score the least
    assert tagger._tag_tokens(model, None, tokens) == list("BAAAA")
    assert oracle.tag_tokens_reference(model, None, tokens) == list("AAAAA")
    assert least.hex() == "0x1.07dc1f35cde9dp+1"


def _forced_tail_lines():
    """Seeded models whose words are mostly single-tag dictionary words,
    each with lines whose last choice falls at every position, and a line
    with no choice at all.  Even trials draw weights from a few values, so
    that many paths tie; odd ones draw Gaussian weights, so that none do.
    Each line comes with the index of its last choice, or -1."""
    rng = random.Random(43)
    for trial in range(80):
        tagset = tuple("ABCD"[:rng.randint(2, 4)])
        forced = ["f", "g", "h", "।"]
        dictionary = {w: frozenset({rng.choice(tagset)}) for w in forced}
        dictionary["c"] = frozenset(rng.sample(tagset, 2))  # and "u" opens the tagset
        features = {tagger._START, tagger._END}
        for word in (*forced, "c", "u"):
            for prev_tag in (*tagset, tagger.BOUNDARY_TAG):
                features.update(tagger.extract_features((word,) * 3, 1, prev_tag))
        if trial % 2:
            weights = {f"{f}:{t}": rng.gauss(0.0, 2.0) for f in sorted(features) for t in tagset}
        else:
            weights = {f"{f}:{t}": rng.choice((0.0, 1.0, -1.0, 0.5))
                       for f in sorted(features) for t in tagset if rng.random() < 0.3}
        model = TagModel(tagset, weights, dictionary, 0.1)
        n = rng.randint(1, 7)
        for last in range(-1, n):
            tokens = [rng.choice(forced + ["c", "u"] if i < last else forced) for i in range(n)]
            if last >= 0:
                tokens[last] = rng.choice("cu")
            yield trial, model, tokens, last


def test_decode_of_a_forced_tail_equals_reference():
    # Past the token after a line's last choice no path is compared, so
    # the tail is read off its candidates; the tags and the decoded
    # path's score stay those of the full search, bit for bit.
    lines = 0
    for trial, model, tokens, _ in _forced_tail_lines():
        decoded = tagger._tag_tokens(model, None, tokens)
        scores = {path: neg for neg, path in oracle.paths_reference(model, None, tokens)}
        assert scores[tuple(map(model.tagset.index, decoded))] == min(scores.values())
        if trial % 2:
            assert decoded == oracle.tag_tokens_reference(model, None, tokens)
        lines += 1
    assert lines >= 300


def test_decode_scores_up_to_the_step_after_the_last_choice(monkeypatch):
    # Each step computes one log-sum-exp per previous candidate, so the
    # calls to math.log count the work: none on a line with no choice,
    # and on any other line the previous candidates of each step up to
    # the one after its last choice.
    logs = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def log(self, x):
            logs.append(x)
            return math.log(x)

    monkeypatch.setattr(tagger, "math", CountingMath())
    for _, model, tokens, last in _forced_tail_lines():
        previous = [1] + [len(candidate_tags(model, None, t)) for t in tokens[:-1]]
        logs.clear()
        tagger._tag_tokens(model, None, tokens)
        assert len(logs) == (sum(previous[:last + 2]) if last >= 0 else 0)
    # a line of 3,000 forced words after one choice scores two steps
    model = TagModel(("A", "B"), {}, {"x": frozenset("A")}, 0.1)
    logs.clear()
    assert tagger._tag_tokens(model, None, ["y"] + ["x"] * 3000) == ["A"] * 3001
    assert len(logs) == 1 + 2


def test_decode_memo_is_reset_per_morph_model(tag_model, morph_model, mini_corpus):
    # One loaded model decodes with the grammar, without it and with it
    # again: each switch resets its memo, so no fallback's answers carry
    # into the other's, and it then holds what a fresh model's holds.
    model = model_from_bytes(model_to_bytes(tag_model))
    sentences = _substituted_sentences(mini_corpus)
    kept = []
    for fallback in (morph_model, None, morph_model):
        for tokens in sentences:
            assert tagger._tag_tokens(model, fallback, tokens) == (
                oracle.tag_tokens_reference(model, fallback, tokens))
        fresh = model_from_bytes(model_to_bytes(tag_model))
        for tokens in sentences:
            tagger._tag_tokens(fresh, fallback, tokens)
        assert model._entries_morph is fallback
        assert model._entries == fresh._entries
        assert set(UNKNOWN_WORDS) <= set(model._entries)
        kept.append(dict(model._entries))
    # मालन is a noun to the grammar and open without it
    assert kept[0]["मालन"] != kept[1]["मालन"]


@pytest.mark.parametrize("tokens", [
    ["?!"],
    ["आम", "?!", "?!"],
    ["?", "आम", "आम"],
], ids=["lone", "both-flags", "flag-mismatch"])
def test_decode_tokens_whose_flag_disagrees_with_their_surface(tag_model, morph_model, tokens):
    # A gold corpus can hold "?!": its punct: flag is set, but it is not
    # one of PUNCT_CHARS, so its kept entry must still be its own.
    model = model_from_bytes(model_to_bytes(tag_model))
    for _ in range(2):  # the second decode reads the memo
        assert tagger._tag_tokens(model, morph_model, tokens) == (
            oracle.tag_tokens_reference(model, morph_model, tokens))


def test_decode_memo_keeps_a_dictionary_word_that_is_not_nfc(morph_model):
    # precomposed क़ (U+0958) is not NFC, so candidate_tags looks it up
    # decomposed, misses the dictionary and asks the morph model; the
    # entry is kept under the word as written, for that morph model
    word = "\u0958ी"
    model = TagModel(MINI_TAGSET, {}, {word: frozenset({"RB"})}, 0.1)
    tokens = [word]
    for fallback in (morph_model, None):
        for _ in range(2):  # the second decode reads the memo
            assert tagger._tag_tokens(model, fallback, tokens) == (
                oracle.tag_tokens_reference(model, fallback, tokens))
        assert list(model._entries) == [word]
    # without a grammar the missed word opens the whole tagset
    assert model._entries[word][0] == tuple(range(len(MINI_TAGSET)))


def test_decode_memo_keeps_no_word_whose_analysis_raises():
    # an output-epsilon cycle that writes "a" after the surface "b"
    table = SymbolTable("ab")
    a, b = table.id_of("a"), table.id_of("b")
    grammar = fst.build(3, 0, (0, 2),
                        [(0, b, b, 1), (1, a, fst.EPSILON, 2), (2, a, fst.EPSILON, 1)],
                        table)
    fallback = morph.MorphModel(grammar)
    model = TagModel(MINI_TAGSET, {}, {}, 0.1)
    for _ in range(2):
        with pytest.raises(fst.EpsilonCycle):
            tagger._tag_tokens(model, fallback, ["a", "b"])
        assert list(model._entries) == ["a"]
    # past the last choice, "b" is in the forced tail, whose tags are read
    # off its candidates: its entry is still built first, and raises
    for tokens in (["a", "।", "।", "b"], ["।", "b"], ["।", "b", "a"]):
        model = TagModel(MINI_TAGSET, {}, {}, 0.1)
        with pytest.raises(fst.EpsilonCycle):
            tagger._tag_tokens(model, fallback, tokens)
        assert list(model._entries) == list(dict.fromkeys(tokens[:tokens.index("b")]))


def test_decode_builds_the_entry_of_every_token(tag_model, morph_model):
    # the forced tail of a line is read off its candidates, but every
    # token's entry is built and kept, as a full search builds them
    model = model_from_bytes(model_to_bytes(tag_model))
    tokens = ["लडकू", "है", "है", "।", "उसका", "है", "।"]
    assert [len(candidate_tags(model, morph_model, t)) for t in tokens] == [10, 1, 1, 1, 1, 1, 1]
    assert tagger._tag_tokens(model, morph_model, tokens) == (
        oracle.tag_tokens_reference(model, morph_model, tokens))
    fresh = model_from_bytes(model_to_bytes(tag_model))
    for token in tokens:
        tagger._tag_tokens(fresh, morph_model, [token])
    assert model._entries == fresh._entries
    assert list(model._entries) == list(dict.fromkeys(tokens))


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


def test_reject_version_1_file():
    # format 1 stored one length-prefixed record per weight; such a file
    # is refused by its header, and the model has to be retrained
    with pytest.raises(TaggerError, match="unsupported tagger model format version 1$"):
        model_from_bytes(tagger.MAGIC + struct.pack("<H", 1))


def test_reject_invalid_utf8_string():
    data = tagger.MAGIC + struct.pack("<H", tagger.FORMAT_VERSION) + struct.pack("<d", 0.1)
    data += struct.pack("<I", 1)  # one tag
    data += struct.pack("<I", 2) + b"\xff\xfe"  # not UTF-8
    with pytest.raises(TaggerError, match="UTF-8"):
        model_from_bytes(data)


def _template_list(templates) -> bytes:
    """The template list of a model file: a u32 count, then the strings."""
    return struct.pack("<I", len(templates)) + b"".join(map(pack_str, templates))


def _model_head(tagset, words=(), l2_lambda=0.1, templates=tagger.TEMPLATES) -> bytes:
    """A model file up to its weight table, written field by field as
    given: `words` is (word, tag indices) pairs, in file order."""
    data = tagger.MAGIC + struct.pack("<HdI", tagger.FORMAT_VERSION, l2_lambda, len(tagset))
    data += b"".join(map(pack_str, tagset)) + _template_list(templates)
    return data + struct.pack("<I", len(words)) + b"".join(
        pack_str(w) + struct.pack(f"<{1 + len(ix)}I", len(ix), *ix) for w, ix in words)


def _weight_table(block: bytes, values=(), count=None, size=None) -> bytes:
    """A weight table: the key count (by default one per value), the byte
    length of the key block (by default its own), the key block, and the
    values as f64s."""
    return (struct.pack("<II", len(values) if count is None else count,
                        len(block) if size is None else size)
            + block + struct.pack(f"<{len(values)}d", *values))


def _weight_block_bytes(table: bytes) -> bytes:
    """A model with a one-tag tagset and no dictionary, then the given weight table."""
    return _model_head(("A",)) + table


@pytest.mark.parametrize("table,message", [
    (_weight_table(b"", count=0xFFFFFFFF), "truncated"),
    (_weight_table(b"w:a:A\nw:b:A", (1.0, 2.0), size=40), "truncated"),
    (_weight_table(b"w:a:A\nw:", count=0, size=11), "truncated"),
    (_weight_table(b"w:a:A\nw:b:A", (1.0, 2.0))[:-1], "truncated"),
    (_weight_table(b"w:a:A", (1.0,), size=0xFFFFFFF0), "truncated"),
    (_weight_table(b"w:a:A\nw:\xff\xfe:A", (1.0, 2.0)), "weight key is not valid UTF-8"),
    (_weight_table(b"w:a:A\nw:b:A\nw:a:A", (1.0, 1.0, 2.0)),
     "repeats the weight key 'w:a:A'"),
    (_weight_table(b"w:a:A\nw:b:A\nw:c:A", (1.0, 2.0)),
     "counts 2 weight keys but its key block holds 3"),
    (_weight_table(b"w:a:A", (1.0, 2.0)), "counts 2 weight keys but its key block holds 1"),
    (_weight_table(b"w:a:A"), "counts 0 weight keys but its key block holds 1"),
], ids=["count-max", "prefix-past-end", "key-past-end", "value-past-end",
        "length-past-4GiB", "key-not-utf8", "repeated-key", "more-keys-than-values",
        "fewer-keys-than-values", "keys-without-values"])
def test_reject_malformed_weight_block(table, message):
    with pytest.raises(TaggerError, match=message):
        model_from_bytes(_weight_block_bytes(table))


def test_weight_count_past_the_data_is_rejected_before_the_walk():
    # The tail holds 100,000 empty keys and their values, one fewer than
    # the count says: the count is refused before the block is decoded.
    data = _weight_block_bytes(_weight_table(b"\n" * 99_999, (0.0,) * 100_000, count=100_001))
    tracemalloc.start()
    try:
        with pytest.raises(TaggerError, match="truncated"):
            model_from_bytes(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_weight_block_loads_in_file_order():
    table = _weight_table(b"w:b:A\nw:a:A\nw::A", (2.0, -1.0, 0.5))
    model = model_from_bytes(_weight_block_bytes(table))
    assert list(model.weights.items()) == [("w:b:A", 2.0), ("w:a:A", -1.0), ("w::A", 0.5)]


@pytest.mark.parametrize("keys", [
    ["", "w:a:A"], [""], ["w:\u2028:A", "w:\r:A", "w:\x0b:A"],
], ids=["empty-and-other", "one-empty", "other-line-separators"])
def test_weight_keys_round_trip_at_the_block_edges(keys):
    # one empty key joins to the same empty block as no keys: the count
    # tells them apart; only "\n" separates keys, not other line breaks
    model = TagModel(("A",), dict.fromkeys(keys, 1.5), {}, 0.1)
    data = model_to_bytes(model)
    assert model_from_bytes(data).weights == model.weights
    assert model_to_bytes(model_from_bytes(data)) == data


def test_shuffled_model_file_loads_as_the_sorted_one():
    # Load -> save reproduces every file save wrote; a file with its
    # dictionary words and weight records out of order loads as the same
    # model and saves in canonical order.
    words = [("x1", (0,)), ("x2", (1,)), ("आम", (0, 1))]
    weights = [("nw:</s>:A", 0.5), ("s1:म:B", 0.25), ("w:a:A", 1.0), ("w:b:B", -2.0)]

    def model_file(words, weights):
        keys, values = zip(*weights)
        return _model_head(("A", "B"), words) + _weight_table(
            "\n".join(keys).encode(), values)

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


SMALL_MODEL = dict(tagset=("A", "B"), weights={"w:a:A": 1.0}, dictionary={}, l2_lambda=0.1)


def _small_model_bytes(templates=tagger.TEMPLATES, **fields) -> bytes:
    """The bytes of a small valid model with the given fields replaced,
    written by hand in canonical order and without the checks of
    model_to_bytes; `templates` replaces the file's template list, which
    no model holds."""
    model = {**SMALL_MODEL, **fields}
    tagset = model["tagset"]
    words = [(w, sorted(map(tagset.index, tags)))
             for w, tags in sorted(model["dictionary"].items())]
    keys = sorted(model["weights"])
    return _model_head(tagset, words, model["l2_lambda"], templates) + _weight_table(
        "\n".join(keys).encode(), [model["weights"][k] for k in keys])


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
    data = _small_model_bytes(**fields)
    with pytest.raises(TaggerError, match=message):
        model_from_bytes(data)


@pytest.mark.parametrize("fields,message", [
    ({"tagset": ()}, "empty tagset"),
    ({"tagset": ("A", "A")}, "repeats a tag"),
    ({"tagset": ("A", "B:A")}, "contain ':'"),
    ({"l2_lambda": math.nan}, "l2_lambda is not finite"),
    ({"l2_lambda": math.inf}, "l2_lambda is not finite"),
    ({"weights": {"w:a:A": math.nan}}, "weights are not finite"),
    ({"weights": {"w:a:A": 1.0, "w:b:B": -math.inf}}, "weights are not finite"),
    ({"dictionary": {"x1": frozenset({"A", "C"})}}, "tag 'C' of 'x1' is not in the tagset"),
    ({"dictionary": {"x1": frozenset()}}, "lists no tag for 'x1'"),
    ({"weights": {"w:a:A": 1.0, "w:a\nb:A": 2.0}}, r"weight key 'w:a\\nb:A' holds a newline"),
    ({"weights": {"w:\ud800:A": 1.0}}, r"weight key 'w:\\ud800:A' holds a lone surrogate"),
    ({"dictionary": {"x\udcff": frozenset({"A"})}},
     r"dictionary word 'x\\udcff' holds a lone surrogate"),
    ({"tagset": ("A", "B\udfff")}, r"tag 'B\\udfff' holds a lone surrogate"),
], ids=["empty-tagset", "repeated-tag", "colon-tag", "lambda-nan", "lambda-inf",
        "weight-nan", "weight-inf", "dictionary-tag-outside-tagset", "dictionary-no-tag",
        "newline-key", "surrogate-weight-key", "surrogate-dictionary-word", "surrogate-tag"])
def test_save_refuses_a_model_that_load_refuses(tmp_path, fields, message):
    path = tmp_path / "bad.tag"
    with pytest.raises(TaggerError, match=message):
        tagger.save_model(TagModel(**{**SMALL_MODEL, **fields}), path)
    assert not list(tmp_path.iterdir())


def _tables_from_weights(model):
    """The decode tables of `model`, read key by key from its weights."""
    features = {key.rpartition(":")[0] for key in model.weights
                if key.rpartition(":")[2] in model.tagset}
    rows = {f: [model.weights.get(f"{f}:{t}", 0.0) for t in model.tagset] for f in features}
    zero = [0.0] * len(model.tagset)
    return (rows, zero,
            [rows.get(f"pt:{t}", zero) for t in (*model.tagset, tagger.BOUNDARY_TAG)],
            rows.get(f"pw:{tagger.BOUNDARY_WORD}", zero),
            rows.get(f"nw:{tagger.BOUNDARY_WORD_END}", zero))


def test_every_model_is_ready_to_decode(tag_model):
    # A trained, a loaded and a hand-built model each hold their decode
    # tables before the first decode; a key whose tag is outside the
    # tagset is skipped.
    stray = TagModel(tag_model.tagset, {**tag_model.weights, "w:x:ZZ": 5.0},
                     tag_model.dictionary, tag_model.l2_lambda)
    loaded = model_from_bytes(model_to_bytes(stray))
    trained = train(TaggedCorpus.parse("a/X b/Y\nb/Y a/X\n"), TrainConfig(epochs=2))
    by_hand = TagModel(("A", "B"), {"w:a:A": 1.5, "pt:A:B": -2.0, "w:b:C": 3.0}, {}, 0.1)
    for model in (stray, loaded, trained, by_hand):
        assert model._entries == {}
        assert model._rows == _tables_from_weights(model)
    assert "w:x" not in loaded._rows[0]
    assert by_hand._rows[0] == {"w:a": [1.5, 0.0], "pt:A": [0.0, -2.0]}
    assert by_hand._rows[2] == [[0.0, -2.0], [0.0, 0.0], [0.0, 0.0]]


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


@pytest.mark.parametrize("indices,message", [
    ((), "lists no tag for 'x1'"),
    ((1, 1), "repeats a tag index for 'x1'"),
], ids=["no-tags", "repeated-index"])
def test_reject_malformed_dictionary_entry(indices, message):
    # the trainer writes each word's tag indices once each, and at least one
    data = _small_model_bytes(dictionary={"x1": frozenset({"A", "B"})})
    entry = pack_str("x1") + struct.pack("<3I", 2, 0, 1)
    assert data.count(entry) == 1
    bad = pack_str("x1") + struct.pack(f"<{1 + len(indices)}I", len(indices), *indices)
    with pytest.raises(TaggerError, match=message):
        model_from_bytes(data.replace(entry, bad))


def test_reject_dictionary_index_out_of_range():
    data = tagger.MAGIC + struct.pack("<H", tagger.FORMAT_VERSION) + struct.pack("<d", 0.1)
    data += struct.pack("<I", 1) + struct.pack("<I", 1) + b"X"  # tagset ("X",)
    data += struct.pack("<I", 0)  # no templates
    data += struct.pack("<I", 1)  # one dictionary word
    data += struct.pack("<I", 1) + b"a"
    data += struct.pack("<I", 1) + struct.pack("<I", 7)  # index 7 > 0
    data += struct.pack("<II", 0, 0)  # no weight keys, an empty key block
    with pytest.raises(TaggerError, match="out of range"):
        model_from_bytes(data)
