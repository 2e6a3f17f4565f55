"""End-to-end checks of the package's headline guarantees.

One test per guarantee; run with ``pytest -v tests/test_acceptance.py``
for a pass/fail line each.  Tolerances and budgets are stated inline.
"""

import math
import random
import time

from hindimorph import data_path, fst, morph, rules, tagger
from hindimorph.fst import EPSILON, SymbolTable

import oracle

# Every analysis row the bundled demo grammar must reproduce verbatim,
# surface form first, analyses in output order.
GOLDEN_ANALYSES = [
    # noun inflections
    ("लडका", ["लडका<Noun><masculine><sg>"]),
    ("लडकी", ["लडकी<Noun><feminine><sg>"]),
    ("माली", ["माली<Noun><masculine><sg>"]),
    ("मालन", ["माली<Noun><feminine><sg>"]),
    ("कहानी", ["कहानी<Noun><masculine><sg>"]),
    ("कहानियाँ", ["कहानी<Noun><masculine><pl>"]),
    ("मेज़", ["मेज़<Noun><Masculine><sg>"]),
    ("मेज़े", ["मेज़<Noun><Masculine><pl>"]),
    ("शेर", ["शेर<Noun><Masculine><sg>"]),
    ("शेरनी", ["शेर<Noun><feminine><sg>"]),
    # noun derivations
    ("शर्म", ["शर्म<Noun><Masculine><sg>"]),
    ("बेशर्म", ["बेशर्म<Noun><Masculine><sg>"]),
    ("मीठा", ["मीठा<Noun><Masculine><sg>"]),
    ("मिठाई", ["मिठाई<Noun><Masculine><sg>"]),
    ("कमीना", ["कमीना<Noun><Masculine><sg>"]),
    ("कमीनापन", ["कमीनापन<Noun><Masculine><sg>"]),
    ("पवित्र", ["पवित्र<Noun><Masculine><sg>"]),
    ("पवित्रता", ["पवित्रता<Noun><Masculine><sg>"]),
    # verb inflections, including multi-analysis surfaces
    ("जा रहा", ["जा<Verb><Indicative><Masculine><Progressive><sg>"]),
    ("जा रहे", ["जा<Verb><Indicative><Masculine><Progressive><pl>"]),
    ("पढ़", ["पढ़<Verb><Indicative><Masculine>"]),
    ("पढ़ी", ["पढ़<Verb><Indicative><Feminine>"]),
    ("जा", ["जा<Verb><Imprative><Intimate>", "जा<Verb><present>"]),
    ("जाते", ["जा<Verb><Dative>",
              "जा<Verb><Indicative><Masculine><Perfectiv><sg>",
              "जा<Verb><Transitive>"]),
    ("करता", ["कर<Verb><Indicative><Masculine><Habitual><sg>"]),
    ("करते", ["कर<Verb><Indicative><Masculine><Habitual><pl>"]),
]

GOLDEN_TAGGINGS = [
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

TRIALS = 200


def test_golden_morphology_suite_under_one_second():
    started = time.perf_counter()
    grammar = rules.compile_file(data_path("rules", "hindi.mrl"), SymbolTable())
    model = morph.MorphModel(grammar=grammar)
    for surface, expected in GOLDEN_ANALYSES:
        got = [a.render() for a in morph.analyze(model, surface)]
        assert got == expected, surface
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden morphology took {elapsed:.2f}s"


def test_fst_algebra_against_brute_force_oracle():
    started = time.perf_counter()
    table = oracle.make_table()

    rng = random.Random(201)
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        b = oracle.rand_acyclic(rng, table)
        got = set(fst.enumerate_pairs(fst.union(a, b), 6))
        assert got == oracle.union_sets(oracle.full_relation(a),
                                        oracle.full_relation(b))

    rng = random.Random(202)
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table, max_states=4)
        b = oracle.rand_acyclic(rng, table, max_states=4)
        got = set(fst.enumerate_pairs(fst.concat(a, b), 8))
        assert got == oracle.concat_sets(oracle.full_relation(a),
                                         oracle.full_relation(b))

    rng = random.Random(203)
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table, max_states=3)
        rel = oracle.full_relation(a)
        star = fst.closure(a, "star")
        # enumerator against the naive path walker on the same machine,
        # then the construction against the set-theoretic closure
        assert set(fst.enumerate_pairs(star, 7)) == oracle.path_pairs(star, 7)
        assert oracle.relation_upto(star, 4) == oracle.star_upto(rel, 4)

    rng = random.Random(204)
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        b = oracle.rand_acyclic(rng, table)
        got = set(fst.enumerate_pairs(fst.compose(a, b), 8))
        assert got == oracle.compose_sets(oracle.full_relation(a),
                                          oracle.full_relation(b))

    rng = random.Random(205)
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        got = set(fst.enumerate_pairs(fst.invert(a), 6))
        assert got == oracle.invert_sets(oracle.full_relation(a))

    rng = random.Random(206)
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        rel = oracle.full_relation(a)
        for side in ("input", "output"):
            got = set(fst.enumerate_pairs(fst.project(a, side), 6))
            assert got == oracle.project_sets(rel, side)

    rng = random.Random(207)
    for _ in range(TRIALS):
        a = oracle.rand_machine(rng, table)
        slim = fst.remove_epsilons(a)
        assert all(not (arc.ilab == EPSILON and arc.olab == EPSILON)
                   for arc in slim.arcs)
        assert oracle.relation_upto(slim, 5) == oracle.relation_upto(a, 5)

    rng = random.Random(208)
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        det = fst.determinize(fst.remove_epsilons(a))
        assert set(fst.enumerate_pairs(det, 8)) == oracle.full_relation(a)

    rng = random.Random(209)
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        mini = fst.minimize(fst.determinize(fst.remove_epsilons(a)))
        assert set(fst.enumerate_pairs(mini, 8)) == oracle.full_relation(a)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle suite took {elapsed:.2f}s"


def test_determinize_and_minimize_normalization_contracts():
    table = oracle.make_table()
    rng = random.Random(210)
    for trial in range(TRIALS):
        make = oracle.rand_machine if trial % 2 else oracle.rand_acyclic
        a = make(rng, table)
        det = fst.determinize(fst.remove_epsilons(a))
        seen = set()
        for arc in det.arcs:
            key = (arc.src, arc.ilab, arc.olab)
            assert key not in seen, "label fan-out above 1 after determinize"
            seen.add(key)
        mini = fst.minimize(det)
        assert mini.state_count <= det.state_count
        assert fst.minimize(mini).state_count == mini.state_count


def test_analysis_generation_duality_is_exhaustive(morph_model):
    pairs = oracle.full_relation(morph_model.grammar)
    assert pairs
    by_lex: dict[str, set[str]] = {}
    by_surf: dict[str, set[str]] = {}
    for lex, surf in pairs:
        by_lex.setdefault(lex, set()).add(surf)
        by_surf.setdefault(surf, set()).add(lex)
    violations = []
    for lex, surfaces in by_lex.items():
        if set(morph.generate(morph_model, lex)) != surfaces:
            violations.append(("generate", lex))
    for surf, lexicals in by_surf.items():
        got = {a.render() for a in morph.analyze(morph_model, surf)}
        if got != lexicals:
            violations.append(("analyze", surf))
    assert violations == []


def test_tagger_golden_suite(mini_corpus, tag_model, morph_model):
    # the bundled corpus is large enough and contains the golden contexts
    assert len(mini_corpus.sentences) >= 50
    for _, expected in GOLDEN_TAGGINGS:
        assert expected in mini_corpus.sentences

    # ambiguous surfaces resolve by context, exactly
    for sentence, expected in GOLDEN_TAGGINGS:
        assert tagger.tag(tag_model, morph_model, sentence) == expected

    # retagging the training corpus stays above 95%
    result = tagger.evaluate(tag_model, morph_model, mini_corpus)
    assert result.overall_acc >= 0.95

    # per-context probabilities normalize within 1e-9
    contexts = []
    for sentence, _ in GOLDEN_TAGGINGS:
        tokens = tagger.tokenize_sentence(sentence)
        for i in range(len(tokens)):
            contexts.append(tagger.extract_features(tokens, i, "N_NN"))
    rng = random.Random(2024)
    for _ in range(100):
        sent = rng.choice(mini_corpus.sentences)
        tokens = [s for s, _ in sent]
        i = rng.randrange(len(tokens))
        contexts.append(tagger.extract_features(tokens, i, rng.choice(tag_model.tagset)))
    for feats in contexts:
        rows = [[tag_model.weights.get(f"{f}:{t}", 0.0) for t in tag_model.tagset]
                for f in feats]
        total = sum(map(math.exp, tagger._row_log_probs(rows)))
        assert abs(total - 1.0) <= 1e-9

    # analytic gradient matches central finite differences within 1e-4
    positions = oracle._positions(mini_corpus)
    tagset = tag_model.tagset
    lam = tag_model.l2_lambda
    weights = tag_model.weights
    grad = oracle.gradient(weights, positions, tagset, lam)
    h = 1e-5
    for key in random.Random(31).sample(sorted(grad), 25):
        hi = dict(weights)
        hi[key] = hi.get(key, 0.0) + h
        lo = dict(weights)
        lo[key] = lo.get(key, 0.0) - h
        fd = (oracle.objective(hi, positions, tagset, lam)
              - oracle.objective(lo, positions, tagset, lam)) / (2 * h)
        scale = max(abs(fd), abs(grad[key]), 1e-8)
        assert abs(fd - grad[key]) / scale <= 1e-4, key


def test_analysis_ignores_unicode_composition_differences(morph_model):
    spellings = {
        # (decomposed, with precomposed nukta consonant)
        "पढ़ी": ("पढ़ी", "पढ़ी"),
        "मेज़": ("मेज़", "मेज़"),
    }
    for decomposed, composed in spellings.values():
        assert decomposed != composed
        results = {tuple(a.render() for a in morph.analyze(morph_model, w))
                   for w in (decomposed, composed)}
        assert len(results) == 1
        assert results != {()}


def test_serialization_round_trips_bit_exactly(tmp_path, grammar, tag_model,
                                               morph_model):
    fst_bytes = fst.to_bytes(grammar)
    reloaded_fst = fst.from_bytes(fst_bytes)
    assert fst.to_bytes(reloaded_fst) == fst_bytes

    tag_bytes = tagger.model_to_bytes(tag_model)
    reloaded_tag = tagger.model_from_bytes(tag_bytes)
    assert tagger.model_to_bytes(reloaded_tag) == tag_bytes

    # the same holds through the filesystem
    fst_path = tmp_path / "demo.fst"
    fst_path.write_bytes(fst_bytes)
    assert fst.to_bytes(fst.from_bytes(fst_path.read_bytes())) == fst_bytes

    # tagging output after reload is byte-identical
    reloaded_model = morph.MorphModel(grammar=reloaded_fst,
                                      indeclinables=morph_model.indeclinables)
    for sentence, _ in GOLDEN_TAGGINGS:
        before = " ".join(f"{w}/{t}" for w, t in
                          tagger.tag(tag_model, morph_model, sentence))
        after = " ".join(f"{w}/{t}" for w, t in
                         tagger.tag(reloaded_tag, reloaded_model, sentence))
        assert before.encode("utf-8") == after.encode("utf-8")
    for surface, _ in GOLDEN_ANALYSES:
        before = [a.render() for a in morph.analyze(morph_model, surface)]
        after = [a.render() for a in morph.analyze(reloaded_model, surface)]
        assert before == after
