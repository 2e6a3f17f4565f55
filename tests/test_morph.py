import copy
import importlib
import itertools
import pickle
from pathlib import Path

import pytest

from hindimorph import fst, morph, rules
from hindimorph.fst import SymbolTable
from hindimorph.morph import Analysis, MalformedAnalysis, MorphError, MorphModel

import oracle


# The inflection rows the bundled grammar must reproduce, surface first.
NOUN_GOLDENS = [
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
]

DERIVED_GOLDENS = [
    (w, [f"{w}<Noun><Masculine><sg>"])
    for w in ["शर्म", "बेशर्म", "मीठा", "मिठाई",
              "कमीना", "कमीनापन", "पवित्र", "पवित्रता"]
]

VERB_GOLDENS = [
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


@pytest.mark.parametrize("surface,expected",
                         NOUN_GOLDENS + DERIVED_GOLDENS + VERB_GOLDENS)
def test_golden_analyses(morph_model, surface, expected):
    got = [a.render() for a in morph.analyze(morph_model, surface)]
    assert got == expected


def test_vocative_among_plural_analyses(morph_model):
    got = [a.render() for a in morph.analyze(morph_model, "लडके")]
    assert "लडका<Noun><Vocative>" in got
    assert "लडका<Noun><masculine><pl>" in got


def test_unknown_word_is_soft_miss(morph_model):
    # a rejected and an out-of-alphabet word, twice each
    for _ in range(2):
        assert morph.analyze(morph_model, "घरों") == []
        assert morph.analyze(morph_model, "xyz") == []
    # an unclosed "<" cannot be scanned; it is a miss, not an error
    for word in ("लड<", "<", "लड<Noun"):
        assert morph.analyze(morph_model, word) == []
    # a surface word is plain text: "<>" is not an epsilon in it, nor is
    # a "<...>" span a tag, though "लडके" itself has two analyses
    for word in ("लड<>के", "<>लडके", "लडके<>", "लडके<Noun>"):
        assert morph.analyze(morph_model, word) == []


def test_analysis_objects_carry_structure(morph_model):
    (a,) = morph.analyze(morph_model, "मालन")
    assert a.root == "माली"
    assert a.tags == ("Noun", "feminine", "sg")
    assert str(a) == "माली<Noun><feminine><sg>"


def test_analyze_is_nfc_insensitive(morph_model):
    decomposed = "\u092a\u0922\u093c\u0940"   # प + ढ + nukta + ी
    composed = "\u092a\u095d\u0940"           # प + precomposed ढ़ + ी
    assert decomposed != composed
    results = {tuple(a.render() for a in morph.analyze(morph_model, w))
               for w in (decomposed, composed, decomposed)}
    assert results == {("पढ़<Verb><Indicative><Feminine>",)}


def test_repeated_calls_are_deterministic(morph_model):
    first = morph.analyze(morph_model, "जाते")
    second = morph.analyze(morph_model, "जाते")
    assert first == second
    # each call returns a list of its own, so a caller's edit stays its own
    assert first is not second
    expected = list(first)
    first.clear()
    assert morph.analyze(morph_model, "जाते") == expected


def test_epsilon_cycle_raises_on_every_call():
    # an output-epsilon cycle that writes "a" after the surface "b"
    table = SymbolTable("ab")
    a, b = table.id_of("a"), table.id_of("b")
    grammar = fst.build(3, 0, (0, 2),
                        [(0, b, b, 1), (1, a, fst.EPSILON, 2), (2, a, fst.EPSILON, 1)],
                        table)
    model = MorphModel(grammar)
    for _ in range(2):
        with pytest.raises(fst.EpsilonCycle):
            morph.analyze(model, "b")


def test_analyze_reads_the_grammar_through_fst_apply(grammar, monkeypatch):
    # What a tracer that wraps the module attribute fst.apply relies on:
    # one call per grammar lookup, a repeated word's included, and an
    # out-of-alphabet word told apart by the UnknownSymbol that the call
    # raises.
    calls = []
    apply = fst.apply

    def counting(*args, **kwargs):
        try:
            result = apply(*args, **kwargs)
        except fst.FstError as exc:
            calls.append((*args, type(exc)))
            raise
        calls.append((*args, None))
        return result

    monkeypatch.setattr(fst, "apply", counting)
    model = MorphModel(grammar, {"अरे": [Analysis("अरे", ("Particle",))]})
    for _ in range(2):  # analyze keeps no memo: the second round calls again
        calls.clear()
        assert len(morph.analyze(model, "लडके")) == 2
        assert morph.analyze(model, "लडक") == []  # rejected: every letter is in the alphabet
        assert morph.analyze(model, "घरों") == []  # "ों" is not
        assert calls == [(grammar, "लडके", "output", None), (grammar, "लडक", "output", None),
                         (grammar, "घरों", "output", fst.UnknownSymbol)]
    # an indeclinable hit and words holding "<" make no call
    calls.clear()
    for word in ("अरे", "लडके<Noun>", "लड<"):
        morph.analyze(model, word)
    assert calls == []


def test_malformed_form_written_by_the_grammar_names_the_surface_word():
    # the grammar writes "ab", which has no tag, for the surface word "ab"
    grammar = rules.compile(rules.parse_rules("ab | c <N>:<>\n"), SymbolTable())
    model = MorphModel(grammar)
    assert morph.analyze(model, "c") == [Analysis("c", ("N",))]
    message = ("grammar wrote a lexical form for surface word 'ab' that is "
               "not a root<Tag>... analysis: 'ab'")
    for _ in range(2):  # every call raises
        with pytest.raises(MalformedAnalysis) as exc:
            morph.analyze(model, "ab")
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# generation


@pytest.mark.parametrize("surface,analyses",
                         NOUN_GOLDENS + DERIVED_GOLDENS + VERB_GOLDENS)
def test_generate_inverts_goldens(morph_model, surface, analyses):
    for lexical in analyses:
        assert surface in morph.generate(morph_model, lexical)


def test_generate_unknown_lexical_is_soft_miss(morph_model):
    assert morph.generate(morph_model, "घर<Noun><sg>") == []


def test_generate_rejects_malformed(morph_model):
    with pytest.raises(MalformedAnalysis):
        morph.generate(morph_model, "<Noun>")
    with pytest.raises(MalformedAnalysis):
        morph.generate(morph_model, "लडका")
    with pytest.raises(MalformedAnalysis):
        morph.generate(morph_model, "कहानी<Noun><masculine><pl>\n")


def test_duality_exhaustive(morph_model):
    g = morph_model.grammar
    pairs = oracle.full_relation(g)
    assert pairs, "demo grammar relation must not be empty"
    by_lex: dict[str, set[str]] = {}
    by_surf: dict[str, set[str]] = {}
    for lex, surf in pairs:
        by_lex.setdefault(lex, set()).add(surf)
        by_surf.setdefault(surf, set()).add(lex)
    # analysis sets and generation sets must match the relation exactly
    for lex, surfaces in by_lex.items():
        assert set(morph.generate(morph_model, lex)) == surfaces
    for surf, lexicals in by_surf.items():
        got = {a.render() for a in morph.analyze(morph_model, surf)}
        assert got == lexicals


def test_duality_on_synthetic_grammar(tmp_path, monkeypatch):
    # the benchmark's seeded 1k-stem grammar, imported as it stands; its
    # generator tabulates every surface and lexical form the rules derive
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    synth = importlib.import_module("synth")
    spec = synth.generate_grammar(1, 1000, 120)
    rules_path = spec.write(tmp_path)
    fst.save(rules.compile_file(rules_path, SymbolTable()), tmp_path / "synth.fst")
    model = MorphModel.load(tmp_path / "synth.fst", tmp_path / "indeclinables.tsv")
    by_analysis: dict[str, list[str]] = {}
    for word, analysis in spec.indeclinables.items():
        by_analysis.setdefault(analysis, []).append(word)
    # the dictionary shadows the grammar in both directions
    analyses = {**spec.analyses, **{w: (a,) for w, a in spec.indeclinables.items()}}
    surfaces = {**spec.surfaces, **by_analysis}
    assert len(spec.analyses) > 2000 and len(spec.surfaces) > 2500
    for surface, expected in analyses.items():
        got = morph.analyze(model, surface)
        assert got == sorted(got, key=Analysis.render), surface
        assert [a.render() for a in got] == sorted(expected), surface
    for lexical, expected in surfaces.items():
        got = morph.generate(model, lexical)
        assert got == sorted(got) == sorted(expected), lexical


# ---------------------------------------------------------------------------
# indeclinables


def test_indeclinables_bypass_grammar(morph_model):
    got = [a.render() for a in morph.analyze(morph_model, "अतःकरण")]
    assert got == ["अतःकरण<Noun><Masculine><sg>"]
    assert morph.generate(morph_model, "अरे<Particle>") == ["अरे"]


def test_indeclinable_shadows_conflicting_rule(tmp_path):
    # a grammar that would analyze "घर" one way, shadowed by the dictionary
    syms = SymbolTable()
    t = rules.compile(rules.parse_rules("घ र <Noun>:<>"), syms)
    indecl_file = tmp_path / "ind.tsv"
    indecl_file.write_text("घर\tघर<Frozen>\n", encoding="utf-8")
    model = MorphModel(t, morph.load_indeclinables(indecl_file))
    assert [a.render() for a in morph.analyze(model, "घर")] == ["घर<Frozen>"]
    assert morph.generate(model, "घर<Frozen>") == ["घर"]
    # the grammar analysis is hidden, not merely appended
    assert "घर<Noun>" not in [a.render() for a in morph.analyze(model, "घर")]


def test_indeclinables_accumulate_analyses(tmp_path):
    f = tmp_path / "ind.tsv"
    f.write_text("तो\tतो<Particle>\nतो\tतो<Emphatic>\n", encoding="utf-8")
    loaded = morph.load_indeclinables(f)
    assert [a.render() for a in loaded["तो"]] == ["तो<Particle>", "तो<Emphatic>"]
    # the model answers in rendered order, and a caller's edit stays its own
    model = MorphModel(fst.empty(SymbolTable()), loaded)
    got = morph.analyze(model, "तो")
    assert [a.render() for a in got] == ["तो<Emphatic>", "तो<Particle>"]
    got.clear()
    assert len(morph.analyze(model, "तो")) == 2


def test_repeated_indeclinable_record_loads(tmp_path):
    f = tmp_path / "ind.tsv"
    f.write_text("तो\tतो<Particle>\nतो\tतो<Particle>\n", encoding="utf-8")
    model = MorphModel(fst.empty(SymbolTable()), morph.load_indeclinables(f))
    # the repeat answers once in each direction
    assert [a.render() for a in morph.analyze(model, "तो")] == ["तो<Particle>"]
    assert morph.generate(model, "तो<Particle>") == ["तो"]


def test_indeclinables_drop_a_bom(tmp_path):
    plain = tmp_path / "plain.tsv"
    plain.write_text("तो\tतो<Particle>\n", encoding="utf-8")
    marked = tmp_path / "marked.tsv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert morph.load_indeclinables(marked) == morph.load_indeclinables(plain)
    assert list(morph.load_indeclinables(marked)) == ["तो"]


def test_indeclinables_reject_invalid_utf8(tmp_path):
    f = tmp_path / "bad.tsv"
    f.write_bytes("तो\tतो<Particle>\n".encode("utf-8") + b"a\x80\tb<X>\n")
    with pytest.raises(MorphError, match=r"bad\.tsv: invalid UTF-8 at byte 25"):
        morph.load_indeclinables(f)


@pytest.mark.parametrize("record", ["w\tअ\tरे<Particle>", "w\t\tअरे<Particle>",
                                    "w\tअरे<Particle>\t"])
def test_indeclinable_record_with_a_second_tab(tmp_path, record):
    # split at the first TAB only, the first record loaded with a TAB in its root
    f = tmp_path / "bad.tsv"
    f.write_text(f"तो\tतो<Particle>\n{record}\n", encoding="utf-8")
    with pytest.raises(MalformedAnalysis, match=r"^bad\.tsv:2: expected word<TAB>analysis$"):
        morph.load_indeclinables(f)


def test_indeclinable_file_errors(tmp_path):
    for body in ("अरे\n", "अरे\t\n", "अरे\tअरे\n", "\tअरे<P>\n"):
        f = tmp_path / "bad.tsv"
        f.write_text(body, encoding="utf-8")
        with pytest.raises(MalformedAnalysis):
            morph.load_indeclinables(f)


# ---------------------------------------------------------------------------
# Analysis parsing


def test_analysis_parse_round_trip():
    a = Analysis.parse("जा<Verb><present>")
    assert a == Analysis("जा", ("Verb", "present"))
    assert Analysis.parse(a.render()) == a


@pytest.mark.parametrize("bad", ["", "जा", "<Verb>", "जा<>", "जा<a><", "जा<a>x", "जा<a>\n"])
def test_analysis_parse_rejects(bad):
    with pytest.raises(MalformedAnalysis):
        Analysis.parse(bad)


def test_analysis_parse_accepts_what_the_reference_accepts():
    # every string of up to 7 symbols over these four: 21,845 texts
    accepted = 0
    for n in range(8):
        for chars in itertools.product(("a", "<", ">", "\n"), repeat=n):
            text = "".join(chars)
            want = oracle.parse_analysis_reference(text)
            try:
                got = Analysis.parse(text)
            except MalformedAnalysis as exc:
                assert want is None, text
                assert str(exc) == f"not a root<Tag>... analysis: {text!r}"
                continue
            assert (got.root, got.tags) == want, text
            assert got == Analysis(*want) and got.render() == text
            accepted += 1
    assert accepted == 204  # a root, then tags, over {"a", "\n"} in up to 7 symbols


def test_analysis_is_an_immutable_value():
    a = Analysis.parse("जा<Verb><present>")
    b = Analysis("जा", ["Verb", "present"])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert b.tags == ("Verb", "present") and b.render() == str(b) == "जा<Verb><present>"
    assert a != Analysis("जा", ("Verb",)) and a != Analysis("जाना", ("Verb", "present"))
    # a value of its own kind: neither its fields as a tuple nor its text
    assert a != ("जा", ("Verb", "present")) and a != "जा<Verb><present>"
    assert repr(a) == "Analysis(root='जा', tags=('Verb', 'present'))"
    for name in ("root", "tags", "_text", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, "x")
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.render() == "जा<Verb><present>"
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and twin.render() == a.render()


def test_analysis_fields_obey_the_parse_rule():
    # two analyses that render alike: only the second one is well-formed
    with pytest.raises(MalformedAnalysis):
        Analysis("a", ("b><c",))
    assert Analysis.parse(Analysis("a", ("b", "c")).render()) == Analysis("a", ("b", "c"))
    # every root and up to two tags over these three: the constructor
    # accepts exactly the fields that parse reads back from their text
    parts = ["", *map("".join, itertools.product("a<>", repeat=1)),
             *map("".join, itertools.product("a<>", repeat=2))]
    accepted = 0
    for root in parts:
        for n in range(3):
            for tags in itertools.product(parts, repeat=n):
                text = root + "".join(f"<{t}>" for t in tags)
                try:
                    read = Analysis.parse(text)
                except MalformedAnalysis:
                    read = None
                if read is not None and (read.root, read.tags) == (root, tags):
                    assert Analysis(root, tags).render() == text
                    accepted += 1
                else:
                    with pytest.raises(MalformedAnalysis):
                        Analysis(root, tags)
    assert accepted == 12  # root "a" or "aa"; one or two tags, each "a" or "aa"


def test_analyses_that_render_alike_answer_once():
    # "ab" is one symbol besides "a" and "b", so the grammar writes the
    # lexical form ab<T> of the surface "s" along two paths
    table = SymbolTable(["s", "ab", "a", "b", "<T>"])
    s, ab, a, b, t = (table.id_of(x) for x in ("s", "ab", "a", "b", "<T>"))
    grammar = fst.build(5, 0, (4,), [(0, ab, s, 3), (0, a, s, 1), (1, b, fst.EPSILON, 3),
                                     (3, t, fst.EPSILON, 4)], table)
    assert len(fst.lookup(grammar, [s], "output")) == 2
    model = MorphModel(grammar)
    assert morph.analyze(model, "s") == [Analysis("ab", ("T",))]
    assert morph.generate(model, "ab<T>") == ["s"]


def test_model_load_from_files(tmp_path, grammar):
    from hindimorph import data_path
    path = tmp_path / "g.fst"
    fst.save(grammar, path)
    model = MorphModel.load(path, data_path("indeclinables.tsv"))
    assert [a.render() for a in morph.analyze(model, "मालन")] == ["माली<Noun><feminine><sg>"]
    assert [a.render() for a in morph.analyze(model, "अरे")] == ["अरे<Particle>"]
