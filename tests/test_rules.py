import hashlib
import random

import pytest

from hindimorph import fst, rules
from hindimorph.fst import SymbolTable
from hindimorph.rules import (
    CharClass,
    Compose,
    Concat,
    EmptyRuleFile,
    Include,
    IncludeNotFound,
    Literal,
    Opt,
    Pair,
    Plus,
    RuleSyntaxError,
    Star,
    UndefinedVariable,
    Union,
    VarRef,
    parse_rules,
    render_rules,
)

import oracle


def rel(text, lexdir=None, base_dir=None):
    """Compile rule text and return its full relation as a set."""
    t = rules.compile(parse_rules(text, base_dir=base_dir), SymbolTable(), lexdir=lexdir)
    return oracle.full_relation(t)


# ---------------------------------------------------------------------------
# parsing


def test_pair_atom():
    rf = parse_rules("a:b")
    assert rf.result == Pair("a", "b")
    assert rf.definitions == ()


def test_grammar_exercise_from_variables():
    rf = parse_rules("$V$ = a | i ;\n$V$ $V$*")
    assert rf.definitions == (("V", Union((Literal("a"), Literal("i")))),)
    assert rf.result == Concat((VarRef("V"), Star(VarRef("V"))))


def test_precedence_compose_weakest_then_union_then_concat_then_postfix():
    rf = parse_rules("a b | c d* || e")
    assert rf.result == Compose(
        Union((Concat((Literal("a"), Literal("b"))),
               Concat((Literal("c"), Star(Literal("d")))))),
        Literal("e"))


def test_juxtaposed_devanagari_scalars_concatenate():
    rf = parse_rules("लडक")
    assert rf.result == Concat((Literal("ल"), Literal("ड"), Literal("क")))


def test_tags_and_epsilon():
    rf = parse_rules("<Noun>:<> <>:े")
    assert rf.result == Concat((Pair("<Noun>", "<>"), Pair("<>", "े")))


def test_epsilon_to_epsilon_is_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rules("<>:<>")


def test_char_class():
    rf = parse_rules("[कखग]")
    assert rf.result == CharClass(("क", "ख", "ग"))


def test_char_class_sorted_and_deduplicated():
    assert parse_rules("[cba]").result == parse_rules("[abcb]").result


def test_escaped_space_is_a_symbol():
    rf = parse_rules(r"<>:\ ")
    assert rf.result == Pair("<>", " ")


def test_escaped_specials():
    rf = parse_rules(r"\| \*")
    assert rf.result == Concat((Literal("|"), Literal("*")))


def test_comments_and_blank_lines_are_skipped():
    rf = parse_rules("% heading\n\n  % more\na:b\n")
    assert rf.result == Pair("a", "b")


def test_newlines_inside_parens_do_not_end_statements():
    rf = parse_rules("( a\n | b\n )")
    assert rf.result == Union((Literal("a"), Literal("b")))


def test_newline_at_depth_zero_ends_a_definition():
    # the continuation line becomes its own (discarded) statement
    rf = parse_rules("$X$ = a\n( b | c )\nx")
    assert dict(rf.definitions)["X"] == Literal("a")
    assert rf.result == Literal("x")


def test_last_expression_wins():
    rf = parse_rules("a:b\nc:d\n")
    assert rf.result == Pair("c", "d")


def test_semicolon_is_optional():
    assert parse_rules("$A$ = x ;\n$A$").result == parse_rules("$A$ = x\n$A$").result


def test_include_atom():
    rf = parse_rules('#include "roots.lex"')
    assert rf.result == Include("roots.lex")


def test_undefined_variable():
    with pytest.raises(UndefinedVariable) as exc:
        parse_rules("$Missing$")
    assert exc.value.name == "Missing"


def test_no_forward_references():
    with pytest.raises(UndefinedVariable):
        parse_rules("$A$ = $B$\n$B$ = x\n$A$")


def test_redefinition_is_an_error():
    with pytest.raises(RuleSyntaxError):
        parse_rules("$A$ = x\n$A$ = y\n$A$")


def test_empty_file_is_an_error():
    for text in ("", "% only comments\n", "$A$ = x\n"):
        with pytest.raises(EmptyRuleFile):
            parse_rules(text)


def test_syntax_error_carries_position():
    with pytest.raises(RuleSyntaxError) as exc:
        parse_rules("a  )")
    assert exc.value.line == 1
    assert exc.value.col > 1


def test_unbalanced_paren_reported():
    with pytest.raises(RuleSyntaxError):
        parse_rules("( a | b")


def test_rule_text_is_nfc_normalized():
    # precomposed ढ़ (U+095D) and decomposed ढ + nukta parse identically
    pre = parse_rules("पढ़")
    dec = parse_rules("पढ़")
    assert pre.result == dec.result


# ---------------------------------------------------------------------------
# pretty-printing: parse . render . parse is a fixpoint


SAMPLES = [
    "a:b",
    "a b c",
    "a | b c | d*",
    "( a | b ) ?",
    "x+ y? ( z | w )*",
    "[abc] [xy]*",
    "$V$ = a | i\n$C$ = k\n$C$ $V$+ || $V$",
    '#include "roots.lex" <Noun>:<>',
    "<Verb>:<> <>:र <>:\\  a:e",
    "क:ख | ग",
]


@pytest.mark.parametrize("text", SAMPLES)
def test_render_parse_fixpoint(text):
    first = parse_rules(text)
    printed = render_rules(first)
    second = parse_rules(printed)
    assert second == first
    assert render_rules(second) == printed


def test_render_parse_fixpoint_on_bundled_grammar():
    from hindimorph import data_path
    source = data_path("rules", "hindi.mrl").read_text(encoding="utf-8")
    first = parse_rules(source)
    printed = render_rules(first)
    assert parse_rules(printed) == first


# ---------------------------------------------------------------------------
# compilation semantics


def test_compile_pair():
    assert rel("a:b") == {("a", "b")}


def test_compile_literal_is_identity():
    assert rel("a") == {("a", "a")}


def test_compile_union_of_literals():
    assert rel("a | b") == {("a", "a"), ("b", "b")}


def test_compile_epsilon_literal():
    assert rel("<>") == {("", "")}
    assert rel("a <>") == {("a", "a")}


def test_compile_char_class():
    assert rel("[ab] x") == {("ax", "ax"), ("bx", "bx")}


def test_compile_pair_with_epsilon_side():
    assert rel("<>:x") == {("", "x")}
    assert rel("x:<>") == {("x", "")}


def test_compile_compose():
    assert rel("a:b || b:c") == {("a", "c")}


def test_compile_variables_shared():
    assert rel("$V$ = a | i\n$V$ $V$") == {
        ("aa", "aa"), ("ai", "ai"), ("ia", "ia"), ("ii", "ii")}


def test_compiled_machine_is_normalized(grammar):
    # deterministic over the pair alphabet...
    seen = set()
    for arc in grammar.arcs:
        key = (arc.src, arc.ilab, arc.olab)
        assert key not in seen
        seen.add(key)
    assert not any(arc.ilab == 0 and arc.olab == 0 for arc in grammar.arcs)
    # ...and already minimal
    assert fst.minimize(grammar).state_count == grammar.state_count
    # compiled bytes are pinned so a change of normalization cannot
    # silently change the model files
    assert hashlib.sha256(fst.to_bytes(grammar)).hexdigest() == (
        "5014e0d4dc6dd8332e96a65ca56e9d6e47cf677ebe6793e66474984e0f0506b6")


def test_compile_is_compositional_with_oracle():
    rng = random.Random(31)
    atoms = ["a", "b", "a:b", "b:c", "<>:a", "c:<>", "[ab]"]
    for _ in range(40):
        x = rng.choice(atoms)
        y = rng.choice(atoms)
        rx, ry = rel(x), rel(y)
        assert rel(f"{x} | {y}") == oracle.union_sets(rx, ry)
        assert rel(f"{x} {y}") == oracle.concat_sets(rx, ry)
        star_rel = oracle.relation_upto(
            rules.compile(parse_rules(f"( {x} )*"), SymbolTable()), 3)
        assert star_rel == oracle.star_upto(rx, 3)


def test_table_noun_fragment_generates_both_numbers():
    text = "लडक ( ा:ा <Noun>:<> <masculine>:<> <sg>:<> | ा:े <Noun>:<> <masculine>:<> <pl>:<> )"
    syms = SymbolTable()
    t = rules.compile(parse_rules(text), syms)
    got = oracle.full_relation(t)
    assert got == {
        ("लडका<Noun><masculine><sg>", "लडका"),
        ("लडका<Noun><masculine><pl>", "लडके"),
    }
    # analysis direction: invert and apply to the plural surface
    back = fst.apply(fst.invert(t), "लडके")
    assert back.outputs() == ["लडका<Noun><masculine><pl>"]


# ---------------------------------------------------------------------------
# includes


def test_include_compiles_identity_trie(tmp_path):
    (tmp_path / "roots.lex").write_text("कहा\nकहानी\n", encoding="utf-8")
    got = rel('#include "roots.lex"', base_dir=tmp_path)
    assert got == {("कहा", "कहा"), ("कहानी", "कहानी")}


def test_include_with_class_column(tmp_path):
    (tmp_path / "roots.lex").write_text("जा\tirr\n", encoding="utf-8")
    got = rel('#include "roots.lex"', base_dir=tmp_path)
    assert got == {("जा<irr>", "जा<irr>")}


def test_include_resolution_prefers_rule_dir(tmp_path):
    near = tmp_path / "near"
    far = tmp_path / "far"
    near.mkdir()
    far.mkdir()
    (near / "r.lex").write_text("a\n", encoding="utf-8")
    (far / "r.lex").write_text("b\n", encoding="utf-8")
    assert rel('#include "r.lex"', base_dir=near, lexdir=far) == {("a", "a")}
    assert rel('#include "r.lex"', base_dir=tmp_path, lexdir=far) == {("b", "b")}


def test_missing_include():
    with pytest.raises(IncludeNotFound):
        rel('#include "nowhere.lex"')


def test_empty_include_is_empty_relation(tmp_path):
    (tmp_path / "none.lex").write_text("% nothing here\n", encoding="utf-8")
    assert rel('a | #include "none.lex"', base_dir=tmp_path) == {("a", "a")}
