import hashlib
import importlib
import random
from pathlib import Path

import pytest

from hindimorph import fst, rules
from hindimorph.fst import SymbolTable
from hindimorph.lexicon import LexiconError
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
    RuleFile,
    RuleSyntaxError,
    Star,
    UndefinedVariable,
    Union,
    VarRef,
    parse_rules,
    render_rules,
)

import oracle


def rel(text, base_dir=None):
    """Compile rule text and return its full relation as a set."""
    t = rules.compile(parse_rules(text, base_dir=base_dir), SymbolTable())
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


def test_escaped_char_class_members():
    text = r"[\]\ a\<]"
    assert parse_rules(text).result == CharClass((" ", "<", "]", "a"))
    assert rel(text) == {(c, c) for c in " <]a"}


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


@pytest.mark.parametrize("rule_file", [
    RuleFile((), VarRef("X")),
    RuleFile((("X", VarRef("X")),), VarRef("X")),
], ids=["unbound", "self-reference"])
def test_compile_rejects_unbound_variable_of_a_built_rule_file(rule_file):
    with pytest.raises(UndefinedVariable, match=r"^undefined variable \$X\$$") as exc:
        rules.compile(rule_file, SymbolTable())
    assert exc.value.name == "X"


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


# Every lexer and parser error with its exact message and position.
# Columns count Unicode scalars after NFC: a tab is one column, and so
# is each combining mark (precomposed U+095D becomes two scalars).
TOO_DEEP = "expression is nested too deeply (more than 100 levels)"
SYNTAX_ERRORS = [
    ("a \\", "dangling escape at end of file", 1, 3),
    ("a \\\nb", "cannot escape a newline", 1, 3),
    ("<Noun", "unterminated tag", 1, 1),
    ("<No\nun>", "unterminated tag", 1, 1),
    ("<a<b>", "invalid character inside tag", 1, 1),
    ("<a\\b>", "invalid character inside tag", 1, 1),
    ("$A", "unterminated variable name", 1, 1),
    ("$A\n$", "unterminated variable name", 1, 1),
    ("$$", "invalid variable name", 1, 1),
    ("$A B$", "invalid variable name", 1, 1),
    ("$A%$", "invalid variable name", 1, 1),
    ("[ab", "unterminated character class", 1, 1),
    ("[ab\n]", "unterminated character class", 1, 1),
    ("[a\\", "dangling escape in character class", 1, 3),
    ("[a\\\n]", "dangling escape in character class", 1, 3),
    ("[a<]", "character '<' not allowed in a class (escape it)", 1, 3),
    ("[a>]", "character '>' not allowed in a class (escape it)", 1, 3),
    ("[a[]", "character '[' not allowed in a class (escape it)", 1, 3),
    ("[a$]", "character '$' not allowed in a class (escape it)", 1, 3),
    ("[ ]", "empty character class", 1, 1),
    ("#inc", "expected #include", 1, 1),
    ("#include", "expected quoted path after #include", 1, 9),
    ("#include \t x", "expected quoted path after #include", 1, 12),
    ('#include "a', "unterminated include path", 1, 10),
    ('#include "a\n"', "unterminated include path", 1, 10),
    ('#include ""', "empty include path", 1, 10),
    ("a >", "unexpected '>'", 1, 3),
    ("a ]", "unexpected ']'", 1, 3),
    ('a "', "unexpected '\"'", 1, 3),
    ("$A$ = x\n$A$ = y\n$A$", "variable $A$ redefined", 2, 1),
    ("a  )", "unexpected ')' after expression", 1, 4),
    ("a = b", "unexpected '=' after expression", 1, 3),
    ("a ; b", "unexpected sym 'b' after expression", 1, 5),
    ("( a | b", "expected ')'", 1, 8),
    ("a |", "expected an expression, found end of file", 1, 4),
    ("a || ", "expected an expression, found end of file", 1, 6),
    ("a |\nb", "expected an expression, found end of line", 1, 4),
    ("|| a", "expected an expression, found '||'", 1, 1),
    ("a ;;", "unexpected ';' after expression", 1, 4),
    (":", "expected an expression, found ':'", 1, 1),
    ("*", "expected an expression, found '*'", 1, 1),
    ("a:", "expected a symbol after ':'", 1, 3),
    ("a:(", "expected a symbol after ':'", 1, 3),
    ("<>:<>", "<>:<> is a meaningless arc", 1, 1),
    ("(" * 101 + "a" + ")" * 101, TOO_DEEP, 1, 101),
    ("a" + "*" * 101, TOO_DEEP, 1, 1),
    ("$B$", "undefined variable $B$", 1, 1),
    # after tabs, combining marks and comments
    ("a\t% comment ) here\n\tकि\t)", "unexpected ')' after expression", 2, 5),
    ("% header\nक्षि\t<Noun", "unterminated tag", 2, 6),
    ("\tप\n\t\tप\u095dि [क्\\", "dangling escape in character class", 2, 11),
    ("a\n% only a comment\n\t\tदि  #includ", "expected #include", 3, 7),
    ("x\n\tनि\t$A$", "undefined variable $A$", 2, 5),
    ('x\nकि\t"', "unexpected '\"'", 2, 4),
    ("(a\n\tकि\n\t|) b", "expected an expression, found ')'", 3, 3),
    ("(a\n\t|", "expected an expression, found end of file", 2, 3),
    ("a\n(b", "expected ')'", 2, 3),
    ("x\n\tक्ष <>:<>", "<>:<> is a meaningless arc", 2, 6),
    ("x\n\t\tकि:\n", "expected a symbol after ':'", 2, 6),
    ('$A$ = a\n\t% c\nकि #include\t""', "empty include path", 3, 13),
]


@pytest.mark.parametrize("text, message, line, col", SYNTAX_ERRORS)
def test_syntax_error_message_and_position(text, message, line, col):
    with pytest.raises((RuleSyntaxError, UndefinedVariable)) as exc:
        parse_rules(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        f"line {line}, col {col}: {message}", line, col)


def test_unbalanced_paren_reported():
    with pytest.raises(RuleSyntaxError):
        parse_rules("( a | b")


@pytest.mark.parametrize("text", [
    "(" * 300 + "a" + ")" * 300,
    "a" + "*" * 1000,
    " || ".join(["a"] * 1000),
], ids=["parens", "stars", "compose"])
def test_deep_nesting_is_a_rule_error(text):
    with pytest.raises(RuleSyntaxError, match="nested too deeply"):
        rules.compile(parse_rules(text), SymbolTable())


def test_nesting_up_to_the_limit_compiles():
    assert rel("(" * 100 + "a" + ")" * 100) == {("a", "a")}
    assert rel("a" + "?" * 99) == {("", ""), ("a", "a")}


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
    r"[\]\ a\<]",
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


@pytest.mark.parametrize("n_stems,n_indecl,sha,size", [
    (1000, 120, "7d19d4cae7aac2adbf82639078b3b8983d5b5681f5e3acfd699f39a99560598a", 38_781),
    (10_000, 1200, "f839be0aa4f71636112b1b0005b1ccd91f71dd62f578987cd9e83cf438484a09", 282_413),
])
def test_synthetic_grammar_bytes_are_pinned(tmp_path, monkeypatch, n_stems, n_indecl, sha, size):
    # the benchmark's seeded grammar generator, imported as it stands
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    synth = importlib.import_module("synth")
    rules_path = synth.generate_grammar(1, n_stems, n_indecl).write(tmp_path)
    blob = fst.to_bytes(rules.compile_file(rules_path, SymbolTable()))
    assert (hashlib.sha256(blob).hexdigest(), len(blob)) == (sha, size)


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


# (include path, rule directory) -> the root it reads; "ABS" is the
# absolute path of abs/r.lex, and every case runs in the cwd directory
INCLUDE_RESOLUTION = [
    ("r.lex", "rule", "a"),
    ("r.lex", None, "c"),       # no rule directory: the working directory
    ("r.lex", "empty", None),   # a rule directory hides the working one
    ("ABS", None, "d"),
    ("ABS", "rule", "d"),
]


@pytest.mark.parametrize("include, base, root", INCLUDE_RESOLUTION)
def test_include_resolution(tmp_path, monkeypatch, include, base, root):
    for name, roots in (("rule", {"r": "a"}), ("cwd", {"r": "c"}), ("abs", {"r": "d"}),
                        ("empty", {})):
        (tmp_path / name).mkdir()
        for stem, word in roots.items():
            (tmp_path / name / f"{stem}.lex").write_text(word + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path / "cwd")
    if include == "ABS":
        include = str(tmp_path / "abs" / "r.lex")
    text = f'#include "{include}"'
    base_dir = tmp_path / base if base else None
    if root is None:
        with pytest.raises(IncludeNotFound):
            rel(text, base_dir=base_dir)
    else:
        assert rel(text, base_dir=base_dir) == {(root, root)}


def test_rule_and_root_files_drop_a_bom(tmp_path):
    def compiled(prefix):
        d = tmp_path / ("marked" if prefix else "plain")
        d.mkdir()
        (d / "roots.lex").write_bytes(prefix + "ab\nकहा\n".encode("utf-8"))
        (d / "r.mrl").write_bytes(prefix + b'$R$ = #include "roots.lex"\n$R$ <N>:<>\n')
        return rules.compile_file(d / "r.mrl", SymbolTable())

    marked = compiled(b"\xef\xbb\xbf")
    assert fst.to_bytes(marked) == fst.to_bytes(compiled(b""))
    assert fst.apply(marked, "ab<N>").outputs() == ["ab"]


def test_rule_file_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "bad.mrl"
    path.write_bytes(b"a b\n\xe0\xa4 c\n")
    with pytest.raises(rules.RuleError, match=r"bad\.mrl: invalid UTF-8 at byte 4"):
        rules.parse_rules_file(path)


def test_missing_include():
    with pytest.raises(IncludeNotFound):
        rel('#include "nowhere.lex"')


def test_include_rejects_tag_syntax_in_a_root(tmp_path):
    # "<>" would add an empty root, so the grammar would accept a bare suffix
    (tmp_path / "roots.lex").write_text("क\n<>\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=r"^roots\.lex:2: "):
        rel('#include "roots.lex" <Noun>:<>', base_dir=tmp_path)


def test_empty_include_is_empty_relation(tmp_path):
    (tmp_path / "none.lex").write_text("% nothing here\n", encoding="utf-8")
    assert rel('a | #include "none.lex"', base_dir=tmp_path) == {("a", "a")}
