import copy
import gc
import hashlib
import importlib
import pickle
import random
import re
import unicodedata
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
    parse_rules_file,
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
    # an operand of equal precedence keeps its parentheses
    "a | (b | c)",
    "(a | b) | c",
    "a (b c)",
    "(a b) c",
    "a || (b || c)",
]


A = Literal("a")
# Hand-built values the rule language cannot write, each as a kind and
# its fields: render_node would write text that does not parse back
# to them, so the node refuses them.
UNSAYABLE = [
    (Literal, "\n"),
    (Include, 'a"b'),
    (Union, (A,)),
    (Concat, (A,)),
    (Literal, "ab"),
    (Literal, ""),
    (Literal, "<a\\b>"),
    (Pair, "<>", "<>"),
    (Pair, "a", "\n"),
    (CharClass, ("b", "a")),
    (CharClass, ()),
    (CharClass, ("a", "a")),
    (CharClass, ("<Noun>",)),
    (Include, ""),
    (VarRef, "a$b"),
    (VarRef, ""),
    (Concat, ()),
    (RuleFile, (("a b", A),), A),
    (RuleFile, (("A", A), ("A", Literal("b"))), A),
    # a decomposing scalar, a list where the parser makes a tuple, and
    # operands that are not expressions
    (Literal, "\u095d"),
    (Concat, [A, A]),
    (Star, (A,)),
    (Compose, A, "a"),
    (RuleFile, (["A", A],), A),
    (RuleFile, (), RuleFile((), A)),
]


@pytest.mark.parametrize("kind, fields", [(kind, fields) for kind, *fields in UNSAYABLE],
                         ids=[f"{kind.__name__}{tuple(fields)!r}" for kind, *fields in UNSAYABLE])
def test_a_node_refuses_what_the_language_cannot_write(kind, fields):
    with pytest.raises(ValueError, match=r"^the rule language cannot write "):
        kind(*fields)


def test_a_node_refuses_more_levels_than_the_parser_reads():
    node = A
    for _ in range(99):
        node = Star(node)
    assert parse_rules(render_rules(RuleFile((), node))).result == node
    with pytest.raises(ValueError, match=r"^expression is nested too deeply"):
        Star(node)


def test_nodes_compare_by_kind_and_fields_and_show_their_fields(tmp_path):
    assert A == Literal("a") and hash(A) == hash(Literal("a"))
    assert A != Literal("b") and A != "a"
    # one field each, or the same parts: equal fields, unequal kinds
    assert len({Star(A), Plus(A), Opt(A)}) == 3
    assert Star(A) != Plus(A) != Opt(A) != Star(A)
    assert Concat((A, A)) != Union((A, A))
    assert Compose(A, A) != Pair("a", "a")
    tree = Union((Concat((A, Star(VarRef("X")))), Pair("<N>", "<>")))
    same = Union((Concat((Literal("a"), Star(VarRef("X")))), Pair("<N>", "<>")))
    assert tree == same and hash(tree) == hash(same)
    for node, name in ((A, "symbol"), (tree, "parts"), (RuleFile((), A), "base_dir")):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    with pytest.raises(AttributeError):
        A.other = 1
    assert repr(A) == "Literal(symbol='a')"
    assert repr(Compose(Pair("a", "<>"), CharClass(("a", "b")))) == (
        "Compose(lhs=Pair(lhs='a', rhs='<>'), rhs=CharClass(chars=('a', 'b')))")
    assert repr(RuleFile((("X", A),), VarRef("X"))) == (
        "RuleFile(definitions=(('X', Literal(symbol='a')),), result=VarRef(name='X'), "
        "base_dir=None)")
    # where #include reads takes no part in equality
    assert RuleFile((), A, tmp_path) == RuleFile((), A)
    assert hash(RuleFile((), A, tmp_path)) == hash(RuleFile((), A))
    assert RuleFile((), A) != RuleFile((), Literal("b"))
    # an unbound name is the compiler's to refuse, not the node's
    assert RuleFile((), VarRef("X")).result == VarRef("X")
    with pytest.raises(TypeError):
        Pair("a")
    built = RuleFile((("X", tree),), VarRef("X"), tmp_path)
    for twin in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert twin == built and twin.base_dir == tmp_path


def test_a_class_keeps_members_apart_that_nfc_would_compose():
    # न + nukta composes to ऩ, and > + U+0338 to ≯: an escape keeps
    # each member a scalar of its own
    for text, escaped in [("[\u093cन]", "[न\\\u093c]"), ("[\u0338\\>]", "[\\>\\\u0338]")]:
        parsed = parse_rules(text)
        assert render_rules(parsed) == escaped + "\n"
        assert parse_rules(render_rules(parsed)) == parsed
    assert render_rules(parse_rules("[ab\\]]")) == "[\\]ab]\n"


@pytest.mark.parametrize("text", SAMPLES)
def test_render_parse_fixpoint(text):
    first = parse_rules(text)
    printed = render_rules(first)
    second = parse_rules(printed)
    assert second == first
    assert render_rules(second) == printed


# Leaves of random rule ASTs: symbols that need an escape, tags, <> on
# either side of a pair, classes and #include paths; one leaf in 50 is
# a value the language cannot write.
SYMBOLS = [" ", "\t", "|", ":", "\\", "%", "$", "#", '"', "<", ">", "[", "]",
           "(", ")", "*", "+", "?", "=", ";", "a", "क", "ि"]
TAGS = ["<Noun>", "<pl>", "<>"]
NAMES = ["A", "B1", "Noun_Stem", "कि"]


def random_leaf(rng, names, hostile):
    """A random leaf.  A value the language cannot write is noted in
    `hostile` before its node refuses it."""
    if rng.random() < 0.02:
        symbol = rng.choice(SYMBOLS)
        hostile.append(rng.choice([
            (Literal, rng.choice("\n\r")),
            (Literal, symbol + rng.choice(SYMBOLS + TAGS)),
            (Pair, symbol, rng.choice("\n\r")),
            (CharClass, ("\r",)),
            (Pair, "<>", "<>"),
            (CharClass, tuple(sorted(set(rng.sample(SYMBOLS, 3)), reverse=True))),
            (Include, rng.choice(["roots.lex", "क$.lex"]).replace(".", '"')),
            (VarRef, rng.choice(NAMES) + rng.choice(" $:")),
        ]))
        kind, *fields = hostile[-1]
        return kind(*fields)
    kind = rng.randrange(5 if names else 4)
    if kind == 0:
        return Literal(rng.choice(SYMBOLS + TAGS))
    if kind == 1:
        lhs, rhs = rng.choice([(rng.choice(TAGS), rng.choice(SYMBOLS)),
                               (rng.choice(SYMBOLS), rng.choice(TAGS)),
                               (rng.choice(SYMBOLS), rng.choice(SYMBOLS))])
        return Pair(lhs, rhs)
    if kind == 2:
        return CharClass(tuple(sorted(set(rng.sample(SYMBOLS, rng.randint(1, 4))))))
    if kind == 3:
        return Include(rng.choice(["roots.lex", "a b/50%.lex", "क$.lex", "/abs|path"]))
    return VarRef(rng.choice(names))


def random_expr(rng, names, depth, hostile):
    if depth == 0 or rng.random() < 0.2:
        return random_leaf(rng, names, hostile)
    op = rng.choice([Concat, Union, Compose, Star, Plus, Opt])
    if op in (Concat, Union):
        return op(tuple(random_expr(rng, names, depth - 1, hostile)
                        for _ in range(rng.randint(2, 3))))
    if op is Compose:
        return Compose(random_expr(rng, names, depth - 1, hostile),
                       random_expr(rng, names, depth - 1, hostile))
    return op(random_expr(rng, names, depth - 1, hostile))


def test_render_parse_fixpoint_on_random_rule_files(tmp_path):
    # each drawn AST is refused at construction, or round-trips, in
    # memory and through a file written byte for byte
    rng = random.Random(40)
    refused = 0
    for _ in range(300):
        names = rng.sample(NAMES, rng.randint(0, len(NAMES)))
        hostile = []
        try:
            definitions = tuple((name, random_expr(rng, names[:i], 4, hostile))
                                for i, name in enumerate(names))
            rule_file = RuleFile(definitions, random_expr(rng, names, 4, hostile))
        except ValueError:
            assert hostile, "a value the language can write was refused"
            refused += 1
            continue
        assert not hostile, f"{hostile} was not refused"
        printed = render_rules(rule_file)
        assert parse_rules(printed) == rule_file, printed
        assert render_rules(parse_rules(printed)) == printed
        (tmp_path / "printed.mrl").write_text(printed, encoding="utf-8", newline="")
        assert parse_rules_file(tmp_path / "printed.mrl") == rule_file, printed
    assert 30 <= refused <= 200, refused


HOSTILE = [*"$%()[]*+?|:<>#\"=;\\", "#include", "#include \"r.lex\"", "<Noun>", "<>",
           "\r", "\t", "\n", " ", "a", "कि", "ि", "ढ़"]


def test_hostile_rule_text_raises_only_rule_errors():
    rng = random.Random(40)
    for _ in range(4000):
        text = "".join(rng.choice(HOSTILE) for _ in range(rng.randrange(30)))
        try:
            parse_rules(text)
        except EmptyRuleFile:
            pass
        except (RuleSyntaxError, UndefinedVariable) as exc:
            # CRLF, a bare CR and LF each end a line
            lines = re.split(r"\r\n|\r|\n", unicodedata.normalize("NFC", text))
            assert 1 <= exc.line <= len(lines), text
            assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1, text


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


def _inlined(rule_file):
    """`rule_file` with no definition: each ``$Name$`` replaced by its
    body, as if written out in parentheses."""
    bodies = {}

    def expand(node):
        if isinstance(node, VarRef):
            return bodies[node.name]
        if isinstance(node, (Concat, Union)):
            return type(node)(tuple(map(expand, node.parts)))
        if isinstance(node, Compose):
            return Compose(expand(node.lhs), expand(node.rhs))
        if isinstance(node, (Star, Plus, Opt)):
            return type(node)(expand(node.expr))
        return node

    for name, expr in rule_file.definitions:
        bodies[name] = expand(expr)
    return RuleFile((), expand(rule_file.result), rule_file.base_dir)


# each grammar with the fst.minimize calls of its compile: one for each
# operand of || and of a closure, wherever it is written, and one for
# the result; naming a part or writing it out in full changes neither
PLACEMENT_GRAMMARS = {
    "once-in-a-union": ("$A$ = a | b\n$A$ | c", 1),
    "once-in-a-concatenation": ("$A$ = a | b\n$A$ c", 1),
    "twice": ("$A$ = a | b\n$A$ $A$", 1),
    "under-a-star": ("$A$ = a b | a <>:c\n$A$* c", 2),
    "under-plus-and-optional": ("$A$ = a | a b\n$B$ = <>:x | a\n$A$+ $B$?", 3),
    "operand-of-compose": ("$A$ = a | b\n$A$ || a:b", 3),
    "unused": ("$A$ = a | b\nc", 1),
    "alias-chain": ("$A$ = a <>:x | a b\n$B$ = $A$\n$B$ c", 1),
    "alias-chain-into-compose": ("$A$ = a <>:x | a b\n$B$ = $A$\n$B$ || a:c x:<> | b:b", 3),
    "union-into-compose": ("$A$ = a:<> <>:b | a:b\n$B$ = ( $A$ | c ) c\n$B$ || b:a c:c", 3),
    "compose-of-closures": ("$A$ = a:b | a <>:b <>:c\n$B$ = ( $A$ | c:a )*\n$B$ || b:c*", 5),
    "closures-on-both-sides": ("$A$ = a | a b | b c\n$A$* x $A$+ || $A$*", 6),
}


@pytest.mark.parametrize("text, calls", PLACEMENT_GRAMMARS.values(),
                         ids=PLACEMENT_GRAMMARS.keys())
def test_where_definitions_are_minimized_changes_no_byte(monkeypatch, text, calls):
    minimized = []

    def counting(a, minimize=fst.minimize):
        minimized.append(a.state_count)
        return minimize(a)

    def compiled(rule_file):  # one table, whatever order the symbols come in
        return fst.to_bytes(rules.compile(rule_file, SymbolTable("abcx")))

    rule_file = parse_rules(text)
    inlined = _inlined(rule_file)
    want = compiled(inlined)
    monkeypatch.setattr(fst, "minimize", counting)
    assert compiled(rule_file) == want
    assert len(minimized) == calls
    # the same grammar written out in full makes the same calls
    minimized.clear()
    assert compiled(parse_rules(render_rules(inlined))) == want
    assert len(minimized) == calls


def test_a_definition_under_three_closures_is_read_once(monkeypatch):
    # fst.minimize keeps its result on the machine it was given, so the
    # machine of $A$, the operand of all three closures, is read once;
    # written out in full, the grammar builds and reads three copies
    rule_file = parse_rules(PLACEMENT_GRAMMARS["closures-on-both-sides"][0])
    read = []

    def recording(a, eps_free_rows=fst._eps_free_rows):
        read.append(a)
        return eps_free_rows(a)

    def compiled(rule_file):
        read.clear()
        return fst.to_bytes(rules.compile(rule_file, SymbolTable("abcx")))

    monkeypatch.setattr(fst, "_eps_free_rows", recording)
    want = compiled(_inlined(rule_file))
    assert [m.state_count for m in read] == [11, 11, 11, 11, 5, 4]
    assert compiled(rule_file) == want
    # $A$, the left and the right operand of ||, and the result
    assert [m.state_count for m in read] == [11, 11, 5, 4]
    assert len({id(m) for m in read}) == len(read)


@pytest.fixture
def synth(monkeypatch):
    """The benchmark's seeded grammar generator, imported as it stands."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("synth")


@pytest.mark.parametrize("n_stems,n_indecl,sha,size", [
    (1000, 120, "7d19d4cae7aac2adbf82639078b3b8983d5b5681f5e3acfd699f39a99560598a", 38_781),
    (10_000, 1200, "f839be0aa4f71636112b1b0005b1ccd91f71dd62f578987cd9e83cf438484a09", 282_413),
])
def test_synthetic_grammar_bytes_are_pinned(tmp_path, synth, n_stems, n_indecl, sha, size):
    rules_path = synth.generate_grammar(1, n_stems, n_indecl).write(tmp_path)
    blob = fst.to_bytes(rules.compile_file(rules_path, SymbolTable()))
    assert (hashlib.sha256(blob).hexdigest(), len(blob)) == (sha, size)


def test_compiled_10k_grammar_is_frozen_as_build_freezes_it(tmp_path, synth):
    # the last minimize hands _freeze the columns and offsets it made itself
    m = rules.compile_file(synth.generate_grammar(1, 10_000, 1200).write(tmp_path), SymbolTable())
    ref = fst.build(m.state_count, m.start, m.finals, m.arcs, m.symbols)
    assert (m._cols, m._first) == (ref._cols, ref._first)


# ---------------------------------------------------------------------------
# the cyclic garbage collector around a compile


@pytest.fixture
def collector():
    """Puts the collector's state back as it was after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("rule_file, error", [
    (parse_rules("$V$ = a | i\n$V$+ a:b"), None),
    (parse_rules('#include "nowhere.lex"'), IncludeNotFound),
    (RuleFile((), VarRef("X")), UndefinedVariable),
], ids=["compiled", "include-not-found", "undefined-variable"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_compile_gives_back_the_collector_state(collector, rule_file, error, enabled):
    (gc.enable if enabled else gc.disable)()
    if error is None:
        rules.compile(rule_file, SymbolTable())
    else:
        with pytest.raises(error):
            rules.compile(rule_file, SymbolTable())
    assert gc.isenabled() is enabled


def test_compile_leaves_no_cyclic_garbage(collector, tmp_path, synth):
    # with the collector off, a cycle that a compile made would still be
    # there for the gc.collect() below to find
    from hindimorph import data_path
    paths = [data_path("rules", "hindi.mrl"), synth.generate_grammar(1, 1000, 120).write(tmp_path)]
    gc.collect()
    gc.disable()
    for path in paths:
        rules.compile_file(path, SymbolTable())
    assert gc.collect() == 0


def test_compile_runs_no_collection(collector, tmp_path, synth):
    rule_file = rules.parse_rules_file(synth.generate_grammar(1, 1000, 120).write(tmp_path))
    symbols = SymbolTable()
    gc.enable()
    before = gc.get_stats()
    rules.compile(rule_file, symbols)
    after = gc.get_stats()
    assert [s["collections"] for s in after] == [s["collections"] for s in before]


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
    assert fst.apply(fst.invert(t), "लडके") == ["लडका<Noun><masculine><pl>"]


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
    assert fst.apply(marked, "ab<N>") == ["ab"]


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
