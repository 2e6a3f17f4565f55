"""Rule language for writing morphotactics as transducer expressions.

Rule files (conventionally ``.mrl``) are UTF-8 text, NFC-normalized
before lexing.  Rules are written in the generation direction: the left
side of a pair is the lexical tape, the right side the surface tape.

Syntax summary::

    % comment to end of line
    $Vowel$ = a | i | u ;            % definition (semicolon optional)
    $Stem$ = क ख $Vowel$*            % juxtaposition concatenates
    a:b                              % pair: input a, output b
    <Noun>:<>                        % tag symbol deleted on the surface
    [कखग]                            % character class (identity)
    ( expr )   expr*  expr+  expr?   % grouping and closures
    expr || expr                     % composition (lowest precedence)
    #include "nouns.lex"             % lexicon file as identity strings
    \\x                              % escaped literal scalar, e.g. "\\ "

A statement ends at a newline (newlines inside parentheses do not end
statements).  The last expression statement in the file is its result.
Definitions must precede use; redefinition is an error.

An AST node built by hand refuses, with ``ValueError``, any value that
the language cannot write, so :func:`render_rules` of any rule file
whose names are bound parses back to it.
"""

from __future__ import annotations

import functools
import gc
import re
import unicodedata
from pathlib import Path
from typing import NamedTuple

from . import _text, fst, lexicon
from .fst import EPSILON_SYMBOL, SymbolTable, Transducer


class RuleError(Exception):
    """Base class for rule-language errors."""


class RuleSyntaxError(RuleError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class UndefinedVariable(RuleError):
    """A ``$Name$`` with no earlier definition; the parser gives its
    position, the compiler of a hand-built RuleFile has none to give."""

    def __init__(self, name: str, line: int | None = None, col: int | None = None):
        where = "" if line is None else f"line {line}, col {col}: "
        super().__init__(f"{where}undefined variable ${name}$")
        self.name = name
        self.line = line
        self.col = col


class EmptyRuleFile(RuleError):
    """The file contains no result expression."""


class IncludeNotFound(RuleError):
    def __init__(self, path: str):
        super().__init__(f"included lexicon not found: {path}")
        self.path = path


# ---------------------------------------------------------------------------
# AST


class _Node:
    """A rule AST node: immutable, hashable, and equal only to a node of
    its own class whose fields, the names in ``__slots__``, are equal.
    A node that :func:`render_node` could not write as text that parses
    back to it raises ``ValueError``."""

    # the fields in order, and the levels of the AST under the node, itself included
    __slots__ = ("_values", "_height")

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_height", _checked_height(self))

    def _key(self) -> tuple:  # what equality and the hash read
        return self._values

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values


class Literal(_Node):
    __slots__ = ("symbol",)  # single scalar, "<Tag>", or "<>" for the empty pair


class Pair(_Node):
    __slots__ = ("lhs", "rhs")


class CharClass(_Node):
    __slots__ = ("chars",)  # sorted distinct scalars


class Concat(_Node):
    __slots__ = ("parts",)  # two or more


class Union(_Node):
    __slots__ = ("parts",)  # two or more


class Star(_Node):
    __slots__ = ("expr",)


class Plus(_Node):
    __slots__ = ("expr",)


class Opt(_Node):
    __slots__ = ("expr",)


class Compose(_Node):
    __slots__ = ("lhs", "rhs")


class VarRef(_Node):
    __slots__ = ("name",)


class Include(_Node):
    __slots__ = ("path",)


class RuleFile(_Node):
    """The definitions, ``(name, expression)`` pairs in file order, and
    the result; `base_dir`, where an ``#include`` reads, takes no part
    in equality."""

    __slots__ = ("definitions", "result", "base_dir")

    def __init__(self, definitions, result, base_dir: Path | None = None):
        super().__init__(definitions, result, base_dir)

    def _key(self) -> tuple:
        return self.definitions, self.result


# ---------------------------------------------------------------------------
# Lexer

# The scalars that a symbol writes with an escape and a $Name$ may not hold.
_ESCAPED = frozenset("$%()[]*+?|:<>#\"=;\\ \t\n")
# The operators and punctuation; "||" is matched before "|".
_PUNCTUATION = {"||": "COMPOSE", "=": "EQUALS", "*": "STAR", "+": "PLUS", "?": "OPT",
                "|": "PIPE", "(": "LPAREN", ")": "RPAREN", ":": "COLON", ";": "SEMI"}
# One alternative per token kind, tried in this order.  A tag, name,
# class or include path matches up to the first character it cannot
# hold, and _lex names the error from what stopped the match.
_TOKEN = re.compile(r"""
    (?P<NEWLINE> \n )
  | (?P<BLANK> [ \t]+ | %[^\n]* )
  | (?P<ESCAPE> \\ (?P<escaped> [^\n] )? )
  | (?P<TAG> < (?P<tag> [^>\n]* ) (?P<tag_end> > )? )
  | (?P<VAR> \$ (?P<name> [^$\n]* ) (?P<name_end> \$ )? )
  | (?P<CLASS> \[ (?P<members> (?: \\[^\n] | [^\]\n\\<>\[$] )* )
                (?P<class_end> [\]\\<>\[$] )? )
  | (?P<INCLUDE> \# (?P<keyword> include [ \t]*
                    (?: " (?P<path> [^"\n]* ) (?P<path_end> " )? )? )? )
  | (?P<COMPOSE> \|\| )
  | (?P<PUNCT> [=*+?|():;] )
  | (?P<STRAY> [>\]"] )
  | (?P<SYM> . )
""", re.VERBOSE)
_CLASS_MEMBER = re.compile(r"\\(.)|([^ \t])")  # escaped, or not a blank


class _Token(NamedTuple):
    kind: str
    value: object
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    """The tokens of NFC-normalized rule text, ending with ``EOF``.

    CRLF and a bare CR read as LF (:func:`_text.newlines`), as they do in
    a rule file, so no CR reaches a token.  Each token and each
    :class:`RuleSyntaxError` carries the line and column of its first
    character.  The column is derived from offsets, ``offset -
    line_start + 1``, so it counts Unicode scalars: a tab or a combining
    mark is one column.
    """
    text = _text.newlines(text)
    toks: list[_Token] = []
    line, line_start = 1, 0
    depth = 0

    def err(msg: str, at: int):
        raise RuleSyntaxError(line, at - line_start + 1, msg)

    for m in _TOKEN.finditer(text):
        kind, value, at = m.lastgroup, m[0], m.start()
        if kind == "NEWLINE":
            if depth == 0:
                toks.append(_Token(kind, None, line, at - line_start + 1))
            line, line_start = line + 1, at + 1
            continue
        if kind == "BLANK":
            continue
        if kind == "ESCAPE":
            if m["escaped"] is None:
                err("cannot escape a newline" if m.end() < len(text)
                    else "dangling escape at end of file", at)
            kind, value = "SYM", m["escaped"]
        elif kind == "TAG":
            if m["tag_end"] is None:
                err("unterminated tag", at)
            if "<" in m["tag"] or "\\" in m["tag"]:
                err("invalid character inside tag", at)
            if not m["tag"]:
                kind = "EPS"  # the value "<>" is EPSILON_SYMBOL
        elif kind == "VAR":
            if m["name_end"] is None:
                err("unterminated variable name", at)
            value = m["name"]
            if not value or not _ESCAPED.isdisjoint(value):
                err("invalid variable name", at)
        elif kind == "CLASS":
            stop = m["class_end"]
            if stop is None:
                err("unterminated character class", at)
            if stop == "\\":  # before a newline or the end of the text
                err("dangling escape in character class", m.end() - 1)
            if stop != "]":
                err(f"character {stop!r} not allowed in a class (escape it)", m.end() - 1)
            value = tuple(sorted({escaped or plain for escaped, plain
                                  in _CLASS_MEMBER.findall(m["members"])}))
            if not value:
                err("empty character class", at)
        elif kind == "INCLUDE":
            if m["keyword"] is None:
                err("expected #include", at)
            if m["path"] is None:
                err("expected quoted path after #include", m.end())
            if m["path_end"] is None:
                err("unterminated include path", m.start("path") - 1)
            if not m["path"]:
                err("empty include path", m.start("path") - 1)
            value = m["path"]
        elif kind == "STRAY":
            err(f"unexpected {value!r}", at)
        elif kind != "SYM":  # "||" or one-character punctuation
            if value == "(":
                depth += 1
            elif value == ")":
                depth = max(0, depth - 1)
            kind, value = _PUNCTUATION[value], None
        toks.append(_Token(kind, value, line, at - line_start + 1))
    toks.append(_Token("EOF", None, line, len(text) - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser

_ATOM_STARTERS = {"SYM", "TAG", "EPS", "CLASS", "LPAREN", "VAR", "INCLUDE"}
# Each operator node with its text, its precedence (a higher one binds
# tighter) and its machine, made from its operands' machines.  The
# operands of "||" and of a closure are minimized, so that a
# composition's product and a closure start from a minimal machine.
# Each entry calls fst through the module, so a wrapper put there sees it.
_POSTFIX_PREC = 3
_OPERATORS = {
    Compose: (" || ", 0, lambda lhs, rhs: fst.compose(fst.minimize(lhs), fst.minimize(rhs))),
    Union: (" | ", 1, lambda *parts: fst.union(*parts)),
    Concat: (" ", 2, lambda *parts: fst.concat(*parts)),
    Star: ("*", _POSTFIX_PREC, lambda expr: fst.closure(fst.minimize(expr), "star")),
    Plus: ("+", _POSTFIX_PREC, lambda expr: fst.closure(fst.minimize(expr), "plus")),
    Opt: ("?", _POSTFIX_PREC, lambda expr: fst.closure(fst.minimize(expr), "optional")),
}
_POSTFIX = {_PUNCTUATION[op]: node for node, (op, prec, _) in _OPERATORS.items()
            if prec == _POSTFIX_PREC}
_TOKEN_NAMES = {"NEWLINE": "end of line", "EOF": "end of file",
                **{kind: f"'{ch}'" for ch, kind in _PUNCTUATION.items()}}
# Caps open parentheses and AST height, far below Python's recursion limit.
_MAX_NESTING = 100
_TOO_DEEP = f"expression is nested too deeply (more than {_MAX_NESTING} levels)"


def _children(node) -> tuple:
    """The operands of an operator node: the parts of a ``|`` or a
    juxtaposition, else its fields."""
    return node.parts if node.__slots__ == ("parts",) else node._values


def _checked_height(node) -> int:
    """The levels of the AST under `node`, itself included, if
    :func:`render_node` writes `node` as text that parses back to it;
    ``ValueError`` if not."""
    if isinstance(node, RuleFile):
        pairs, defined = node.definitions, dict(node.definitions)
        # a defined name is checked as the VarRef it makes
        operands = (*defined.values(), *map(VarRef, defined), node.result)
        writable = tuple(map(tuple, pairs)) == pairs and len(defined) == len(pairs)
    elif type(node) in _OPERATORS:
        operands = _children(node)
        # a "|" or juxtaposition of one part would render as the part
        writable = type(operands) is tuple and (len(operands) > 1 or node.__slots__ == ("expr",))
    else:
        operands, writable = (), _lexes_back(render_node(node), node._values)
    if not (writable and all(isinstance(x, _Node) and type(x) is not RuleFile for x in operands)):
        raise ValueError(f"the rule language cannot write {node!r}")
    height = 1 + max([operand._height for operand in operands], default=0)
    if height > _MAX_NESTING and type(node) in _OPERATORS:
        raise ValueError(_TOO_DEEP)
    return height


@functools.lru_cache(maxsize=4096)
def _lexes_back(text: str, fields: tuple) -> bool:
    """Whether the lexer reads `text`, the rendering of a leaf, back as
    the leaf's fields; ``<>:<>`` lexes so, but does not parse."""
    try:
        tokens = _lex(unicodedata.normalize("NFC", text))
    except (RuleSyntaxError, TypeError):
        return False
    values = [tok.value for tok in tokens if tok.value is not None]
    return values == [*fields] and values != [EPSILON_SYMBOL] * 2


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.pos = 0
        self.depth = 0  # parentheses open at the current token
        self.defined: dict[str, object] = {}  # name -> expression, in file order

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, tok: _Token, msg: str):
        raise RuleSyntaxError(tok.line, tok.col, msg)

    def parse_file(self) -> tuple[tuple[tuple[str, object], ...], object]:
        result = None
        while True:
            while self.peek().kind == "NEWLINE":
                self.next()
            if self.peek().kind == "EOF":
                break
            if self.peek().kind == "VAR" and self.peek(1).kind == "EQUALS":
                tok = self.next()
                name = tok.value
                if name in self.defined:
                    self.error(tok, f"variable ${name}$ redefined")
                self.next()  # EQUALS
                expr = self.parse_statement_expr()
                self.end_statement()
                self.defined[name] = expr
            else:
                result = self.parse_statement_expr()
                self.end_statement()
        if result is None:
            raise EmptyRuleFile("rule file has no result expression")
        return tuple(self.defined.items()), result

    def end_statement(self) -> None:
        if self.peek().kind == "SEMI":
            self.next()
        tok = self.peek()
        if tok.kind == "NEWLINE":
            self.next()
        elif tok.kind != "EOF":
            self.error(tok, f"unexpected {_describe(tok)} after expression")

    def parse_statement_expr(self):
        start = self.peek()
        try:
            return self.parse_expr()
        except ValueError as exc:  # a parsed node refuses only a tree nested too deeply
            raise RuleSyntaxError(start.line, start.col, str(exc)) from None

    def parse_expr(self):
        node = self.parse_union()
        while self.peek().kind == "COMPOSE":
            self.next()
            node = Compose(node, self.parse_union())
        return node

    def parse_union(self):
        parts = [self.parse_seq()]
        while self.peek().kind == "PIPE":
            self.next()
            parts.append(self.parse_seq())
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

    def parse_seq(self):
        parts = []
        while self.peek().kind in _ATOM_STARTERS:
            parts.append(self.parse_postfix())
        if not parts:
            self.error(self.peek(), f"expected an expression, found {_describe(self.peek())}")
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def parse_postfix(self):
        node = self.parse_atom()
        while self.peek().kind in _POSTFIX:
            node = _POSTFIX[self.next().kind](node)
        return node

    def parse_atom(self):
        tok = self.next()
        if tok.kind in {"SYM", "TAG", "EPS"}:
            if self.peek().kind == "COLON":
                self.next()
                rhs_tok = self.next()
                if rhs_tok.kind not in {"SYM", "TAG", "EPS"}:
                    self.error(rhs_tok, "expected a symbol after ':'")
                if tok.value == EPSILON_SYMBOL and rhs_tok.value == EPSILON_SYMBOL:
                    self.error(tok, "<>:<> is a meaningless arc")
                return Pair(tok.value, rhs_tok.value)
            return Literal(tok.value)
        if tok.kind == "CLASS":
            return CharClass(tok.value)
        if tok.kind == "LPAREN":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                self.error(tok, _TOO_DEEP)
            expr = self.parse_expr()
            self.depth -= 1
            closing = self.next()
            if closing.kind != "RPAREN":
                self.error(closing, "expected ')'")
            return expr
        if tok.kind == "VAR":
            if tok.value not in self.defined:
                raise UndefinedVariable(tok.value, tok.line, tok.col)
            return VarRef(tok.value)
        # INCLUDE, the last of _ATOM_STARTERS: parse_seq starts no other atom
        return Include(tok.value)


def _describe(tok: _Token) -> str:
    return _TOKEN_NAMES.get(tok.kind) or f"{tok.kind.lower()} {tok.value!r}"


def parse_rules(text: str, base_dir: Path | str | None = None) -> RuleFile:
    """Parse rule text into a :class:`RuleFile`.

    Text is NFC-normalized first, so byte-level differences between
    precomposed and decomposed Devanagari never reach the grammar, and
    its newlines read as those of a rule file do.
    """
    toks = _lex(unicodedata.normalize("NFC", text))
    return RuleFile(*_Parser(toks).parse_file(), Path(base_dir) if base_dir is not None else None)


def parse_rules_file(path) -> RuleFile:
    path = Path(path)
    return parse_rules(_text.read_text(path, RuleError), base_dir=path.parent)


# ---------------------------------------------------------------------------
# Pretty-printer

def _render_symbol(sym: str) -> str:
    # a tag ("<Tag>" or "<>") is never in this set of single scalars
    return "\\" + sym if sym in _ESCAPED else sym


def render_node(node, parent_prec: int = 0) -> str:
    """Rule-language text for an AST node (re-parses to an equal AST).

    An operand keeps its parentheses where its operator binds no tighter
    than the one applied to it, except the left operand of ``||``: the
    parser nests a chain of ``||`` to the left.
    """
    if type(node) in _OPERATORS:
        op, prec, _ = _OPERATORS[type(node)]
        first, *rest = _children(node)
        if prec == _POSTFIX_PREC:
            return render_node(first, prec) + op
        text = op.join([render_node(first, prec if isinstance(node, Compose) else prec + 1),
                        *(render_node(part, prec + 1) for part in rest)])
        return f"( {text} )" if parent_prec > prec else text
    if isinstance(node, Literal):
        return _render_symbol(node.symbol)
    if isinstance(node, Pair):
        return f"{_render_symbol(node.lhs)}:{_render_symbol(node.rhs)}"
    if isinstance(node, CharClass):
        text = "["
        for char in map(_render_symbol, node.chars):
            # an escape also keeps a scalar from composing with the one before
            text += char if unicodedata.is_normalized("NFC", text + char) else "\\" + char
        return text + "]"
    if isinstance(node, VarRef):
        return f"${node.name}$"
    return f'#include "{node.path}"'  # Include, the last kind


def render_rules(rule_file: RuleFile) -> str:
    lines = [f"${name}$ = {render_node(expr)} ;"
             for name, expr in rule_file.definitions]
    lines.append(render_node(rule_file.result))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Compiler

def _machine(defs: dict[str, Transducer], symbols: SymbolTable, base_dir: Path | None,
             node) -> Transducer:
    """The machine of one AST node.  A module-level function, not a
    closure over itself, so a compile leaves no reference cycle."""
    if isinstance(node, Literal):
        if node.symbol == EPSILON_SYMBOL:
            return fst.epsilon(symbols)
        sid = symbols.intern(node.symbol)
        return fst.single_arc(symbols, sid, sid)
    if isinstance(node, Pair):
        ilab = 0 if node.lhs == EPSILON_SYMBOL else symbols.intern(node.lhs)
        olab = 0 if node.rhs == EPSILON_SYMBOL else symbols.intern(node.rhs)
        return fst.single_arc(symbols, ilab, olab)
    if isinstance(node, CharClass):
        arcs = [(0, sid, sid, 1) for sid in map(symbols.intern, node.chars)]
        return fst.build(2, 0, (1,), arcs, symbols)
    if type(node) in _OPERATORS:
        machine = functools.partial(_machine, defs, symbols, base_dir)
        return _OPERATORS[type(node)][2](*map(machine, _children(node)))
    if isinstance(node, VarRef):
        if node.name not in defs:
            raise UndefinedVariable(node.name)
        return defs[node.name]
    # Include, the last kind; an absolute path joined to a directory is
    # that path again
    path = Path(base_dir or "", node.path)
    if not path.is_file():
        raise IncludeNotFound(node.path)
    return lexicon.compile_root_fst(lexicon.read_lexicon_file(path), symbols)


def compile(rule_file: RuleFile, symbols: SymbolTable) -> Transducer:
    """Compile a parsed rule file into a normalized transducer.

    Every definition is compiled once, when it is defined, and shared by
    reference.  SFST minimizes each definition there; this compiler
    minimizes where a machine is used, and only where it pays: each
    operand of ``||`` and of a closure, so that a composition's product
    and a closure start from a minimal machine.  The rule depends only
    on the shape of the expression, so a file makes the same
    :func:`fst.minimize` calls whether it names its parts or writes them
    out in full; a definition that is several such operands is
    minimized once, as :func:`fst.minimize` keeps its result on the
    machine.  Any other operand is kept as built, and the
    minimization of what consumes it does that work once.  The result
    is minimized at the end, and it is epsilon-free, deterministic over
    the pair alphabet, and minimal.  Where the minimizations happen
    cannot change a byte: union, concatenation, closure and
    :func:`fst.minimize` keep the language of label pairs,
    :func:`fst.compose` depends on its operands' pair languages alone,
    and the last :func:`fst.minimize` gives one machine per pair
    language.  Each ``|`` or juxtaposition of any number of operands
    builds its machine once (:func:`fst.union`, :func:`fst.concat`), and
    an ``#include`` root list comes out of
    :func:`lexicon.compile_root_fst` already minimal, folded by the
    register pass of :func:`fst.minimize`.  A machine with no cycle,
    such as a union of root lists, is minimized by that one pass; one
    with a cycle repeats the pass until its classes stop changing.

    ``#include "p"`` reads ``p`` in ``rule_file.base_dir``, or in the
    working directory when the text was parsed without one; an absolute
    ``p`` reads as itself.  A missing file raises :class:`IncludeNotFound`,
    and a ``$Name$`` that no earlier definition binds (possible only in a
    hand-built :class:`RuleFile`) :class:`UndefinedVariable`.

    The compile makes no reference cycle, so the cyclic garbage
    collector has nothing to find in it: the collector is paused for
    the call (:func:`gc.disable`), and its state comes back as it was
    on return and on an error.  The pause holds for the whole process,
    so cyclic garbage that another thread makes meanwhile waits until
    the compile ends.
    """
    defs: dict[str, Transducer] = {}
    machine = functools.partial(_machine, defs, symbols, rule_file.base_dir)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name, expr in rule_file.definitions:
            defs[name] = machine(expr)
        return fst.minimize(machine(rule_file.result))
    finally:
        if was_enabled:
            gc.enable()


def compile_file(path, symbols: SymbolTable) -> Transducer:
    """Parse and compile a rule file from disk."""
    return compile(parse_rules_file(path), symbols)
