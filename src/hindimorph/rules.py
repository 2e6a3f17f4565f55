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
"""

from __future__ import annotations

import functools
import gc
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass(frozen=True)
class Literal:
    symbol: str  # single scalar, "<Tag>", or "<>" for the empty pair


@dataclass(frozen=True)
class Pair:
    lhs: str
    rhs: str


@dataclass(frozen=True)
class CharClass:
    chars: tuple[str, ...]


@dataclass(frozen=True)
class Concat:
    parts: tuple


@dataclass(frozen=True)
class Union:
    parts: tuple


@dataclass(frozen=True)
class Star:
    expr: object


@dataclass(frozen=True)
class Plus:
    expr: object


@dataclass(frozen=True)
class Opt:
    expr: object


@dataclass(frozen=True)
class Compose:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Include:
    path: str


@dataclass(frozen=True)
class RuleFile:
    definitions: tuple[tuple[str, object], ...]
    result: object
    base_dir: Path | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Lexer

_SPECIAL = set("$%()[]*+?|:<>#\"=;\\")
_WS = {" ", "\t", "\r"}
# One-character operators; "||" (COMPOSE) is matched before "|".
_PUNCTUATION = {"=": "EQUALS", "*": "STAR", "+": "PLUS", "?": "OPT", "|": "PIPE",
                "(": "LPAREN", ")": "RPAREN", ":": "COLON", ";": "SEMI"}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    """The tokens of NFC-normalized rule text, ending with ``EOF``.

    Each token and each :class:`RuleSyntaxError` carries the line and
    column of its first character.  The column is derived from offsets,
    ``offset - line_start + 1``, so it counts Unicode scalars: a tab or
    a combining mark is one column.
    """
    toks: list[_Token] = []
    line, line_start = 1, 0
    depth = 0
    i = 0
    n = len(text)

    def err(msg: str, at: int):
        raise RuleSyntaxError(line, at - line_start + 1, msg)

    def emit(kind: str, at: int, value=None):
        toks.append(_Token(kind, value, line, at - line_start + 1))

    def closing(opening: int, closer: str, what: str) -> int:
        """Offset of the first `closer` after `opening` on its line."""
        end = text.find(closer, opening + 1)
        nl = text.find("\n", opening + 1)
        if end < 0 or (0 <= nl < end):
            err(f"unterminated {what}", opening)
        return end

    while i < n:
        ch = text[i]
        if ch == "\n":
            if depth == 0:
                emit("NEWLINE", i)
            i += 1
            line, line_start = line + 1, i
        elif ch in _WS:
            i += 1
        elif ch == "%":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "\\":
            if i + 1 >= n:
                err("dangling escape at end of file", i)
            if text[i + 1] == "\n":
                err("cannot escape a newline", i)
            emit("SYM", i, text[i + 1])
            i += 2
        elif ch == "<":
            end = closing(i, ">", "tag")
            body = text[i + 1 : end]
            if any(c in "<\\" for c in body):
                err("invalid character inside tag", i)
            if body:
                emit("TAG", i, f"<{body}>")
            else:
                emit("EPS", i, EPSILON_SYMBOL)
            i = end + 1
        elif ch == "$":
            end = closing(i, "$", "variable name")
            name = text[i + 1 : end]
            if not name or any(c in _WS or c in _SPECIAL for c in name):
                err("invalid variable name", i)
            emit("VAR", i, name)
            i = end + 1
        elif ch == "[":
            chars: list[str] = []
            j = i + 1
            while j < n and text[j] not in "]\n":
                cc = text[j]
                if cc == "\\":
                    if j + 1 >= n or text[j + 1] == "\n":
                        err("dangling escape in character class", j)
                    j += 1
                    chars.append(text[j])
                elif cc in "<>[$":
                    err(f"character {cc!r} not allowed in a class (escape it)", j)
                elif cc not in _WS:
                    chars.append(cc)
                j += 1
            if j >= n or text[j] == "\n":
                err("unterminated character class", i)
            if not chars:
                err("empty character class", i)
            emit("CLASS", i, tuple(sorted(set(chars))))
            i = j + 1
        elif ch == "#":
            if not text.startswith("#include", i):
                err("expected #include", i)
            j = i + len("#include")
            while j < n and text[j] in _WS:
                j += 1
            if j >= n or text[j] != '"':
                err("expected quoted path after #include", j)
            end = closing(j, '"', "include path")
            if end == j + 1:
                err("empty include path", j)
            emit("INCLUDE", i, text[j + 1 : end])
            i = end + 1
        elif text.startswith("||", i):
            emit("COMPOSE", i)
            i += 2
        elif ch in _PUNCTUATION:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth = max(0, depth - 1)
            emit(_PUNCTUATION[ch], i)
            i += 1
        elif ch in '>]"':
            err(f"unexpected {ch!r}", i)
        else:
            emit("SYM", i, ch)
            i += 1
    emit("EOF", n)
    return toks


# ---------------------------------------------------------------------------
# Parser

_ATOM_STARTERS = {"SYM", "TAG", "EPS", "CLASS", "LPAREN", "VAR", "INCLUDE"}
# Each closure node with its operator and its fst.closure mode.
_CLOSURES = {Star: ("*", "star"), Plus: ("+", "plus"), Opt: ("?", "optional")}
_POSTFIX = {_PUNCTUATION[op]: node for node, (op, _) in _CLOSURES.items()}
_TOKEN_NAMES = {"NEWLINE": "end of line", "EOF": "end of file", "COMPOSE": "'||'",
                **{kind: f"'{ch}'" for ch, kind in _PUNCTUATION.items()}}
# Caps open parentheses and AST height, far below Python's recursion limit.
_MAX_NESTING = 100
_TOO_DEEP = f"expression is nested too deeply (more than {_MAX_NESTING} levels)"


def _children(node) -> tuple:
    """The operands of an AST node; a leaf or a ``$Name$`` has none."""
    if isinstance(node, (Concat, Union)):
        return node.parts
    if isinstance(node, Compose):
        return node.lhs, node.rhs
    if type(node) in _CLOSURES:
        return (node.expr,)
    return ()


def _height(node) -> int:
    """Levels of the AST under `node`, counted without recursion."""
    height, level = 0, [node]
    while level:
        height, level = height + 1, [child for n in level for child in _children(n)]
    return height


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.pos = 0
        self.depth = 0  # parentheses open at the current token
        self.defined: set[str] = set()

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
        definitions: list[tuple[str, object]] = []
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
                definitions.append((name, expr))
                self.defined.add(name)
            else:
                result = self.parse_statement_expr()
                self.end_statement()
        if result is None:
            raise EmptyRuleFile("rule file has no result expression")
        return tuple(definitions), result

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
        expr = self.parse_expr()
        if _height(expr) > _MAX_NESTING:
            self.error(start, _TOO_DEEP)
        return expr

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
    if tok.kind in _TOKEN_NAMES:
        return _TOKEN_NAMES[tok.kind]
    return f"{tok.kind.lower()} {tok.value!r}"


def parse_rules(text: str, base_dir: Path | str | None = None) -> RuleFile:
    """Parse rule text into a :class:`RuleFile`.

    Text is NFC-normalized first, so byte-level differences between
    precomposed and decomposed Devanagari never reach the grammar.
    """
    toks = _lex(unicodedata.normalize("NFC", text))
    definitions, result = _Parser(toks).parse_file()
    return RuleFile(definitions, result,
                    Path(base_dir) if base_dir is not None else None)


def parse_rules_file(path) -> RuleFile:
    path = Path(path)
    return parse_rules(_text.read_text(path, RuleError), base_dir=path.parent)


# ---------------------------------------------------------------------------
# Pretty-printer

_PREC_COMPOSE, _PREC_UNION, _PREC_CONCAT, _PREC_POSTFIX = 0, 1, 2, 3


def _render_symbol(sym: str) -> str:
    # a tag ("<Tag>" or "<>") is never in these one-character sets
    if sym in _SPECIAL or sym in _WS or sym == "\n":
        return "\\" + sym
    return sym


def render_node(node, parent_prec: int = 0) -> str:
    """Rule-language text for an AST node (re-parses to an equal AST)."""
    if isinstance(node, Literal):
        return _render_symbol(node.symbol)
    if isinstance(node, Pair):
        return f"{_render_symbol(node.lhs)}:{_render_symbol(node.rhs)}"
    if isinstance(node, CharClass):
        body = "".join("\\" + c if (c in _SPECIAL or c in _WS) else c
                       for c in node.chars)
        return f"[{body}]"
    if isinstance(node, VarRef):
        return f"${node.name}$"
    if isinstance(node, Include):
        return f'#include "{node.path}"'
    if type(node) in _CLOSURES:
        return render_node(node.expr, _PREC_POSTFIX) + _CLOSURES[type(node)][0]
    if isinstance(node, Concat):
        text = " ".join(render_node(p, _PREC_CONCAT) for p in node.parts)
        return f"( {text} )" if parent_prec > _PREC_CONCAT else text
    if isinstance(node, Union):
        text = " | ".join(render_node(p, _PREC_UNION) for p in node.parts)
        return f"( {text} )" if parent_prec > _PREC_UNION else text
    if isinstance(node, Compose):
        text = (render_node(node.lhs, _PREC_COMPOSE) + " || "
                + render_node(node.rhs, _PREC_COMPOSE))
        return f"( {text} )" if parent_prec > _PREC_COMPOSE else text
    raise TypeError(f"not a rule AST node: {node!r}")


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
    machine = functools.partial(_machine, defs, symbols, base_dir)
    if isinstance(node, (Concat, Union)):
        return (fst.concat if isinstance(node, Concat) else fst.union)(*map(machine, node.parts))
    # a closure and a composition start from minimal operands, so that
    # their products stay small
    if type(node) in _CLOSURES:
        return fst.closure(fst.minimize(machine(node.expr)), _CLOSURES[type(node)][1])
    if isinstance(node, Compose):
        return fst.compose(fst.minimize(machine(node.lhs)), fst.minimize(machine(node.rhs)))
    if isinstance(node, VarRef):
        if node.name not in defs:
            raise UndefinedVariable(node.name)
        return defs[node.name]
    if isinstance(node, Include):
        # an absolute path joined to a directory is that path again
        path = Path(base_dir or "", node.path)
        if not path.is_file():
            raise IncludeNotFound(node.path)
        return lexicon.compile_root_fst(lexicon.read_lexicon_file(path), symbols)
    raise TypeError(f"not a rule AST node: {node!r}")


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
