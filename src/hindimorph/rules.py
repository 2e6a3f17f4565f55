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

import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from . import fst, lexicon
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
    def __init__(self, name: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: undefined variable ${name}$")
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


@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    depth = 0
    i = 0
    n = len(text)

    def err(msg: str, l=None, c=None):
        raise RuleSyntaxError(l or line, c or col, msg)

    def emit(kind, value=None, l=None, c=None):
        toks.append(_Token(kind, value, l or line, c or col))

    while i < n:
        ch = text[i]
        if ch == "\n":
            if depth == 0:
                emit("NEWLINE")
            i += 1
            line += 1
            col = 1
            continue
        if ch in _WS:
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        start_l, start_c = line, col
        if ch == "\\":
            if i + 1 >= n:
                err("dangling escape at end of file")
            esc = text[i + 1]
            if esc == "\n":
                err("cannot escape a newline")
            emit("SYM", esc, start_l, start_c)
            i += 2
            col += 2
            continue
        if ch == "<":
            end = text.find(">", i + 1)
            nl = text.find("\n", i + 1)
            if end < 0 or (0 <= nl < end):
                err("unterminated tag")
            body = text[i + 1 : end]
            if any(c in "<\\" for c in body):
                err("invalid character inside tag")
            if body:
                emit("TAG", f"<{body}>", start_l, start_c)
            else:
                emit("EPS", EPSILON_SYMBOL, start_l, start_c)
            col += end + 1 - i
            i = end + 1
            continue
        if ch == "$":
            end = text.find("$", i + 1)
            nl = text.find("\n", i + 1)
            if end < 0 or (0 <= nl < end):
                err("unterminated variable name")
            name = text[i + 1 : end]
            if not name or any(c in _WS or c in _SPECIAL for c in name):
                err("invalid variable name")
            emit("VAR", name, start_l, start_c)
            col += end + 1 - i
            i = end + 1
            continue
        if ch == "[":
            chars: list[str] = []
            j = i + 1
            ccol = col + 1
            while True:
                if j >= n or text[j] == "\n":
                    err("unterminated character class", start_l, start_c)
                cc = text[j]
                if cc == "]":
                    break
                if cc in _WS:
                    j += 1
                    ccol += 1
                    continue
                if cc == "\\":
                    if j + 1 >= n or text[j + 1] == "\n":
                        err("dangling escape in character class", line, ccol)
                    chars.append(text[j + 1])
                    j += 2
                    ccol += 2
                    continue
                if cc in "<>[$":
                    err(f"character {cc!r} not allowed in a class (escape it)",
                        line, ccol)
                chars.append(cc)
                j += 1
                ccol += 1
            if not chars:
                err("empty character class", start_l, start_c)
            emit("CLASS", tuple(sorted(set(chars))), start_l, start_c)
            col = ccol + 1
            i = j + 1
            continue
        if ch == "#":
            keyword = "#include"
            if text[i : i + len(keyword)] != keyword:
                err("expected #include")
            j = i + len(keyword)
            ccol = col + len(keyword)
            while j < n and text[j] in _WS:
                j += 1
                ccol += 1
            if j >= n or text[j] != '"':
                err("expected quoted path after #include", line, ccol)
            end = text.find('"', j + 1)
            nl = text.find("\n", j + 1)
            if end < 0 or (0 <= nl < end):
                err("unterminated include path", line, ccol)
            path = text[j + 1 : end]
            if not path:
                err("empty include path", line, ccol)
            emit("INCLUDE", path, start_l, start_c)
            col = ccol + (end - j) + 1
            i = end + 1
            continue
        if ch == "|":
            if i + 1 < n and text[i + 1] == "|":
                emit("COMPOSE")
                i += 2
                col += 2
            else:
                emit("PIPE")
                i += 1
                col += 1
            continue
        simple = {"=": "EQUALS", "*": "STAR", "+": "PLUS", "?": "OPT",
                  "(": "LPAREN", ")": "RPAREN", ":": "COLON", ";": "SEMI"}
        if ch in simple:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth = max(0, depth - 1)
            emit(simple[ch])
            i += 1
            col += 1
            continue
        if ch in {">", "]", '"'}:
            err(f"unexpected {ch!r}")
        emit("SYM", ch, start_l, start_c)
        i += 1
        col += 1
    toks.append(_Token("EOF", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser

_ATOM_STARTERS = {"SYM", "TAG", "EPS", "CLASS", "LPAREN", "VAR", "INCLUDE"}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.pos = 0
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
                expr = self.parse_expr()
                self.end_statement()
                definitions.append((name, expr))
                self.defined.add(name)
            else:
                result = self.parse_expr()
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
        while True:
            kind = self.peek().kind
            if kind == "STAR":
                self.next()
                node = Star(node)
            elif kind == "PLUS":
                self.next()
                node = Plus(node)
            elif kind == "OPT":
                self.next()
                node = Opt(node)
            else:
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
            expr = self.parse_expr()
            closing = self.next()
            if closing.kind != "RPAREN":
                self.error(closing, "expected ')'")
            return expr
        if tok.kind == "VAR":
            if tok.value not in self.defined:
                raise UndefinedVariable(tok.value, tok.line, tok.col)
            return VarRef(tok.value)
        if tok.kind == "INCLUDE":
            return Include(tok.value)
        self.error(tok, f"unexpected {_describe(tok)}")


def _describe(tok: _Token) -> str:
    names = {"NEWLINE": "end of line", "EOF": "end of file",
             "EQUALS": "'='", "PIPE": "'|'", "COMPOSE": "'||'",
             "STAR": "'*'", "PLUS": "'+'", "OPT": "'?'",
             "LPAREN": "'('", "RPAREN": "')'", "COLON": "':'",
             "SEMI": "';'"}
    if tok.kind in names:
        return names[tok.kind]
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
    return parse_rules(path.read_text(encoding="utf-8"), base_dir=path.parent)


# ---------------------------------------------------------------------------
# Pretty-printer

_PREC_COMPOSE, _PREC_UNION, _PREC_CONCAT, _PREC_POSTFIX = 0, 1, 2, 3


def _render_symbol(sym: str) -> str:
    if len(sym) == 1:
        if sym in _SPECIAL or sym in _WS or sym == "\n":
            return "\\" + sym
        return sym
    return sym  # "<Tag>" or "<>"


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
    if isinstance(node, Star):
        return render_node(node.expr, _PREC_POSTFIX) + "*"
    if isinstance(node, Plus):
        return render_node(node.expr, _PREC_POSTFIX) + "+"
    if isinstance(node, Opt):
        return render_node(node.expr, _PREC_POSTFIX) + "?"
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

def _resolve_include(path: str, base_dir: Path | None,
                     lexdir: Path | str | None) -> Path:
    candidates = []
    p = Path(path)
    if p.is_absolute():
        candidates.append(p)
    else:
        if base_dir is not None:
            candidates.append(Path(base_dir) / p)
        if lexdir is not None:
            candidates.append(Path(lexdir) / p)
        if base_dir is None and lexdir is None:
            candidates.append(p)
    for cand in candidates:
        if cand.is_file():
            return cand
    raise IncludeNotFound(path)


def _compile_node(node, symbols: SymbolTable, defs: dict[str, Transducer],
                  base_dir: Path | None, lexdir) -> Transducer:
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
        arcs = []
        for ch in node.chars:
            sid = symbols.intern(ch)
            arcs.append((0, sid, sid, 1))
        return fst.build(2, 0, (1,), arcs, symbols)
    if isinstance(node, Concat):
        machines = [_compile_node(p, symbols, defs, base_dir, lexdir)
                    for p in node.parts]
        result = machines[0]
        for m in machines[1:]:
            result = fst.concat(result, m)
        return result
    if isinstance(node, Union):
        machines = [_compile_node(p, symbols, defs, base_dir, lexdir)
                    for p in node.parts]
        result = machines[0]
        for m in machines[1:]:
            result = fst.union(result, m)
        return result
    if isinstance(node, Star):
        return fst.closure(_compile_node(node.expr, symbols, defs, base_dir, lexdir), "star")
    if isinstance(node, Plus):
        return fst.closure(_compile_node(node.expr, symbols, defs, base_dir, lexdir), "plus")
    if isinstance(node, Opt):
        return fst.closure(_compile_node(node.expr, symbols, defs, base_dir, lexdir), "optional")
    if isinstance(node, Compose):
        lhs = _compile_node(node.lhs, symbols, defs, base_dir, lexdir)
        rhs = _compile_node(node.rhs, symbols, defs, base_dir, lexdir)
        return fst.compose(lhs, rhs)
    if isinstance(node, VarRef):
        return defs[node.name]
    if isinstance(node, Include):
        resolved = _resolve_include(node.path, base_dir, lexdir)
        rows = [(root, infl) for _, root, infl in lexicon.read_lexicon_file(resolved)]
        if not rows:
            return fst.empty(symbols)
        return lexicon.compile_root_fst(rows, symbols)
    raise TypeError(f"not a rule AST node: {node!r}")


def compile(rule_file: RuleFile, symbols: SymbolTable,
            lexdir: Path | str | None = None) -> Transducer:
    """Compile a parsed rule file into a normalized transducer.

    Every definition is compiled once and shared by reference.  The
    result is epsilon-free, deterministic over the pair alphabet, and
    minimal.
    """
    defs: dict[str, Transducer] = {}
    for name, expr in rule_file.definitions:
        defs[name] = _compile_node(expr, symbols, defs, rule_file.base_dir, lexdir)
    result = _compile_node(rule_file.result, symbols, defs,
                           rule_file.base_dir, lexdir)
    return fst.minimize(result)


def compile_file(path, symbols: SymbolTable,
                 lexdir: Path | str | None = None) -> Transducer:
    """Parse and compile a rule file from disk."""
    return compile(parse_rules_file(path), symbols, lexdir)
