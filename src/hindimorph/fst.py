"""Finite-state transducers over an interned symbol alphabet.

A :class:`Transducer` is an immutable labeled directed graph denoting a
regular relation: the set of (input, output) string pairs read along
accepting paths, where an epsilon label component contributes nothing
to its side.  This module provides the relation algebra (union,
concatenation, closure, composition, inversion, projection), the
minimal machine of a finite set of strings (:func:`string_set`),
normalization (epsilon removal, determinization, minimization), runtime
application on either tape (:func:`apply` answers the texts written for
a text read; :func:`lookup` does the same on label ids), bounded pair
enumeration, and a binary file format.

Determinization works over the *pair* alphabet: each input:output label
is treated as one atomic symbol.  True input-side determinization does
not exist for every relation, but pair determinization always does, and
it is what the minimizer and the serialized models rely on.
"""

from __future__ import annotations

import re
import struct
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, compress, islice, repeat
from operator import gt, le, not_, or_
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from . import _text
from ._binary import Reader, little_endian, pack_str

EPSILON = 0
EPSILON_SYMBOL = "<>"


class FstError(Exception):
    """Base class for errors raised by this module."""


class InvalidStateId(FstError):
    pass


class InvalidSymbolId(FstError):
    pass


class SymbolTableMismatch(FstError):
    pass


class UnknownSymbol(FstError):
    pass


class EpsilonCycle(FstError):
    pass


class UnterminatedTag(FstError):
    pass


class SymbolTable:
    """Bidirectional map between symbols and dense integer ids.

    A symbol is either a single Unicode scalar ("क", "a", " ") or a
    multi-character tag written in angle brackets ("<Noun>").  Id 0 is
    reserved for the epsilon symbol ``<>``.
    """

    __slots__ = ("_entries", "_ids")

    def __init__(self, symbols: Iterable[str] = ()):
        self._entries: list[str] = [EPSILON_SYMBOL]
        self._ids: dict[str, int] = {EPSILON_SYMBOL: EPSILON}
        for sym in symbols:
            self.intern(sym)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __repr__(self) -> str:
        return f"SymbolTable({len(self)} symbols)"

    def intern(self, symbol: str) -> int:
        """Return the id of `symbol`, assigning the next free id if new."""
        sid = self._ids.get(symbol)
        if sid is None:
            if not symbol:
                raise UnknownSymbol("cannot intern an empty symbol")
            sid = len(self._entries)
            self._entries.append(symbol)
            self._ids[symbol] = sid
        return sid

    def id_of(self, symbol: str) -> int | None:
        """Id of an already-interned symbol, or None if absent."""
        return self._ids.get(symbol)

    def lookup(self, sid: int) -> str:
        """Symbol string for an id."""
        if not 0 <= sid < len(self._entries):
            raise InvalidSymbolId(f"symbol id {sid} out of range")
        return self._entries[sid]


def scan(text: str, table: SymbolTable, *, intern: bool = False) -> list[int]:
    """Scan a lexical string into a list of symbol ids.

    A ``<``...``>`` span (up to the first ``>``) forms one multi-character
    tag symbol; any other Unicode scalar is one symbol.  A literal ``<>``
    denotes epsilon and contributes nothing.  With ``intern=False`` a
    symbol absent from the table raises :class:`UnknownSymbol`; with
    ``intern=True`` it is added, in text order.  A ``<`` that no ``>``
    follows raises :class:`UnterminatedTag`, once the symbols before it
    are read: an unknown one among them raises first, and with
    ``intern=True`` they are interned.
    """
    symbols = text
    cut = -1
    if "<" in text:
        cut = text.find("<", text.rfind(">") + 1)  # the unclosed "<", if any
        symbols = [s for s in re.findall(r"(?s)<[^>]*>|.", text[:cut] if cut >= 0 else text)
                   if s != EPSILON_SYMBOL]
    ids = list(map(table._ids.get, symbols))
    if None in ids:
        if not intern:
            raise UnknownSymbol(f"symbol {symbols[ids.index(None)]!r} not in table")
        ids = list(map(table.intern, symbols))
    if cut >= 0:
        raise UnterminatedTag(f"unterminated tag at offset {cut}: {text[cut:]!r}")
    return ids


def render(ids: Iterable[int], table: SymbolTable) -> str:
    """Concatenate the symbols for `ids`, skipping epsilons."""
    return "".join(table.lookup(i) for i in ids if i != EPSILON)


class Arc(NamedTuple):
    src: int
    ilab: int
    olab: int
    dst: int


class Transducer:
    """An immutable transducer.  Construct through :func:`build` or
    :func:`from_bytes`.

    The arcs are four ``array("I")`` columns, ``_cols = (src, ilab,
    olab, dst)``, sorted by (src, ilab, olab, dst): arc ``k`` is
    ``(src[k], ilab[k], olab[k], dst[k])``.  The arcs leaving state
    ``s`` are those from ``_first[s]`` up to ``_first[s + 1]``, where
    `_first` is an ``array("I")`` of ``state_count + 1`` offsets.  The
    first :func:`lookup` on a side fills ``_sides[side]``: the side's
    epsilon-closure table (see :func:`lookup`), then the columns of
    the label read, the label written and the target, in (src, read
    label, written label, dst) order.  They are the machine's own
    columns for "input", and one re-sorted copy for "output"; each
    state's arcs keep their offsets in both orders.  No :class:`Arc` is
    made until `arcs` is read.  The first :func:`minimize` of the
    machine keeps its result in ``_minimal``.
    """

    __slots__ = ("state_count", "start", "finals", "symbols", "_cols", "_first",
                 "_arcs", "_sides", "_minimal")

    def __init__(self, state_count: int, start: int, finals: frozenset[int],
                 cols: tuple[array, ...], symbols: SymbolTable, first: array | None = None):
        self.state_count = state_count
        self.start = start
        self.finals = finals
        self.symbols = symbols
        self._cols = cols
        self._first = first or array("I", accumulate(  # counted from the sources if not given
            map(Counter(cols[0]).get, range(state_count), repeat(0)), initial=0))
        self._arcs: tuple[Arc, ...] | None = None
        self._sides: dict[str, tuple[_Closures, array, array, array]] = {}
        self._minimal: Transducer | None = None

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc, sorted by (src, ilab, olab, dst); built from the
        columns on first use and then kept."""
        if self._arcs is None:
            self._arcs = tuple(map(Arc._make, zip(*self._cols)))
        return self._arcs

    @property
    def arc_count(self) -> int:
        """The number of arcs, read from the columns without building `arcs`."""
        return len(self._cols[0])

    def __repr__(self) -> str:
        return (f"Transducer({self.state_count} states, {self.arc_count} arcs, "
                f"{len(self.finals)} final)")


def _columns(rows: Iterable[tuple[int, int, int, int]]) -> tuple[array, ...]:
    """The fields of `rows` as ``array("I")`` columns, in row order."""
    return (tuple(array("I", col) for col in zip(*rows))
            or (array("I"), array("I"), array("I"), array("I")))


def _freeze(state_count: int, start: int, finals: Iterable[int],
            cols: tuple[array, ...] | None, rows: Iterable[tuple[int, int, int, int]],
            symbols: SymbolTable, first: array | None = None) -> Transducer:
    """Check a machine's fields and freeze it; the one check behind
    :func:`build`, :func:`from_bytes` and :func:`_number`.

    `cols` are the arcs as sorted ``array("I")`` columns, or None when
    some field fits no ``array("I")``; `first`, the per-state offsets
    into them, is counted from the sources when not given.  The columns
    are range-checked whole: an ``array("I")`` holds no negative value,
    so each column's maximum decides, and the sorted sources end with
    theirs.  Only when that fails are `rows`, the arcs in the order
    given, walked to name the first bad field.
    """
    if state_count < 1:
        raise InvalidStateId("a transducer needs at least one state")
    if not 0 <= start < state_count:
        raise InvalidStateId(f"start state {start} out of range")
    final_set = frozenset(finals)
    for f in final_set:
        if not 0 <= f < state_count:
            raise InvalidStateId(f"final state {f} out of range")
    n_syms = len(symbols)
    if (cols is None or len(cols) != 4
            or cols[0] and (cols[0][-1] >= state_count or max(cols[3]) >= state_count
                            or max(cols[1]) >= n_syms or max(cols[2]) >= n_syms)):
        for src, ilab, olab, dst in rows:
            if not 0 <= src < state_count:
                raise InvalidStateId(f"arc source {src} out of range")
            if not 0 <= dst < state_count:
                raise InvalidStateId(f"arc target {dst} out of range")
            if not 0 <= ilab < n_syms:
                raise InvalidSymbolId(f"arc input symbol {ilab} out of range")
            if not 0 <= olab < n_syms:
                raise InvalidSymbolId(f"arc output symbol {olab} out of range")
        raise TypeError("arc fields must be integers below 2**32")
    return Transducer(state_count, start, final_set, cols, symbols, first)


def build(state_count: int, start: int, finals: Iterable[int],
          arcs: Iterable[tuple[int, int, int, int]],
          symbols: SymbolTable) -> Transducer:
    """Validate and freeze a transducer.

    The arcs are sorted by (src, ilab, olab, dst), so that structurally
    identical machines serialize identically, and stored as columns
    (see :class:`Transducer`).  A state, final or arc field out of
    range raises :class:`InvalidStateId` or :class:`InvalidSymbolId`,
    naming the first bad arc in the order given.
    """
    rows = list(arcs)
    try:
        cols = _columns(sorted(rows))
    except (OverflowError, TypeError):  # a negative or non-integer field
        cols = None
    return _freeze(state_count, start, finals, cols, rows, symbols)


def empty(symbols: SymbolTable) -> Transducer:
    """The empty relation (accepts nothing)."""
    return build(1, 0, (), (), symbols)


def epsilon(symbols: SymbolTable) -> Transducer:
    """The relation containing only ("", "")."""
    return build(1, 0, (0,), (), symbols)


def single_arc(symbols: SymbolTable, ilab: int, olab: int) -> Transducer:
    """A two-state machine with one ilab:olab arc."""
    return build(2, 0, (1,), ((0, ilab, olab, 1),), symbols)


def string_set(strings: Iterable[list[int]], symbols: SymbolTable) -> Transducer:
    """The minimal machine that maps each symbol-id string of `strings`
    to itself, the machine :func:`minimize` makes of their trie: repeats
    collapse, ``[]`` makes the start final, and no string at all gives
    :func:`empty`.

    The strings are sorted by id, and each one adds to the trie only the
    states past its common prefix with the string before it.  So every
    state comes after its parent and every row is in label order, and
    :func:`_fold` runs from the last state back with no search.  An id
    that is epsilon or not in `symbols` raises :class:`InvalidSymbolId`.
    """
    n_syms = len(symbols)
    pair = n_syms + 1  # the label of the identity arc sid:sid is sid * pair
    rows: list[list[tuple[int, int]]] = [[]]
    finals = set()
    path = [0]  # the states of the previous string, the start first
    prev: list[int] = []
    for ids in sorted(strings):
        k, common = 0, min(len(ids), len(prev))
        while k < common and ids[k] == prev[k]:
            k += 1
        del path[k + 1:]
        for sid in ids[k:]:  # the ids before k were checked in `prev`
            if not 0 < sid < n_syms:
                raise InvalidSymbolId(f"symbol id {sid} out of range 1..{n_syms - 1}")
            rows[path[-1]].append((sid * pair, len(rows)))
            path.append(len(rows))
            rows.append([])
        finals.add(path[-1])
        prev = ids
    return _fold(rows, finals, range(len(rows) - 1, -1, -1), 0, symbols)


def _require_shared(a: Transducer, *more: Transducer) -> None:
    if any(b.symbols is not a.symbols for b in more):
        raise SymbolTableMismatch("operands must share one SymbolTable")


def _shifted(a: Transducer, offset: int) -> Iterator[tuple[int, int, int, int]]:
    """The arcs of `a` as rows, with both ends moved up by `offset`."""
    src, ilab, olab, dst = a._cols
    return zip(map(offset.__add__, src), ilab, olab, map(offset.__add__, dst))


def _offsets(machines: tuple[Transducer, ...], first: int) -> list[int]:
    """Where each machine's states start when they are laid out one after
    another from state `first`, and then the state count of the whole."""
    return list(accumulate((m.state_count for m in machines), initial=first))


def union(a: Transducer, *more: Transducer) -> Transducer:
    """Relation union of `a` and every machine of `more`, built in one
    pass: a fresh start state 0 with an epsilon arc to each operand's
    start, and :func:`build` called once."""
    _require_shared(a, *more)
    machines = (a, *more)
    offsets = _offsets(machines, 1)
    arcs = []
    finals = []
    for m, off in zip(machines, offsets):
        arcs.append((0, EPSILON, EPSILON, m.start + off))
        arcs += _shifted(m, off)
        finals += [f + off for f in m.finals]
    return build(offsets[-1], 0, finals, arcs, a.symbols)


def concat(a: Transducer, *more: Transducer) -> Transducer:
    """Pairwise concatenation: {(xu, yv) | (x,y) in a, (u,v) in b}, of `a`
    and every machine of `more` in turn, built in one pass: an epsilon
    arc from each operand's finals to the next one's start, and
    :func:`build` called once."""
    _require_shared(a, *more)
    machines = (a, *more)
    offsets = _offsets(machines, 0)
    arcs = list(zip(*a._cols))
    for prev, prev_off, m, off in zip(machines, offsets, more, offsets[1:]):
        arcs += [(f + prev_off, EPSILON, EPSILON, m.start + off) for f in prev.finals]
        arcs += _shifted(m, off)
    finals = [f + offsets[-2] for f in machines[-1].finals]
    return build(offsets[-1], a.start, finals, arcs, a.symbols)


def closure(a: Transducer, mode: str = "star") -> Transducer:
    """Kleene closure: mode is "star", "plus", or "optional"."""
    if mode == "star":
        # Fresh state 0 is both start and the only final; looping back
        # through it keeps a's own finals from accepting mid-iteration.
        arcs = [(0, EPSILON, EPSILON, a.start + 1)]
        arcs += _shifted(a, 1)
        arcs += [(f + 1, EPSILON, EPSILON, 0) for f in a.finals]
        return build(1 + a.state_count, 0, (0,), arcs, a.symbols)
    if mode == "plus":
        arcs = list(zip(*a._cols))
        arcs += [(f, EPSILON, EPSILON, a.start) for f in a.finals]
        return build(a.state_count, a.start, a.finals, arcs, a.symbols)
    if mode == "optional":
        return union(a, epsilon(a.symbols))
    raise ValueError(f"unknown closure mode {mode!r}")


def compose(a: Transducer, b: Transducer) -> Transducer:
    """Relation composition: {(x, z) | exists y: (x,y) in a, (y,z) in b}.

    Product construction over reachable state pairs.  Arcs of `a` that
    write epsilon advance only `a`; arcs of `b` that read epsilon
    advance only `b`; so epsilon meetings on the shared tape are never
    lost (the same pair may gain redundant paths, which is harmless for
    an unweighted relation).
    """
    _require_shared(a, b)
    b_by_ilab: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for src, ilab, olab, dst in zip(*b._cols):
        b_by_ilab.setdefault((src, ilab), []).append((olab, dst))
    a_first = a._first
    a_rows = list(zip(*a._cols[1:]))

    start = (a.start, b.start)
    ids: dict[tuple[int, int], int] = {start: 0}
    order = [start]
    arcs: list[tuple[int, int, int, int]] = []
    for sid, (p, q) in enumerate(order):  # grows during the loop: a breadth-first search
        moves = set()
        for ilab, olab, dst in a_rows[a_first[p]:a_first[p + 1]]:
            if olab == EPSILON:
                moves.add((ilab, EPSILON, dst, q))
            else:
                for b_olab, b_dst in b_by_ilab.get((q, olab), ()):
                    moves.add((ilab, b_olab, dst, b_dst))
        for b_olab, b_dst in b_by_ilab.get((q, EPSILON), ()):
            moves.add((EPSILON, b_olab, p, b_dst))
        for ilab, olab, np, nq in sorted(moves):
            tid = ids.get((np, nq))
            if tid is None:
                tid = len(order)
                ids[(np, nq)] = tid
                order.append((np, nq))
            arcs.append((sid, ilab, olab, tid))
    finals = [sid for sid, (p, q) in enumerate(order)
              if p in a.finals and q in b.finals]
    return build(len(order), 0, finals, arcs, a.symbols)


def invert(a: Transducer) -> Transducer:
    """Swap the input and output tapes."""
    src, ilab, olab, dst = a._cols
    return build(a.state_count, a.start, a.finals, zip(src, olab, ilab, dst), a.symbols)


def project(a: Transducer, side: str = "input") -> Transducer:
    """Identity acceptor of one tape's language ("input" or "output")."""
    src, ilab, olab, dst = a._cols
    if side == "input":
        arcs = set(zip(src, ilab, ilab, dst))
    elif side == "output":
        arcs = set(zip(src, olab, olab, dst))
    else:
        raise ValueError(f"unknown projection side {side!r}")
    return build(a.state_count, a.start, a.finals, arcs, a.symbols)


def _eps_free_rows(a: Transducer) -> tuple[list[list[tuple[int, int]]], set[int]]:
    """The arcs of `a` without (epsilon, epsilon) arcs, as per-state rows.

    Each row lists ``(label, dst)`` pairs, sorted and without repeats,
    where ``label = ilab * len(symbols) + olab`` (so label order is
    (ilab, olab) order, and 0 is the epsilon pair).  A state whose
    epsilon closure holds a final state is final, and its row gathers
    the real arcs of its whole closure; a state with no epsilon arc
    keeps its own arcs.
    """
    n_syms = len(a.symbols)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(a.state_count)]
    eps_next: dict[int, list[int]] = {}
    prev = None
    for arc in zip(*a._cols):  # sorted, so repeated arcs are adjacent
        if arc == prev:
            continue
        prev = arc
        src, ilab, olab, dst = arc
        if ilab or olab:
            rows[src].append((ilab * n_syms + olab, dst))
        else:
            eps_next.setdefault(src, []).append(dst)
    finals = set(a.finals)
    merged: dict[int, list[tuple[int, int]]] = {}
    for s in eps_next:
        closure = {s}
        stack = [s]
        while stack:
            for t in eps_next.get(stack.pop(), ()):
                if t not in closure:
                    closure.add(t)
                    stack.append(t)
        if not finals.isdisjoint(closure):
            finals.add(s)
        merged[s] = sorted({pair for t in closure for pair in rows[t]})
    for s, row in merged.items():
        rows[s] = row
    return rows, finals


def _subset(rows: list[list[tuple[int, int]]], finals: set[int],
            start: int) -> tuple[list[list[tuple[int, int]]], set[int]]:
    """Subset construction over the pair alphabet, on rows of
    :func:`_eps_free_rows`.  The result's states are the subsets reached
    from ``{start}``, numbered breadth-first by sorted label (state 0
    is the start)."""
    first = frozenset((start,))
    ids: dict[frozenset[int], int] = {first: 0}
    order = [first]
    det_rows: list[list[tuple[int, int]]] = []
    det_finals: set[int] = set()
    for sid, cur in enumerate(order):  # `order` grows as subsets are found
        if not finals.isdisjoint(cur):
            det_finals.add(sid)
        grouped: dict[int, set[int]] = {}
        for s in cur:
            for label, dst in rows[s]:
                grouped.setdefault(label, set()).add(dst)
        row = []
        for label in sorted(grouped):
            target = frozenset(grouped[label])
            tid = ids.get(target)
            if tid is None:
                tid = ids[target] = len(order)
                order.append(target)
            row.append((label, tid))
        det_rows.append(row)
    return det_rows, det_finals


def _rows_to_arcs(rows: list[list[tuple[int, int]]],
                  n_syms: int) -> list[tuple[int, int, int, int]]:
    return [(src, *divmod(label, n_syms), dst)
            for src, row in enumerate(rows) for label, dst in row]


def remove_epsilons(a: Transducer) -> Transducer:
    """An equivalent machine with no (epsilon, epsilon) arcs.

    One-sided epsilon labels (a:<> or <>:b) are real symbol moves and
    stay.  Already epsilon-free machines are returned unchanged.
    """
    if EPSILON not in map(or_, a._cols[1], a._cols[2]):
        return a
    rows, finals = _eps_free_rows(a)
    return build(a.state_count, a.start, finals,
                 _rows_to_arcs(rows, len(a.symbols)), a.symbols)


def determinize(a: Transducer) -> Transducer:
    """Subset construction over the pair alphabet.

    In the result every state has at most one outgoing arc per distinct
    (input, output) label.  (epsilon, epsilon) arcs are removed first;
    one-sided epsilon labels count as ordinary alphabet symbols.  States
    are the subsets reachable from the start, numbered breadth-first by
    sorted label.  :func:`minimize` runs the same construction.
    """
    rows, finals = _subset(*_eps_free_rows(a), a.start)
    return build(len(rows), 0, finals, _rows_to_arcs(rows, len(a.symbols)), a.symbols)


def _postorder(rows: list, roots: Iterable[int]) -> tuple[list[int], bool]:
    """The states reached from `roots` over rows of (label, dst) pairs,
    children first, by an iterative depth-first search, and whether the
    search met a cycle: an arc back to a state still on its stack.  With
    no cycle, every state comes after each state it reaches."""
    mark = [0] * len(rows)  # 1: on the stack, 2: listed
    order: list[int] = []
    cyclic = False
    for root in roots:
        if mark[root]:
            continue
        mark[root] = 1
        stack = [(root, iter(rows[root]))]
        while stack:
            s, arcs = stack[-1]
            for _, dst in arcs:
                if not mark[dst]:
                    mark[dst] = 1
                    stack.append((dst, iter(rows[dst])))
                    break
                if mark[dst] == 1:
                    cyclic = True
            else:
                stack.pop()
                mark[s] = 2
                order.append(s)
    return order, cyclic


def _fold(rows: list[list[tuple[int, int]]], finals: set[int], order: Iterable[int] | None,
          start: int, symbols: SymbolTable) -> Transducer:
    """The minimal machine of `rows` from `start`.  A pass classes each
    state with a register keyed by (final, label -> class map); a state
    with no final and no arc into a class is dead and has none.

    Given `order`, the states `start` reaches, children first, one pass
    updates the classes in place and classes every state on an accepting
    path (Revuz 1992).  Given None (a cycle), each pass runs over every
    state reading the classes of the pass before, which starts from all
    dead, so it tells states apart by one more label; the passes repeat
    until the classes come back unchanged (Moore 1956).  :func:`_number`
    numbers the classes."""
    cyclic = order is None
    cls: list[int | None] = [None] * len(rows)
    while True:
        new = [None] * len(rows) if cyclic else cls
        register: dict[tuple, int] = {}
        for s in range(len(rows)) if cyclic else order:
            row = tuple([(label, c) for label, dst in rows[s] if (c := cls[dst]) is not None])
            final = s in finals
            if row or final:  # else dead: no class, and no arc into it
                new[s] = register.setdefault((final, row), len(register))
        if not cyclic or new == cls:
            return _number(list(register), cls[start], symbols)
        cls = new


def _number(classes: list[tuple[bool, tuple]], top: int | None,
            symbols: SymbolTable) -> Transducer:
    """The machine of `classes`, each (final, ((label, target class),
    ...)) in label order, from class `top` (None: the empty machine).
    The classes `top` reaches are numbered breadth-first by label, so
    equal relations always give the identical machine.  The arcs come
    out in (src, ilab, olab, dst) order, each state's after the last
    one's, so they go to :func:`_freeze` with their offsets and skip
    :func:`build`'s sort."""
    if top is None:
        return empty(symbols)
    n_syms = len(symbols)
    number: list[int | None] = [None] * len(classes)
    number[top] = 0
    seq = [top]
    arcs, first = [], array("I", [0])
    for cid, c in enumerate(seq):  # grows during the loop: a breadth-first search
        for label, tc in classes[c][1]:
            tid = number[tc]
            if tid is None:
                tid = number[tc] = len(seq)
                seq.append(tc)
            arcs.append((cid, *divmod(label, n_syms), tid))
        first.append(len(arcs))
    return _freeze(len(seq), 0, [cid for cid, c in enumerate(seq) if classes[c][0]],
                   _columns(arcs), arcs, symbols, first)


def minimize(a: Transducer) -> Transducer:
    """Minimal deterministic machine (pair alphabet) for a's relation.

    This is the one normalization call.  It works on plain per-state
    rows of (label, dst) and calls :func:`build` once, at the end:

    1. (epsilon, epsilon) arcs are removed, as by :func:`remove_epsilons`;
    2. the pair-alphabet subset construction of :func:`determinize`
       runs only if some state still has two arcs with one label (a
       trie or an already minimal machine skips it);
    3. a depth-first search (:func:`_postorder`, which the epsilon-cycle
       guard of :func:`lookup` runs too) lists the states children first
       and tells whether it met a cycle, and :func:`_fold` classes the
       states with a register keyed by (final, label -> class map): in
       one pass over that list (Revuz 1992), or on a cycle in repeated
       passes over every state until the classes stop changing, which
       drops the states on no accepting path and merges
       indistinguishable ones (Moore 1956).
       :func:`string_set` runs the same fold over a trie;
    4. the classes are numbered breadth-first from the start, by sorted
       label, so equal relations always give the identical machine.

    The result is kept on `a` (not the other way round, so no reference
    cycle is made), and a repeat call on `a` returns it: a definition
    used as several operands is minimized once.
    """
    if a._minimal is None:
        rows, finals = _eps_free_rows(a)
        start = a.start
        if not all(len(row) == len(dict(row)) for row in rows):
            rows, finals = _subset(rows, finals, start)
            start = 0
        order, cyclic = _postorder(rows, (start,))
        a._minimal = _fold(rows, finals, None if cyclic else order, start, a.symbols)
    return a._minimal


def _tapes(side: str) -> tuple[int, int]:
    """Indices (into an arc or ``Transducer._cols``) of the tape read
    and the tape written on `side`."""
    if side == "input":
        return 1, 2
    if side == "output":
        return 2, 1
    raise ValueError(f"unknown apply side {side!r}")


def _emitting_eps_cycle_states(a: Transducer, side: str) -> frozenset[int]:
    """States inside a cycle that reads epsilon on `side` and writes on
    the other tape.

    Reaching such a state during application means infinitely many
    outputs, so :func:`lookup` refuses.  Computed from the strongly
    connected components of the subgraph of arcs that read epsilon: an
    SCC is bad when one of its internal arcs writes a symbol (an arc
    with both ends in one SCC always lies on a cycle).  The components
    come from Kosaraju's two searches, which need no per-state low-link
    bookkeeping: the depth-first search of :func:`_postorder`, which
    :func:`minimize` runs too, and a flood over the reversed arcs, which
    is skipped when the first search meets no cycle.  Both are iterative,
    so a long cycle cannot overflow the stack.  Reads the machine's
    columns; the arcs that read epsilon are found at C speed.
    """
    src, dst = a._cols[0], a._cols[3]
    read, write = (a._cols[k] for k in _tapes(side))
    eps_arcs = list(compress(range(len(read)), map(not_, read)))
    # Kosaraju over the epsilon subgraph.  A state with no arc that reads
    # epsilon is a component of its own with no internal arc, so only
    # the states that have such an arc get a row, and they are the roots
    # of the search that lists the states in finishing order ...
    roots = dict.fromkeys(map(src.__getitem__, eps_arcs))
    succ: list = [()] * a.state_count
    for s in roots:
        succ[s] = []
    for k in eps_arcs:
        succ[src[k]].append((k, dst[k]))
    order, cyclic = _postorder(succ, roots)
    if not cyclic:  # every component is one state with no internal arc
        return frozenset()
    pred: dict[int, list[int]] = {}
    for k in eps_arcs:
        pred.setdefault(dst[k], []).append(src[k])
    # ... then a flood over the reversed arcs from each state not yet
    # placed, last finished first, fills exactly that state's component.
    comp: dict[int, int] = {}
    for root in reversed(order):
        if root in comp:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            for p in pred.get(stack.pop(), ()):
                if p not in comp:
                    comp[p] = root
                    stack.append(p)

    bad = {comp[src[k]] for k in eps_arcs
           if write[k] != EPSILON and comp[src[k]] == comp[dst[k]]}
    return frozenset(s for s, c in comp.items() if c in bad)


def _by_output(a: Transducer) -> tuple[array, array, array]:
    """The olab, ilab and dst columns of `a` in (src, olab, ilab, dst)
    order.  A state's arcs are in (ilab, olab, dst) order, so only the
    states where olab falls from one arc to the next are re-sorted."""
    src, ilab, olab, dst = a._cols
    first = a._first
    cols = array("I", olab), array("I", ilab), array("I", dst)
    falls = compress(range(len(src) - 1), map(gt, olab, islice(olab, 1, None)))
    for s in {src[k] for k in falls if src[k] == src[k + 1]}:
        lo, hi = first[s], first[s + 1]
        for col, run in zip(cols, _columns(sorted(zip(olab[lo:hi], ilab[lo:hi], dst[lo:hi])))):
            col[lo:hi] = run
    return cols


class _Closures(dict):
    """A side's epsilon-closure table, keyed by every state that has an
    arc reading epsilon on that side; see :func:`lookup`.  `room` is how
    many more (state, written) entries it may keep."""

    __slots__ = ("room",)


def _side(a: Transducer, side: str) -> tuple[_Closures, array, array, array]:
    """The slot of `side`, filled on the first call (see :class:`Transducer`)."""
    slot = a._sides.get(side)
    if slot is None:
        read = a._cols[_tapes(side)[0]]
        # not yet walked: None; on or into an emitting epsilon cycle: False
        closures = _Closures.fromkeys(compress(a._cols[0], map(not_, read)))
        closures.update(dict.fromkeys(_emitting_eps_cycle_states(a, side), False))
        closures.room = a.arc_count
        by_read = a._cols[1:] if side == "input" else _by_output(a)
        slot = a._sides[side] = (closures, *by_read)
    return slot


def _closure(a: Transducer, side: str, ids: list[int], slot: tuple, state: int, pos: int,
             out: tuple[int, ...], seen: set, queue: list) -> tuple:
    """The (state, written) entries that :func:`lookup` queues for
    `state`, found depth-first over the arcs that read epsilon.  While
    the table has room, the first visit walks them from an empty output
    and keeps them; once it is full, a visit walks them straight into
    the search's `seen` and `queue` and returns ()."""
    closures, reads, writes, dsts = slot
    closure = closures[state]
    if closure is None:
        keep = closures.room > 0
        if keep:
            pos, out, seen, queue = 0, (), set(), []
        first, finals = a._first, a.finals
        stack = [] if (state, pos, out) in seen else [(state, pos, out)]
        seen.update(stack)
        while stack:
            cfg = stack.pop()
            s, _, written_so_far = cfg
            if closures.get(s) is False:  # an emitting epsilon cycle is reachable
                closure = False
                break
            k, end = first[s], first[s + 1]
            if s in finals or k < end and reads[end - 1]:
                queue.append(cfg)
            while k < end and not reads[k]:
                written = writes[k]
                cfg = (dsts[k], pos, written_so_far + (written,) if written else written_so_far)
                k += 1
                if cfg not in seen:
                    seen.add(cfg)
                    stack.append(cfg)
        if closure is None:
            if not keep:
                return ()
            closure = tuple((t, written) for t, _, written in queue)
            if len(closure) > closures.room:  # the table is full: keep no more
                closures.room = 0
                return closure
            closures.room -= len(closure)
        if keep:
            closures[state] = closure
    if closure is False:  # an id outside the table is named by number
        on = (repr("".join(map(a.symbols._entries.__getitem__, ids)))
              if all(0 < i < len(a.symbols) for i in ids) else f"symbol ids {list(ids)}")
        raise EpsilonCycle(f"symbol-writing {side}-epsilon cycle reachable on {on}")
    return closure


def lookup(a: Transducer, ids: list[int], side: str = "input") -> set[tuple[int, ...]]:
    """The label-id tuples written along the paths of `a` that read
    `ids` on `side` (see :func:`apply`); epsilon is never written.

    The search is breadth-first over (state, symbols read, written)
    configurations, and it follows only arcs that read a symbol.  A
    state's arcs are sorted by the label they read, so a bisection
    jumps to the run that reads the next symbol.  Arcs that read
    epsilon are folded away (Mohri 2002, generic epsilon removal): a
    configuration that reaches a state of the side's closure table
    queues that state's epsilon closure instead.  The table holds,
    filled lazily, each state's closure as (state, written) entries,
    only for states that are final or have an arc reading a symbol, so
    pass-through states (such as chains of tags written on no surface
    symbol) are never queued.  A state that reaches an emitting
    epsilon cycle (:func:`_emitting_eps_cycle_states`) is marked False
    and raises.  The table keeps at most as many entries as the
    machine has arcs; past that, a closure is walked within the search
    and not kept.

    Raises :class:`InvalidSymbolId` when `ids` holds epsilon (id 0),
    which is no symbol to read, and :class:`EpsilonCycle` when a cycle
    that reads epsilon and writes a symbol is reachable on `ids`.  An id
    outside the table is read by no arc, so it gives the empty set.
    """
    if EPSILON in ids:
        raise InvalidSymbolId("symbol id 0 is epsilon, not a symbol to read")
    slot = _side(a, side)
    closures, reads, writes, dsts = slot
    first, finals = a._first, a.finals
    n = len(ids)
    seen: set[tuple[int, int, tuple[int, ...]]] = set()
    queue: list[tuple[int, int, tuple[int, ...]]] = []
    if a.start in closures:
        closure = _closure(a, side, ids, slot, a.start, 0, (), seen, queue)
    else:
        closure = ((a.start, ()),)
    for t, written in closure:
        seen.add((t, 0, written))
        queue.append((t, 0, written))
    outputs: set[tuple[int, ...]] = set()
    for state, pos, out in queue:  # grows during the loop: a breadth-first search
        if pos == n:
            if state in finals:
                outputs.add(out)
            continue
        sym = ids[pos]
        pos += 1
        k, end = first[state], first[state + 1]
        while k < end:
            label = reads[k]
            if label == sym:
                written = writes[k]
                dst = dsts[k]
                k += 1
                nout = out + (written,) if written else out
                if dst not in closures:
                    cfg = (dst, pos, nout)
                    if cfg not in seen:
                        seen.add(cfg)
                        queue.append(cfg)
                    continue
                closure = closures[dst]
                if not closure:  # not kept yet, or marked False
                    closure = _closure(a, side, ids, slot, dst, pos, nout, seen, queue)
                for t, written in closure:
                    cfg = (t, pos, nout + written if written else nout)
                    if cfg not in seen:
                        seen.add(cfg)
                        queue.append(cfg)
            elif label < sym:  # jump over the arcs that read epsilon or a smaller label
                k = bisect_left(reads, sym, k, end)
            else:
                break
    return outputs


def _texts(a: Transducer, outputs: set[tuple[int, ...]]) -> list[str]:
    """The texts of written label-id tuples, each once, sorted.  Two
    tuples can render alike when a symbol spells several characters."""
    entries = a.symbols._entries
    if len(outputs) == 1:
        return ["".join(map(entries.__getitem__, *outputs))]
    return sorted({"".join(map(entries.__getitem__, out)) for out in outputs})


def apply(a: Transducer, text: str, side: str = "input") -> list[str]:
    """The texts written along the paths of `a` that read `text` on one
    tape, each once, as a new sorted list: :func:`scan`, then
    :func:`lookup`, then each written id tuple rendered.

    With ``side="input"`` arcs match on their input label and write
    their output label, which gives the outputs paired with the input
    `text`.  With ``side="output"`` arcs match on their output label and
    write their input label, which gives the inputs paired with the
    output `text`: the result of applying :func:`invert` of `a` to
    `text`, without building that machine.  A generation-direction
    grammar analyzes with ``side="output"``.  Any other `side` raises
    :class:`ValueError`.  Lookup reads only integer columns and makes no
    :class:`Arc`.

    Raises :class:`UnknownSymbol` when `text` contains a symbol outside
    the machine's table (distinct from an in-alphabet string that is
    simply rejected, which yields an empty list), and
    :class:`EpsilonCycle` when a cycle that reads epsilon and writes a
    symbol is reachable on this text.
    """
    _tapes(side)  # an unknown side raises ValueError before any other check
    ids = scan(text, a.symbols)
    try:
        outputs = lookup(a, ids, side)
    except EpsilonCycle:  # name `text` as given, a literal <> included
        raise EpsilonCycle(
            f"symbol-writing {side}-epsilon cycle reachable on {text!r}") from None
    return _texts(a, outputs)


def enumerate_pairs(a: Transducer, max_len: int) -> list[tuple[str, str]]:
    """All accepting (input, output) pairs reachable by paths of at most
    max_len arcs, each once, sorted by input, then output.

    Configurations (state, input-so-far, output-so-far) are deduplicated
    level by level, so equal pairs reached along different paths count
    once.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    first = a._first
    rows = list(zip(*a._cols[1:]))
    start = (a.start, (), ())
    seen = {start}
    frontier = [start]
    for _ in range(max_len):
        nxt = []
        for state, ins, outs in frontier:
            for ilab, olab, dst in rows[first[state]:first[state + 1]]:
                nins = ins if ilab == EPSILON else ins + (ilab,)
                nouts = outs if olab == EPSILON else outs + (olab,)
                cfg = (dst, nins, nouts)
                if cfg not in seen:
                    seen.add(cfg)
                    nxt.append(cfg)
        if not nxt:
            break
        frontier = nxt
    table = a.symbols
    return sorted({(render(ins, table), render(outs, table))
                   for state, ins, outs in seen if state in a.finals})


MAGIC = b"MFST"
FORMAT_VERSION = 1


def to_bytes(a: Transducer) -> bytes:
    """Serialize to the binary transducer format (little-endian).  The
    arc block is the columns interleaved, one (src, ilab, olab, dst)
    record per arc, in sorted order.

    Raises :class:`FstError` for a symbol that UTF-8 cannot encode (one
    holding a lone surrogate), so :func:`save` writes no file for it.
    """
    try:
        packed = list(map(pack_str, a.symbols))
    except UnicodeEncodeError as exc:
        raise FstError(f"transducer symbol {exc.object!r} holds a lone surrogate") from None
    finals = sorted(a.finals)
    n_arcs = len(a._cols[0])
    block = array("I", bytes(16 * n_arcs))
    for k, col in enumerate(a._cols):
        block[k::4] = col
    blob = b"".join([
        MAGIC, struct.pack("<HI", FORMAT_VERSION, len(packed)),
        *packed,
        struct.pack(f"<{4 + len(finals)}I", a.state_count, a.start,
                    len(finals), *finals, n_arcs),
        little_endian(block).tobytes(),
    ])
    if a.state_count > len(blob):  # from_bytes would refuse it; trimmed machines fit
        raise FstError(f"{a.state_count} states in a {len(blob)}-byte file; trim the machine")
    return blob


def from_bytes(data: bytes) -> Transducer:
    """Parse the binary transducer format.  The machine gets a fresh
    SymbolTable reconstructed from the file.  A file may not declare more
    states than it has bytes, which bounds what it makes the machine
    allocate.

    The arc block is copied into one ``array("I")`` and sliced into the
    four columns; no per-arc object is made.  The fields are checked as
    :func:`build` checks them, with the same errors, and a file whose
    arcs are out of order loads as the same sorted machine.
    """
    reader = Reader(data, FstError, "transducer")
    reader.header(MAGIC, FORMAT_VERSION)
    sym_count = reader.u32()
    if sym_count < 1:
        raise FstError("symbol table must contain the epsilon entry")
    if reader.text("symbol 0") != EPSILON_SYMBOL:
        raise FstError("symbol id 0 must be the epsilon symbol")
    table = SymbolTable()
    for idx in range(1, sym_count):
        sym = reader.text(f"symbol {idx}")
        if table.intern(sym) != idx:
            raise FstError(f"duplicate symbol entry {sym!r}")
    state_count, start = reader.unpack("<II")
    finals = [f for (f,) in reader.array("<I")]
    block = little_endian(array("I", reader.take(16 * reader.u32())))
    reader.finish()
    if state_count > len(data):
        raise FstError(f"transducer file declares {state_count} states in {len(data)} bytes")
    cols = in_file = tuple(block[k::4] for k in range(4))
    if not all(map(le, zip(*cols), zip(*(col[1:] for col in cols)))):
        cols = _columns(sorted(zip(*cols)))
    return _freeze(state_count, start, finals, cols, zip(*in_file), table)


def save(a: Transducer, path) -> None:
    _text.write_atomic(path, to_bytes(a))


def load(path) -> Transducer:
    return from_bytes(Path(path).read_bytes())
