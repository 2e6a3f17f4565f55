"""Finite-state transducers over an interned symbol alphabet.

A :class:`Transducer` is an immutable labeled directed graph denoting a
regular relation: the set of (input, output) string pairs read along
accepting paths, where an epsilon label component contributes nothing
to its side.  This module provides the relation algebra (union,
concatenation, closure, composition, inversion, projection),
normalization (epsilon removal, determinization, minimization), runtime
application on either tape, bounded pair enumeration, and a binary file
format.

Determinization works over the *pair* alphabet: each input:output label
is treated as one atomic symbol.  True input-side determinization does
not exist for every relation, but pair determinization always does, and
it is what the minimizer and the serialized models rely on.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, compress, islice, repeat
from operator import gt, itemgetter, le, not_, or_
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from . import _text
from ._binary import Reader, pack_str

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

    A ``<``...``>`` span forms one multi-character tag symbol; any other
    Unicode scalar is one symbol.  A literal ``<>`` denotes epsilon and
    contributes nothing.  With ``intern=False`` a symbol absent from the
    table raises :class:`UnknownSymbol`; with ``intern=True`` it is
    added.  An unclosed ``<`` raises :class:`UnterminatedTag`.
    """
    ids: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "<":
            end = text.find(">", i + 1)
            if end < 0:
                raise UnterminatedTag(f"unterminated tag at offset {i}: {text[i:]!r}")
            sym = text[i : end + 1]
            i = end + 1
            if sym == EPSILON_SYMBOL:
                continue
        else:
            sym = ch
            i += 1
        if intern:
            ids.append(table.intern(sym))
        else:
            sid = table.id_of(sym)
            if sid is None:
                raise UnknownSymbol(f"symbol {sym!r} not in table")
            ids.append(sid)
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
    first :func:`apply` on a side fills ``_sides[side]``: the states of
    :func:`_emitting_eps_cycle_states`, then the columns of the label
    read, the label written and the target, in (src, read label,
    written label, dst) order.  They are the machine's own columns for
    "input", and one re-sorted copy for "output"; each state's arcs
    keep their offsets in both orders.  No :class:`Arc` is made until
    `arcs` or :meth:`out_arcs` is read.
    """

    __slots__ = ("state_count", "start", "finals", "symbols", "_cols", "_first",
                 "_arcs", "_sides")

    def __init__(self, state_count: int, start: int, finals: frozenset[int],
                 cols: tuple[array, array, array, array], symbols: SymbolTable):
        self.state_count = state_count
        self.start = start
        self.finals = finals
        self.symbols = symbols
        self._cols = cols
        counts = Counter(cols[0])
        self._first = array("I", accumulate(map(counts.get, range(state_count), repeat(0)),
                                            initial=0))
        self._arcs: tuple[Arc, ...] | None = None
        self._sides: dict[str, tuple[frozenset[int], array, array, array]] = {}

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

    def out_arcs(self, state: int) -> tuple[Arc, ...]:
        """The arcs leaving `state`, in (ilab, olab, dst) order: the
        slice of `arcs` between the state's two offsets."""
        if not 0 <= state < self.state_count:
            raise InvalidStateId(f"state {state} out of range")
        return self.arcs[self._first[state]:self._first[state + 1]]

    def __repr__(self) -> str:
        return (f"Transducer({self.state_count} states, {self.arc_count} arcs, "
                f"{len(self.finals)} final)")


def _columns(rows: Iterable[tuple[int, int, int, int]]) -> tuple[array, ...]:
    """The fields of `rows` as ``array("I")`` columns, in row order."""
    return (tuple(array("I", col) for col in zip(*rows))
            or (array("I"), array("I"), array("I"), array("I")))


def _freeze(state_count: int, start: int, finals: Iterable[int],
            cols: tuple[array, ...] | None, rows: Iterable[tuple[int, int, int, int]],
            symbols: SymbolTable) -> Transducer:
    """Check a machine's fields and freeze it; the one check behind
    :func:`build` and :func:`from_bytes`.

    `cols` are the arcs as sorted ``array("I")`` columns, or None when
    some field fits no ``array("I")``.  The columns are range-checked
    whole: an ``array("I")`` holds no negative value, so each column's
    maximum decides, and the sorted sources end with theirs.  Only when
    that fails are `rows`, the arcs in the order given, walked to name
    the first bad field.
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
    return Transducer(state_count, start, final_set, cols, symbols)


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


def _require_shared(a: Transducer, b: Transducer) -> None:
    if a.symbols is not b.symbols:
        raise SymbolTableMismatch("operands must share one SymbolTable")


def _shifted(a: Transducer, offset: int) -> Iterator[tuple[int, int, int, int]]:
    """The arcs of `a` as rows, with both ends moved up by `offset`."""
    src, ilab, olab, dst = a._cols
    return zip(map(offset.__add__, src), ilab, olab, map(offset.__add__, dst))


def union(a: Transducer, b: Transducer) -> Transducer:
    """Relation union of `a` and `b`."""
    _require_shared(a, b)
    off_b = 1 + a.state_count
    arcs = [(0, EPSILON, EPSILON, a.start + 1),
            (0, EPSILON, EPSILON, b.start + off_b)]
    arcs += _shifted(a, 1)
    arcs += _shifted(b, off_b)
    finals = [f + 1 for f in a.finals] + [f + off_b for f in b.finals]
    return build(1 + a.state_count + b.state_count, 0, finals, arcs, a.symbols)


def concat(a: Transducer, b: Transducer) -> Transducer:
    """Pairwise concatenation: {(xu, yv) | (x,y) in a, (u,v) in b}."""
    _require_shared(a, b)
    off_b = a.state_count
    arcs = list(zip(*a._cols))
    arcs += _shifted(b, off_b)
    arcs += [(f, EPSILON, EPSILON, b.start + off_b) for f in a.finals]
    finals = [f + off_b for f in b.finals]
    return build(a.state_count + b.state_count, a.start, finals, arcs, a.symbols)


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


def _no_targets(cls: list[int]) -> tuple[()]:
    return ()


def minimize(a: Transducer) -> Transducer:
    """Minimal deterministic machine (pair alphabet) for a's relation.

    This is the one normalization call.  It works on plain per-state
    rows of (label, dst) and calls :func:`build` once, at the end:

    1. (epsilon, epsilon) arcs are removed, as by :func:`remove_epsilons`;
    2. the pair-alphabet subset construction of :func:`determinize`
       runs only if some state still has two arcs with one label (a
       trie or an already minimal machine skips it);
    3. arcs into states on no accepting path are dropped; states
       unreachable from the start are left to step 5, which numbers
       only the classes the start reaches;
    4. Moore partition refinement over the partial transition function
       merges indistinguishable states.  It starts from classes keyed
       by (final, sorted label tuple), so each round compares only the
       tuples of target classes;
    5. the classes are numbered breadth-first from the start, by sorted
       label, so equal relations always give the identical machine.
    """
    n_syms = len(a.symbols)
    rows, finals = _eps_free_rows(a)
    start = a.start
    if not all(len(row) == len(dict(row)) for row in rows):
        rows, finals = _subset(rows, finals, start)
        start = 0

    # Trim: drop the arcs into states that reach no final.  The numbering
    # at the end visits only the classes reached from the start.
    preds: list[list[int]] = [[] for _ in rows]
    for s, row in enumerate(rows):
        for _, dst in row:
            preds[dst].append(s)
    live = [False] * len(rows)
    stack = list(finals)
    for f in stack:
        live[f] = True
    while stack:
        for p in preds[stack.pop()]:
            if not live[p]:
                live[p] = True
                stack.append(p)
    if not live[start]:
        return empty(a.symbols)
    if not all(live):
        rows = [[(label, dst) for label, dst in row if live[dst]] for row in rows]

    # Moore refinement; a class's label tuple is fixed by the first
    # partition, so later rounds look up only the target classes.  (For
    # one target, itemgetter gives the class itself, not a 1-tuple; the
    # members of a class have equally many targets, so their keys agree
    # in shape.)
    labels: list[tuple[int, ...]] = []
    targets = []  # per state, a getter of its targets' classes
    for row in rows:
        if row:
            labs, dsts = zip(*row)
            labels.append(labs)
            targets.append(itemgetter(*dsts))
        else:
            labels.append(())
            targets.append(_no_targets)
    keys: dict[tuple, int] = {}
    cls = [keys.setdefault((s in finals, labs), len(keys))
           for s, labs in enumerate(labels)]
    n_classes = len(keys)
    while True:
        keys = {}
        refined = [keys.setdefault((c, get(cls)), len(keys))
                   for c, get in zip(cls, targets)]
        if len(keys) == n_classes:
            break
        cls, n_classes = refined, len(keys)

    # Members of a class share their label -> target-class map, so the
    # first member stands for the class.
    rep: dict[int, int] = {}
    for s, c in enumerate(cls):
        rep.setdefault(c, s)
    number = {cls[start]: 0}
    seq = [cls[start]]
    arcs: list[tuple[int, int, int, int]] = []
    for cid, c in enumerate(seq):  # grows during the loop: a breadth-first search
        for label, dst in rows[rep[c]]:
            tc = cls[dst]
            tid = number.get(tc)
            if tid is None:
                tid = number[tc] = len(seq)
                seq.append(tc)
            arcs.append((cid, *divmod(label, n_syms), tid))
    # A final unreachable from the start may be in a class never numbered.
    return build(len(seq), 0, {number[cls[f]] for f in finals if cls[f] in number},
                 arcs, a.symbols)


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
    outputs, so :func:`apply` refuses.  Computed from the strongly
    connected components of the subgraph of arcs that read epsilon: an
    SCC is bad when one of its internal arcs writes a symbol (an arc
    with both ends in one SCC always lies on a cycle).  The components
    come from Kosaraju's two searches, which need no per-state low-link
    bookkeeping, both iterative so a long cycle cannot overflow the
    stack.  Reads the machine's columns; the arcs that read epsilon are
    found at C speed.
    """
    src, dst = a._cols[0], a._cols[3]
    read, write = (a._cols[k] for k in _tapes(side))
    eps_arcs = list(compress(range(len(read)), map(not_, read)))
    succ: dict[int, list[int]] = {}
    pred: dict[int, list[int]] = {}
    for k in eps_arcs:
        succ.setdefault(src[k], []).append(dst[k])
        pred.setdefault(dst[k], []).append(src[k])

    # Kosaraju over the epsilon subgraph.  A state with no arc that reads
    # epsilon is a component of its own with no internal arc, so the
    # search starts only from states that have such an arc.  First an
    # iterative depth-first pass lists the states in finishing order ...
    order: list[int] = []
    seen: set[int] = set()
    for root in succ:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for child in it:
                if child not in seen:
                    seen.add(child)
                    work.append((child, iter(succ.get(child, ()))))
                    break
            else:
                work.pop()
                order.append(node)
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


def apply(a: Transducer, text: str, side: str = "input") -> "StringPairSet":
    """All pairs (string read, string written) of the paths of `a` that
    read `text` on one tape.

    With ``side="input"`` arcs match on their input label and write
    their output label, which gives the (input, output) pairs whose
    input is `text`.  With ``side="output"`` arcs match on their output
    label and write their input label, which gives the (output, input)
    pairs whose output is `text`: the result of applying
    :func:`invert` of `a` to `text`, without building that machine.  A
    generation-direction grammar analyzes with ``side="output"``.  Any
    other `side` raises :class:`ValueError`.

    The search is breadth-first over (state, symbols read, output)
    configurations.  A state's arcs, sorted by the label they read,
    start with those that read epsilon, which are traversed freely; a
    bisection of the read column then jumps to the run of arcs that
    read the next symbol, so no other arc is visited.  The first call
    on a side fills that side's slot (see :class:`Transducer`); lookup
    reads only integer columns and makes no :class:`Arc`.

    Raises :class:`UnknownSymbol` when `text` contains a symbol outside
    the machine's table (distinct from an in-alphabet string that is
    simply rejected, which yields an empty result), and
    :class:`EpsilonCycle` when a cycle that reads epsilon and writes a
    symbol is reachable on this text.
    """
    _tapes(side)  # an unknown side raises ValueError before any other check
    ids = scan(text, a.symbols)
    slot = a._sides.get(side)
    if slot is None:  # the first call on this side; see Transducer
        by_read = a._cols[1:] if side == "input" else _by_output(a)
        slot = a._sides[side] = (_emitting_eps_cycle_states(a, side), *by_read)
    bad, reads, writes, dsts = slot
    first = a._first
    finals = a.finals
    n = len(ids)
    start = (a.start, 0, ())
    seen = {start}
    queue = [start]
    outputs: set[tuple[int, ...]] = set()
    for state, pos, out in queue:  # grows during the loop: a breadth-first search
        if state in bad:
            raise EpsilonCycle(
                f"symbol-writing {side}-epsilon cycle reachable on {text!r}")
        if pos < n:
            sym = ids[pos]
        else:  # the text is read: only arcs that read epsilon go on
            sym = EPSILON
            if state in finals:
                outputs.add(out)
        k, end = first[state], first[state + 1]
        while k < end:
            label = reads[k]
            if label == EPSILON:
                npos = pos
            elif label == sym:
                npos = pos + 1
            elif label < sym:  # jump to the run of arcs that read `sym`
                k = bisect_left(reads, sym, k, end)
                continue
            else:
                break
            written = writes[k]
            cfg = (dsts[k], npos, out if written == EPSILON else out + (written,))
            k += 1
            if cfg not in seen:
                seen.add(cfg)
                queue.append(cfg)
    entries = a.symbols._entries
    rendered_in = "".join(map(entries.__getitem__, ids))
    return StringPairSet(
        (rendered_in, "".join(map(entries.__getitem__, out))) for out in outputs)


def enumerate_pairs(a: Transducer, max_len: int) -> "StringPairSet":
    """All accepting pairs reachable by paths of at most max_len arcs.

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
    return StringPairSet((render(ins, table), render(outs, table))
                         for state, ins, outs in seen if state in a.finals)


class StringPairSet:
    """Immutable, deduplicated (input, output) pairs.

    Iteration order is lexicographic by input, then output, so results
    are reproducible across runs.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()):
        self._pairs: tuple[tuple[str, str], ...] = tuple(sorted(set(pairs)))

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return self._pairs

    def outputs(self) -> list[str]:
        """Output sides in iteration order (deduplicated)."""
        return list(dict.fromkeys(out for _, out in self._pairs))

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self._pairs

    def __eq__(self, other) -> bool:
        if isinstance(other, StringPairSet):
            return self._pairs == other._pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"StringPairSet({list(self._pairs)!r})"


MAGIC = b"MFST"
FORMAT_VERSION = 1


def to_bytes(a: Transducer) -> bytes:
    """Serialize to the binary transducer format (little-endian).  The
    arc block is the columns interleaved, one (src, ilab, olab, dst)
    record per arc, in sorted order."""
    entries = list(a.symbols)
    finals = sorted(a.finals)
    n_arcs = len(a._cols[0])
    block = array("I", bytes(16 * n_arcs))
    for k, col in enumerate(a._cols):
        block[k::4] = col
    if sys.byteorder == "big":
        block.byteswap()
    blob = b"".join([
        MAGIC, struct.pack("<HI", FORMAT_VERSION, len(entries)),
        *map(pack_str, entries),
        struct.pack(f"<{4 + len(finals)}I", a.state_count, a.start,
                    len(finals), *finals, n_arcs),
        block.tobytes(),
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
    block = array("I", reader.take(16 * reader.u32()))
    reader.finish()
    if state_count > len(data):
        raise FstError(f"transducer file declares {state_count} states in {len(data)} bytes")
    if sys.byteorder == "big":
        block.byteswap()
    cols = in_file = tuple(block[k::4] for k in range(4))
    if not all(map(le, zip(*cols), zip(*(col[1:] for col in cols)))):
        cols = _columns(sorted(zip(*cols)))
    return _freeze(state_count, start, finals, cols, zip(*in_file), table)


def save(a: Transducer, path) -> None:
    _text.write_atomic(path, to_bytes(a))


def load(path) -> Transducer:
    return from_bytes(Path(path).read_bytes())
