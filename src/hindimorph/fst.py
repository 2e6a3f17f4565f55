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
from array import array
from bisect import bisect_left
from collections import deque
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

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
    """An immutable transducer.  Construct through :func:`build`.

    `arcs` is sorted by (src, ilab, olab, dst); the arcs leaving state
    ``s`` are ``arcs[_first[s]:_first[s + 1]]``, where `_first` is an
    ``array("I")`` of ``state_count + 1`` offsets.  The first
    :func:`apply` on a side fills ``_sides[side]``: the states of
    :func:`_emitting_eps_cycle_states`, and the arcs in (src, read
    label, written label, dst) order, which is `arcs` itself for
    "input" and the same Arc objects re-sorted for "output".  Each
    state's arcs keep their offsets in both orders.
    """

    __slots__ = ("state_count", "start", "finals", "arcs", "symbols", "_first",
                 "_sides")

    def __init__(self, state_count: int, start: int, finals: frozenset[int],
                 arcs: tuple[Arc, ...], symbols: SymbolTable):
        self.state_count = state_count
        self.start = start
        self.finals = finals
        self.arcs = arcs
        self.symbols = symbols
        srcs = [arc.src for arc in arcs]
        self._first = array("I", [bisect_left(srcs, s) for s in range(state_count + 1)])
        self._sides: dict[str, tuple[frozenset[int], tuple[Arc, ...]]] = {}

    def out_arcs(self, state: int) -> tuple[Arc, ...]:
        """The arcs leaving `state`, in (ilab, olab, dst) order: the
        slice of `arcs` between the state's two offsets."""
        if not 0 <= state < self.state_count:
            raise InvalidStateId(f"state {state} out of range")
        return self.arcs[self._first[state]:self._first[state + 1]]

    def __repr__(self) -> str:
        return (f"Transducer({self.state_count} states, {len(self.arcs)} arcs, "
                f"{len(self.finals)} final)")


def build(state_count: int, start: int, finals: Iterable[int],
          arcs: Iterable[tuple[int, int, int, int]],
          symbols: SymbolTable) -> Transducer:
    """Validate and freeze a transducer.

    Arcs are stored sorted by (src, ilab, olab, dst) so that
    structurally identical machines serialize identically.
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
    checked = []
    for src, ilab, olab, dst in arcs:
        if not 0 <= src < state_count:
            raise InvalidStateId(f"arc source {src} out of range")
        if not 0 <= dst < state_count:
            raise InvalidStateId(f"arc target {dst} out of range")
        if not 0 <= ilab < n_syms:
            raise InvalidSymbolId(f"arc input symbol {ilab} out of range")
        if not 0 <= olab < n_syms:
            raise InvalidSymbolId(f"arc output symbol {olab} out of range")
        checked.append(Arc(src, ilab, olab, dst))
    checked.sort()
    return Transducer(state_count, start, final_set, tuple(checked), symbols)


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


def _shifted(arcs: Iterable[Arc], offset: int) -> list[tuple[int, int, int, int]]:
    return [(src + offset, i, o, dst + offset) for src, i, o, dst in arcs]


def union(a: Transducer, b: Transducer) -> Transducer:
    """Relation union of `a` and `b`."""
    _require_shared(a, b)
    off_b = 1 + a.state_count
    arcs = [(0, EPSILON, EPSILON, a.start + 1),
            (0, EPSILON, EPSILON, b.start + off_b)]
    arcs += _shifted(a.arcs, 1)
    arcs += _shifted(b.arcs, off_b)
    finals = [f + 1 for f in a.finals] + [f + off_b for f in b.finals]
    return build(1 + a.state_count + b.state_count, 0, finals, arcs, a.symbols)


def concat(a: Transducer, b: Transducer) -> Transducer:
    """Pairwise concatenation: {(xu, yv) | (x,y) in a, (u,v) in b}."""
    _require_shared(a, b)
    off_b = a.state_count
    arcs = list(a.arcs)
    arcs += _shifted(b.arcs, off_b)
    arcs += [(f, EPSILON, EPSILON, b.start + off_b) for f in a.finals]
    finals = [f + off_b for f in b.finals]
    return build(a.state_count + b.state_count, a.start, finals, arcs, a.symbols)


def closure(a: Transducer, mode: str = "star") -> Transducer:
    """Kleene closure: mode is "star", "plus", or "optional"."""
    if mode == "star":
        # Fresh state 0 is both start and the only final; looping back
        # through it keeps a's own finals from accepting mid-iteration.
        arcs = [(0, EPSILON, EPSILON, a.start + 1)]
        arcs += _shifted(a.arcs, 1)
        arcs += [(f + 1, EPSILON, EPSILON, 0) for f in a.finals]
        return build(1 + a.state_count, 0, (0,), arcs, a.symbols)
    if mode == "plus":
        arcs = list(a.arcs)
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
    b_by_ilab: dict[tuple[int, int], list[Arc]] = {}
    for arc in b.arcs:
        b_by_ilab.setdefault((arc.src, arc.ilab), []).append(arc)

    start = (a.start, b.start)
    ids: dict[tuple[int, int], int] = {start: 0}
    order = [start]
    queue = deque([start])
    arcs: list[tuple[int, int, int, int]] = []
    while queue:
        p, q = queue.popleft()
        sid = ids[(p, q)]
        moves = set()
        for arc in a.out_arcs(p):
            if arc.olab == EPSILON:
                moves.add((arc.ilab, EPSILON, arc.dst, q))
            else:
                for brc in b_by_ilab.get((q, arc.olab), ()):
                    moves.add((arc.ilab, brc.olab, arc.dst, brc.dst))
        for brc in b.out_arcs(q):
            if brc.ilab == EPSILON:
                moves.add((EPSILON, brc.olab, p, brc.dst))
        for ilab, olab, np, nq in sorted(moves):
            tid = ids.get((np, nq))
            if tid is None:
                tid = len(order)
                ids[(np, nq)] = tid
                order.append((np, nq))
                queue.append((np, nq))
            arcs.append((sid, ilab, olab, tid))
    finals = [ids[(p, q)] for (p, q) in order
              if p in a.finals and q in b.finals]
    return build(len(order), 0, finals, arcs, a.symbols)


def invert(a: Transducer) -> Transducer:
    """Swap the input and output tapes."""
    arcs = [(src, olab, ilab, dst) for src, ilab, olab, dst in a.arcs]
    return build(a.state_count, a.start, a.finals, arcs, a.symbols)


def project(a: Transducer, side: str = "input") -> Transducer:
    """Identity acceptor of one tape's language ("input" or "output")."""
    if side == "input":
        arcs = {(src, ilab, ilab, dst) for src, ilab, _, dst in a.arcs}
    elif side == "output":
        arcs = {(src, olab, olab, dst) for src, _, olab, dst in a.arcs}
    else:
        raise ValueError(f"unknown projection side {side!r}")
    return build(a.state_count, a.start, a.finals, sorted(arcs), a.symbols)


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
    for arc in a.arcs:  # sorted, so repeated arcs are adjacent
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
    if not any(arc.ilab == EPSILON and arc.olab == EPSILON for arc in a.arcs):
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
    3. states that are unreachable or on no accepting path are dropped;
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

    # Trim: keep the states reachable from the start that reach a final.
    reached = [False] * len(rows)
    reached[start] = True
    forward = [start]
    preds: list[list[int]] = [[] for _ in rows]
    for s in forward:  # grows during the loop: a breadth-first search
        for _, dst in rows[s]:
            preds[dst].append(s)
            if not reached[dst]:
                reached[dst] = True
                forward.append(dst)
    live = [False] * len(rows)
    stack = [f for f in finals if reached[f]]
    for f in stack:
        live[f] = True
    while stack:
        for p in preds[stack.pop()]:
            if not live[p]:
                live[p] = True
                stack.append(p)
    if not live[start]:
        return empty(a.symbols)
    if len(forward) < len(rows) or not all(live):
        keep = [s for s in forward if live[s]]
        index = {s: k for k, s in enumerate(keep)}
        rows = [[(label, index[dst]) for label, dst in rows[s] if live[dst]]
                for s in keep]
        finals = {index[s] for s in keep if s in finals}
        start = 0

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
    return build(len(seq), 0, {number[cls[f]] for f in finals}, arcs, a.symbols)


def _tapes(side: str) -> tuple[int, int]:
    """Arc field indices of the tape read and the tape written on `side`."""
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
    with both ends in one SCC always lies on a cycle).
    """
    read, write = _tapes(side)
    eps_arcs = [arc for arc in a.arcs if arc[read] == EPSILON]
    succ: dict[int, list[int]] = {}
    for arc in eps_arcs:
        succ.setdefault(arc.src, []).append(arc.dst)

    # Iterative Tarjan SCC over the epsilon subgraph.  A state with no
    # arc that reads epsilon is an SCC of its own with no internal arc,
    # so the search starts only from states that have such an arc.
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    scc_of: dict[int, int] = {}
    counter = 0
    scc_count = 0
    for root in succ:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ.get(child, ()))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc_of[member] = scc_count
                    if member == node:
                        break
                scc_count += 1

    bad_sccs = {scc_of[arc.src] for arc in eps_arcs
                if arc[write] != EPSILON and scc_of[arc.src] == scc_of[arc.dst]}
    return frozenset(s for s, scc in scc_of.items() if scc in bad_sccs)


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
    bisection then jumps to the run of arcs that read the next symbol,
    so no other arc is visited.

    Raises :class:`UnknownSymbol` when `text` contains a symbol outside
    the machine's table (distinct from an in-alphabet string that is
    simply rejected, which yields an empty result), and
    :class:`EpsilonCycle` when a cycle that reads epsilon and writes a
    symbol is reachable on this text.
    """
    read, write = _tapes(side)
    ids = scan(text, a.symbols)
    slot = a._sides.get(side)
    if slot is None:  # the first call on this side; see Transducer
        arcs = a.arcs if side == "input" else tuple(sorted(a.arcs, key=itemgetter(0, 2, 1, 3)))
        slot = a._sides[side] = (_emitting_eps_cycle_states(a, side), arcs)
    bad, arcs = slot
    first = a._first
    finals = a.finals
    read_label = itemgetter(read)
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
            arc = arcs[k]
            label = arc[read]
            if label == EPSILON:
                npos = pos
            elif label == sym:
                npos = pos + 1
            elif label < sym:  # jump to the run of arcs that read `sym`
                k = bisect_left(arcs, sym, k, end, key=read_label)
                continue
            else:
                break
            k += 1
            written = arc[write]
            cfg = (arc.dst, npos, out if written == EPSILON else out + (written,))
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
    pairs: set[tuple[str, str]] = set()
    table = a.symbols

    def note(state: int, ins: tuple[int, ...], outs: tuple[int, ...]) -> None:
        if state in a.finals:
            pairs.add((render(ins, table), render(outs, table)))

    start = (a.start, (), ())
    seen = {start}
    frontier = [start]
    note(*start)
    for _ in range(max_len):
        nxt = []
        for state, ins, outs in frontier:
            for arc in a.out_arcs(state):
                nins = ins if arc.ilab == EPSILON else ins + (arc.ilab,)
                nouts = outs if arc.olab == EPSILON else outs + (arc.olab,)
                cfg = (arc.dst, nins, nouts)
                if cfg not in seen:
                    seen.add(cfg)
                    nxt.append(cfg)
                    note(*cfg)
        if not nxt:
            break
        frontier = nxt
    return StringPairSet(pairs)


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
        seen = []
        for _, out in self._pairs:
            if out not in seen:
                seen.append(out)
        return seen

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
    """Serialize to the binary transducer format (little-endian)."""
    entries = list(a.symbols)
    finals = sorted(a.finals)
    blob = b"".join([
        MAGIC, struct.pack("<HI", FORMAT_VERSION, len(entries)),
        *map(pack_str, entries),
        struct.pack(f"<{4 + len(finals) + 4 * len(a.arcs)}I", a.state_count, a.start,
                    len(finals), *finals, len(a.arcs), *chain.from_iterable(a.arcs)),
    ])
    if a.state_count > len(blob):  # from_bytes would refuse it; trimmed machines fit
        raise FstError(f"{a.state_count} states in a {len(blob)}-byte file; trim the machine")
    return blob


def from_bytes(data: bytes) -> Transducer:
    """Parse the binary transducer format.  The machine gets a fresh
    SymbolTable reconstructed from the file.  A file may not declare more
    states than it has bytes, which bounds what it makes `build` allocate."""
    reader = Reader(data, FstError, "transducer")
    if reader.take(4) != MAGIC:
        raise FstError("not a transducer file (bad magic)")
    (version,) = reader.unpack("<H")
    if version != FORMAT_VERSION:
        raise FstError(f"unsupported transducer format version {version}")
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
    arcs = reader.array("<IIII")
    reader.finish()
    if state_count > len(data):
        raise FstError(f"transducer file declares {state_count} states in {len(data)} bytes")
    return build(state_count, start, finals, arcs, table)


def save(a: Transducer, path) -> None:
    Path(path).write_bytes(to_bytes(a))


def load(path) -> Transducer:
    return from_bytes(Path(path).read_bytes())
