"""Finite-state transducers over an interned symbol alphabet.

A :class:`Transducer` is an immutable labeled directed graph denoting a
regular relation: the set of (input, output) string pairs read along
accepting paths, where an epsilon label component contributes nothing
to its side.  This module provides the relation algebra (union,
concatenation, closure, composition, inversion, projection),
normalization (epsilon removal, determinization, minimization), runtime
application, bounded pair enumeration, and a binary file format.

Determinization works over the *pair* alphabet: each input:output label
is treated as one atomic symbol.  True input-side determinization does
not exist for every relation, but pair determinization always does, and
it is what the minimizer and the serialized models rely on.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Iterable, Iterator, NamedTuple

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
    """An immutable transducer.  Construct through :func:`build`."""

    __slots__ = ("state_count", "start", "finals", "arcs", "symbols", "_adj",
                 "_eps_cycle_states")

    def __init__(self, state_count: int, start: int, finals: frozenset[int],
                 arcs: tuple[Arc, ...], symbols: SymbolTable):
        self.state_count = state_count
        self.start = start
        self.finals = finals
        self.arcs = arcs
        self.symbols = symbols
        adj: list[list[Arc]] = [[] for _ in range(state_count)]
        for arc in arcs:
            adj[arc.src].append(arc)
        self._adj = tuple(tuple(a) for a in adj)
        # Filled by the first apply(); see _emitting_eps_cycle_states.
        self._eps_cycle_states: frozenset[int] | None = None

    def out_arcs(self, state: int) -> tuple[Arc, ...]:
        if not 0 <= state < self.state_count:
            raise InvalidStateId(f"state {state} out of range")
        return self._adj[state]

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


def remove_epsilons(a: Transducer) -> Transducer:
    """An equivalent machine with no (epsilon, epsilon) arcs.

    One-sided epsilon labels (a:<> or <>:b) are real symbol moves and
    stay.  Already epsilon-free machines are returned unchanged.
    """
    if not any(arc.ilab == EPSILON and arc.olab == EPSILON for arc in a.arcs):
        return a
    eps_next: list[list[int]] = [[] for _ in range(a.state_count)]
    for arc in a.arcs:
        if arc.ilab == EPSILON and arc.olab == EPSILON:
            eps_next[arc.src].append(arc.dst)

    def eps_closure(s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            for t in eps_next[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    arcs: set[tuple[int, int, int, int]] = set()
    finals: set[int] = set()
    for s in range(a.state_count):
        for t in eps_closure(s):
            if t in a.finals:
                finals.add(s)
            for arc in a.out_arcs(t):
                if arc.ilab == EPSILON and arc.olab == EPSILON:
                    continue
                arcs.add((s, arc.ilab, arc.olab, arc.dst))
    return build(a.state_count, a.start, finals, sorted(arcs), a.symbols)


def determinize(a: Transducer) -> Transducer:
    """Subset construction over the pair alphabet.

    In the result every state has at most one outgoing arc per distinct
    (input, output) label.  (epsilon, epsilon) arcs are removed first;
    one-sided epsilon labels count as ordinary alphabet symbols.
    """
    a = remove_epsilons(a)
    start = frozenset([a.start])
    ids: dict[frozenset[int], int] = {start: 0}
    order = [start]
    queue = deque([start])
    arcs: list[tuple[int, int, int, int]] = []
    finals: set[int] = set()
    if start & a.finals:
        finals.add(0)
    while queue:
        cur = queue.popleft()
        sid = ids[cur]
        grouped: dict[tuple[int, int], set[int]] = {}
        for s in cur:
            for arc in a.out_arcs(s):
                grouped.setdefault((arc.ilab, arc.olab), set()).add(arc.dst)
        for (ilab, olab) in sorted(grouped):
            target = frozenset(grouped[(ilab, olab)])
            tid = ids.get(target)
            if tid is None:
                tid = len(order)
                ids[target] = tid
                order.append(target)
                queue.append(target)
                if target & a.finals:
                    finals.add(tid)
            arcs.append((sid, ilab, olab, tid))
    return build(len(order), 0, finals, arcs, a.symbols)


def _trim(a: Transducer) -> Transducer:
    """Drop states not on some accepting path (unreachable or dead)."""
    forward = {a.start}
    stack = [a.start]
    while stack:
        for arc in a.out_arcs(stack.pop()):
            if arc.dst not in forward:
                forward.add(arc.dst)
                stack.append(arc.dst)
    rev: list[list[int]] = [[] for _ in range(a.state_count)]
    for arc in a.arcs:
        rev[arc.dst].append(arc.src)
    backward = set(a.finals)
    stack = list(a.finals)
    while stack:
        for src in rev[stack.pop()]:
            if src not in backward:
                backward.add(src)
                stack.append(src)
    keep = sorted(forward & backward)
    if a.start not in keep:
        return empty(a.symbols)
    remap = {old: new for new, old in enumerate(keep)}
    arcs = [(remap[s], i, o, remap[d]) for s, i, o, d in a.arcs
            if s in remap and d in remap]
    finals = [remap[f] for f in a.finals if f in remap]
    return build(len(keep), remap[a.start], finals, arcs, a.symbols)


def minimize(a: Transducer) -> Transducer:
    """Minimal deterministic machine (pair alphabet) for a's relation.

    This is the one normalization call: it removes (epsilon, epsilon)
    arcs and determinizes (through :func:`determinize`), trims
    unreachable and dead states, then merges
    behaviorally indistinguishable states by Moore partition refinement
    over the partial transition function.  States of the result are
    numbered in breadth-first order from the start, by sorted label, so
    equal inputs always produce the identical machine.
    """
    d = _trim(determinize(a))
    if not d.finals:
        return empty(a.symbols)

    cls = {s: (1 if s in d.finals else 0) for s in range(d.state_count)}
    n_classes = len(set(cls.values()))
    while True:
        sigs: dict[tuple, list[int]] = {}
        for s in range(d.state_count):
            sig = (cls[s], tuple(sorted(
                (arc.ilab, arc.olab, cls[arc.dst]) for arc in d.out_arcs(s))))
            sigs.setdefault(sig, []).append(s)
        if len(sigs) == n_classes:
            break
        n_classes = len(sigs)
        cls = {}
        for idx, sig in enumerate(sorted(sigs)):
            for s in sigs[sig]:
                cls[s] = idx

    # Representative state per class; determinism makes each class's
    # label -> target-class map identical across its members.
    rep: dict[int, int] = {}
    for s in range(d.state_count):
        c = cls[s]
        if c not in rep or s < rep[c]:
            rep[c] = s

    order: dict[int, int] = {cls[d.start]: 0}
    seq = [cls[d.start]]
    queue = deque(seq)
    arcs: list[tuple[int, int, int, int]] = []
    while queue:
        c = queue.popleft()
        cid = order[c]
        for arc in sorted(d.out_arcs(rep[c])):
            tc = cls[arc.dst]
            tid = order.get(tc)
            if tid is None:
                tid = len(seq)
                order[tc] = tid
                seq.append(tc)
                queue.append(tc)
            arcs.append((cid, arc.ilab, arc.olab, tid))
    finals = {order[cls[f]] for f in d.finals}
    return build(len(seq), 0, finals, arcs, a.symbols)


def _emitting_eps_cycle_states(a: Transducer) -> frozenset[int]:
    """States inside an input-epsilon cycle that writes output.

    Reaching such a state during application means infinitely many
    outputs, so :func:`apply` refuses.  Computed from the strongly
    connected components of the input-epsilon subgraph: an SCC is bad
    when one of its internal input-epsilon arcs emits a symbol (an arc
    with both ends in one SCC always lies on a cycle).
    """
    eps_arcs = [arc for arc in a.arcs if arc.ilab == EPSILON]
    succ: dict[int, list[int]] = {}
    for arc in eps_arcs:
        succ.setdefault(arc.src, []).append(arc.dst)

    # Iterative Tarjan SCC over the epsilon subgraph.
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    scc_of: dict[int, int] = {}
    counter = 0
    scc_count = 0
    for root in range(a.state_count):
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
                if arc.olab != EPSILON and scc_of[arc.src] == scc_of[arc.dst]}
    return frozenset(s for s in range(a.state_count) if scc_of[s] in bad_sccs)


def apply(a: Transducer, input_str: str) -> "StringPairSet":
    """All (input, output) pairs of `a` whose input side reads input_str.

    Input-epsilon arcs are traversed freely.  Raises
    :class:`UnknownSymbol` when the input contains a symbol outside the
    machine's table (distinct from an in-alphabet string that is simply
    rejected, which yields an empty result), and :class:`EpsilonCycle`
    when an output-writing input-epsilon cycle is reachable on this
    input.  The states on such cycles are found once per machine, on
    its first apply, and kept on the machine for every later call.
    """
    ids = tuple(i for i in scan(input_str, a.symbols) if i != EPSILON)
    rendered_in = render(ids, a.symbols)
    bad = a._eps_cycle_states
    if bad is None:
        bad = a._eps_cycle_states = _emitting_eps_cycle_states(a)

    def step(cfg):
        if cfg[0] in bad:
            raise EpsilonCycle(
                f"output-emitting input-epsilon cycle reachable on {input_str!r}")

    start = (a.start, 0, ())
    step(start)
    seen = {start}
    queue = deque([start])
    outputs: set[tuple[int, ...]] = set()
    n = len(ids)
    while queue:
        state, pos, out = queue.popleft()
        if pos == n and state in a.finals:
            outputs.add(out)
        for arc in a.out_arcs(state):
            if arc.ilab == EPSILON:
                npos = pos
            elif pos < n and arc.ilab == ids[pos]:
                npos = pos + 1
            else:
                continue
            nout = out if arc.olab == EPSILON else out + (arc.olab,)
            cfg = (arc.dst, npos, nout)
            if cfg not in seen:
                step(cfg)
                seen.add(cfg)
                queue.append(cfg)
    return StringPairSet(
        (rendered_in, render(out, a.symbols)) for out in outputs)


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
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", FORMAT_VERSION)
    entries = list(a.symbols)
    out += struct.pack("<I", len(entries))
    for sym in entries:
        raw = sym.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
    out += struct.pack("<I", a.state_count)
    out += struct.pack("<I", a.start)
    finals = sorted(a.finals)
    out += struct.pack("<I", len(finals))
    for f in finals:
        out += struct.pack("<I", f)
    out += struct.pack("<I", len(a.arcs))
    for src, ilab, olab, dst in a.arcs:
        out += struct.pack("<IIII", src, ilab, olab, dst)
    return bytes(out)


def from_bytes(data: bytes) -> Transducer:
    """Parse the binary transducer format.  The machine gets a fresh
    SymbolTable reconstructed from the file."""
    view = memoryview(data)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise FstError("truncated transducer file")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    def u16() -> int:
        return struct.unpack("<H", take(2))[0]

    def u32() -> int:
        return struct.unpack("<I", take(4))[0]

    if bytes(take(4)) != MAGIC:
        raise FstError("not a transducer file (bad magic)")
    version = u16()
    if version != FORMAT_VERSION:
        raise FstError(f"unsupported transducer format version {version}")
    sym_count = u32()
    if sym_count < 1:
        raise FstError("symbol table must contain the epsilon entry")
    table = SymbolTable()
    for idx in range(sym_count):
        raw = bytes(take(u32()))
        try:
            sym = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FstError(f"symbol {idx} is not valid UTF-8") from exc
        if idx == 0:
            if sym != EPSILON_SYMBOL:
                raise FstError("symbol id 0 must be the epsilon symbol")
            continue
        if table.intern(sym) != idx:
            raise FstError(f"duplicate symbol entry {sym!r}")
    state_count = u32()
    start = u32()
    finals = [u32() for _ in range(u32())]
    arcs = [struct.unpack("<IIII", take(16)) for _ in range(u32())]
    if pos != len(view):
        raise FstError("trailing bytes after transducer data")
    return build(state_count, start, finals, arcs, table)


def save(a: Transducer, path) -> None:
    with open(path, "wb") as fh:
        fh.write(to_bytes(a))


def load(path) -> Transducer:
    with open(path, "rb") as fh:
        return from_bytes(fh.read())
