"""Brute-force reference implementations used to check the transducer
algebra, and string-keyed references for the tagger.

Everything here recomputes relations from first principles: pairs are
collected by naively walking arcs and concatenating symbol strings, and
the algebra operations are recomputed on plain Python sets.  Nothing in
this module calls back into the library's own closure/compose/apply
logic, so agreement between the two is meaningful.

``minimize_reference`` keeps the earlier normalization pipeline
(subset construction, trimming and Moore refinement, each building a
machine) as the byte-level reference for ``fst.minimize``.

The tagger references train and decode on the string-keyed weight dict
through ``tagger.objective``, ``tagger.gradient`` and
``tagger._log_probs``, never through the library's feature rows.
"""

from __future__ import annotations

import random
from collections import deque

from hindimorph import tagger
from hindimorph.fst import EPSILON, SymbolTable, Transducer, build, remove_epsilons

ALPHABET = ("a", "b", "c")


class OracleBudgetExceeded(Exception):
    """The naive walk grew past its safety budget (regenerate the trial)."""


def path_pairs(t: Transducer, max_arcs: int, budget: int = 400_000) -> set[tuple[str, str]]:
    """All accepting (input, output) pairs over paths of <= max_arcs arcs.

    Walks every path individually (no config merging) so it cannot share
    bugs with the library's level-BFS enumerator.
    """
    table = t.symbols
    pairs: set[tuple[str, str]] = set()
    frontier: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(t.start, (), ())]
    steps = 0
    for _ in range(max_arcs + 1):
        nxt = []
        for state, ins, outs in frontier:
            if state in t.finals:
                pairs.add((_render(ins, table), _render(outs, table)))
            for arc in t.out_arcs(state):
                steps += 1
                if steps > budget:
                    raise OracleBudgetExceeded(f"more than {budget} path steps")
                nins = ins if arc.ilab == EPSILON else ins + (arc.ilab,)
                nouts = outs if arc.olab == EPSILON else outs + (arc.olab,)
                nxt.append((arc.dst, nins, nouts))
        frontier = nxt
        if not frontier:
            break
    # pairs from states reached exactly at the horizon were added above;
    # anything still in `frontier` has used max_arcs+1 arcs already.
    return pairs


def relation_upto(t: Transducer, cap: int, budget: int = 400_000) -> set[tuple[str, str]]:
    """All accepting pairs whose input AND output are <= cap symbols long.

    Unlike path_pairs this is horizon-exact for cyclic machines: the cap
    applies to the strings themselves, not to how many arcs a particular
    construction happens to spend producing them.
    """
    table = t.symbols
    start = (t.start, (), ())
    seen = {start}
    stack = [start]
    pairs: set[tuple[str, str]] = set()
    while stack:
        state, ins, outs = stack.pop()
        if state in t.finals:
            pairs.add((_render(ins, table), _render(outs, table)))
        for arc in t.out_arcs(state):
            nins = ins if arc.ilab == EPSILON else ins + (arc.ilab,)
            nouts = outs if arc.olab == EPSILON else outs + (arc.olab,)
            if len(nins) > cap or len(nouts) > cap:
                continue
            cfg = (arc.dst, nins, nouts)
            if cfg not in seen:
                if len(seen) > budget:
                    raise OracleBudgetExceeded(f"more than {budget} configs")
                seen.add(cfg)
                stack.append(cfg)
    return pairs


def full_relation(t: Transducer) -> set[tuple[str, str]]:
    """Entire relation of an acyclic machine (paths cannot repeat states)."""
    return path_pairs(t, t.state_count)


def emitting_eps_cycle_states(t: Transducer, side: str) -> set[int]:
    """States on a cycle of arcs that read epsilon on `side`, one of which
    writes a symbol on the other tape: s is such a state when some
    writing epsilon arc u -> v has s, u and v mutually reachable."""
    read, write = (1, 2) if side == "input" else (2, 1)
    eps = [arc for arc in t.arcs if arc[read] == EPSILON]
    reach = {s: {s} for s in range(t.state_count)}
    changed = True
    while changed:
        changed = False
        for arc in eps:
            for s in range(t.state_count):
                if arc.src in reach[s] and arc.dst not in reach[s]:
                    reach[s].add(arc.dst)
                    changed = True
    return {s for s in range(t.state_count) for arc in eps
            if arc[write] != EPSILON
            and {arc.src, arc.dst} <= reach[s]
            and s in reach[arc.src] and s in reach[arc.dst]}


def _render(ids: tuple[int, ...], table: SymbolTable) -> str:
    return "".join(table.lookup(i) for i in ids)


# ---------------------------------------------------------------------------
# set-theoretic recombination


def union_sets(a: set, b: set) -> set:
    return a | b


def concat_sets(a: set, b: set) -> set:
    return {(x1 + x2, y1 + y2) for x1, y1 in a for x2, y2 in b}


def compose_sets(a: set, b: set) -> set:
    by_mid: dict[str, list[str]] = {}
    for y, z in b:
        by_mid.setdefault(y, []).append(z)
    return {(x, z) for x, y in a for z in by_mid.get(y, ())}


def invert_sets(a: set) -> set:
    return {(y, x) for x, y in a}


def project_sets(a: set, side: str) -> set:
    if side == "input":
        return {(x, x) for x, _ in a}
    return {(y, y) for _, y in a}


def star_upto(a: set, cap: int) -> set:
    """Kleene closure of a pair set, restricted to both sides <= cap."""
    growing = {p for p in a if p != ("", "")}
    closed = {("", "")}
    frontier = {("", "")}
    while frontier:
        nxt = set()
        for x, y in frontier:
            for u, v in growing:
                cand = (x + u, y + v)
                if len(cand[0]) <= cap and len(cand[1]) <= cap and cand not in closed:
                    closed.add(cand)
                    nxt.add(cand)
        frontier = nxt
    return closed


def plus_upto(a: set, cap: int) -> set:
    tail = star_upto(a, cap)
    return {(x + u, y + v)
            for x, y in a
            for u, v in tail
            if len(x + u) <= cap and len(y + v) <= cap}


def optional_sets(a: set) -> set:
    return a | {("", "")}


# ---------------------------------------------------------------------------
# random machine generation


def make_table() -> SymbolTable:
    return SymbolTable(ALPHABET)


def rand_acyclic(rng: random.Random, table: SymbolTable,
                 max_states: int = 5, out_degree: int = 3,
                 alphabet: tuple[str, ...] = ALPHABET) -> Transducer:
    """Random DAG-shaped transducer: arcs only go to higher state ids.
    Labels are epsilon or a symbol of `alphabet`, which `table` holds."""
    n = rng.randint(2, max_states)
    labels = [0] + [table.id_of(s) for s in alphabet]
    arcs = []
    for src in range(n - 1):
        for _ in range(rng.randint(0, out_degree)):
            dst = rng.randint(src + 1, n - 1)
            arcs.append((src, rng.choice(labels), rng.choice(labels), dst))
    finals = [s for s in range(n) if rng.random() < 0.5]
    if not finals:
        finals = [n - 1]
    return build(n, 0, finals, arcs, table)


def rand_machine(rng: random.Random, table: SymbolTable,
                 max_states: int = 5, out_degree: int = 3,
                 alphabet: tuple[str, ...] = ALPHABET) -> Transducer:
    """Random transducer that may contain cycles (including epsilon ones).
    Labels are epsilon or a symbol of `alphabet`, which `table` holds."""
    n = rng.randint(1, max_states)
    labels = [0] + [table.id_of(s) for s in alphabet]
    arcs = []
    for src in range(n):
        for _ in range(rng.randint(0, out_degree)):
            arcs.append((src, rng.choice(labels), rng.choice(labels),
                         rng.randint(0, n - 1)))
    finals = [s for s in range(n) if rng.random() < 0.5]
    if not finals:
        finals = [rng.randrange(n)]
    return build(n, 0, finals, arcs, table)


# ---------------------------------------------------------------------------
# normalization reference


def determinize_reference(a: Transducer) -> Transducer:
    """Subset construction over the pair alphabet, one arc list per subset."""
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


def _trim_reference(a: Transducer) -> Transducer:
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
        return build(1, 0, (), (), a.symbols)
    remap = {old: new for new, old in enumerate(keep)}
    arcs = [(remap[s], i, o, remap[d]) for s, i, o, d in a.arcs
            if s in remap and d in remap]
    finals = [remap[f] for f in a.finals if f in remap]
    return build(len(keep), remap[a.start], finals, arcs, a.symbols)


def minimize_reference(a: Transducer) -> Transducer:
    """Determinize, trim, then Moore refinement over full sorted signatures;
    classes numbered breadth-first from the start by sorted label."""
    d = _trim_reference(determinize_reference(a))
    if not d.finals:
        return build(1, 0, (), (), a.symbols)

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


# ---------------------------------------------------------------------------
# tagger references


def train_reference(corpus: tagger.TaggedCorpus,
                    config: tagger.TrainConfig) -> tuple[dict[str, float], list[float]]:
    """Gradient ascent on the string-keyed objective: (weights, loss history)."""
    tagset = corpus.tagset()
    positions = tagger._positions(corpus)
    weights: dict[str, float] = {}
    losses: list[float] = []
    for _ in range(config.epochs):
        losses.append(-tagger.objective(weights, positions, tagset, config.l2_lambda))
        grad = tagger.gradient(weights, positions, tagset, config.l2_lambda)
        for key, g in grad.items():
            weights[key] = weights.get(key, 0.0) + config.step * g
    losses.append(-tagger.objective(weights, positions, tagset, config.l2_lambda))
    return weights, losses


def tag_tokens_reference(model: tagger.TagModel, morph_model, tokens, beam: int) -> list[str]:
    """Beam decode that extracts and scores features anew for every beam entry."""
    tag_index = {t: i for i, t in enumerate(model.tagset)}
    beams: list[tuple[float, tuple[str, ...], tuple[int, ...]]] = [(0.0, (), ())]
    for i, token in enumerate(tokens):
        cands = tagger.candidate_tags(model, morph_model, token.surface)
        expanded = []
        for score, tags, path in beams:
            prev_tag = tags[-1] if tags else tagger.BOUNDARY_TAG
            feats = tagger.extract_features(tokens, i, prev_tag)
            log_p = tagger._log_probs(model.weights, feats, model.tagset)
            for t in cands:
                expanded.append((score + log_p[t], tags + (t,), path + (tag_index[t],)))
        expanded.sort(key=lambda item: (-item[0], item[2]))
        beams = expanded[:beam]
    return list(beams[0][1])
