"""Brute-force reference implementations used to check the transducer
algebra, and string-keyed references for the tagger.

Everything here recomputes relations from first principles: pairs are
collected by naively walking arcs and concatenating symbol strings, and
the algebra operations are recomputed on plain Python sets.  Nothing in
this module calls back into the library's own closure/compose/apply
logic, so agreement between the two is meaningful.
``remove_epsilons_reference`` walks each state's (epsilon, epsilon)
closure here, so the normalization references share no epsilon removal
with ``fst.minimize``.

``minimize_reference`` keeps the earlier normalization pipeline
(subset construction, trimming and Moore refinement, each building a
machine) as the byte-level reference for ``fst.minimize``.  The trie
of ``trie_reference`` through ``minimize_reference`` is the reference
for ``fst.string_set``, and ``root_fst_reference``, the earlier
root-list construction (the sorted roots' trie through
``minimize_reference``), the one for ``lexicon.compile_root_fst``.

Machines are walked through :func:`out_arcs`, per-state arc lists
built here from ``Transducer.arcs``, not through the library's arc index.

The tagger's reference definitions live here: :func:`objective`,
:func:`gradient`, :func:`_log_probs` and :func:`paths_reference`
read the string-keyed weight dict ``template:value:tag`` feature by
feature, never the library's feature rows; ``train_reference`` trains
with the first two, ``paths_reference`` scores every path through the
tags of :func:`candidate_tags_reference` in the decoder's float order,
and ``tag_tokens_reference`` decodes by trying each of them.  The
candidate rule is restated here, not taken from ``tagger.candidate_tags``;
it reads a word's analyses from ``morph.analyze``.
``tokenize_reference`` tokenizes with a character loop over the
``str.split()`` chunks, not with the library's regular expression.
``parse_analysis_reference`` reads ``root<Tag>...`` with regular
expressions, where ``morph.Analysis.parse`` uses string operations.
"""

from __future__ import annotations

import math
import random
import re
import struct
import unicodedata
from collections import deque
from typing import Iterator

from hindimorph import morph, tagger
from hindimorph.fst import EPSILON, EpsilonCycle, SymbolTable, Transducer, build, scan

ALPHABET = ("a", "b", "c")


class OracleBudgetExceeded(Exception):
    """The naive walk grew past its safety budget (regenerate the trial)."""


def out_arcs(t: Transducer) -> list[list]:
    """Per state, its arcs in `t.arcs` order."""
    by_state: list[list] = [[] for _ in range(t.state_count)]
    for arc in t.arcs:
        by_state[arc.src].append(arc)
    return by_state


def path_pairs(t: Transducer, max_arcs: int, budget: int = 400_000) -> set[tuple[str, str]]:
    """All accepting (input, output) pairs over paths of <= max_arcs arcs.

    Walks every path individually (no config merging) so it cannot share
    bugs with the library's level-BFS enumerator.
    """
    table = t.symbols
    arcs = out_arcs(t)
    pairs: set[tuple[str, str]] = set()
    frontier: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(t.start, (), ())]
    steps = 0
    for _ in range(max_arcs + 1):
        nxt = []
        for state, ins, outs in frontier:
            if state in t.finals:
                pairs.add((_render(ins, table), _render(outs, table)))
            for arc in arcs[state]:
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
    arcs = out_arcs(t)
    start = (t.start, (), ())
    seen = {start}
    stack = [start]
    pairs: set[tuple[str, str]] = set()
    while stack:
        state, ins, outs = stack.pop()
        if state in t.finals:
            pairs.add((_render(ins, table), _render(outs, table)))
        for arc in arcs[state]:
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


def lookup_reference(t: Transducer, ids: list[int], side: str) -> set[tuple[int, ...]]:
    """The label-id tuples written along the paths that read `ids` on
    `side`: a breadth-first walk over (state, symbols read, written)
    that takes every arc on its own, epsilon-reading ones included.
    Reaching a state of :func:`emitting_eps_cycle_states` raises
    ``EpsilonCycle``."""
    read, write = (1, 2) if side == "input" else (2, 1)
    bad = emitting_eps_cycle_states(t, side)
    arcs = out_arcs(t)
    start = (t.start, 0, ())
    seen = {start}
    queue = deque([start])
    outputs = set()
    while queue:
        state, pos, out = queue.popleft()
        if state in bad:
            raise EpsilonCycle(f"state {state} lies on an emitting {side}-epsilon cycle")
        if pos == len(ids) and state in t.finals:
            outputs.add(out)
        for arc in arcs[state]:
            if arc[read] == EPSILON:
                npos = pos
            elif pos < len(ids) and arc[read] == ids[pos]:
                npos = pos + 1
            else:
                continue
            cfg = (arc.dst, npos, out + (arc[write],) if arc[write] != EPSILON else out)
            if cfg not in seen:
                seen.add(cfg)
                queue.append(cfg)
    return outputs


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
# transducer file format reference


def mfst_bytes(entries: list[str], state_count: int, start: int,
               finals: list[int], arcs: list[tuple[int, int, int, int]]) -> bytes:
    """An MFST file holding these fields as given, one field at a time:
    no check, no sorting.  `entries` are the symbols after epsilon."""
    out = [b"MFST", struct.pack("<HI", 1, 1 + len(entries))]
    for sym in ("<>", *entries):
        raw = sym.encode("utf-8")
        out += [struct.pack("<I", len(raw)), raw]
    out.append(struct.pack("<III", state_count, start, len(finals)))
    out += [struct.pack("<I", f) for f in finals]
    out.append(struct.pack("<I", len(arcs)))
    out += [struct.pack("<IIII", *arc) for arc in arcs]
    return b"".join(out)


def mfst_fields(data: bytes) -> tuple[list[str], int, int, list[int],
                                      list[tuple[int, int, int, int]]]:
    """The fields of a well-formed MFST file, read one at a time, in the
    order of :func:`mfst_bytes`'s arguments."""
    pos = 10
    entries = []
    for _ in range(struct.unpack_from("<I", data, 6)[0]):
        (size,) = struct.unpack_from("<I", data, pos)
        entries.append(data[pos + 4:pos + 4 + size].decode("utf-8"))
        pos += 4 + size
    state_count, start, n_finals = struct.unpack_from("<III", data, pos)
    pos += 12
    finals = [struct.unpack_from("<I", data, pos + 4 * k)[0] for k in range(n_finals)]
    pos += 4 * n_finals
    (n_arcs,) = struct.unpack_from("<I", data, pos)
    arcs = [struct.unpack_from("<IIII", data, pos + 4 + 16 * k) for k in range(n_arcs)]
    return entries[1:], state_count, start, finals, arcs


# ---------------------------------------------------------------------------
# normalization reference


def remove_epsilons_reference(a: Transducer) -> Transducer:
    """Each state's (epsilon, epsilon) closure, walked over :func:`out_arcs`:
    the state is final when its closure holds a final state, and its arcs
    are the real arcs of its whole closure."""
    a_arcs = out_arcs(a)
    finals: set[int] = set()
    arcs: set[tuple[int, int, int, int]] = set()
    for s in range(a.state_count):
        closure = {s}
        stack = [s]
        while stack:
            for arc in a_arcs[stack.pop()]:
                if arc.ilab == arc.olab == EPSILON and arc.dst not in closure:
                    closure.add(arc.dst)
                    stack.append(arc.dst)
        if closure & a.finals:
            finals.add(s)
        arcs.update((s, arc.ilab, arc.olab, arc.dst) for t in closure for arc in a_arcs[t]
                    if arc.ilab != EPSILON or arc.olab != EPSILON)
    return build(a.state_count, a.start, finals, sorted(arcs), a.symbols)


def determinize_reference(a: Transducer) -> Transducer:
    """Subset construction over the pair alphabet, one arc list per subset,
    on the machine of :func:`remove_epsilons_reference`."""
    a = remove_epsilons_reference(a)
    a_arcs = out_arcs(a)
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
            for arc in a_arcs[s]:
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
    a_arcs = out_arcs(a)
    forward = {a.start}
    stack = [a.start]
    while stack:
        for arc in a_arcs[stack.pop()]:
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

    d_arcs = out_arcs(d)
    cls = {s: (1 if s in d.finals else 0) for s in range(d.state_count)}
    n_classes = len(set(cls.values()))
    while True:
        sigs: dict[tuple, list[int]] = {}
        for s in range(d.state_count):
            sig = (cls[s], tuple(sorted(
                (arc.ilab, arc.olab, cls[arc.dst]) for arc in d_arcs[s])))
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
        for arc in sorted(d_arcs[rep[c]]):
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


def trie_reference(strings, symbols: SymbolTable) -> Transducer:
    """The trie of symbol-id strings as an identity machine, states
    numbered in the order the strings are given; not minimized."""
    children: list[dict[int, int]] = [{}]
    finals: set[int] = set()
    for ids in strings:
        node = 0
        for sid in ids:
            nxt = children[node].get(sid)
            if nxt is None:
                nxt = len(children)
                children.append({})
                children[node][sid] = nxt
            node = nxt
        finals.add(node)
    arcs = [(src, sid, sid, dst)
            for src, kids in enumerate(children)
            for sid, dst in kids.items()]
    return build(len(children), 0, finals, arcs, symbols)


def root_fst_reference(roots, symbols: SymbolTable) -> Transducer:
    """The earlier root-list construction: the roots' trie, interned in
    sorted order, built as a machine and normalized by
    :func:`minimize_reference`."""
    strings = [scan(root, symbols, intern=True) for root in sorted(roots)]
    return minimize_reference(trie_reference(strings, symbols))


# ---------------------------------------------------------------------------
# analyses


_ANALYSIS_RE = re.compile(r"([^<>]+)((?:<[^<>]+>)+)")
_TAG_RE = re.compile(r"<([^<>]+)>")


def parse_analysis_reference(text: str) -> tuple[str, tuple[str, ...]] | None:
    """(root, tags) of a ``root<Tag1><Tag2>...`` text, read with regular
    expressions, or None if the text is not one."""
    m = _ANALYSIS_RE.fullmatch(text)
    if not m:
        return None
    return m.group(1), tuple(_TAG_RE.findall(m.group(2)))


# ---------------------------------------------------------------------------
# tagger references


def tokenize_reference(text: str) -> list[str]:
    """Split at whitespace, then detach each punctuation character, one by one."""
    tokens: list[str] = []
    for chunk in unicodedata.normalize("NFC", text).split():
        buf = ""
        for ch in chunk:
            if ch in tagger.PUNCT_CHARS:
                if buf:
                    tokens.append(buf)
                    buf = ""
                tokens.append(ch)
            else:
                buf += ch
        if buf:
            tokens.append(buf)
    return tokens


def _log_probs(weights: dict[str, float], feats: list[str],
               tagset: tuple[str, ...]) -> dict[str, float]:
    """log p(t | feats) per tag t: each score sums the feature weights
    from 0, in the order of `feats`."""
    scores = {t: sum(weights.get(f"{f}:{t}", 0.0) for f in feats) for t in tagset}
    peak = max(scores.values())
    log_z = peak + math.log(sum(math.exp(s - peak) for s in scores.values()))
    return {t: s - log_z for t, s in scores.items()}


def _positions(corpus: tagger.TaggedCorpus) -> list[tuple[list[str], str]]:
    """(features, gold tag) per token, with gold previous tags."""
    out = []
    for sentence in corpus.sentences:
        tokens = [s for s, _ in sentence]
        for i, (_, gold) in enumerate(sentence):
            prev_tag = sentence[i - 1][1] if i > 0 else tagger.BOUNDARY_TAG
            out.append((tagger.extract_features(tokens, i, prev_tag), gold))
    return out


def objective(weights: dict[str, float], positions: list[tuple[list[str], str]],
              tagset: tuple[str, ...], l2_lambda: float) -> float:
    """Mean per-token log-likelihood minus l2_lambda * ||w||^2."""
    total = 0.0
    for feats, gold in positions:
        total += _log_probs(weights, feats, tagset)[gold]
    penalty = l2_lambda * sum(v * v for v in weights.values())
    return total / len(positions) - penalty


def gradient(weights: dict[str, float], positions: list[tuple[list[str], str]],
             tagset: tuple[str, ...], l2_lambda: float) -> dict[str, float]:
    """Exact gradient of :func:`objective` at `weights`.

    Observed minus expected feature counts (averaged per token) minus
    the L2 term.  Keys cover every feature/tag combination seen in the
    data, a new feature's in tagset order, then every other existing
    weight.
    """
    grad: dict[str, float] = {}
    for feats, gold in positions:
        log_p = _log_probs(weights, feats, tagset)
        for f in feats:
            for t in tagset:
                grad.setdefault(f"{f}:{t}", 0.0)
            grad[f"{f}:{gold}"] += 1.0
            for t in tagset:
                grad[f"{f}:{t}"] -= math.exp(log_p[t])
    n = float(len(positions))
    for key in grad:
        grad[key] /= n
    for key, w in weights.items():
        grad[key] = grad.get(key, 0.0) - 2.0 * l2_lambda * w
    return grad


def train_reference(corpus: tagger.TaggedCorpus,
                    config: tagger.TrainConfig) -> tuple[dict[str, float], list[float]]:
    """Gradient ascent with step 0.1 on :func:`objective` from no weights:
    (weights, loss history)."""
    tagset = corpus.tagset()
    positions = _positions(corpus)
    weights: dict[str, float] = {}
    losses: list[float] = []
    for _ in range(config.epochs):
        losses.append(-objective(weights, positions, tagset, config.l2_lambda))
        grad = gradient(weights, positions, tagset, config.l2_lambda)
        for key, g in grad.items():
            weights[key] = weights.get(key, 0.0) + 0.1 * g
    losses.append(-objective(weights, positions, tagset, config.l2_lambda))
    return weights, losses


def candidate_tags_reference(model: tagger.TagModel, morph_model, word: str) -> tuple[str, ...]:
    """The tags a decode may give `word`, in tagset order: its observed
    tags if training saw it; else, for a word made only of punctuation
    characters, the punctuation tag; else the tags that the first tag of
    each of its analyses maps to, one outside ``MORPH_TAG_MAP`` mapping to
    every tag.  A word left with no tag of the tagset may take any."""
    word = unicodedata.normalize("NFC", word)
    if word in model.dictionary:
        allowed = set(model.dictionary[word])
    elif word and set(word) <= tagger.PUNCT_CHARS:
        allowed = {tagger.PUNCT_TAG}
    else:
        allowed = set()
        for analysis in morph.analyze(morph_model, word) if morph_model else []:
            allowed.update(tagger.MORPH_TAG_MAP.get(analysis.tags[0], model.tagset))
    kept = tuple(t for t in model.tagset if t in allowed)
    return kept if kept else tuple(model.tagset)


def paths_reference(model: tagger.TagModel, morph_model,
                    tokens) -> Iterator[tuple[float, tuple[int, ...]]]:
    """Every path through the tokens' candidate tags, as its negated
    score and its tag indices, in tagset order.

    A position's score for tag t sums, from 0, the weights of the token's
    own features in ``extract_features`` order, then adds those of pw:,
    nw: and pt:, one at a time; a path's negated score subtracts each
    position's log-probability in turn, as the decoder does.  Paths are
    walked depth first, so paths that share a prefix share its score, and
    the log-probabilities of each position and previous tag are computed
    once.
    """
    tag_index = {t: i for i, t in enumerate(model.tagset)}
    cands = [candidate_tags_reference(model, morph_model, token) for token in tokens]
    log_ps: dict[tuple[int, str], dict[str, float]] = {}

    def log_probs(i: int, prev_tag: str) -> dict[str, float]:
        own, context = [], []  # context: pw:, nw: and pt:, in that order
        for f in tagger.extract_features(tokens, i, prev_tag):
            (context if f.partition(":")[0] in ("pw", "nw", "pt") else own).append(f)
        scores = {}
        for t in model.tagset:
            score = sum(model.weights.get(f"{f}:{t}", 0.0) for f in own)
            for f in context:
                score += model.weights.get(f"{f}:{t}", 0.0)
            scores[t] = score
        peak = max(scores.values())
        log_z = peak + math.log(sum(math.exp(s - peak) for s in scores.values()))
        return {t: s - log_z for t, s in scores.items()}

    def walk(neg_score: float, path: tuple[int, ...]):
        i = len(path)
        if i == len(tokens):
            yield neg_score, path
            return
        key = (i, model.tagset[path[-1]] if path else tagger.BOUNDARY_TAG)
        if key not in log_ps:
            log_ps[key] = log_probs(*key)
        for t in cands[i]:
            yield from walk(neg_score - log_ps[key][t], path + (tag_index[t],))

    return walk(0.0, ())


def tag_tokens_reference(model: tagger.TagModel, morph_model, tokens) -> list[str]:
    """Exhaustive decode: the best of every path of
    :func:`paths_reference`, ties broken toward the path first in tagset
    order."""
    return [model.tagset[k] for k in min(paths_reference(model, morph_model, tokens))[1]]
