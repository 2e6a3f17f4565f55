import functools
import itertools
import random
import struct
import tracemalloc

import pytest

from hindimorph import data_path, fst, lexicon, rules
from hindimorph.fst import (
    EPSILON,
    EpsilonCycle,
    InvalidStateId,
    InvalidSymbolId,
    SymbolTable,
    SymbolTableMismatch,
    Transducer,
    UnknownSymbol,
    UnterminatedTag,
    build,
    scan,
    render,
)

import oracle

TRIALS = 60


def pair_machine(table, s):
    """Identity/pair helper: 'a:b' -> one-arc machine, 'a' -> identity."""
    lhs, _, rhs = s.partition(":")
    rhs = rhs or lhs
    return fst.single_arc(table, table.intern(lhs), table.intern(rhs))


def string_machine(table, inp, out):
    """Linear machine for one (input, output) pair."""
    iids = [table.intern(c) for c in inp]
    oids = [table.intern(c) for c in out]
    n = max(len(iids), len(oids))
    arcs = []
    for k in range(n):
        arcs.append((k,
                     iids[k] if k < len(iids) else EPSILON,
                     oids[k] if k < len(oids) else EPSILON,
                     k + 1))
    return build(n + 1, 0, (n,), arcs, table)


# ---------------------------------------------------------------------------
# symbol table and scanning


def test_epsilon_is_id_zero():
    table = SymbolTable()
    assert len(table) == 1
    assert table.lookup(0) == "<>"
    assert table.id_of("<>") == 0


def test_intern_is_idempotent():
    table = SymbolTable()
    a = table.intern("क")
    assert table.intern("क") == a
    assert table.lookup(a) == "क"
    assert "क" in table


def test_intern_rejects_empty():
    with pytest.raises(UnknownSymbol):
        SymbolTable().intern("")


def test_lookup_out_of_range():
    with pytest.raises(fst.InvalidSymbolId):
        SymbolTable().lookup(5)


def test_scan_splits_tags_and_scalars():
    table = SymbolTable()
    ids = scan("लडका<Noun><sg>", table, intern=True)
    assert [table.lookup(i) for i in ids] == ["ल", "ड", "क", "ा", "<Noun>", "<sg>"]


def test_scan_skips_literal_epsilon():
    table = SymbolTable()
    assert scan("a<>b", table, intern=True) == [table.id_of("a"), table.id_of("b")]


def test_scan_unterminated_tag():
    with pytest.raises(UnterminatedTag):
        scan("a<Noun", SymbolTable(), intern=True)


def test_scan_unknown_symbol_without_intern():
    table = SymbolTable("a")
    for text in ("ab", "ab<>", "<>ab"):  # with no "<", and with tags to split
        with pytest.raises(UnknownSymbol, match=r"^symbol 'b' not in table$"):
            scan(text, table)


def test_scan_of_plain_text_matches_the_tag_aware_loop():
    # a text with no "<" is one symbol per character; with "<>" (an
    # epsilon) appended, the same text is split into tags and scalars, and
    # must give the same ids or the same error
    rng = random.Random(20)
    table = SymbolTable(["a", "b", "क", "ा", ">", " ", "<Noun>"])
    for _ in range(2000):
        text = "".join(rng.choice("abकाx> य") for _ in range(rng.randrange(9)))
        results = []
        for probe in (text, text + "<>"):
            try:
                results.append(scan(probe, table))
            except UnknownSymbol as exc:
                results.append(str(exc))
        assert results[0] == results[1], text


def test_scan_reads_the_symbols_before_an_unclosed_tag_first():
    # an unknown symbol before an unclosed "<" is reported first; with
    # intern=True the symbols before it are interned, in text order
    with pytest.raises(UnknownSymbol, match=r"^symbol 'x' not in table$"):
        scan("xb<", SymbolTable("b"))
    with pytest.raises(UnterminatedTag, match=r"^unterminated tag at offset 1: '<x'$"):
        scan("b<x", SymbolTable("b"))
    table = SymbolTable()
    with pytest.raises(UnterminatedTag, match=r"^unterminated tag at offset 2: '<c'$"):
        scan("ab<c", table, intern=True)
    assert list(table) == ["<>", "a", "b"]
    # a tag runs to the first ">", so "<a<b>" is one symbol
    table = SymbolTable()
    with pytest.raises(UnterminatedTag, match=r"^unterminated tag at offset 6: '<d'$"):
        scan("<a<b>c<d", table, intern=True)
    assert list(table) == ["<>", "<a<b>", "c"]
    table = SymbolTable()
    assert scan("a<>b<T>\n", table, intern=True) == [1, 2, 3, 4]
    assert list(table) == ["<>", "a", "b", "<T>", "\n"]


def test_render_round_trip():
    table = SymbolTable()
    ids = scan("जा<Verb> रहा", table, intern=True)
    assert render(ids, table) == "जा<Verb> रहा"


# ---------------------------------------------------------------------------
# construction and validation


def test_build_validates_states_and_symbols():
    table = SymbolTable("a")
    with pytest.raises(InvalidStateId):
        build(0, 0, (), (), table)
    with pytest.raises(InvalidStateId):
        build(1, 1, (), (), table)
    with pytest.raises(InvalidStateId):
        build(1, 0, (3,), (), table)
    with pytest.raises(InvalidStateId):
        build(2, 0, (1,), ((0, 0, 0, 5),), table)
    with pytest.raises(InvalidSymbolId):
        build(2, 0, (1,), ((0, 9, 0, 1),), table)
    # a negative field, which no array("I") holds, is named like any other
    with pytest.raises(InvalidStateId, match="arc source -1 out of range"):
        build(2, 0, (1,), ((0, 0, 0, 1), (-1, 0, 0, 1)), table)



def test_build_refuses_an_arc_field_that_is_not_an_integer():
    # 1.5 is in range as a symbol id, but no array("I") holds it
    with pytest.raises(TypeError, match=r"^arc fields must be integers below 2\*\*32$"):
        build(2, 0, (1,), [(0, 1.5, 1, 1)], SymbolTable("a"))

def test_build_sorts_arcs():
    table = SymbolTable("ab")
    a, b = table.id_of("a"), table.id_of("b")
    t1 = build(2, 0, (1,), [(0, b, b, 1), (0, a, a, 1)], table)
    t2 = build(2, 0, (1,), [(0, a, a, 1), (0, b, b, 1)], table)
    assert t1.arcs == t2.arcs
    assert fst.to_bytes(t1) == fst.to_bytes(t2)


def test_operands_must_share_table():
    t1 = fst.epsilon(SymbolTable())
    t2 = fst.epsilon(SymbolTable())
    for op in (fst.union, fst.concat, fst.compose):
        with pytest.raises(SymbolTableMismatch):
            op(t1, t2)


def test_empty_epsilon_single_arc():
    table = SymbolTable("a")
    assert fst.enumerate_pairs(fst.empty(table), 5) == []
    assert fst.enumerate_pairs(fst.epsilon(table), 5) == [("", "")]
    one = fst.single_arc(table, table.id_of("a"), EPSILON)
    assert fst.enumerate_pairs(one, 5) == [("a", "")]


# ---------------------------------------------------------------------------
# closed-form algebra cases


def test_union_of_two_pairs():
    table = SymbolTable()
    t = fst.union(pair_machine(table, "a:b"), pair_machine(table, "c:d"))
    assert set(fst.enumerate_pairs(t, 4)) == {("a", "b"), ("c", "d")}


def test_union_with_empty_is_identity():
    table = SymbolTable()
    t = pair_machine(table, "a:b")
    u = fst.union(t, fst.empty(table))
    assert set(fst.enumerate_pairs(u, 4)) == {("a", "b")}


def test_concat_pairs():
    table = SymbolTable()
    t = fst.concat(pair_machine(table, "a:b"), pair_machine(table, "c:d"))
    assert set(fst.enumerate_pairs(t, 4)) == {("ac", "bd")}


def test_concat_with_epsilon_is_identity():
    table = SymbolTable()
    t = pair_machine(table, "a:b")
    c = fst.concat(t, fst.epsilon(table))
    assert set(fst.enumerate_pairs(c, 4)) == {("a", "b")}


def test_star_closed_form():
    table = SymbolTable()
    t = fst.closure(pair_machine(table, "a:b"), "star")
    # one loop iteration costs three arcs in this construction
    got = set(fst.enumerate_pairs(t, 9))
    assert got == {("", ""), ("a", "b"), ("aa", "bb"), ("aaa", "bbb")}


def test_plus_and_optional():
    table = SymbolTable()
    base = pair_machine(table, "a:b")
    plus = set(fst.enumerate_pairs(fst.closure(base, "plus"), 5))
    assert ("", "") not in plus
    assert {("a", "b"), ("aa", "bb")} <= plus
    opt = set(fst.enumerate_pairs(fst.closure(base, "optional"), 5))
    assert opt == {("", ""), ("a", "b")}


def test_closure_rejects_unknown_mode():
    with pytest.raises(ValueError):
        fst.closure(fst.epsilon(SymbolTable()), "kleene")


def test_invert_swaps_tapes():
    table = SymbolTable()
    t = fst.invert(pair_machine(table, "a:b"))
    assert set(fst.enumerate_pairs(t, 2)) == {("b", "a")}


def test_project_sides():
    table = SymbolTable()
    t = pair_machine(table, "a:b")
    assert set(fst.enumerate_pairs(fst.project(t, "input"), 2)) == {("a", "a")}
    assert set(fst.enumerate_pairs(fst.project(t, "output"), 2)) == {("b", "b")}
    with pytest.raises(ValueError):
        fst.project(t, "sideways")


def test_compose_chains_relations():
    table = SymbolTable()
    t = fst.compose(pair_machine(table, "a:b"), pair_machine(table, "b:c"))
    assert set(fst.enumerate_pairs(t, 4)) == {("a", "c")}
    dead = fst.compose(pair_machine(table, "a:b"), pair_machine(table, "x:y"))
    assert set(fst.enumerate_pairs(dead, 4)) == set()


def test_compose_epsilon_output_meets_epsilon_input():
    # a writes nothing, b reads nothing: both must still compose through
    table = SymbolTable()
    a = string_machine(table, "a", "")
    b = string_machine(table, "", "z")
    left = fst.compose(a, b)
    assert set(fst.enumerate_pairs(left, 6)) == {("a", "z")}


# ---------------------------------------------------------------------------
# randomized oracle trials (the acceptance suite runs the full count)


def test_union_matches_oracle():
    rng = random.Random(101)
    table = oracle.make_table()
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        b = oracle.rand_acyclic(rng, table)
        got = set(fst.enumerate_pairs(fst.union(a, b), 6))
        want = oracle.union_sets(oracle.full_relation(a), oracle.full_relation(b))
        assert got == want


def test_concat_matches_oracle():
    rng = random.Random(102)
    table = oracle.make_table()
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table, max_states=4)
        b = oracle.rand_acyclic(rng, table, max_states=4)
        got = set(fst.enumerate_pairs(fst.concat(a, b), 8))
        want = oracle.concat_sets(oracle.full_relation(a), oracle.full_relation(b))
        assert got == want


@pytest.mark.parametrize("op, sets", [(fst.union, oracle.union_sets),
                                      (fst.concat, oracle.concat_sets)])
def test_n_ary_union_and_concat_match_oracle_and_the_left_fold(op, sets):
    rng = random.Random(f"n-ary-{op.__name__}")
    table = oracle.make_table()
    for trial in range(TRIALS):
        ms = [oracle.rand_acyclic(rng, table, max_states=3) for _ in range(3 + trial % 2)]
        got = op(*ms)
        want = functools.reduce(sets, map(oracle.full_relation, ms))
        assert set(fst.enumerate_pairs(got, got.state_count)) == want
        cyclic = [oracle.rand_machine(rng, table) for _ in range(3 + trial % 2)]
        for operands in (ms, cyclic):
            assert fst.to_bytes(fst.minimize(op(*operands))) == fst.to_bytes(
                fst.minimize(functools.reduce(op, operands)))


def test_n_ary_operands_must_share_table():
    t1 = fst.epsilon(SymbolTable())
    t2 = fst.epsilon(SymbolTable())
    for op in (fst.union, fst.concat):
        with pytest.raises(SymbolTableMismatch):
            op(t1, t1, t1, t2)


def test_compose_matches_oracle():
    rng = random.Random(103)
    table = oracle.make_table()
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        b = oracle.rand_acyclic(rng, table)
        got = set(fst.enumerate_pairs(fst.compose(a, b), 8))
        want = oracle.compose_sets(oracle.full_relation(a), oracle.full_relation(b))
        assert got == want


def test_invert_matches_oracle_and_is_involution():
    rng = random.Random(104)
    table = oracle.make_table()
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        inv = fst.invert(a)
        assert set(fst.enumerate_pairs(inv, 6)) == oracle.invert_sets(oracle.full_relation(a))
        back = fst.invert(inv)
        assert set(fst.enumerate_pairs(back, 6)) == oracle.full_relation(a)


def test_project_matches_oracle():
    rng = random.Random(105)
    table = oracle.make_table()
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        rel = oracle.full_relation(a)
        for side in ("input", "output"):
            got = set(fst.enumerate_pairs(fst.project(a, side), 6))
            assert got == oracle.project_sets(rel, side)


def test_remove_epsilons_matches_oracle():
    rng = random.Random(106)
    table = oracle.make_table()
    for _ in range(TRIALS):
        a = oracle.rand_machine(rng, table)
        slim = fst.remove_epsilons(a)
        assert all(not (arc.ilab == EPSILON and arc.olab == EPSILON)
                   for arc in slim.arcs)
        assert oracle.relation_upto(slim, 5) == oracle.relation_upto(a, 5)


def test_determinize_matches_oracle():
    rng = random.Random(107)
    table = oracle.make_table()
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        det = fst.determinize(fst.remove_epsilons(a))
        assert set(fst.enumerate_pairs(det, 8)) == oracle.full_relation(a)
        fanout = {}
        for arc in det.arcs:
            key = (arc.src, arc.ilab, arc.olab)
            fanout[key] = fanout.get(key, 0) + 1
        assert all(n == 1 for n in fanout.values())


def test_determinize_preserves_cyclic_relations():
    rng = random.Random(108)
    table = oracle.make_table()
    for _ in range(TRIALS):
        a = oracle.rand_machine(rng, table)
        det = fst.determinize(fst.remove_epsilons(a))
        assert oracle.relation_upto(det, 4) == oracle.relation_upto(a, 4)


def test_minimize_matches_oracle_and_contracts():
    rng = random.Random(109)
    cyclic_rng = random.Random(209)
    table = oracle.make_table()
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table)
        det = fst.determinize(fst.remove_epsilons(a))
        mini = fst.minimize(det)
        assert set(fst.enumerate_pairs(mini, 8)) == oracle.full_relation(a)
        assert mini.state_count <= det.state_count
        again = fst.minimize(mini)
        assert again.state_count == mini.state_count
        # minimize normalizes on its own: the explicit pipeline adds nothing
        for m in (a, oracle.rand_machine(cyclic_rng, table)):
            assert fst.to_bytes(fst.minimize(m)) == fst.to_bytes(
                fst.minimize(fst.determinize(fst.remove_epsilons(m))))


@pytest.mark.parametrize("make", [oracle.rand_acyclic, oracle.rand_machine])
def test_minimize_and_determinize_bytes_match_reference(make):
    rng = random.Random(f"normalize-{make.__name__}")
    table = oracle.make_table()
    for trial in range(300):
        m = make(rng, table, max_states=4 + trial % 6, out_degree=1 + trial % 4)
        assert fst.to_bytes(fst.minimize(m)) == fst.to_bytes(oracle.minimize_reference(m))
        assert fst.to_bytes(fst.determinize(m)) == fst.to_bytes(
            oracle.determinize_reference(m))


def _minimize_shapes(table):
    """Named machines for the one-pass and the fixpoint fold of
    `minimize`, each with whether it has a cycle that the start reaches."""
    a, b, c = (table.id_of(ch) for ch in "abc")
    return {
        # 2, 3 and 6 reach no final; without the arcs into them, 1 and 5 merge
        "dead-branches": (build(8, 0, (1, 5), [
            (0, a, a, 1), (1, b, b, 2), (2, c, c, 3),
            (0, b, b, 4), (4, a, a, 5), (4, c, c, 6), (0, c, EPSILON, 7), (7, a, b, 6),
        ], table), False),
        "dead-cycle": (build(4, 0, (1,), [
            (0, a, a, 1), (0, b, b, 2), (2, c, c, 3), (3, c, c, 2),
        ], table), True),
        "dead-start": (build(3, 0, (2,), [(0, a, a, 1)], table), False),
        "dead-start-on-a-cycle": (build(3, 0, (2,), [(0, a, a, 1), (1, b, b, 0)], table), True),
        # (aa)* as a 4-state cycle: 0 and 2 merge, and so do 1 and 3
        "merging-cycle": (build(4, 0, (0, 2), [(s, a, a, (s + 1) % 4) for s in range(4)],
                                table), True),
        # a 30-state chain into a live cycle, with a dead chain and a dead
        # cycle hanging off both: a state is known live only after as many
        # passes as it has labels to a final
        "live-cycle-after-a-long-chain": (build(40, 0, (33,), [
            *[(s, a, a, s + 1) for s in range(30)],
            (30, b, b, 31), (31, c, c, 32), (32, a, a, 33), (33, b, b, 30),
            (31, a, a, 34), (34, a, a, 35), (35, a, a, 36),
            (10, c, c, 37), (37, a, a, 38), (38, b, b, 37), (32, c, c, 39), (39, c, c, 37),
        ], table), True),
        "final-self-loop": (build(3, 0, (1, 2), [
            (0, a, a, 1), (1, b, b, 1), (0, c, c, 2), (2, b, b, 2),
        ], table), True),
        # one suffix class per ending, shared by roots of both operands,
        # after a subset construction (both lists have roots in क)
        "tries-sharing-suffixes": (fst.union(
            lexicon.compile_root_fst(["कता", "मता", "बात", "का"], table),
            lexicon.compile_root_fst(["पता", "रात", "ता", "कत", "कात"], table)), False),
    }


@pytest.mark.parametrize("shape", ["dead-branches", "dead-cycle", "dead-start",
                                   "dead-start-on-a-cycle", "tries-sharing-suffixes",
                                   "merging-cycle", "live-cycle-after-a-long-chain",
                                   "final-self-loop"])
def test_minimize_shapes_match_reference(shape):
    table = oracle.make_table()
    m, cyclic = _minimize_shapes(table)[shape]
    # the register fold runs once with no cycle, and to a fixpoint on one
    assert fst._postorder(fst._eps_free_rows(m)[0], (m.start,))[1] == cyclic
    got = fst.minimize(m)
    assert fst.to_bytes(got) == fst.to_bytes(oracle.minimize_reference(m))
    if shape.startswith("dead-start"):
        assert fst.to_bytes(got) == fst.to_bytes(fst.empty(table))
    if shape == "merging-cycle":
        assert got.state_count == 2


def test_postorder_matches_reachability_oracle():
    # random row graphs, several roots, self-loops and cycles; every odd
    # trial keeps only the arcs to higher states, so it has no cycle
    rng = random.Random(32)
    outcomes = set()
    for trial in range(400):
        n = 1 + trial % 11
        rows = [sorted({(rng.randrange(3), rng.randrange(n)) for _ in range(rng.randrange(4))})
                for _ in range(n)]
        if trial % 2:
            rows = [[(label, d) for label, d in row if d > s] for s, row in enumerate(rows)]
        roots = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        # after[s]: the states s reaches by one arc or more
        after = [{d for _, d in row} for row in rows]
        while True:
            grown = [set().union(a, *(after[d] for d in a)) for a in after]
            if grown == after:
                break
            after = grown
        reached = set(roots).union(*(after[r] for r in roots))
        order, cyclic = fst._postorder(rows, roots)
        assert sorted(order) == sorted(reached)
        assert cyclic == any(s in after[s] for s in reached)
        if not cyclic:
            at = {s: k for k, s in enumerate(order)}
            assert all(at[d] < at[s] for s in order for _, d in rows[s])
        outcomes.add((trial % 2, cyclic))
    assert outcomes == {(0, True), (0, False), (1, False)}


STRING_SETS = {
    "unsorted": [[2, 3], [1], [3, 1], [2]],
    "repeats": [[1, 2], [3], [1, 2], [3]],
    "empty-string": [[]],
    "no-string": [],
    "prefix-of-another": [[1, 2, 3], [1], [1, 2], [3, 2, 1]],
    "shared-suffixes": [[1, 3], [2, 3], [3, 3], [1, 1, 3]],
    "ids-out-of-text-order": [[2, 3], [1, 3], [2], [1]],
}


@pytest.mark.parametrize("strings", STRING_SETS.values(), ids=STRING_SETS.keys())
def test_string_set_matches_the_minimized_trie(strings):
    # ids c=1, a=2, b=3: sorted by id, "c..." comes before "a..."
    table = SymbolTable("cab")
    texts = {"".join(map(table.lookup, ids)) for ids in strings}
    want = fst.to_bytes(oracle.minimize_reference(oracle.trie_reference(strings, table)))
    for given in (strings, (list(ids) for ids in strings)):  # a list, then a generator
        got = fst.string_set(given, table)
        assert fst.to_bytes(got) == want
        assert oracle.full_relation(got) == {(text, text) for text in texts}
        assert (got.start in got.finals) == ([] in strings)
    if not strings:
        assert want == fst.to_bytes(fst.empty(table))


def test_minimize_and_string_set_freeze_what_build_freezes():
    # their machines skip build: _number hands _freeze its own columns and
    # per-state offsets, which must be those build makes of the same arcs
    table = oracle.make_table()
    rng = random.Random("freeze")
    made = [fst.minimize(m) for m, _ in _minimize_shapes(table).values()]
    made += [fst.minimize(oracle.rand_machine(rng, table, max_states=9, out_degree=3))
             for _ in range(TRIALS)]
    made += [fst.string_set(strings, SymbolTable("cab")) for strings in STRING_SETS.values()]
    for m in made:
        ref = build(m.state_count, m.start, m.finals, m.arcs, m.symbols)
        assert (m._cols, m._first) == (ref._cols, ref._first)


@pytest.mark.parametrize("strings, sid", [
    ([[5]], 5), ([[-1]], -1), ([[1, 0, 2]], 0), ([[1, 2], [1, 2, 4]], 4),
], ids=["past-the-table", "negative", "epsilon", "after-a-common-prefix"])
def test_string_set_rejects_an_id_outside_the_table(strings, sid):
    # ids 1..3 are c, a, b; the error names the id as given
    with pytest.raises(InvalidSymbolId, match=rf"symbol id {sid} out of range 1\.\.3$"):
        fst.string_set(strings, SymbolTable("cab"))


@pytest.mark.parametrize("n", [60, 20_000])
def test_minimize_a_chain_with_an_epsilon_arc(n):
    # one state per symbol: too deep for a recursive walk, and for the
    # reference's Moore rounds (one per state) but on the short chains
    table = oracle.make_table()
    ids = [table.id_of(ch) for ch in random.Random(n).choices("abc", k=n)]
    ids[n // 2] = EPSILON
    m = build(n + 1, 0, (n // 3, n), [(k, sid, sid, k + 1) for k, sid in enumerate(ids)], table)
    got = fst.minimize(m)
    kept = [sid for sid in ids if sid]
    chain = build(n, 0, (n // 3, n - 1), [(k, sid, sid, k + 1) for k, sid in enumerate(kept)],
                  table)
    assert fst.to_bytes(got) == fst.to_bytes(chain)
    # (a^k b)* as a cycle with an epsilon arc before the b: one fold pass per state
    k = n // 20
    a, b = table.id_of("a"), table.id_of("b")
    loop = build(k + 2, 0, (0,), [*[(s, a, a, s + 1) for s in range(k)],
                                  (k, EPSILON, EPSILON, k + 1), (k + 1, b, b, 0)], table)
    got_loop = fst.minimize(loop)
    cycle = build(k + 1, 0, (0,), [*[(s, a, a, s + 1) for s in range(k)], (k, b, b, 0)], table)
    assert fst.to_bytes(got_loop) == fst.to_bytes(cycle)
    if n < 100:
        assert fst.to_bytes(got) == fst.to_bytes(oracle.minimize_reference(m))
        assert fst.to_bytes(got_loop) == fst.to_bytes(oracle.minimize_reference(loop))


def test_closure_matches_oracle():
    rng = random.Random(110)
    table = oracle.make_table()
    for _ in range(TRIALS):
        a = oracle.rand_acyclic(rng, table, max_states=3)
        rel = oracle.full_relation(a)
        star = fst.closure(a, "star")
        # library enumerator against the naive path walker on the same machine
        assert set(fst.enumerate_pairs(star, 7)) == oracle.path_pairs(star, 7)
        # and the construction against the set-theoretic closure
        assert oracle.relation_upto(star, 4) == oracle.star_upto(rel, 4)
        plus = fst.closure(a, "plus")
        assert set(fst.enumerate_pairs(plus, 7)) == oracle.path_pairs(plus, 7)
        assert oracle.relation_upto(plus, 4) == oracle.plus_upto(rel, 4)
        opt = fst.closure(a, "optional")
        assert set(fst.enumerate_pairs(opt, 7)) == oracle.path_pairs(opt, 7)
        assert oracle.relation_upto(opt, 4) == {
            p for p in oracle.optional_sets(rel)
            if len(p[0]) <= 4 and len(p[1]) <= 4}


def test_operations_do_not_mutate_operands():
    rng = random.Random(111)
    table = oracle.make_table()
    a = oracle.rand_acyclic(rng, table)
    b = oracle.rand_acyclic(rng, table)
    before = (a.state_count, a.start, a.finals, a.arcs)
    fst.union(a, b)
    fst.concat(a, b)
    fst.compose(a, b)
    fst.closure(a)
    fst.invert(a)
    fst.project(a)
    fst.remove_epsilons(a)
    fst.determinize(fst.remove_epsilons(a))
    fst.minimize(a)
    assert (a.state_count, a.start, a.finals, a.arcs) == before


# ---------------------------------------------------------------------------
# apply


def test_apply_single_arc():
    table = SymbolTable()
    t = pair_machine(table, "a:b")
    assert fst.apply(t, "a") == ["b"]
    assert fst.apply(t, "b") == []
    assert fst.apply(t, "b", side="output") == ["a"]
    assert fst.apply(t, "a", side="output") == []
    # the side is checked first, before the text is scanned
    for side in ("in", "Output", "both", ""):
        with pytest.raises(ValueError, match=f"^unknown apply side {side!r}$"):
            fst.apply(t, "z", side=side)


def test_apply_unknown_symbol_is_an_error():
    table = SymbolTable()
    t = pair_machine(table, "a:b")
    with pytest.raises(UnknownSymbol, match=r"^symbol 'z' not in table$"):
        fst.apply(t, "az")
    with pytest.raises(UnknownSymbol, match=r"^symbol '<N>' not in table$"):
        fst.apply(t, "a<N>", side="output")


def test_apply_equals_filtered_enumeration():
    rng = random.Random(112)
    table = oracle.make_table()
    for _ in range(TRIALS):
        t = oracle.rand_acyclic(rng, table)
        rel = oracle.full_relation(t)
        inputs = {x for x, _ in rel} | {"a", "ba", ""}
        for x in sorted(inputs):
            assert fst.apply(t, x) == sorted({o for i, o in rel if i == x})
        for y in sorted({o for _, o in rel} | {"a", "ba", ""}):
            assert fst.apply(t, y, side="output") == sorted({i for i, o in rel if o == y})


@pytest.mark.parametrize("make", [oracle.rand_acyclic, oracle.rand_machine])
def test_apply_output_side_equals_inverted_apply(make):
    rng = random.Random(f"apply-side-{make.__name__}")
    table = oracle.make_table()
    texts = ["", "a", "b", "c", "ab", "ba", "cc", "abc", "z"]

    def outcome(m, text, side):
        try:
            return fst.apply(m, text, side=side)
        except (UnknownSymbol, EpsilonCycle) as exc:
            return type(exc)

    for trial in range(300):
        m = make(rng, table, max_states=3 + trial % 5, out_degree=1 + trial % 3)
        inv = fst.invert(m)
        for text in texts:
            assert outcome(m, text, "output") == outcome(inv, text, "input")
            assert outcome(inv, text, "output") == outcome(m, text, "input")


def test_apply_high_fan_out():
    # 12 symbols and up to 20 arcs per state: states read a label on
    # several arcs, and their runs of arcs start with epsilon-reading ones
    alphabet = tuple("abcdefghijkl")
    table = SymbolTable(alphabet)
    rng = random.Random(113)
    cap = 2
    shapes = set()

    def outcome(m, text, side):
        try:
            return fst.apply(m, text, side=side)
        except EpsilonCycle as exc:
            return type(exc)

    for make in (oracle.rand_acyclic, oracle.rand_machine):
        for _ in range(40):
            m = make(rng, table, max_states=4, out_degree=20, alphabet=alphabet)
            # lookup reads a state's arcs between its two offsets
            for s in range(m.state_count):
                assert list(m.arcs[m._first[s]:m._first[s + 1]]) == (
                    [a for a in m.arcs if a.src == s])
            by_state = oracle.out_arcs(m)
            if by_state[-1]:
                shapes.add("arcs on the last state")
            inv = fst.invert(m)
            rel = oracle.relation_upto(m, cap)
            texts = {"".join(rng.choices(alphabet, k=rng.randint(0, 3))) for _ in range(12)}
            for side, other, read in (("input", "output", 0), ("output", "input", 1)):
                for s in range(m.state_count):
                    labels = sorted(arc[1 + read] for arc in by_state[s])
                    if labels[:1] == [EPSILON] and labels[-1] != EPSILON:
                        shapes.add("leading epsilon arcs")
                    real = [lab for lab in labels if lab != EPSILON]
                    if len(set(real)) < len(real):
                        shapes.add("several arcs per label")
                for text in sorted(texts | {pair[read] for pair in rel}):
                    got = outcome(m, text, side)
                    assert got == outcome(inv, text, other)
                    if got is EpsilonCycle or len(text) > cap:
                        continue
                    want = {pair[1 - read] for pair in rel if pair[read] == text}
                    assert {out for out in got if len(out) <= cap} == want
    assert shapes == {"arcs on the last state", "leading epsilon arcs",
                      "several arcs per label"}


def test_apply_keeps_one_copy_of_the_arcs():
    assert "_adj" not in Transducer.__slots__
    # 11 arcs, two of them repeated, whose output order differs from `arcs`
    built = oracle.rand_acyclic(random.Random(115), oracle.make_table(),
                                max_states=8, out_degree=8)
    m = fst.from_bytes(fst.to_bytes(built))
    fst.apply(m, "a")
    fst.apply(m, "a", side="output")
    # loading and lookup on both sides made no Arc
    assert m._arcs is None
    # the input side reads the machine's own columns; the output side
    # re-sorts them once by (src, olab, ilab, dst)
    src, ilab, olab, dst = m._cols
    _, *by_input = m._sides["input"]
    assert all(col is own for col, own in zip(by_input, (ilab, olab, dst)))
    _, reads, writes, dsts = m._sides["output"]
    by_output = list(zip(src, reads, writes, dsts))
    assert by_output != list(zip(src, olab, ilab, dst))
    assert by_output == [(a.src, a.olab, a.ilab, a.dst) for a in
                         sorted(m.arcs, key=lambda a: (a.src, a.olab, a.ilab, a.dst))]


def test_arc_count_reads_the_columns():
    # the machine of the test above: 11 arcs
    m = fst.from_bytes(fst.to_bytes(oracle.rand_acyclic(
        random.Random(115), oracle.make_table(), max_states=8, out_degree=8)))
    assert m.arc_count == 11
    assert repr(m) == f"Transducer({m.state_count} states, 11 arcs, {len(m.finals)} final)"
    assert m._arcs is None
    assert len(m.arcs) == m.arc_count


def test_apply_epsilon_cycle_policy():
    table = SymbolTable("ab")
    a, b = table.id_of("a"), table.id_of("b")
    # state 1 <-> 2 is an input-epsilon cycle that keeps writing "a";
    # it is only reachable after consuming "b".
    t = build(3, 0, (0,),
              [(0, b, b, 1), (1, EPSILON, a, 2), (2, EPSILON, a, 1)],
              table)
    assert fst.apply(t, "") == [""]
    with pytest.raises(EpsilonCycle):
        fst.apply(t, "b")
    # the guard is kept on the machine: a second call raises again
    with pytest.raises(EpsilonCycle):
        fst.apply(t, "b")
    # and a reloaded machine finds it afresh
    with pytest.raises(EpsilonCycle):
        fst.apply(fst.from_bytes(fst.to_bytes(t)), "b")
    # an emitting input-epsilon self-loop is a cycle too
    loop = build(2, 0, (1,), [(0, b, b, 1), (1, EPSILON, a, 1)], table)
    assert fst.apply(loop, "") == []
    with pytest.raises(EpsilonCycle):
        fst.apply(loop, "b")
    # an emitting arc that leaves a silent cycle lies on no cycle
    exit_arc = build(3, 0, (2,),
                     [(0, EPSILON, EPSILON, 1), (1, EPSILON, EPSILON, 0),
                      (1, EPSILON, a, 2)],
                     table)
    assert fst.apply(exit_arc, "") == ["a"]
    # an output-epsilon cycle that writes input is a cycle for side="output"
    # only; reading the input tape, the same arcs consume "a"
    out_arcs = [(0, b, b, 1), (1, a, EPSILON, 2), (2, a, EPSILON, 1)]
    out_loop = build(3, 0, (0, 2), out_arcs, table)
    assert fst.apply(out_loop, "ba") == ["b"]
    assert fst.apply(out_loop, "baaa") == ["b"]
    assert fst.apply(out_loop, "", side="output") == [""]
    with pytest.raises(EpsilonCycle):
        fst.apply(out_loop, "b", side="output")
    # each side keeps its own slot: a raise on one side leaves the other unset
    fresh = build(3, 0, (0, 2), out_arcs, table)
    with pytest.raises(EpsilonCycle):
        fst.apply(fresh, "b", side="output")
    assert "output" in fresh._sides
    assert "input" not in fresh._sides
    with pytest.raises(EpsilonCycle):
        fst.apply(t, "b")
    assert "output" not in t._sides
    assert fst.apply(t, "a", side="output") == []


def test_emitting_eps_cycle_states_match_oracle():
    # from each state taken as the start, lookup raises exactly when the
    # reference search reaches a state on a cycle that reads epsilon and writes
    rng = random.Random(116)
    table = oracle.make_table()
    found = 0
    for trial in range(300):
        m = oracle.rand_machine(rng, table, max_states=2 + trial % 8,
                                out_degree=1 + trial % 4)
        for side in ("input", "output"):
            raised = False
            for start in range(m.state_count):
                m_s = build(m.state_count, start, m.finals, m.arcs, table)
                want = reference_outcome(m_s, "", side)
                assert lookup_outcome(m_s, "", side) == want, (trial, side, start)
                raised |= want is EpsilonCycle
            found += raised
    assert found > 50


@pytest.mark.parametrize("side", ["input", "output"])
def test_deep_epsilon_reading_cycles(side):
    # A cycle of n states that reads epsilon on `side`, far deeper than
    # the recursion limit, plus an a:a arc from state 0 to the final n.
    n = 5000
    table = SymbolTable("ab")
    a, b = table.id_of("a"), table.id_of("b")
    other = "output" if side == "input" else "input"
    writing = (EPSILON, b) if side == "input" else (b, EPSILON)
    exit_arc = (0, a, a, n)
    loud = build(n + 1, 0, (n,),
                 [(s, *writing, (s + 1) % n) for s in range(n)] + [exit_arc], table)
    with pytest.raises(EpsilonCycle):
        fst.apply(loud, "a", side=side)
    # the cycle reads b on the other tape, so that side answers
    assert fst.apply(loud, "a", side=other) == ["a"]
    quiet = build(n + 1, 0, (n,),
                  [(s, EPSILON, EPSILON, (s + 1) % n) for s in range(n)] + [exit_arc], table)
    assert fst.apply(quiet, "a", side=side) == ["a"]


@pytest.mark.parametrize("side", ["input", "output"])
def test_long_writing_epsilon_paths_take_linear_memory(side):
    # A chain of n arcs that read epsilon on `side` and write b, and a
    # cycle of n such arcs.  The walk keeps what it has written as shared
    # prefixes; a written tuple built at every step would hold about
    # n * n / 2 ids, some 100 MiB at this n.
    n = 5000
    table = SymbolTable("ab")
    b = table.id_of("b")
    writing = (EPSILON, b) if side == "input" else (b, EPSILON)
    chain = build(n + 1, 0, (n,), [(s, *writing, s + 1) for s in range(n)], table)
    cycle = build(n, 0, (0,), [(s, *writing, (s + 1) % n) for s in range(n)], table)
    message = f"^symbol-writing {side}-epsilon cycle reachable on ''$"
    tracemalloc.start()
    try:
        assert fst.lookup(chain, [], side) == {(b,) * n}
        with pytest.raises(EpsilonCycle, match=message):
            fst.lookup(cycle, [], side)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("side", ["input", "output"])
def test_epsilon_diamond_is_no_cycle(side):
    # Two writing paths that read epsilon on `side` part at state 0 and
    # meet again at 3: the search reaches 3 twice, but meets no cycle.
    table = SymbolTable("ab")
    a, b = table.id_of("a"), table.id_of("b")

    def arc(src, sym, dst):
        return (src, EPSILON, sym, dst) if side == "input" else (src, sym, EPSILON, dst)

    diamond = build(5, 0, (4,), [arc(0, a, 1), arc(0, b, 2), arc(1, a, 3), arc(2, b, 3),
                                 (3, a, a, 4)], table)
    assert oracle.emitting_eps_cycle_states(diamond, side) == set()
    assert fst.apply(diamond, "a", side=side) == ["aaa", "bba"]


def test_apply_tolerates_silent_epsilon_cycle():
    table = SymbolTable("a")
    a = table.id_of("a")
    # epsilon:epsilon loop produces nothing, so it must not raise
    t = build(2, 0, (1,),
              [(0, EPSILON, EPSILON, 0), (0, a, a, 1)],
              table)
    assert fst.apply(t, "a") == ["a"]


# ---------------------------------------------------------------------------
# lookup: the search under apply, on label ids


def lookup_outcome(m, text, side):
    """What lookup and apply give for `text`: the written id tuples,
    after checking that apply renders them, or the exception type."""
    try:
        ids = scan(text, m.symbols)
        got = fst.lookup(m, ids, side)
    except (UnknownSymbol, EpsilonCycle) as exc:
        with pytest.raises(type(exc)):
            fst.apply(m, text, side=side)
        return type(exc)
    assert fst.apply(m, text, side=side) == sorted({render(out, m.symbols) for out in got})
    return got


def reference_outcome(m, text, side):
    try:
        return oracle.lookup_reference(m, scan(text, m.symbols), side)
    except (UnknownSymbol, EpsilonCycle) as exc:
        return type(exc)


def closure_table(m, side):
    return m._sides[side][0]


@pytest.mark.parametrize("make", [oracle.rand_acyclic, oracle.rand_machine])
def test_lookup_equals_reference(make):
    # random machines are full of epsilon-reading arcs: chains from the
    # start, silent cycles and cycles that write
    rng = random.Random(f"lookup-{make.__name__}")
    table = oracle.make_table()
    texts = ["", "a", "b", "c", "ab", "ba", "cc", "abc", "z"]
    shapes = set()
    for trial in range(300):
        m = make(rng, table, max_states=2 + trial % 7, out_degree=1 + trial % 4)
        reloaded = fst.from_bytes(fst.to_bytes(m))
        if any(arc.ilab == arc.olab == EPSILON and arc.src == arc.dst for arc in m.arcs):
            shapes.add("silent epsilon loop")
        for side in ("input", "output"):
            read = 1 if side == "input" else 2
            if any(arc[read] == EPSILON for arc in m.arcs if arc.src == m.start):
                shapes.add("epsilon arcs at the start")
            for text in texts:
                want = reference_outcome(m, text, side)
                # the second call reads the closures the first one kept
                for machine in (m, m, reloaded):
                    assert lookup_outcome(machine, text, side) == want, (trial, side, text)
                if want is EpsilonCycle:
                    shapes.add("raises")
                elif want not in (set(), UnknownSymbol):
                    shapes.add("answers")
    want_shapes = {"epsilon arcs at the start", "answers"}
    if make is oracle.rand_machine:
        want_shapes |= {"silent epsilon loop", "raises"}
    assert shapes == want_shapes


@pytest.mark.parametrize("side", ["input", "output"])
def test_lookup_folds_epsilon_chains_at_the_start(side):
    # 0 -x-> 1 -y-> 2 and 0 -z-> 3 read epsilon and write a tag each;
    # 2 is final and reads "a", 3 reads "b"; 1 is a pass-through state
    table = SymbolTable(["a", "b", "<x>", "<y>", "<z>"])
    a, b, x, y, z = (table.id_of(s) for s in ("a", "b", "<x>", "<y>", "<z>"))
    rows = [(0, EPSILON, x, 1), (1, EPSILON, y, 2), (0, EPSILON, z, 3),
            (2, a, a, 4), (3, b, b, 4)]
    if side == "output":
        rows = [(src, olab, ilab, dst) for src, ilab, olab, dst in rows]
    m = build(5, 0, (2, 4), rows, table)
    for text, want in (("", {(x, y)}), ("a", {(x, y, a)}), ("b", {(z, b)}), ("ab", set())):
        assert lookup_outcome(m, text, side) == want == reference_outcome(m, text, side)
    # the start's closure keeps 2 and 3, not the pass-through state 1
    closures = closure_table(m, side)
    assert set(closures) == {0, 1}
    assert sorted(closures[0]) == [(2, (x, y)), (3, (z,))]
    assert closures[1] is None


@pytest.mark.parametrize("side", ["input", "output"])
def test_lookup_through_silent_epsilon_cycles(side):
    # 0 <-> 1 <-> 2 is a silent epsilon cycle through the start; 1 writes
    # "b" on its way out of the cycle into the final 3, and 2 reads "a"
    table = SymbolTable("ab")
    a, b = table.id_of("a"), table.id_of("b")
    rows = [(0, EPSILON, EPSILON, 1), (1, EPSILON, EPSILON, 2), (2, EPSILON, EPSILON, 0),
            (1, EPSILON, b, 3), (2, a, a, 0), (3, a, EPSILON, 3)]
    if side == "output":
        rows = [(src, olab, ilab, dst) for src, ilab, olab, dst in rows]
    m = build(4, 0, (3,), rows, table)
    for text in ("", "a", "aa", "aaa", "b"):
        want = reference_outcome(m, text, side)
        assert lookup_outcome(m, text, side) == want
    assert lookup_outcome(m, "aa", side) == {(b,), (a, b), (a, a, b)}


@pytest.mark.parametrize("side", ["input", "output"])
def test_lookup_emitting_cycle_raises_every_time(side):
    # 1 <-> 2 reads epsilon and writes "a"; it is reached after "b"
    table = SymbolTable("ab")
    a, b = table.id_of("a"), table.id_of("b")
    rows = [(0, b, b, 1), (1, EPSILON, a, 2), (2, EPSILON, a, 1), (0, a, a, 3)]
    if side == "output":
        rows = [(src, olab, ilab, dst) for src, ilab, olab, dst in rows]
    m = build(4, 0, (0, 3), rows, table)
    message = f"symbol-writing {side}-epsilon cycle reachable on 'b'"
    for machine in (m, m, m, fst.from_bytes(fst.to_bytes(m))):
        assert lookup_outcome(machine, "a", side) == {(a,)}
        with pytest.raises(EpsilonCycle, match=f"^{message}$"):
            fst.lookup(machine, [b], side)
        with pytest.raises(EpsilonCycle, match=f"^{message}$"):
            fst.apply(machine, "b", side=side)
    # apply names the text as given, a literal <> included
    with pytest.raises(EpsilonCycle, match="reachable on 'b<>'$"):
        fst.apply(m, "b<>", side=side)
    # a walk that raises keeps nothing
    assert closure_table(m, side) == {1: None, 2: None}


def test_emitting_cycle_on_ids_outside_the_table_names_the_ids():
    # the start reaches 0 <-> 1, which reads epsilon on the output side and
    # writes "a": the error names ids that no symbol renders by number
    table = SymbolTable("a")
    a = table.id_of("a")
    m = build(2, 0, (0,), [(0, a, EPSILON, 1), (1, a, EPSILON, 0)], table)
    for ids, named in (([999], "symbol ids [999]"), ([a, -1], "symbol ids [1, -1]"),
                       ([a], "'a'"), ([], "''")):
        with pytest.raises(EpsilonCycle) as exc:
            fst.lookup(m, ids, "output")
        assert str(exc.value) == f"symbol-writing output-epsilon cycle reachable on {named}"


def test_lookup_refuses_the_epsilon_id():
    # id 0 is epsilon, no symbol to read: a lookup refuses it rather
    # than take the epsilon arc 0 -> 2 for an arc that reads it
    table = SymbolTable("ax")
    a, x = table.id_of("a"), table.id_of("x")
    m = build(3, 0, (2,), [(0, EPSILON, x, 2), (0, a, a, 1), (1, a, a, 2)], table)
    one = build(2, 0, (1,), [(0, a, a, 1)], table)
    for machine, ids in ((m, [EPSILON]), (m, [EPSILON, EPSILON]), (m, [a, EPSILON]),
                         (one, [EPSILON, a])):
        for side in ("input", "output"):
            with pytest.raises(InvalidSymbolId, match="^symbol id 0 is epsilon"):
                fst.lookup(machine, ids, side)
    assert fst.lookup(m, []) == {(x,)}
    assert fst.lookup(m, [a, a]) == {(a, a)}
    assert fst.lookup(one, [a]) == {(a,)}
    # an id outside the table is read by no arc
    assert fst.lookup(m, [len(table)]) == fst.lookup(one, [a, 99]) == set()


def test_lookup_dedups_texts_by_apply():
    # "ab" is one symbol besides "a" and "b": two paths write two id
    # tuples that render to one text
    table = SymbolTable(["x", "ab", "a", "b"])
    x, ab, a, b = (table.id_of(s) for s in ("x", "ab", "a", "b"))
    m = build(3, 0, (2,), [(0, x, ab, 2), (0, x, a, 1), (1, EPSILON, b, 2)], table)
    assert fst.lookup(m, [x]) == {(ab,), (a, b)} == oracle.lookup_reference(m, [x], "input")
    assert fst.apply(m, "x") == ["ab"]
    inv = fst.invert(m)
    assert fst.apply(inv, "x", side="output") == ["ab"]


@pytest.mark.parametrize("side", ["input", "output"])
def test_closure_table_is_bounded(side):
    # A silent epsilon cycle of n states, each with an arc that reads
    # "a", writes "a" or "b" and moves on: every state's closure is the
    # whole cycle, n entries.  With one more arc the machine has 2n + 1,
    # so the table keeps two closures, has room for one entry left, and
    # walks the rest in the search.
    n = 2000
    table = SymbolTable("ab")
    a, b = table.id_of("a"), table.id_of("b")
    rows = [(s, EPSILON, EPSILON, (s + 1) % n) for s in range(n)]
    rows += [(s, a, (a, b)[s % 2], (s + 1) % n) for s in range(n)] + [(0, a, a, 0)]
    if side == "output":
        rows = [(src, olab, ilab, dst) for src, ilab, olab, dst in rows]
    m = build(n, 0, (0,), rows, table)
    for text in ("", "a", "aaa", "b"):
        got = {render(out, table) for out in fst.lookup(m, scan(text, table), side)}
        # each "a" may write either symbol; nothing else is read
        assert got == {"".join(w) for w in itertools.product("ab", repeat=len(text))
                       if "b" not in text}
    closures = closure_table(m, side)
    kept = [c for c in closures.values() if c]
    assert sum(map(len, kept)) <= m.arc_count
    assert len(kept) == 2 and closures.room == 0
    assert len(closures) == n


# ---------------------------------------------------------------------------
# enumerate_pairs details


def test_enumerate_rejects_negative():
    with pytest.raises(ValueError):
        fst.enumerate_pairs(fst.epsilon(SymbolTable()), -1)


def test_enumerate_zero_budget_sees_only_start():
    table = SymbolTable()
    t = pair_machine(table, "a:b")
    assert set(fst.enumerate_pairs(t, 0)) == set()
    assert set(fst.enumerate_pairs(fst.epsilon(table), 0)) == {("", "")}


def test_enumerate_single_arc_with_final_start():
    table = SymbolTable("a")
    a = table.id_of("a")
    t = build(2, 0, (0, 1), [(0, a, a, 1)], table)
    assert set(fst.enumerate_pairs(t, 1)) == {("", ""), ("a", "a")}


# ---------------------------------------------------------------------------
# result order: each answer once, sorted, in a new list


def test_enumerate_pairs_is_sorted_and_deduplicated():
    # arcs in unsorted order, and ("a", "y") read along two paths
    table = SymbolTable("abxy")
    a, b, x, y = (table.id_of(s) for s in "abxy")
    t = build(3, 0, (1,), [(0, b, x, 1), (0, a, y, 1), (0, a, EPSILON, 2),
                           (2, EPSILON, y, 1), (0, a, x, 1)], table)
    assert fst.enumerate_pairs(t, 2) == [("a", "x"), ("a", "y"), ("b", "x")]


def test_apply_texts_are_sorted_and_deduplicated():
    # "x" is written along two paths; the outputs in unsorted arc order
    table = SymbolTable("abxyz")
    a, b, x, y, z = (table.id_of(s) for s in "abxyz")
    t = build(3, 0, (1,), [(0, a, y, 1), (0, a, x, 1), (0, a, EPSILON, 2),
                           (2, EPSILON, x, 1), (0, b, z, 1)], table)
    assert fst.apply(t, "a") == ["x", "y"]
    assert fst.apply(fst.invert(t), "a", side="output") == ["x", "y"]
    assert fst.apply(t, "y", side="output") == ["a"]


def test_apply_returns_a_new_list():
    table = SymbolTable()
    t = pair_machine(table, "a:b")
    first = fst.apply(t, "a")
    first.append("c")
    assert fst.apply(t, "a") == ["b"]
    assert fst.apply(t, "a") is not fst.apply(t, "a")
    assert fst.enumerate_pairs(t, 1) == fst.enumerate_pairs(t, 1) == [("a", "b")]


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_random_machines():
    rng = random.Random(113)
    table = oracle.make_table()
    for _ in range(TRIALS):
        t = oracle.rand_machine(rng, table)
        blob = fst.to_bytes(t)
        back = fst.from_bytes(blob)
        assert fst.to_bytes(back) == blob
        assert oracle.relation_upto(back, 4) == oracle.relation_upto(t, 4)


def test_save_load(tmp_path):
    table = SymbolTable()
    t = pair_machine(table, "क:ख")
    path = tmp_path / "t.fst"
    fst.save(t, path)
    back = fst.load(path)
    assert set(fst.enumerate_pairs(back, 2)) == {("क", "ख")}


def test_save_refuses_a_symbol_with_a_lone_surrogate(tmp_path):
    # SymbolTable accepts the symbol; UTF-8 cannot encode it
    t = fst.build(2, 0, [1], [(0, 1, 1, 1)], SymbolTable(["a\ud800"]))
    message = r"^transducer symbol 'a\\ud800' holds a lone surrogate$"
    with pytest.raises(fst.FstError, match=message):
        fst.to_bytes(t)
    with pytest.raises(fst.FstError, match=message):
        fst.save(t, tmp_path / "t.fst")
    assert not list(tmp_path.iterdir())


def test_from_bytes_rejects_garbage():
    table = SymbolTable()
    blob = fst.to_bytes(fst.epsilon(table))
    with pytest.raises(fst.FstError):
        fst.from_bytes(b"NOPE" + blob[4:])
    with pytest.raises(fst.FstError):
        fst.from_bytes(blob[:-1])
    with pytest.raises(fst.FstError):
        fst.from_bytes(blob + b"\x00")
    assert blob[6:10] == struct.pack("<I", 1)  # the symbol count
    with pytest.raises(fst.FstError, match="^symbol table must contain the epsilon entry$"):
        fst.from_bytes(blob[:6] + struct.pack("<I", 0) + blob[10:])



def test_from_bytes_refuses_a_repeated_symbol():
    with pytest.raises(fst.FstError, match="^duplicate symbol entry 'a'$"):
        fst.from_bytes(oracle.mfst_bytes(["a", "a"], 1, 0, [0], []))

@pytest.mark.parametrize("head, message", [
    (b"NOPE" + struct.pack("<H", 1), r"^not a transducer file \(bad magic\)$"),
    (fst.MAGIC + struct.pack("<H", 99), "^unsupported transducer format version 99$"),
], ids=["magic", "version"])
def test_from_bytes_checks_the_header(head, message):
    blob = fst.to_bytes(fst.epsilon(SymbolTable()))
    with pytest.raises(fst.FstError, match=message):
        fst.from_bytes(head + blob[6:])


def test_state_count_is_bounded_by_file_size():
    table = SymbolTable()
    blob = fst.to_bytes(fst.epsilon(table))
    assert len(blob) == 36 and blob[16:20] == struct.pack("<I", 1)
    with pytest.raises(fst.FstError, match="100000 states"):
        fst.from_bytes(blob[:16] + struct.pack("<I", 100_000) + blob[20:])
    # the writer refuses what the reader would: an untrimmed 100-state machine
    with pytest.raises(fst.FstError, match="100 states"):
        fst.to_bytes(fst.build(100, 0, [0], [], table))


def test_shuffled_arc_block_loads_as_the_sorted_machine():
    blob = fst.to_bytes(rules.compile_file(data_path("rules", "hindi.mrl"), SymbolTable()))
    entries, state_count, start, finals, arcs = oracle.mfst_fields(blob)
    assert oracle.mfst_bytes(entries, state_count, start, finals, arcs) == blob
    shuffled = list(arcs)
    random.Random(117).shuffle(shuffled)
    data = oracle.mfst_bytes(entries, state_count, start, finals, shuffled)
    assert data != blob
    assert fst.to_bytes(fst.from_bytes(data)) == blob


VALID_ARCS = [(0, 1, 2, 1), (1, 2, 1, 2)]


@pytest.mark.parametrize("fields, error, message", [
    ((0, 0, [], []), InvalidStateId, "a transducer needs at least one state"),
    ((3, 3, [2], VALID_ARCS), InvalidStateId, "start state 3 out of range"),
    ((3, 0, [1, 7], VALID_ARCS), InvalidStateId, "final state 7 out of range"),
    ((3, 0, [2], [(0, 1, 2, 1), (5, 2, 1, 2)]), InvalidStateId, "arc source 5 out of range"),
    ((3, 0, [2], [(0, 1, 2, 1), (1, 2, 1, 9)]), InvalidStateId, "arc target 9 out of range"),
    ((3, 0, [2], [(0, 3, 2, 1), (1, 2, 1, 2)]), InvalidSymbolId,
     "arc input symbol 3 out of range"),
    ((3, 0, [2], [(0, 1, 2, 1), (1, 2, 4, 2)]), InvalidSymbolId,
     "arc output symbol 4 out of range"),
    # the first bad arc in file order is named, not the first in sorted order
    ((3, 0, [2], [(2, 1, 2, 1), (1, 2, 1, 9), (0, 5, 0, 1)]), InvalidStateId,
     "arc target 9 out of range"),
])
def test_malformed_fields_raise_as_build_does(fields, error, message):
    table = SymbolTable("ab")
    for make in (lambda: fst.from_bytes(oracle.mfst_bytes(["a", "b"], *fields)),
                 lambda: build(*fields, table)):
        with pytest.raises(error) as exc:
            make()
        assert str(exc.value) == message


def test_mutated_fst_bytes_raise_only_fst_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    blob = fst.to_bytes(rules.compile_file(data_path("rules", "hindi.mrl"), SymbolTable()))
    edit = st.one_of(
        st.tuples(st.just("set"), st.integers(0, len(blob) - 1), st.integers(0, 255)),
        st.tuples(st.just("insert"), st.integers(0, len(blob)), st.integers(0, 255)),
        st.tuples(st.just("delete"), st.integers(0, len(blob) - 1), st.integers(1, 16)))

    @hypothesis.settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.lists(edit, min_size=1, max_size=4))
    def check(edits):
        data = bytearray(blob)
        for kind, pos, value in edits:
            pos = min(pos, len(data))
            if kind == "insert":
                data[pos:pos] = bytes([value])
            elif kind == "delete":
                del data[pos:pos + value]
            elif pos < len(data):
                data[pos] = value
        try:
            machine = fst.from_bytes(bytes(data))
        except fst.FstError:
            return
        # a file that loads gives the machine `build` makes of its fields
        entries, *fields = oracle.mfst_fields(bytes(data))
        built = build(*fields, SymbolTable(entries))
        assert fst.to_bytes(machine) == fst.to_bytes(built)
        for m, ref in ((machine, built), (fst.invert(machine), fst.invert(built))):
            for text in ("लडके", "लडका<Noun><masculine><pl>", "घर"):
                for side in ("input", "output"):
                    try:
                        result = fst.apply(m, text, side=side)
                    except fst.FstError as exc:
                        with pytest.raises(type(exc)):
                            fst.apply(ref, text, side=side)
                        continue
                    assert isinstance(result, list)
                    assert result == fst.apply(ref, text, side=side)

    check()
