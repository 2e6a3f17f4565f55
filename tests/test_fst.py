import random
import struct

import pytest

from hindimorph import data_path, fst, rules
from hindimorph.fst import (
    EPSILON,
    EpsilonCycle,
    InvalidStateId,
    InvalidSymbolId,
    StringPairSet,
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
    with pytest.raises(UnknownSymbol):
        scan("ab", table)


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
    assert fst.enumerate_pairs(fst.empty(table), 5) == StringPairSet()
    assert fst.enumerate_pairs(fst.epsilon(table), 5) == StringPairSet([("", "")])
    one = fst.single_arc(table, table.id_of("a"), EPSILON)
    assert fst.enumerate_pairs(one, 5) == StringPairSet([("a", "")])


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
    assert set(fst.apply(t, "a")) == {("a", "b")}
    assert set(fst.apply(t, "b")) == set()
    assert set(fst.apply(t, "b", side="output")) == {("b", "a")}
    assert set(fst.apply(t, "a", side="output")) == set()
    for side in ("in", "Output", "both", ""):
        with pytest.raises(ValueError):
            fst.apply(t, "a", side=side)


def test_apply_unknown_symbol_is_an_error():
    table = SymbolTable()
    t = pair_machine(table, "a:b")
    with pytest.raises(UnknownSymbol):
        fst.apply(t, "z")


def test_apply_equals_filtered_enumeration():
    rng = random.Random(112)
    table = oracle.make_table()
    for _ in range(TRIALS):
        t = oracle.rand_acyclic(rng, table)
        rel = oracle.full_relation(t)
        inputs = {x for x, _ in rel} | {"a", "ba", ""}
        for x in sorted(inputs):
            want = {(i, o) for i, o in rel if i == x}
            assert set(fst.apply(t, x)) == want
        for y in sorted({o for _, o in rel} | {"a", "ba", ""}):
            want = {(o, i) for i, o in rel if o == y}
            assert set(fst.apply(t, y, side="output")) == want


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
            for s in range(m.state_count):
                assert list(m.out_arcs(s)) == [a for a in m.arcs if a.src == s]
            for s in (-1, m.state_count):
                with pytest.raises(InvalidStateId):
                    m.out_arcs(s)
            if m.out_arcs(m.state_count - 1):
                shapes.add("arcs on the last state")
            inv = fst.invert(m)
            rel = oracle.relation_upto(m, cap)
            texts = {"".join(rng.choices(alphabet, k=rng.randint(0, 3))) for _ in range(12)}
            for side, other, read in (("input", "output", 0), ("output", "input", 1)):
                for s in range(m.state_count):
                    labels = sorted(arc[1 + read] for arc in m.out_arcs(s))
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
                    want = {(pair[read], pair[1 - read]) for pair in rel
                            if pair[read] == text}
                    assert {p for p in got if len(p[1]) <= cap} == want
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
    assert set(fst.apply(t, "")) == {("", "")}
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
    assert set(fst.apply(loop, "")) == set()
    with pytest.raises(EpsilonCycle):
        fst.apply(loop, "b")
    # an emitting arc that leaves a silent cycle lies on no cycle
    exit_arc = build(3, 0, (2,),
                     [(0, EPSILON, EPSILON, 1), (1, EPSILON, EPSILON, 0),
                      (1, EPSILON, a, 2)],
                     table)
    assert set(fst.apply(exit_arc, "")) == {("", "a")}
    # an output-epsilon cycle that writes input is a cycle for side="output"
    # only; reading the input tape, the same arcs consume "a"
    out_arcs = [(0, b, b, 1), (1, a, EPSILON, 2), (2, a, EPSILON, 1)]
    out_loop = build(3, 0, (0, 2), out_arcs, table)
    assert set(fst.apply(out_loop, "ba")) == {("ba", "b")}
    assert set(fst.apply(out_loop, "baaa")) == {("baaa", "b")}
    assert set(fst.apply(out_loop, "", side="output")) == {("", "")}
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
    assert set(fst.apply(t, "a", side="output")) == set()


def test_emitting_eps_cycle_states_match_oracle():
    # the search starts only from states with an epsilon-reading arc
    rng = random.Random(116)
    table = oracle.make_table()
    found = 0
    for trial in range(300):
        m = oracle.rand_machine(rng, table, max_states=2 + trial % 8,
                                out_degree=1 + trial % 4)
        for side in ("input", "output"):
            want = oracle.emitting_eps_cycle_states(m, side)
            assert fst._emitting_eps_cycle_states(m, side) == want
            found += bool(want)
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
    assert fst._emitting_eps_cycle_states(loud, side) == frozenset(range(n))
    with pytest.raises(EpsilonCycle):
        fst.apply(loud, "a", side=side)
    # the cycle reads b on the other tape, so that side answers
    assert fst._emitting_eps_cycle_states(loud, other) == frozenset()
    assert set(fst.apply(loud, "a", side=other)) == {("a", "a")}
    quiet = build(n + 1, 0, (n,),
                  [(s, EPSILON, EPSILON, (s + 1) % n) for s in range(n)] + [exit_arc], table)
    assert fst._emitting_eps_cycle_states(quiet, side) == frozenset()
    assert set(fst.apply(quiet, "a", side=side)) == {("a", "a")}


def test_apply_tolerates_silent_epsilon_cycle():
    table = SymbolTable("a")
    a = table.id_of("a")
    # epsilon:epsilon loop produces nothing, so it must not raise
    t = build(2, 0, (1,),
              [(0, EPSILON, EPSILON, 0), (0, a, a, 1)],
              table)
    assert set(fst.apply(t, "a")) == {("a", "a")}


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
# string pair sets


def test_pair_set_is_sorted_and_deduplicated():
    s = StringPairSet([("b", "x"), ("a", "y"), ("a", "y"), ("a", "x")])
    assert s.pairs == (("a", "x"), ("a", "y"), ("b", "x"))
    assert ("a", "y") in s
    assert len(s) == 3


def test_pair_set_outputs_in_order():
    s = StringPairSet([("a", "y"), ("b", "x"), ("c", "y")])
    assert s.outputs() == ["y", "x"]


def test_pair_set_equality_and_hash():
    s1 = StringPairSet([("a", "b")])
    s2 = StringPairSet({("a", "b")})
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1 != StringPairSet()


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
                    assert isinstance(result, StringPairSet)
                    assert result == fst.apply(ref, text, side=side)

    check()
