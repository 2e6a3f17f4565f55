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


def test_state_count_is_bounded_by_file_size():
    table = SymbolTable()
    blob = fst.to_bytes(fst.epsilon(table))
    assert len(blob) == 36 and blob[16:20] == struct.pack("<I", 1)
    with pytest.raises(fst.FstError, match="100000 states"):
        fst.from_bytes(blob[:16] + struct.pack("<I", 100_000) + blob[20:])
    # the writer refuses what the reader would: an untrimmed 100-state machine
    with pytest.raises(fst.FstError, match="100 states"):
        fst.to_bytes(fst.build(100, 0, [0], [], table))


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
        for m in (machine, fst.invert(machine)):
            for text in ("लडके", "लडका<Noun><masculine><pl>", "घर"):
                try:
                    result = fst.apply(m, text)
                except fst.FstError:
                    continue
                assert isinstance(result, StringPairSet)

    check()
