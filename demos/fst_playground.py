"""Tour of the transducer algebra with tiny machines over {a, b, c}."""

from hindimorph import fst
from hindimorph.fst import SymbolTable

symbols = SymbolTable(("a", "b", "c"))


def path(text):
    # build a one-path transducer from "a:b c" style strings; a bare
    # symbol maps to itself, an empty side is epsilon
    parts = []
    for chunk in text.split():
        lhs, sep, rhs = chunk.partition(":")
        if not sep:
            rhs = lhs
        ilab = symbols.intern(lhs) if lhs else fst.EPSILON
        olab = symbols.intern(rhs) if rhs else fst.EPSILON
        parts.append(fst.single_arc(symbols, ilab, olab))
    m = parts[0] if parts else fst.epsilon(symbols)
    for p in parts[1:]:
        m = fst.concat(m, p)
    return m


def norm(m):
    # minimize is the one cleanup call: it drops epsilons and determinizes too
    return fst.minimize(m)


# a:b rewrites one symbol; closure repeats it any number of times
rewrite = fst.closure(path("a:b"), "star")
print("star pairs up to 9 arcs:", fst.enumerate_pairs(rewrite, 9))
print("apply to 'aaa':", fst.apply(rewrite, "aaa"))  # the texts written
print("apply to 'ab':", fst.apply(rewrite, "ab"))  # rejected -> empty

# union and concatenation behave like the set operations
abc_or_ab = norm(fst.union(path("a b c"), path("a b")))
print("union pairs:", fst.enumerate_pairs(abc_or_ab, 6))
greeting = norm(fst.concat(path("a:c"), fst.closure(path("b"), "plus")))
print("concat+plus sample:", fst.enumerate_pairs(greeting, 4))

# composition chains two relations: a->b twice, then b->c everywhere
first = path("a:b a:b")
second = fst.closure(path("b:c"), "star")
chained = norm(fst.compose(first, second))
print("composed pairs:", fst.enumerate_pairs(chained, 8))

# determinize/minimize normalize a redundant machine without
# touching the relation it denotes
messy = fst.union(path("a b c"), fst.union(path("a b"), path("a b c")))
slim = fst.remove_epsilons(messy)
det = fst.determinize(slim)
mini = fst.minimize(det)
print(f"states: raw {messy.state_count} -> eps-free {slim.state_count}"
      f" -> deterministic {det.state_count} -> minimal {mini.state_count}")
print("relation is unchanged:",
      fst.enumerate_pairs(mini, 8) == fst.enumerate_pairs(messy, 8))

# invert swaps the two tapes; project keeps one of them
print("inverted:", fst.enumerate_pairs(fst.invert(chained), 8))
print("input side:", fst.enumerate_pairs(fst.project(chained, "input"), 8))
