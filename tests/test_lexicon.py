import random

import pytest

from hindimorph import fst, lexicon
from hindimorph.fst import SymbolTable
from hindimorph.lexicon import (
    DuplicateRoot,
    LexiconError,
    compile_root_fst,
    extract_unique_sorted,
    read_lexicon_file,
)

import oracle

BOM = b"\xef\xbb\xbf"


# ---------------------------------------------------------------------------
# corpus extraction


def test_extract_dedupes_and_sorts():
    got = extract_unique_sorted("घर जा घर मैं")
    assert got == ["घर", "जा", "मैं"]


def test_extract_sorts_by_codepoint():
    # the example sentence's words in scalar order
    got = extract_unique_sorted("मैं घर जा रहा हूँ।")
    assert got == ["घर", "जा", "मैं", "रहा", "हूँ"]


def test_extract_strips_punctuation():
    got = extract_unique_sorted('क्या? "हाँ", (ठीक) है!')
    assert got == sorted(["क्या", "हाँ", "ठीक", "है"])


def test_extract_normalizes_nfc():
    pre = "मेज़"          # decomposed nukta
    post = extract_unique_sorted("मेज़ " + pre)
    assert len(post) == 1


def test_extract_is_idempotent():
    words = extract_unique_sorted("आम आदमी आम खाता है।")
    assert extract_unique_sorted(" ".join(words)) == words


def test_extract_no_duplicates_strictly_increasing():
    words = extract_unique_sorted("ब आ क आ ब झ")
    assert all(a < b for a, b in zip(words, words[1:]))


def test_extracted_words_read_back_as_a_root_list(tmp_path):
    # letters, combining marks (nukta, a vowel sign, virama, an accent),
    # the characters a root list reads specially, and whitespace
    pool = ["क", "अ", "आ", "5", "a", "\u093c", "\u093e", "\u094d", "\u0301",
            "%", "<", ">", "।", "\ufeff", "\r", "\t", " ", "\n"]
    rng = random.Random(20121)
    path = tmp_path / "words.txt"
    for _ in range(1000):
        text = "".join(rng.choices(pool, k=rng.randrange(1, 24)))
        words = extract_unique_sorted(text)
        path.write_bytes("".join(w + "\n" for w in words).encode("utf-8"))
        assert read_lexicon_file(path) == words, text


# ---------------------------------------------------------------------------
# lexicon files


def test_read_lexicon_file(tmp_path):
    p = tmp_path / "roots.txt"
    p.write_text("% demo\nजा\n  घर \n\n", encoding="utf-8")
    assert read_lexicon_file(p) == ["जा", "घर"]  # file order, not sorted


def test_read_lexicon_drops_a_bom(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("ab\r\nघर\n", encoding="utf-8")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(BOM + plain.read_bytes())
    assert read_lexicon_file(marked) == read_lexicon_file(plain) == ["ab", "घर"]


def test_read_lexicon_rejects_invalid_utf8(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(BOM + b"ab\n\xffc\n")
    with pytest.raises(LexiconError, match=r"bad\.txt: invalid UTF-8 at byte 6"):
        read_lexicon_file(p)


def test_read_lexicon_rejects_extra_fields(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("a\tb\tc\n", encoding="utf-8")
    with pytest.raises(LexiconError):
        read_lexicon_file(p)


def test_read_lexicon_rejects_empty_root(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("\tcls\n", encoding="utf-8")
    with pytest.raises(LexiconError):
        read_lexicon_file(p)


@pytest.mark.parametrize("line", ["<>", "क<Noun>", "अ<ब", "क>"])
def test_read_lexicon_rejects_tag_syntax(tmp_path, line):
    # compiled, "<>" would be an empty root and "<Noun>" a tag symbol
    p = tmp_path / "bad.txt"
    p.write_text(f"घर\n{line}\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=r"^bad\.txt:2: '<' or '>' in a root"):
        read_lexicon_file(p)


def test_read_lexicon_rejects_a_repeated_root(tmp_path):
    # NFC first: the precomposed U+095B repeats the decomposed root
    decomposed, precomposed = "मे\u091c\u093c", "मे\u095b"
    p = tmp_path / "verbs.txt"
    p.write_text(f"जा\n{decomposed}\n% x\n\n{precomposed}\n", encoding="utf-8")
    with pytest.raises(DuplicateRoot) as exc:
        read_lexicon_file(p)
    assert str(exc.value) == f"verbs.txt:5: duplicate root {decomposed!r} (first on line 2)"
    assert (exc.value.root, exc.value.line) == (decomposed, 5)


# ---------------------------------------------------------------------------
# trie compilation


def test_single_root_machine():
    t = compile_root_fst(["a"], SymbolTable())
    assert oracle.full_relation(t) == {("a", "a")}


def test_trie_language_is_exact():
    roots = ["कहा", "कहानी", "कहानियाँ", "घर"]
    syms = SymbolTable()
    t = compile_root_fst(roots, syms)
    max_len = max(len(fst.scan(r, syms)) for r in roots) + 1
    got = set(fst.enumerate_pairs(t, max_len))
    assert got == {(r, r) for r in roots}


def test_trie_shares_prefixes():
    roots = ["कहान", "कहानी"]
    syms = SymbolTable()
    t = compile_root_fst(roots, syms)
    assert t.state_count < sum(len(r) for r in roots) + 1


def test_minimization_shares_suffixes():
    # four roots, two distinct suffix behaviors: the minimal machine is
    # strictly smaller than the raw trie
    roots = ["ab", "cb", "db", "eb"]
    syms = SymbolTable()
    t = compile_root_fst(roots, syms)
    assert oracle.full_relation(t) == {(r, r) for r in roots}
    assert t.state_count == 3


def test_duplicate_rows_collapse():
    syms = SymbolTable()
    t1 = compile_root_fst(["घर", "घर"], syms)
    t2 = compile_root_fst(["घर"], syms)
    assert fst.to_bytes(t1) == fst.to_bytes(t2)


# Pieces of random roots: one-character symbols that share prefixes and
# suffixes, two tag spans and the literal epsilon "<>", which scans to
# nothing.
_PIECES = ("a", "b", "c", "क", "ा", "ी", "<x>", "<y>", "<>")


def _random_roots(rng):
    roots = [rng.choices(_PIECES, k=rng.randint(0, 5)) for _ in range(rng.randint(0, 12))]
    if roots and rng.random() < 0.5:  # a root that is a prefix of another
        long = rng.choice(roots)
        roots.append(long[:rng.randint(0, len(long))])
    if roots and rng.random() < 0.5:  # the same suffix after new prefixes
        tail = rng.choice(roots)
        roots += [[rng.choice(_PIECES), *tail] for _ in range(3)]
    roots += rng.sample(roots, k=min(len(roots), rng.randint(0, 2)))  # duplicates
    rng.shuffle(roots)  # file order is not sorted order
    return ["".join(pieces) for pieces in roots]


@pytest.mark.parametrize("roots", [[], [""], ["<>"], ["a<>b", "ab"], ["ab", "cb", "c"],
                                   ["az", "by", "bz"], ["<x>", "<x>a", "a<x>", "a"]],
                         ids=["no-root", "empty-root", "epsilon-root", "epsilon-inside",
                              "final-and-not-final-same-arcs", "labels-out-of-id-order",
                              "tag-spans"])
def test_root_fst_matches_the_trie_reference(roots):
    for prefill in ((), "zyxba"):  # symbols interned before, in another order
        got_syms, ref_syms = SymbolTable(prefill), SymbolTable(prefill)
        got = compile_root_fst(roots, got_syms)
        assert fst.to_bytes(got) == fst.to_bytes(oracle.root_fst_reference(roots, ref_syms))
        assert list(got_syms) == list(ref_syms)


def test_random_root_fsts_match_the_trie_reference():
    rng = random.Random("root-fst")
    for trial in range(300):
        roots = _random_roots(rng)
        prefill = rng.sample(_PIECES[:6], k=rng.randint(0, 6)) if trial % 2 else ()
        got_syms, ref_syms = SymbolTable(prefill), SymbolTable(prefill)
        got = compile_root_fst(roots, got_syms)
        assert fst.to_bytes(got) == fst.to_bytes(oracle.root_fst_reference(roots, ref_syms))
        assert list(got_syms) == list(ref_syms)
        assert set(fst.enumerate_pairs(got, got.state_count)) == {
            (r.replace("<>", ""),) * 2 for r in roots}


def test_a_root_of_20000_symbols_compiles_without_recursion():
    # a chain of distinguishable states, too deep for a recursive walk
    # (and for the reference's Moore rounds, one per state)
    long = "".join(random.Random(20_000).choices("abc", k=20_000))
    syms = SymbolTable()
    got = compile_root_fst([long, long[:10_000], ""], syms)
    ids = fst.scan(long, syms)
    chain = fst.build(len(ids) + 1, 0, (0, 10_000, 20_000),
                      [(k, sid, sid, k + 1) for k, sid in enumerate(ids)], syms)
    assert fst.to_bytes(got) == fst.to_bytes(chain)
    assert list(syms) == ["<>", *sorted(set(long), key=long.index)]
