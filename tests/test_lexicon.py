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

