import io
import os
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import hindimorph
from hindimorph import cli, data_path, fst, lexicon, tagger


@pytest.fixture(scope="session")
def fst_file(tmp_path_factory, grammar):
    path = tmp_path_factory.mktemp("models") / "hindi.fst"
    path.write_bytes(fst.to_bytes(grammar))
    return path


@pytest.fixture(scope="session")
def tag_file(tmp_path_factory, tag_model):
    path = tmp_path_factory.mktemp("models") / "mini.tag"
    tagger.save_model(tag_model, path)
    return path


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- compile ---------------------------------------------------------------


def test_compile_writes_loadable_model(capsys, tmp_path, grammar):
    out = tmp_path / "hindi.fst"
    rc, stdout, stderr = run(capsys, [
        "compile", "-r", str(data_path("rules", "hindi.mrl")), "-o", str(out)])
    assert rc == 0
    assert stderr == ""
    assert stdout == (
        f"{grammar.state_count} states, {len(grammar.arcs)} arcs -> {out}\n")
    # compilation is deterministic: same rules, same bytes
    assert out.read_bytes() == fst.to_bytes(grammar)
    assert not list(tmp_path.glob("*.tmp"))


def test_compile_onto_a_directory_leaves_no_temporary_file(capsys, tmp_path):
    # Every writing command, onto a directory and into a missing one: the
    # error names the output path, and no temporary file is left behind.
    corpus = tmp_path / "raw.txt"
    corpus.write_text("आम आदमी\n", encoding="utf-8")
    commands = {"compile": ["-r", str(data_path("rules", "hindi.mrl"))],
                "train": ["-c", str(data_path("tagged_mini.txt")), "--epochs", "1"],
                "lexicon-extract": [str(corpus)]}
    out = tmp_path / "out"
    out.mkdir()
    for command, args in commands.items():
        for target in (out, tmp_path / "nodir" / "x.fst"):
            rc, stdout, stderr = run(capsys, [command, *args, "-o", str(target)])
            assert (rc, stdout) == (1, "")
            assert stderr.startswith(f"hindimorph {command}: error: ")
            assert stderr.endswith(f": {str(target)!r}\n") and stderr.count("\n") == 1
            assert ".tmp" not in stderr
    assert out.is_dir() and not list(out.iterdir())
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "raw.txt"]


def test_compile_missing_rules_file(capsys, tmp_path):
    out = tmp_path / "out.fst"
    rc, stdout, stderr = run(capsys, [
        "compile", "-r", str(tmp_path / "nope.mrl"), "-o", str(out)])
    assert rc == 1
    assert stderr.startswith("hindimorph compile: error:")
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("expression", ["(" * 300 + "a" + ")" * 300, "a" + "*" * 1000],
                         ids=["parens", "stars"])
def test_compile_rejects_deeply_nested_rules(capsys, tmp_path, expression):
    rules_file = tmp_path / "deep.mrl"
    rules_file.write_text(expression + "\n", encoding="utf-8")
    out = tmp_path / "deep.fst"
    rc, stdout, stderr = run(capsys, ["compile", "-r", str(rules_file), "-o", str(out)])
    assert rc == 1
    assert stdout == ""
    assert stderr.startswith("hindimorph compile: error: line 1, col ")
    assert "nested too deeply" in stderr
    assert not out.exists()


# --- analyze / generate -----------------------------------------------------


def test_analyze_words_from_arguments(capsys, fst_file):
    rc, stdout, stderr = run(capsys, [
        "analyze", "-m", str(fst_file), "लडके", "xyzzy"])
    assert rc == 0
    assert stdout == (
        "लडके\tलडका<Noun><Vocative>\tलडका<Noun><masculine><pl>\n"
        "xyzzy\t?\n")
    assert stderr == ""


def test_analyze_reads_stdin_when_dash(capsys, monkeypatch, fst_file):
    monkeypatch.setattr("sys.stdin", io.StringIO("लडके\n\n   \nxyzzy\n"))
    rc, dashed, _ = run(capsys, ["analyze", "-m", str(fst_file), "-"])
    assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO("लडके\nxyzzy\n"))
    rc, bare, _ = run(capsys, ["analyze", "-m", str(fst_file)])
    assert rc == 0
    assert dashed == bare  # blank stdin lines are skipped
    rc, from_args, _ = run(capsys, ["analyze", "-m", str(fst_file), "लडके", "xyzzy"])
    assert from_args == dashed


def test_analyze_stray_tag_bracket_is_a_soft_miss(capsys, monkeypatch, fst_file):
    # an unclosed "<" is a miss like any other word; the stream goes on.
    # So is a "<>" inside a word: it is text, not an epsilon to drop.
    monkeypatch.setattr("sys.stdin", io.StringIO("लड<\nलड<>के\nलडके\n"))
    rc, stdout, stderr = run(capsys, ["analyze", "-m", str(fst_file)])
    assert rc == 0
    assert stdout == (
        "लड<\t?\n"
        "लड<>के\t?\n"
        "लडके\tलडका<Noun><Vocative>\tलडका<Noun><masculine><pl>\n")
    assert stderr == ""


def test_analyze_with_indeclinables(capsys, fst_file):
    rc, stdout, _ = run(capsys, [
        "analyze", "-m", str(fst_file),
        "--indecl", str(data_path("indeclinables.tsv")), "अरे"])
    assert rc == 0
    assert stdout == "अरे\tअरे<Particle>\n"


def test_generate_with_indeclinables_inverts_analyze(capsys, fst_file):
    indecl = str(data_path("indeclinables.tsv"))
    rc, stdout, _ = run(capsys, ["generate", "-m", str(fst_file), "--indecl", indecl,
                                 "अरे<Particle>", "लडका<Noun><masculine><pl>"])
    assert rc == 0
    assert stdout == "अरे<Particle>\tअरे\nलडका<Noun><masculine><pl>\tलडके\n"


@pytest.mark.parametrize("command, item, answer", [
    ("analyze", "तो", "तो<Particle>"),
    ("generate", "तो<Particle>", "तो"),
])
def test_repeated_indeclinable_record_answers_once(capsys, tmp_path, fst_file,
                                                   command, item, answer):
    indecl = tmp_path / "dup.tsv"
    indecl.write_text("तो\tतो<Particle>\n" * 2, encoding="utf-8")
    rc, stdout, _ = run(capsys, [command, "-m", str(fst_file), "--indecl", str(indecl), item])
    assert rc == 0
    assert stdout == f"{item}\t{answer}\n"


def test_indeclinable_record_ends_at_percent(capsys, tmp_path, fst_file):
    indecl = tmp_path / "indecl.tsv"
    indecl.write_text("तो\tतो<Particle>  % emphatic\n", encoding="utf-8")
    rc, stdout, _ = run(capsys, ["analyze", "-m", str(fst_file), "--indecl", str(indecl), "तो"])
    assert (rc, stdout) == (0, "तो\tतो<Particle>\n")


def test_indeclinable_record_with_a_second_tab_is_an_error(capsys, tmp_path, fst_file):
    # split at the first TAB only, it answered "w<TAB>अ<TAB>रे<Particle>"
    indecl = tmp_path / "bad.tsv"
    indecl.write_text("w\tअ\tरे<Particle>\n", encoding="utf-8")
    rc, stdout, stderr = run(capsys, ["analyze", "-m", str(fst_file), "--indecl", str(indecl), "w"])
    assert (rc, stdout) == (1, "")
    assert stderr == "hindimorph analyze: error: bad.tsv:1: expected word<TAB>analysis\n"


def test_analyze_missing_model(capsys, tmp_path):
    rc, stdout, stderr = run(capsys, [
        "analyze", "-m", str(tmp_path / "nope.fst"), "घर"])
    assert rc == 1
    assert stderr.startswith("hindimorph analyze: error:")


def test_generate_surface_forms(capsys, fst_file):
    rc, stdout, _ = run(capsys, [
        "generate", "-m", str(fst_file),
        "लडका<Noun><masculine><pl>", "घर<Bogus>"])
    assert rc == 0
    assert stdout == (
        "लडका<Noun><masculine><pl>\tलडके\n"
        "घर<Bogus>\t?\n")


def test_generate_reads_stdin(capsys, monkeypatch, fst_file):
    monkeypatch.setattr("sys.stdin", io.StringIO("लडका<Noun><masculine><pl>\n"))
    rc, stdout, _ = run(capsys, ["generate", "-m", str(fst_file)])
    assert rc == 0
    assert stdout == "लडका<Noun><masculine><pl>\tलडके\n"


@pytest.mark.parametrize("command, lines", [
    ("analyze", ["लडके", "xyzzy"]),
    ("generate", ["लडका<Noun><masculine><pl>", "घर<Bogus>"]),
])
def test_crlf_stdin_matches_lf_stdin(capsys, monkeypatch, fst_file, command, lines):
    outputs = []
    for lead, newline in (("", "\n"), ("", "\r\n"), ("  ", "\n"),
                          ("", "  \n"), ("", "\t\n"), (" \t", " \r\n")):
        text = "".join(lead + line + newline for line in lines)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        rc, stdout, _ = run(capsys, [command, "-m", str(fst_file)])
        assert rc == 0
        outputs.append(stdout)
    assert "\r" not in outputs[1]
    # surrounding whitespace is stripped: every variant prints the plain-LF output
    assert outputs[1:] == [outputs[0]] * (len(outputs) - 1)


class _FailingStdin:
    """Yields one line, then fails as a broken pipe would."""

    def __iter__(self):
        yield "लडके\n"
        raise OSError("stdin read failed")


def test_analyze_streams_stdin(capsys, monkeypatch, fst_file):
    monkeypatch.setattr("sys.stdin", _FailingStdin())
    rc, stdout, stderr = run(capsys, ["analyze", "-m", str(fst_file)])
    # the first word is answered before the second line is read
    assert stdout == "लडके\tलडका<Noun><Vocative>\tलडका<Noun><masculine><pl>\n"
    assert rc == 1
    assert stderr == "hindimorph analyze: error: stdin read failed\n"


def _latin1_stdin(data: bytes) -> io.TextIOWrapper:
    """Standard input as a locale that is not UTF-8 would open it."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="latin-1")


@pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"])
def test_stdin_is_utf8_whatever_the_locale(capsys, monkeypatch, fst_file, prefix):
    monkeypatch.setattr("sys.stdin", _latin1_stdin(prefix + "लडके\nxyzzy\n".encode("utf-8")))
    rc, stdout, stderr = run(capsys, ["analyze", "-m", str(fst_file)])
    assert (rc, stderr) == (0, "")
    assert stdout == run(capsys, ["analyze", "-m", str(fst_file), "लडके", "xyzzy"])[1]
    assert stdout.startswith("लडके\tलडका<Noun>")


@pytest.mark.parametrize("command", ["analyze", "generate", "tag"])
def test_invalid_utf8_stdin_is_a_domain_error(capsys, monkeypatch, fst_file, tag_file,
                                               command):
    item = {"analyze": "लडके", "generate": "लडका<Noun><masculine><pl>",
            "tag": "लडके"}[command]
    # more lines than one decoded chunk, so some answers print before the bad byte
    data = (item + "\n").encode("utf-8") * 1000 + b"ab\xff\n"
    monkeypatch.setattr("sys.stdin", _latin1_stdin(data))
    model = ["-m", str(tag_file), "-f", str(fst_file)] if command == "tag" else [
        "-m", str(fst_file)]
    rc, stdout, stderr = run(capsys, [command, *model])
    assert rc == 1
    assert stderr == f"hindimorph {command}: error: stdin: invalid UTF-8 (invalid start byte)\n"
    lines = stdout.splitlines()
    assert 0 < len(lines) < 1000
    assert len(set(lines)) == 1 and lines[0].startswith(item)


def test_partly_read_stdin(capsys, monkeypatch, tmp_path):
    # a program read one line of its stdin, then runs the CLI in the same
    # process: the text the wrapper has buffered can no longer be re-decoded
    stdin = io.TextIOWrapper(io.BytesIO("पहला\nलडके\n".encode("utf-8")), encoding="utf-8")
    stdin.readline()
    monkeypatch.setattr("sys.stdin", stdin)
    out = tmp_path / "hindi.fst"
    rc, _, stderr = run(capsys, ["compile", "-r", str(data_path("rules", "hindi.mrl")),
                                 "-o", str(out)])
    assert (rc, stderr) == (0, "")
    rc, stdout, _ = run(capsys, ["analyze", "-m", str(out), "लडके"])
    assert rc == 0 and stdout.startswith("लडके\tलडका<Noun>")
    rc, stdout, stderr = run(capsys, ["analyze", "-m", str(out), "-"])
    assert (rc, stdout) == (1, "")
    assert stderr.startswith("hindimorph analyze: error: stdin: ")
    assert stderr.count("\n") == 1


# --- train -------------------------------------------------------------------


def test_train_on_bundled_corpus_matches_library(capsys, tmp_path,
                                                 mini_corpus, tag_model):
    out = tmp_path / "mini.tag"
    rc, stdout, stderr = run(capsys, [
        "train", "-c", str(data_path("tagged_mini.txt")), "-o", str(out)])
    assert rc == 0
    tokens = sum(len(s) for s in mini_corpus.sentences)
    assert stdout == (
        f"trained on {len(mini_corpus.sentences)} sentences, {tokens} tokens; "
        f"{len(tag_model.tagset)} tags, {len(tag_model.weights)} weights -> {out}\n")
    # retraining is bit-identical
    assert out.read_bytes() == tagger.model_to_bytes(tag_model)


def test_train_honors_hyperparameter_flags(capsys, tmp_path):
    corpus = tmp_path / "toy.txt"
    corpus.write_text("ab/X cd/Y\nab/X ef/Y\n", encoding="utf-8")
    out = tmp_path / "toy.tag"
    rc, stdout, _ = run(capsys, [
        "train", "-c", str(corpus), "-o", str(out),
        "--lambda", "0.3", "--epochs", "5", "--step", "0.2"])
    assert rc == 0
    model = tagger.load_model(out)
    assert model.l2_lambda == pytest.approx(0.3)
    assert model.tagset == ("X", "Y")


def test_train_malformed_corpus_leaves_no_output(capsys, tmp_path):
    corpus = tmp_path / "bad.txt"
    corpus.write_text("no-slash-here\n", encoding="utf-8")
    out = tmp_path / "bad.tag"
    rc, stdout, stderr = run(capsys, ["train", "-c", str(corpus), "-o", str(out)])
    assert rc == 1
    assert stderr.startswith("hindimorph train: error:")
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("flags", [
    ["--epochs", "-2"], ["--step", "nan"], ["--step", "0"],
    ["--lambda", "inf"], ["--lambda", "-1"],
], ids=["epochs-2", "step-nan", "step0", "lambda-inf", "lambda-1"])
def test_train_rejects_invalid_options(capsys, tmp_path, flags):
    corpus = tmp_path / "toy.txt"
    corpus.write_text("ab/X cd/Y\nab/X ef/Y\n", encoding="utf-8")
    out = tmp_path / "toy.tag"
    rc, stdout, stderr = run(capsys, ["train", "-c", str(corpus), "-o", str(out), *flags])
    assert rc == 1
    assert stdout == ""
    assert stderr.startswith("hindimorph train: error:")
    assert "must be" in stderr
    assert not out.exists()


# --- tag / eval --------------------------------------------------------------


def test_tag_golden_sentence(capsys, tag_file, fst_file):
    rc, stdout, _ = run(capsys, [
        "tag", "-m", str(tag_file), "-f", str(fst_file),
        "आम आदमी आम खाता है ।"])
    assert rc == 0
    assert stdout == "आम/JJ आदमी/N_NN आम/N_NN खाता/V_VM है/V_AUX ।/I\n"


def test_tag_reads_stdin_sentences(capsys, monkeypatch, tag_file, fst_file):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "आम आदमी आम खाता है ।\nउसका खाता संख्या एक है ।\n"))
    rc, stdout, _ = run(capsys, ["tag", "-m", str(tag_file), "-f", str(fst_file)])
    assert rc == 0
    assert stdout == (
        "आम/JJ आदमी/N_NN आम/N_NN खाता/V_VM है/V_AUX ।/I\n"
        "उसका/PR_PRI खाता/N_NN संख्या/JJ एक/QT_QTC है/V_AUX ।/I\n")


def test_tag_stray_tag_bracket_is_an_unknown_token(capsys, tag_file, fst_file):
    rc, stdout, stderr = run(capsys, [
        "tag", "-m", str(tag_file), "-f", str(fst_file),
        "लड़का < घर जाता है ।", "लड़का x<y घर जाता है ।"])
    assert rc == 0
    assert stdout == (
        "लड़का/N_NN </N_NN घर/N_NN जाता/V_VM है/V_AUX ।/I\n"
        "लड़का/N_NN x<y/N_NN घर/N_NN जाता/V_VM है/V_AUX ।/I\n")
    assert stderr == ""


def test_tag_beam_flag(capsys, tag_file, fst_file):
    rc, stdout, _ = run(capsys, [
        "tag", "-m", str(tag_file), "-f", str(fst_file), "--beam", "1",
        "आम आदमी आम खाता है ।"])
    assert rc == 0
    assert stdout == "आम/JJ आदमी/N_NN आम/N_NN खाता/V_VM है/V_AUX ।/I\n"


@pytest.mark.parametrize("beam", ["0", "-1"])
def test_tag_rejects_beam_below_one(capsys, tag_file, fst_file, beam):
    rc, stdout, stderr = run(capsys, [
        "tag", "-m", str(tag_file), "-f", str(fst_file), "--beam", beam, "आम"])
    assert rc == 1
    assert stdout == ""
    assert stderr == f"hindimorph tag: error: beam must be >= 1, got {beam}\n"


def test_tag_corrupt_model(capsys, tmp_path, fst_file):
    bad = tmp_path / "bad.tag"
    bad.write_bytes(b"garbage")
    rc, stdout, stderr = run(capsys, [
        "tag", "-m", str(bad), "-f", str(fst_file), "आम"])
    assert rc == 1
    assert stderr.startswith("hindimorph tag: error:")
    assert "magic" in stderr


def test_eval_on_training_corpus(capsys, tag_file, fst_file):
    rc, stdout, _ = run(capsys, [
        "eval", "-m", str(tag_file), "-f", str(fst_file),
        "-c", str(data_path("tagged_mini.txt"))])
    assert rc == 0
    assert stdout == (
        "known: 1.0000 (501 tokens)\n"
        "unknown: 1.0000 (0 tokens, undefined)\n"
        "overall: 1.0000 (501 tokens)\n")


def test_eval_with_unknown_words(capsys, tmp_path, tag_file, fst_file):
    gold = tmp_path / "gold.txt"
    gold.write_text("मालन/N_NN आदमी/N_NN ।/I\n", encoding="utf-8")
    rc, stdout, _ = run(capsys, [
        "eval", "-m", str(tag_file), "-f", str(fst_file), "-c", str(gold)])
    assert rc == 0
    assert stdout == (
        "known: 1.0000 (2 tokens)\n"
        "unknown: 1.0000 (1 tokens)\n"
        "overall: 1.0000 (3 tokens)\n")


def test_eval_tagset_mismatch(capsys, tmp_path, tag_file, fst_file):
    gold = tmp_path / "gold.txt"
    gold.write_text("आम/ZZZ\n", encoding="utf-8")
    rc, stdout, stderr = run(capsys, [
        "eval", "-m", str(tag_file), "-f", str(fst_file), "-c", str(gold)])
    assert rc == 1
    assert stderr.startswith("hindimorph eval: error:")
    assert "ZZZ" in stderr


# --- lexicon helpers ---------------------------------------------------------


def test_lexicon_extract(capsys, tmp_path):
    corpus = tmp_path / "raw.txt"
    corpus.write_text("आम आदमी। आम खाता है\nहै हूँ\n", encoding="utf-8")
    out = tmp_path / "words.txt"
    rc, stdout, _ = run(capsys, ["lexicon-extract", str(corpus), "-o", str(out)])
    assert rc == 0
    expected = lexicon.extract_unique_sorted(corpus.read_text(encoding="utf-8"))
    assert stdout == f"{len(expected)} unique words -> {out}\n"
    assert out.read_text(encoding="utf-8") == "".join(w + "\n" for w in expected)
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("mask", [0o022, 0o027], ids=oct)
def test_output_files_get_the_umask_mode(capsys, tmp_path, grammar, tag_model, mask):
    corpus = tmp_path / "raw.txt"
    corpus.write_text("आम आदमी\n", encoding="utf-8")
    commands = {"compile": ["-r", str(data_path("rules", "hindi.mrl"))],
                "train": ["-c", str(data_path("tagged_mini.txt")), "--epochs", "1"],
                "lexicon-extract": [str(corpus)]}
    saved = os.umask(mask)
    try:
        open(tmp_path / "plain", "wb").close()
        for command, args in commands.items():
            assert run(capsys, [command, *args, "-o", str(tmp_path / command)])[0] == 0
        fst.save(grammar, tmp_path / "fst.save")
        tagger.save_model(tag_model, tmp_path / "tagger.save_model")
    finally:
        os.umask(saved)
    mode = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    del mode["raw.txt"]
    assert mode == dict.fromkeys(mode, 0o666 & ~mask)
    assert len(mode) == 6


@pytest.mark.parametrize("command", ["compile", "analyze", "generate", "train",
                                     "lexicon-extract"])
def test_invalid_utf8_input_is_a_domain_error(capsys, tmp_path, fst_file, command):
    bad = tmp_path / "input.txt"
    bad.write_bytes(b"\xef\xbb\xbfab\xfe\n")
    out = str(tmp_path / "out")
    argv = {"compile": ["compile", "-r", str(bad), "-o", out],
            "analyze": ["analyze", "-m", str(fst_file), "--indecl", str(bad), "x"],
            "generate": ["generate", "-m", str(fst_file), "--indecl", str(bad), "x<N>"],
            "train": ["train", "-c", str(bad), "-o", out],
            "lexicon-extract": ["lexicon-extract", str(bad), "-o", out]}[command]
    rc, stdout, stderr = run(capsys, argv)
    assert (rc, stdout) == (1, "")
    assert stderr == f"hindimorph {command}: error: {bad}: invalid UTF-8 at byte 5\n"
    assert not (tmp_path / "out").exists()


def test_lexicon_stats_on_bundled_data(capsys):
    rc, stdout, _ = run(capsys, ["lexicon-stats", "--lexdir", str(data_path("lex"))])
    assert rc == 0
    assert stdout == (
        "nouns: 16\n"
        "pronouns: 6\n"
        "adjectives: 7\n"
        "verbs: 6\n"
        "adverbs: 3\n"
        "particles: 3\n"
        "adj_noun: 1\n"
        "total: 41\n")


# (bad second line of a root list, the reader's message); the first line is घर
ROOT_LIST_ERRORS = {
    "tab-middle": ("जा\tirr", "verbs.txt:2: TAB in a root (one root per line)"),
    "tab-leading": ("\tirr", "verbs.txt:2: TAB in a root (one root per line)"),
    "tab-trailing": ("जा\t", "verbs.txt:2: TAB in a root (one root per line)"),
    "lt": ("क<", "verbs.txt:2: '<' or '>' in a root (tags belong in the rules)"),
    "gt": ("क>", "verbs.txt:2: '<' or '>' in a root (tags belong in the rules)"),
    "repeat": ("घर", "verbs.txt:2: duplicate root 'घर' (first on line 1)"),
    "tab-before-comment": ("जा\t% x", "verbs.txt:2: TAB in a root (one root per line)"),
}


@pytest.mark.parametrize("command", ["compile", "lexicon-stats"])
@pytest.mark.parametrize("line, message", ROOT_LIST_ERRORS.values(), ids=ROOT_LIST_ERRORS)
def test_root_list_errors(capsys, tmp_path, command, line, message):
    # one reader checks a root list, whether a rule file includes it or a
    # lexicon directory holds it
    (tmp_path / "verbs.txt").write_text(f"घर\n{line}\n", encoding="utf-8")
    (tmp_path / "r.mrl").write_text('#include "verbs.txt" <Verb>:<>\n', encoding="utf-8")
    out = tmp_path / "out.fst"
    argv = {"compile": ["compile", "-r", str(tmp_path / "r.mrl"), "-o", str(out)],
            "lexicon-stats": ["lexicon-stats", "--lexdir", str(tmp_path)]}[command]
    rc, stdout, stderr = run(capsys, argv)
    assert (rc, stdout, stderr) == (1, "", f"hindimorph {command}: error: {message}\n")
    assert not out.exists()


def test_lexicon_stats_counts_a_shared_root_once(capsys, tmp_path):
    for cls, roots in {"nouns": "घर\nआम\n", "adjectives": "बड़ा\n", "adj_noun": "आम\n"}.items():
        (tmp_path / f"{cls}.txt").write_text(roots, encoding="utf-8")
    rc, stdout, stderr = run(capsys, ["lexicon-stats", "--lexdir", str(tmp_path)])
    assert (rc, stderr) == (0, "")
    assert stdout == ("nouns: 2\npronouns: 0\nadjectives: 1\nverbs: 0\n"
                      "adverbs: 0\nparticles: 0\nadj_noun: 1\ntotal: 3\n")


def test_root_comment_starts_at_percent(capsys, tmp_path):
    # "घर   % a noun" is the root घर, as a rule line would read it
    (tmp_path / "nouns.txt").write_text("घर   % a noun\n", encoding="utf-8")
    (tmp_path / "adj_noun.txt").write_text("घर\n", encoding="utf-8")
    (tmp_path / "r.mrl").write_text('#include "nouns.txt" <N>:<>\n', encoding="utf-8")
    out = tmp_path / "out.fst"
    assert run(capsys, ["compile", "-r", str(tmp_path / "r.mrl"), "-o", str(out)])[0] == 0
    rc, stdout, _ = run(capsys, ["analyze", "-m", str(out), "घर"])
    assert (rc, stdout) == (0, "घर\tघर<N>\n")
    rc, stdout, _ = run(capsys, ["lexicon-stats", "--lexdir", str(tmp_path)])
    assert (rc, stdout.splitlines()[0], stdout.splitlines()[-1]) == (0, "nouns: 1", "total: 1")


def test_lexicon_stats_empty_directory(capsys, tmp_path):
    rc, stdout, stderr = run(capsys, ["lexicon-stats", "--lexdir", str(tmp_path)])
    assert rc == 1
    assert "no lexicon files found" in stderr


def test_lexicon_stats_not_a_directory(capsys, tmp_path):
    file = tmp_path / "file.txt"
    file.write_text("x", encoding="utf-8")
    rc, stdout, stderr = run(capsys, ["lexicon-stats", "--lexdir", str(file)])
    assert rc == 1
    assert "not a directory" in stderr


# --- argument handling -------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_required_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["compile", "-r", "rules.mrl"])  # no -o
    assert excinfo.value.code == 2


def test_module_invocation_matches_in_process(capsys, fst_file):
    rc, stdout, _ = run(capsys, ["analyze", "-m", str(fst_file), "लडके"])
    assert rc == 0
    # the child finds the package where this process imported it from
    src = str(Path(hindimorph.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "hindimorph", "analyze", "-m", str(fst_file), "लडके"],
        capture_output=True, text=True, encoding="utf-8", env=env)
    assert proc.returncode == 0
    assert proc.stdout == stdout


def test_every_public_name_imports_from_the_package_root():
    namespace: dict = {}
    exec("from hindimorph import *", namespace)  # a listed name that is missing raises
    assert set(hindimorph.__all__) <= namespace.keys()


# --- README -------------------------------------------------------------------


def test_readme_command_line_block(capsys, monkeypatch, tmp_path):
    # README.md's "Command line" block is a transcript: each command line,
    # then its exact stdout, then a blank line
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split(
        "## Command line\n\n```\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    data = data_path().as_posix() + "/"
    chunks = block.split("\n\n")
    assert len(chunks) >= 6
    for chunk in chunks:
        command, *lines = chunk.split("\n")
        program, *argv = (arg.replace("src/hindimorph/data/", data)
                          for arg in shlex.split(command))
        assert program == "hindimorph"
        rc, stdout, stderr = run(capsys, argv)
        assert (rc, stdout, stderr) == (0, "".join(line + "\n" for line in lines), ""), command
