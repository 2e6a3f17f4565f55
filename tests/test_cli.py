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


def test_analyze_names_the_word_whose_grammar_form_is_malformed(capsys, tmp_path):
    # the grammar writes "ab", which has no tag; the words before it answer
    rule_file, model = tmp_path / "g.mrl", tmp_path / "g.fst"
    rule_file.write_text("ab | c <N>:<>\n", encoding="utf-8")
    assert run(capsys, ["compile", "-r", str(rule_file), "-o", str(model)])[0] == 0
    rc, stdout, stderr = run(capsys, ["analyze", "-m", str(model), "c", "x", "ab"])
    assert (rc, stdout) == (1, "c\tc<N>\nx\t?\n")
    assert stderr == ("hindimorph analyze: error: grammar wrote a lexical form for surface "
                      "word 'ab' that is not a root<Tag>... analysis: 'ab'\n")


def test_emitting_epsilon_cycle_is_an_exit_1_error(capsys, tmp_path):
    # surface "b" reaches a loop that reads no surface symbol and writes
    # "x" on the lexical tape: infinitely many analyses, so analyze
    # stops with an error; generation reads "x" there and answers
    rule_file, model = tmp_path / "loop.mrl", tmp_path / "loop.fst"
    rule_file.write_text("b <T>:<> ( x:<> )*\n", encoding="utf-8")
    assert run(capsys, ["compile", "-r", str(rule_file), "-o", str(model)])[0] == 0
    rc, stdout, stderr = run(capsys, ["analyze", "-m", str(model), "q", "b"])
    assert (rc, stdout) == (1, "q\t?\n")
    assert stderr == ("hindimorph analyze: error: "
                      "symbol-writing output-epsilon cycle reachable on 'b'\n")
    assert run(capsys, ["generate", "-m", str(model), "b<T>"]) == (0, "b<T>\tb\n", "")


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
        "--lambda", "0.3", "--epochs", "5"])
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
    ["--epochs", "-2"], ["--lambda", "nan"], ["--lambda", "inf"], ["--lambda", "-1"],
], ids=["epochs-2", "lambda-nan", "lambda-inf", "lambda-1"])
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


def test_train_has_no_step_option(capsys, tmp_path):
    # the step is fixed at 0.1: --step is a usage error
    out = tmp_path / "m.tag"
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "-c", str(data_path("tagged_mini.txt")), "-o", str(out),
                  "--step", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --step 0.1" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_to_save_non_finite_weights(capsys, tmp_path):
    # a huge prior makes each step overshoot zero by more than the last
    # until the weights overflow; the loss ends NaN, so training refuses
    # the model and no file is written
    out = tmp_path / "m.tag"
    rc, stdout, stderr = run(capsys, [
        "train", "-c", str(data_path("tagged_mini.txt")), "-o", str(out),
        "--epochs", "5", "--lambda", "1e300"])
    assert rc == 1
    assert stdout == ""
    assert stderr.startswith("hindimorph train: error: training diverged (loss 2.30259 -> nan): ")
    assert not list(tmp_path.iterdir())


def test_train_refuses_a_diverged_model(capsys, tmp_path):
    # at l2_lambda 12 the weights stay finite, but the loss grows to 3e27
    out = tmp_path / "m.tag"
    rc, stdout, stderr = run(capsys, [
        "train", "-c", str(data_path("tagged_mini.txt")), "-o", str(out), "--lambda", "12"])
    assert rc == 1
    assert stdout == ""
    assert stderr.startswith("hindimorph train: error: training diverged ")
    assert "l2_lambda 12.0 is too large" in stderr
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("sentence, with_indecl, without", [
    ("अरे लडका जाता है ।", "अरे/RP", "अरे/JJ"),
    ("अतःकरण पवित्रता चलाता है ।", "अतःकरण/N_NN", "अतःकरण/JJ"),
], ids=["particle", "noun"])
def test_tag_with_indeclinables_matches_the_library(capsys, tag_file, fst_file, tag_model,
                                                    morph_model, sentence, with_indecl,
                                                    without):
    # morph_model reads the bundled indeclinables.tsv, as --indecl does
    want = " ".join(f"{surface}/{t}" for surface, t in
                    tagger.tag(tag_model, morph_model, sentence)) + "\n"
    argv = ["tag", "-m", str(tag_file), "-f", str(fst_file)]
    rc, stdout, _ = run(capsys, [*argv, "--indecl", str(data_path("indeclinables.tsv")),
                                 sentence])
    assert (rc, stdout) == (0, want)
    assert stdout.startswith(with_indecl + " ")
    rc, stdout, _ = run(capsys, [*argv, sentence])
    assert (rc, stdout.split(" ", 1)[0]) == (0, without)


def test_eval_with_indeclinables(capsys, tmp_path, tag_file, fst_file):
    gold = tmp_path / "gold.txt"
    gold.write_text("अरे/RP लडका/N_NN जाता/V_VM है/V_AUX ।/I\n"
                    "अतःकरण/N_NN पवित्रता/N_NN चलाता/V_VM है/V_AUX ।/I\n", encoding="utf-8")
    argv = ["eval", "-m", str(tag_file), "-f", str(fst_file), "-c", str(gold)]
    rc, stdout, _ = run(capsys, [*argv, "--indecl", str(data_path("indeclinables.tsv"))])
    assert (rc, stdout) == (0, "known: 1.0000 (7 tokens)\n"
                               "unknown: 1.0000 (3 tokens)\n"
                               "overall: 1.0000 (10 tokens)\n")
    # without the dictionary, अरे and अतःकरण are tagged JJ
    rc, stdout, _ = run(capsys, argv)
    assert (rc, stdout) == (0, "known: 1.0000 (7 tokens)\n"
                               "unknown: 0.3333 (3 tokens)\n"
                               "overall: 0.8000 (10 tokens)\n")


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


def test_extracted_words_compile_as_a_root_list(capsys, tmp_path):
    # % would start a comment in a root list, and < > would write tags:
    # the extractor splits at them, so every word it writes is a root
    corpus = tmp_path / "raw.txt"
    corpus.write_text("आम 50% छूट <b>नया</b> माल।\n", encoding="utf-8")
    words = tmp_path / "words.txt"
    assert run(capsys, ["lexicon-extract", str(corpus), "-o", str(words)])[0] == 0
    expected = ["/b", "50", "b", "आम", "छूट", "नया", "माल"]
    assert words.read_text(encoding="utf-8") == "".join(w + "\n" for w in expected)
    (tmp_path / "r.mrl").write_text('( #include "words.txt" ) <W>:<>\n', encoding="utf-8")
    out = tmp_path / "out.fst"
    rc, _, stderr = run(capsys, ["compile", "-r", str(tmp_path / "r.mrl"), "-o", str(out)])
    assert (rc, stderr) == (0, "")
    rc, stdout, _ = run(capsys, ["analyze", "-m", str(out), *expected])
    assert (rc, stdout) == (0, "".join(f"{w}\t{w}<W>\n" for w in expected))


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


@pytest.mark.parametrize("line, message", ROOT_LIST_ERRORS.values(),
                         ids=[f"{case}-compile" for case in ROOT_LIST_ERRORS])
def test_root_list_errors(capsys, tmp_path, line, message):
    # a rule file's #include reads the root list through the one reader
    (tmp_path / "verbs.txt").write_text(f"घर\n{line}\n", encoding="utf-8")
    (tmp_path / "r.mrl").write_text('#include "verbs.txt" <Verb>:<>\n', encoding="utf-8")
    out = tmp_path / "out.fst"
    rc, stdout, stderr = run(capsys, ["compile", "-r", str(tmp_path / "r.mrl"), "-o", str(out)])
    assert (rc, stdout, stderr) == (1, "", f"hindimorph compile: error: {message}\n")
    assert not out.exists()


def test_root_comment_starts_at_percent(capsys, tmp_path):
    # "घर   % a noun" is the root घर, as a rule line would read it
    (tmp_path / "nouns.txt").write_text("घर   % a noun\n", encoding="utf-8")
    (tmp_path / "r.mrl").write_text('#include "nouns.txt" <N>:<>\n', encoding="utf-8")
    out = tmp_path / "out.fst"
    assert run(capsys, ["compile", "-r", str(tmp_path / "r.mrl"), "-o", str(out)])[0] == 0
    rc, stdout, _ = run(capsys, ["analyze", "-m", str(out), "घर"])
    assert (rc, stdout) == (0, "घर\tघर<N>\n")


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


def test_tag_beam_option_is_a_usage_error(capsys, tag_file, fst_file):
    # decoding is exact Viterbi search: it has no width to set
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["tag", "-m", str(tag_file), "-f", str(fst_file), "--beam", "3", "आम"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --beam" in captured.err


def test_module_invocation_matches_in_process(capsys, fst_file):
    rc, stdout, _ = run(capsys, ["analyze", "-m", str(fst_file), "लडके"])
    assert rc == 0
    proc = _run_child(["-m", "hindimorph", "analyze", "-m", str(fst_file), "लडके"])
    assert proc.returncode == 0
    assert proc.stdout == stdout


def test_every_public_name_imports_from_the_package_root():
    namespace: dict = {}
    exec("from hindimorph import *", namespace)  # a listed name that is missing raises
    assert set(hindimorph.__all__) <= namespace.keys()
    from hindimorph import RuleFile, TaggedCorpus, TagModel
    from hindimorph.rules import RuleFile as rule_file
    from hindimorph.tagger import TaggedCorpus as tagged_corpus, TagModel as tag_model
    assert (RuleFile, TaggedCorpus, TagModel) == (rule_file, tagged_corpus, tag_model)
    assert set(hindimorph.__all__) <= set(dir(hindimorph))
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        hindimorph.nothing


def _child_env():
    """The environment of a child process that imports the package from
    where this one did."""
    src = str(Path(hindimorph.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_child(args):
    """Run ``python ARGS`` in a fresh process, with text output."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          encoding="utf-8", env=_child_env())


def test_non_utf8_argument_bytes(tmp_path, fst_file, tag_file, tag_model, morph_model):
    # Python decodes a command-line byte that is not UTF-8 to a lone
    # surrogate: stdout writes it back as the byte, stderr escapes it.
    (tmp_path / os.fsdecode(b"r\xff.mrl")).write_bytes(b"\xff\xfe")
    tagged = tagger.tag(tag_model, morph_model, "\udcff")
    rules_file = str(data_path("rules", "hindi.mrl"))
    cases = [
        (["analyze", "-m", fst_file, b"\xff"], 0, b"\xff\t?\n", ""),
        (["tag", "-m", tag_file, "-f", fst_file, b"\xff"], 0,
         f"\udcff/{tagged[0][1]}\n".encode("utf-8", "surrogateescape"), ""),
        (["compile", "-r", rules_file, "-o", b"o\xff.fst"], 0,
         b"85 states, 114 arcs -> o\xff.fst\n", ""),
        (["compile", "-r", b"r\xff.mrl", "-o", "x.fst"], 1, b"",
         "hindimorph compile: error: r\\udcff.mrl: invalid UTF-8 at byte 0\n"),
    ]
    for argv, status, stdout, stderr in cases:
        proc = subprocess.run([sys.executable, "-m", "hindimorph", *argv],
                              capture_output=True, env=_child_env(), cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr.decode("utf-8")) == (
            status, stdout, stderr), argv
    assert fst.load(tmp_path / os.fsdecode(b"o\xff.fst")).state_count == 85
    assert not (tmp_path / "x.fst").exists()


IMPORT_PROBE = """
import sys
from hindimorph import cli, data_path

fst_path, tag_path, out_path = sys.argv[1:]
corpus = str(data_path("tagged_mini.txt"))
probed = ("dataclasses", "hindimorph.lexicon", "hindimorph.rules", "hindimorph.tagger")
assert cli.main(["analyze", "-m", fst_path, "लडके"]) == 0
assert cli.main(["generate", "-m", fst_path, "कहानी<Noun><masculine><pl>"]) == 0
print(*[m for m in probed if m in sys.modules])
assert cli.main(["tag", "-m", tag_path, "-f", fst_path, "आम आदमी आम खाता है ।"]) == 0
print(*[m for m in probed if m in sys.modules])
assert cli.main(["eval", "-m", tag_path, "-f", fst_path, "-c", corpus]) == 0
assert cli.main(["train", "-c", corpus, "-o", out_path, "--epochs", "1"]) == 0
print(*[m for m in probed if m in sys.modules])
"""


def test_analyze_imports_neither_compiler_nor_tagger(fst_file, tag_file, tmp_path):
    out = tmp_path / "one.tag"
    proc = _run_child(["-c", IMPORT_PROBE, str(fst_file), str(tag_file), str(out)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "लडके\tलडका<Noun><Vocative>\tलडका<Noun><masculine><pl>",
        "कहानी<Noun><masculine><pl>\tकहानियाँ",
        "",  # analyze and generate: none of them
        "आम/JJ आदमी/N_NN आम/N_NN खाता/V_VM है/V_AUX ।/I",
        "hindimorph.tagger",  # tag: the tagger, not the compiler nor dataclasses
        "known: 1.0000 (501 tokens)",
        "unknown: 1.0000 (0 tokens, undefined)",
        "overall: 1.0000 (501 tokens)",
        f"trained on 83 sentences, 501 tokens; 10 tags, 7090 weights -> {out}",
        "hindimorph.tagger",  # eval and train: the same
    ]


def test_domain_errors_of_modules_imported_on_demand(tmp_path, fst_file):
    # each in a fresh process, where only the subcommand imports its module
    (tmp_path / "bad.mrl").write_text("a b |\n", encoding="utf-8")
    (tmp_path / "verbs.txt").write_text("घर\nक<\n", encoding="utf-8")
    (tmp_path / "r.mrl").write_text('#include "verbs.txt" <Verb>:<>\n', encoding="utf-8")
    (tmp_path / "bad.tag").write_bytes(b"garbage")
    cases = {
        ("compile", "-r", str(tmp_path / "bad.mrl"), "-o", str(tmp_path / "out.fst")):
            "hindimorph compile: error: line 1, col 6: expected an expression, found end of line\n",
        ("compile", "-r", str(tmp_path / "r.mrl"), "-o", str(tmp_path / "out.fst")):
            "hindimorph compile: error: verbs.txt:2: '<' or '>' in a root (tags belong in the rules)\n",
        ("tag", "-m", str(tmp_path / "bad.tag"), "-f", str(fst_file), "आम"):
            "hindimorph tag: error: not a tagger model file (bad magic)\n",
    }
    for argv, message in cases.items():
        proc = _run_child(["-m", "hindimorph", *argv])
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message), argv


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
