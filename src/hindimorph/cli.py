"""Command-line interface.

Subcommands::

    lexicon-extract <corpus> -o <out>        unique sorted word types
    lexicon-stats --lexdir <dir>             per-class root counts
    compile -r <rules.mrl> -o <model.fst>
    analyze -m <model.fst> [--indecl <tsv>] [words...|-]
    generate -m <model.fst> [--indecl <tsv>] [lexical...|-]
    train -c <tagged.txt> -o <model.tag> [--lambda F --epochs N --step F]
    tag -m <model.tag> -f <model.fst> [--beam N] [sentence|-]
    eval -m <model.tag> -f <model.fst> -c <gold.txt>

Exit status: 0 on success (an unanalyzable word is not an error), 1 on
domain errors (bad files, malformed input), 2 on usage errors.  Output
files are written to a temporary sibling and renamed into place, so a
failure never leaves a partial file.  Output is plain text with no
color, so NO_COLOR needs no special handling.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path
from typing import Iterable

from . import _text, fst, lexicon, morph, rules, tagger


def _words_from(args_words: list[str]) -> Iterable[str]:
    if args_words and args_words != ["-"]:
        yield from args_words
        return
    if hasattr(sys.stdin, "reconfigure"):  # strict UTF-8 whatever the locale, no BOM
        try:
            sys.stdin.reconfigure(encoding="utf-8-sig")
        except io.UnsupportedOperation as exc:  # text already read can't be re-decoded
            raise CliError(f"stdin: {exc}") from exc
    try:
        yield from (word for word in map(str.strip, sys.stdin) if word)
    except UnicodeDecodeError as exc:
        raise CliError(f"stdin: invalid UTF-8 ({exc.reason})") from exc


class CliError(Exception):
    pass


def cmd_lexicon_extract(args) -> int:
    words = lexicon.extract_unique_sorted(_text.read_text(args.corpus, CliError))
    payload = "".join(w + "\n" for w in words).encode("utf-8")
    _text.write_atomic(args.output, payload)
    print(f"{len(words)} unique words -> {args.output}")
    return 0


def cmd_lexicon_stats(args) -> int:
    lexdir = Path(args.lexdir)
    if not lexdir.is_dir():
        raise CliError(f"not a directory: {lexdir}")
    roots = {cls: lexicon.read_lexicon_file(lexdir / f"{cls}.txt")
             for cls in lexicon.WORD_CLASSES if (lexdir / f"{cls}.txt").is_file()}
    if not roots:
        raise CliError(f"no lexicon files found in {lexdir}")
    for cls in lexicon.WORD_CLASSES:
        print(f"{cls}: {len(roots.get(cls, ()))}")
    print(f"total: {len(set().union(*roots.values()))}")  # a root in two classes counts once
    return 0


def cmd_compile(args) -> int:
    symbols = fst.SymbolTable()
    machine = rules.compile_file(args.rules, symbols)
    fst.save(machine, args.output)
    print(f"{machine.state_count} states, {machine.arc_count} arcs -> {args.output}")
    return 0


def _lookup(args, items: list[str], answer) -> int:
    """Print each item with its answers, tab-separated, or with ``?``."""
    model = morph.MorphModel.load(args.model, args.indecl)
    for item in _words_from(items):
        answers = answer(model, item)  # an empty surface form is an answer
        print(item + "\t" + ("\t".join(answers) if answers else "?"))
    return 0


def cmd_analyze(args) -> int:
    return _lookup(args, args.words,
                   lambda model, word: [a.render() for a in morph.analyze(model, word)])


def cmd_generate(args) -> int:
    return _lookup(args, args.lexical, morph.generate)


def cmd_train(args) -> int:
    corpus = tagger.TaggedCorpus.read(args.corpus)
    config = tagger.TrainConfig(l2_lambda=args.l2_lambda, epochs=args.epochs,
                                step=args.step)
    model = tagger.train(corpus, config)
    tagger.save_model(model, args.output)
    tokens = sum(len(s) for s in corpus.sentences)
    print(f"trained on {len(corpus.sentences)} sentences, {tokens} tokens; "
          f"{len(model.tagset)} tags, {len(model.weights)} weights -> {args.output}")
    return 0


def cmd_tag(args) -> int:
    model = tagger.load_model(args.model)
    morph_model = morph.MorphModel.load(args.fst)
    for sentence in _words_from(args.sentence):
        tagged = tagger.tag(model, morph_model, sentence, beam=args.beam)
        print(" ".join(f"{surface}/{t}" for surface, t in tagged))
    return 0


def cmd_eval(args) -> int:
    model = tagger.load_model(args.model)
    morph_model = morph.MorphModel.load(args.fst)
    gold = tagger.TaggedCorpus.read(args.corpus)
    result = tagger.evaluate(model, morph_model, gold)
    known_note = "" if result.known_total else ", undefined"
    unknown_note = "" if result.unknown_total else ", undefined"
    print(f"known: {result.known_acc:.4f} ({result.known_total} tokens{known_note})")
    print(f"unknown: {result.unknown_acc:.4f} ({result.unknown_total} tokens{unknown_note})")
    print(f"overall: {result.overall_acc:.4f} "
          f"({result.known_total + result.unknown_total} tokens)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hindimorph",
        description="Finite-state Hindi morphology and maximum-entropy POS tagging.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lexicon-extract",
                       help="extract unique sorted word types from a raw corpus")
    p.add_argument("corpus")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_lexicon_extract)

    p = sub.add_parser("lexicon-stats", help="per-class root counts for a lexicon directory")
    p.add_argument("--lexdir", required=True)
    p.set_defaults(func=cmd_lexicon_stats)

    p = sub.add_parser("compile", help="compile a rule file into a transducer model")
    p.add_argument("-r", "--rules", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("analyze", help="analyze surface words")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--indecl", default=None,
                   help="indeclinable dictionary (word<TAB>analysis)")
    p.add_argument("words", nargs="*",
                   help="words to analyze; '-' or none reads stdin lines")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="generate surface forms from lexical strings")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--indecl", default=None,
                   help="indeclinable dictionary (word<TAB>analysis), as for analyze")
    p.add_argument("lexical", nargs="*",
                   help="lexical strings; '-' or none reads stdin lines")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the POS tagger on a tagged corpus")
    p.add_argument("-c", "--corpus", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--lambda", dest="l2_lambda", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--step", type=float, default=0.1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag sentences")
    p.add_argument("-m", "--model", required=True, help="tagger model file")
    p.add_argument("-f", "--fst", required=True, help="morphology transducer file")
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("sentence", nargs="*",
                   help="sentences; '-' or none reads stdin lines")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="evaluate the tagger against a gold corpus")
    p.add_argument("-m", "--model", required=True, help="tagger model file")
    p.add_argument("-f", "--fst", required=True, help="morphology transducer file")
    p.add_argument("-c", "--corpus", required=True, help="gold tagged corpus")
    p.set_defaults(func=cmd_eval)
    return parser


_DOMAIN_ERRORS = (CliError, OSError, fst.FstError, rules.RuleError,
                  lexicon.LexiconError, morph.MorphError, tagger.TaggerError)


def main(argv: list[str] | None = None) -> int:
    for stream in (sys.stdout, sys.stderr):  # UTF-8 whatever the locale
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"hindimorph {args.command}: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
