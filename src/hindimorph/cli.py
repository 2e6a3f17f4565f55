"""Command-line interface.

Subcommands::

    lexicon-extract <corpus> -o <out>        unique sorted word types
    compile -r <rules.mrl> -o <model.fst>
    analyze -m <model.fst> [--indecl <tsv>] [words...|-]
    generate -m <model.fst> [--indecl <tsv>] [lexical...|-]
    train -c <tagged.txt> -o <model.tag> [--lambda F --epochs N]
    tag -m <model.tag> -f <model.fst> [--indecl <tsv>] [sentence|-]
    eval -m <model.tag> -f <model.fst> [--indecl <tsv>] -c <gold.txt>

Each subcommand imports the modules it uses when it runs, so
``analyze`` and ``generate`` load neither the rule compiler nor the
tagger.

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
from typing import Iterable

from . import _text, fst, morph


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
    from . import lexicon
    words = lexicon.extract_unique_sorted(_text.read_text(args.corpus, CliError))
    payload = "".join(w + "\n" for w in words).encode("utf-8")
    _text.write_atomic(args.output, payload)
    print(f"{len(words)} unique words -> {args.output}")
    return 0


def cmd_compile(args) -> int:
    from . import rules
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
    from . import tagger
    corpus = tagger.TaggedCorpus.read(args.corpus)
    config = tagger.TrainConfig(l2_lambda=args.l2_lambda, epochs=args.epochs)
    model = tagger.train(corpus, config)
    tagger.save_model(model, args.output)
    tokens = sum(len(s) for s in corpus.sentences)
    print(f"trained on {len(corpus.sentences)} sentences, {tokens} tokens; "
          f"{len(model.tagset)} tags, {len(model.weights)} weights -> {args.output}")
    return 0


def cmd_tag(args) -> int:
    from . import tagger
    model = tagger.load_model(args.model)
    morph_model = morph.MorphModel.load(args.fst, args.indecl)
    for sentence in _words_from(args.sentence):
        tagged = tagger.tag(model, morph_model, sentence)
        print(" ".join(f"{surface}/{t}" for surface, t in tagged))
    return 0


def cmd_eval(args) -> int:
    from . import tagger
    model = tagger.load_model(args.model)
    morph_model = morph.MorphModel.load(args.fst, args.indecl)
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

    p = sub.add_parser("compile", help="compile a rule file into a transducer model")
    p.add_argument("-r", "--rules", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compile)

    # the options that several subcommands share, each declared once
    indecl = argparse.ArgumentParser(add_help=False)
    indecl.add_argument("--indecl", default=None,
                        help="indeclinable dictionary (word<TAB>analysis)")
    lookup = argparse.ArgumentParser(add_help=False)
    lookup.add_argument("-m", "--model", required=True)
    tagging = argparse.ArgumentParser(add_help=False)
    tagging.add_argument("-m", "--model", required=True, help="tagger model file")
    tagging.add_argument("-f", "--fst", required=True, help="morphology transducer file")

    p = sub.add_parser("analyze", parents=[lookup, indecl], help="analyze surface words")
    p.add_argument("words", nargs="*",
                   help="words to analyze; '-' or none reads stdin lines")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", parents=[lookup, indecl],
                       help="generate surface forms from lexical strings")
    p.add_argument("lexical", nargs="*",
                   help="lexical strings; '-' or none reads stdin lines")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the POS tagger on a tagged corpus")
    p.add_argument("-c", "--corpus", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--lambda", dest="l2_lambda", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=100)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", parents=[tagging, indecl], help="tag sentences")
    p.add_argument("sentence", nargs="*",
                   help="sentences; '-' or none reads stdin lines")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", parents=[tagging, indecl],
                       help="evaluate the tagger against a gold corpus")
    p.add_argument("-c", "--corpus", required=True, help="gold tagged corpus")
    p.set_defaults(func=cmd_eval)
    return parser


def _domain_errors() -> tuple[type[Exception], ...]:
    """The errors reported as exit 1: those of the modules imported so
    far, as a module that was never imported raised none."""
    found = [CliError, OSError, fst.FstError, morph.MorphError]
    for name, base in (("rules", "RuleError"), ("lexicon", "LexiconError"),
                       ("tagger", "TaggerError")):
        if (module := sys.modules.get(f"{__package__}.{name}")) is not None:
            found.append(getattr(module, base))
    return tuple(found)


def main(argv: list[str] | None = None) -> int:
    # UTF-8 whatever the locale.  A command-line byte that is not UTF-8
    # reaches us as a lone surrogate: stdout writes it back as that byte,
    # stderr as a backslash escape.
    for stream, errors in ((sys.stdout, "surrogateescape"), (sys.stderr, "backslashreplace")):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8", errors=errors)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _domain_errors() as exc:  # evaluated once the command has raised
        print(f"hindimorph {args.command}: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
