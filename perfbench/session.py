"""Workload sessions: the correctness gate, the timed phases, the traced passes.

Every workload runs the whole pipeline a user of ``hindimorph`` runs
(compile a grammar, load it, analyze and generate, train the tagger,
tag sentences), as one caller in one thread: each operation starts
when the previous one returns.  Workloads differ in their inputs and in
how the measured seconds are shared between the phases, so each one
puts a different layer under load while still reporting every
end-to-end metric.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hindimorph import cli, fst, morph, rules, tagger

import sentences
import synth
from speed import SpeedLog
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "hindimorph" / "data"
RULES_DIR = DATA / "rules"
CORPUS = DATA / "tagged_mini.txt"
INDECLINABLES = DATA / "indeclinables.tsv"
HERE = Path(__file__).resolve().parent
COMPILE_WORKER = HERE / "compile_worker.py"
COUNTS_WORKER = HERE / "counts_worker.py"
CLI_WORKER = HERE / "cli_worker.py"

# README goldens, checked before anything is timed.
GOLDEN_WORD = ("लडके", ["लडका<Noun><Vocative>", "लडका<Noun><masculine><pl>"])
GOLDEN_LEXICAL = ("कहानी<Noun><masculine><pl>", ["कहानियाँ"])
GOLDEN_SENTENCE = ("आम आदमी आम खाता है ।", [
    ("आम", "JJ"), ("आदमी", "N_NN"), ("आम", "N_NN"),
    ("खाता", "V_VM"), ("है", "V_AUX"), ("।", "I")])
GOLDEN_EVAL = "overall: 1.0000 (501 tokens)"
# Timed trainings are short, so that they interleave finely with the
# other phases; the default 100-epoch training runs once, in the gate,
# and gives train_loss.
TRAIN_CONFIG = tagger.TrainConfig(epochs=5)
# Loads timed per run; setup_s is their median.
SETUP_LOADS = 5
# Phases whose operations are long enough to get a probe of the
# reference task right before and after each one (see speed.py); a
# compile takes its probes in its own process.
BRACKETED = frozenset({"setup", "train"})
# Words or sentences fed to the ``hindimorph`` process whose peak RSS is
# peak_rss_mb.
RSS_WORDS = 100
RSS_SENTENCES = 200


class GateFailed(Exception):
    """A README golden does not hold: nothing is worth timing."""


@dataclass(frozen=True)
class Plan:
    """How a workload feeds the pipeline.

    `stems` sizes the synthetic grammar that is compiled and analyzed;
    tagging always falls back on the bundled demo grammar.  `setup`
    names the start-up that setup_s times: an ``analyze`` session loads
    the synthetic machine, a ``tag`` session loads the demo machine and
    the tagger model; peak_rss_mb is that of a ``hindimorph analyze`` or
    ``hindimorph tag`` process.  `shares` splits --seconds between the
    phases compile, setup (the loads setup_s times), analyze, train and
    tag.
    """

    stems: int
    setup: str
    shares: dict[str, float]
    accuracy_sentences: int
    traced_words: int
    traced_sentences: int


WORKLOADS = {
    # fst at scale: every analyze/generate call pays the per-call scan of
    # the 10k-stem machine, and no word repeats; the same grammar is also
    # compiled for the write side of fst.
    "analyze_synth10k": Plan(
        10_000, "analyze",
        {"compile": 0.22, "setup": 0.03, "analyze": 0.50, "train": 0.13, "tag": 0.12},
        200, 150, 30),
    # the tagger: training and beam decode on the bundled corpus, with the
    # 85-state demo machine as fallback; words repeat as in real text.
    "tag_mini": Plan(
        1_000, "tag",
        {"compile": 0.08, "setup": 0.02, "analyze": 0.18, "train": 0.37, "tag": 0.35},
        400, 300, 150),
}


def compile_rules(rules_path: Path) -> tuple[bytes, float, fst.Transducer]:
    """What ``hindimorph compile`` pays: compile, then serialize."""
    start = time.perf_counter()
    machine = rules.compile_file(rules_path, fst.SymbolTable())
    blob = fst.to_bytes(machine)
    return blob, time.perf_counter() - start, machine


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def gate(workdir: Path) -> float:
    """Check the README goldens; keep their machine and model for the tag
    session and return the final loss of the default training."""
    grammar = rules.compile_file(RULES_DIR / "hindi.mrl", fst.SymbolTable())
    model = morph.MorphModel(grammar, morph.load_indeclinables(INDECLINABLES))
    word, expected = GOLDEN_WORD
    got = [a.render() for a in morph.analyze(model, word)]
    if got != expected:
        raise GateFailed(f"analyze {word}: {got} != {expected}")
    lexical, expected = GOLDEN_LEXICAL
    got = morph.generate(model, lexical)
    if got != expected:
        raise GateFailed(f"generate {lexical}: {got} != {expected}")
    tag_model = tagger.train(tagger.TaggedCorpus.read(CORPUS))
    sentence, expected = GOLDEN_SENTENCE
    got = tagger.tag(tag_model, model, sentence)
    if got != expected:
        raise GateFailed(f"tag {sentence}: {got} != {expected}")
    (workdir / "bundled.fst").write_bytes(fst.to_bytes(grammar))
    (workdir / "model.tag").write_bytes(tagger.model_to_bytes(tag_model))
    return tag_model.loss_history[-1]


class Session:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.plan = WORKLOADS[name]
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        # (start, reference timing or None) of each timed sample
        self.moments: dict[str, list[tuple[float, float | None]]] = {}
        self.speed = SpeedLog()
        self.errors: list[str] = []

    # -- checks ------------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def _guarded(self, what: str, op) -> None:
        """Run one operation; an unexpected exception is a failed operation."""
        try:
            op()
        except Exception as exc:  # counted and reported, the run goes on
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")

    def sample(self, key: str, value: float, start: float | None = None,
               reference: float | None = None) -> None:
        """Keep a measured value.  A time also keeps the moment it
        started and, when it was taken in another process, that
        process's reference timing."""
        self.samples.setdefault(key, []).append(value)
        if start is not None:
            self.moments.setdefault(key, []).append((start, reference))

    # -- inputs ------------------------------------------------------------

    def prepare(self, gate_dir: Path | None = None) -> None:
        """Check the goldens, unless `gate_dir` holds a gate's products
        already, and build this seed's inputs."""
        if gate_dir is None:
            gate_dir = self.workdir
            self.default_loss = gate(gate_dir)
        plan = self.plan
        self.grammar = synth.generate_grammar(self.seed, plan.stems, plan.stems * 12 // 100)
        gdir = self.workdir / "grammar"
        gdir.mkdir()
        self.rules_path = self.grammar.write(gdir)
        self.indecl_path = gdir / "indeclinables.tsv"
        self.fst_path = self.workdir / "synth.fst"
        self.words = synth.word_stream(self.grammar, self.seed, plan.stems * 12 // 5)
        self.lexicals = synth.lexical_stream(self.grammar, self.seed, plan.stems * 12 // 5)
        self.corpus = sentences.Corpus.read(CORPUS)
        self.tag_corpus = tagger.TaggedCorpus.read(CORPUS)
        fillers, categories = sentences.bundled_fillers(RULES_DIR, self.corpus, self.seed)
        self.tag_fst, self.tag_indecl = gate_dir / "bundled.fst", INDECLINABLES
        self.tag_fst_blob = self.tag_fst.read_bytes()
        self.sentences = sentences.sentence_stream(
            self.corpus, fillers, categories, self.seed, 20_000)
        self.model_path = gate_dir / "model.tag"
        self.model_blob = self.model_path.read_bytes()
        self.compiled_blob: bytes | None = None
        self.train_blob: bytes | None = None
        self.train_loss: float | None = None  # of the timed trainings
        self.tagged_tokens = 0
        self.accuracy_hits = 0
        self.accuracy_tokens = 0
        self.used = {"words": 0, "sentences": 0}
        # The benchmark's own tables and streams are long-lived; left in the
        # collector's generations they would make every full collection
        # (and so the latency tail) slower than in a real session.
        gc.freeze()

    # -- operations --------------------------------------------------------

    def compile_once(self, in_process: bool = False) -> None:
        """Compile the synthetic grammar and check its bytes.

        A timed compile runs in a process of its own, as ``hindimorph
        compile`` does, so the compiler's garbage stays out of this
        process.  The fixed passes of a traced run compile here, where
        the tracer sees it, and keep the machine for its size counts.
        """
        if in_process:
            blob, _, self.machine = compile_rules(self.rules_path)
            if self.compiled_blob is None:
                self.fst_path.write_bytes(blob)
        else:
            done = subprocess.run(
                [sys.executable, str(COMPILE_WORKER), str(self.rules_path), str(self.fst_path)],
                capture_output=True, text=True, check=True)
            seconds, reference = map(float, done.stdout.split())
            # the compile ends just before the worker does
            self.sample("compile_s", seconds, time.perf_counter() - seconds, reference)
            blob = self.fst_path.read_bytes()
        if self.compiled_blob is None:
            self.compiled_blob = blob
        self.check(blob == self.compiled_blob, "compiled bytes differ between compiles")

    def load_once(self, record: bool = True) -> None:
        """The loads of a session's start-up; the loaded models must
        serialize back to the bytes they were loaded from."""
        start = time.perf_counter()
        if self.plan.setup == "tag":
            self.tag_model_morph = morph.MorphModel.load(self.tag_fst, self.tag_indecl)
            self.tag_model = tagger.load_model(self.model_path)
        else:
            self.analysis_model = morph.MorphModel.load(self.fst_path, self.indecl_path)
        seconds = time.perf_counter() - start
        if record:
            self.sample("setup_s", seconds, start)
        if self.plan.setup == "tag":
            ok = (fst.to_bytes(self.tag_model_morph.grammar) == self.tag_fst_blob
                  and tagger.model_to_bytes(self.tag_model) == self.model_blob)
        else:
            ok = fst.to_bytes(self.analysis_model.grammar) == self.compiled_blob
        self.check(ok, f"{self.plan.setup} load does not give back the bytes it read")

    def finish_setup(self) -> None:
        """Load whatever the setup loads did not: the other session's models."""
        if self.plan.setup == "tag":
            self.analysis_model = morph.MorphModel.load(self.fst_path, self.indecl_path)
        else:
            self.tag_model_morph = morph.MorphModel.load(self.tag_fst, self.tag_indecl)
            self.tag_model = tagger.load_model(self.model_path)

    def analyze_pair(self, i: int) -> bool:
        """Analyze word i and generate lexical form i; False once the stream is spent."""
        if i >= len(self.words):
            return False
        self.used["words"] = i + 1
        word, expected, kind = self.words[i]

        def analyze():
            start = time.perf_counter()
            result = morph.analyze(self.analysis_model, word)
            self.sample("analyze", time.perf_counter() - start, start)
            got = tuple(a.render() for a in result)
            self.check(got == expected, f"analyze {word!r} ({kind}): {got} != {expected}")

        lexical, surfaces, lkind = self.lexicals[i]

        def generate():
            start = time.perf_counter()
            result = morph.generate(self.analysis_model, lexical)
            self.sample("generate", time.perf_counter() - start, start)
            got = tuple(result)
            self.check(got == surfaces, f"generate {lexical!r} ({lkind}): {got} != {surfaces}")

        self._guarded(f"analyze {word!r}", analyze)
        self._guarded(f"generate {lexical!r}", generate)
        return True

    def train_once(self, record: bool = True) -> None:
        start = time.perf_counter()
        model = tagger.train(self.tag_corpus, TRAIN_CONFIG)
        blob = tagger.model_to_bytes(model)
        if record:
            self.sample("train_s", time.perf_counter() - start, start)
        if self.train_blob is None:
            self.train_blob, self.train_loss = blob, model.loss_history[-1]
        self.check(blob == self.train_blob and model.loss_history[-1] == self.train_loss,
                   "tagger model bytes or final loss differ between trainings")
        self.weights = len(model.weights)

    def tag_sentence(self, i: int) -> None:
        s = self.sentences[i % len(self.sentences)]
        self.used["sentences"] = max(self.used["sentences"], i + 1)

        def tag():
            start = time.perf_counter()
            result = tagger.tag(self.tag_model, self.tag_model_morph, s.text)
            seconds = time.perf_counter() - start
            self.sample("tag", seconds, start)
            self.tagged_tokens += len(s.tokens)
            ok = (len(result) == len(s.tokens)
                  and all(w == tok and t in allowed for (w, t), tok, allowed
                          in zip(result, s.tokens, s.allowed)))
            self.check(ok, f"tag {s.text!r}: {result}")
            if ok and i < self.plan.accuracy_sentences:
                self.accuracy_hits += sum(t == g for (_, t), g in zip(result, s.gold))
                self.accuracy_tokens += len(s.gold)

        self._guarded(f"tag {s.text!r}", tag)

    # -- the timed run -----------------------------------------------------

    def run_timed(self, seconds: float) -> None:
        """Spend `seconds` of operations, interleaving the phases by share.

        The next operation always goes to the phase furthest below its
        share, so every phase samples the whole run rather than one
        stretch of it; the host's speed drifts over seconds.  The
        reference task is probed between operations, so that every time
        can be scaled to the reference speed.  After the budget, only
        phases short of their minimum count go on.
        """
        plan = self.plan
        ops = {"compile": lambda i: self.compile_once(),
               "setup": lambda i: self.load_once(),
               "analyze": self.analyze_pair, "train": lambda i: self.train_once(),
               "tag": self.tag_sentence}
        minimum = {"compile": 1, "setup": SETUP_LOADS, "analyze": 1, "train": 1,
                   "tag": plan.accuracy_sentences}
        spent = dict.fromkeys(ops, 0.0)
        count = dict.fromkeys(ops, 0)
        drained: set[str] = set()

        def step(name: str) -> None:
            if name in BRACKETED or self.speed.due():
                self.speed.probe()
            start = time.perf_counter()
            if ops[name](count[name]) is False:
                drained.add(name)
            spent[name] += time.perf_counter() - start
            count[name] += 1
            if name in BRACKETED:
                self.speed.probe()

        run_start = time.perf_counter()
        step("compile")  # the machine must exist before it is loaded,
        step("setup")    # and loaded before it is used
        self.finish_setup()
        while True:
            live = [n for n in ops if n not in drained]
            if time.perf_counter() - run_start >= seconds:
                live = [n for n in live if count[n] < minimum[n]]
            if not live:
                break
            step(min(live, key=lambda n: spent[n] / plan.shares[n]))
        self.speed.probe()
        self.measure_rss()

    def measure_rss(self) -> None:
        """peak_rss_mb: the peak RSS of a ``hindimorph analyze`` or
        ``hindimorph tag`` process on this workload's machine.

        The process is one of its own, so the benchmark's tables and
        streams stay out of the figure; its output is checked too.
        """
        words = self.words[:RSS_WORDS]
        sents = self.sentences[:RSS_SENTENCES]
        if self.plan.setup == "tag":
            argv = ["tag", "-m", str(self.model_path), "-f", str(self.tag_fst), "-"]
            stdin = "".join(s.text + "\n" for s in sents)
        else:
            argv = ["analyze", "-m", str(self.fst_path), "--indecl", str(self.indecl_path), "-"]
            stdin = "".join(w + "\n" for w, *_ in words)
        rss_path = self.workdir / "rss.kib"
        done = subprocess.run([sys.executable, str(CLI_WORKER), str(rss_path), *argv],
                              input=stdin, capture_output=True, text=True, encoding="utf-8")
        self.check(done.returncode == 0,
                   f"hindimorph {argv[0]} exited {done.returncode}: {done.stderr[-500:]}")
        if self.plan.setup == "tag":
            self._check_tag_output(done.stdout.splitlines(), sents)
        else:
            self._check_analyze_output(done.stdout.splitlines(), words)
        self.sample("peak_rss_mb", int(rss_path.read_text()) / 1024)

    def times(self, key: str, scaled: bool = True) -> list[float]:
        """The timed samples of `key`, scaled to the reference speed
        unless `scaled` is false."""
        values = self.samples[key]
        if not scaled:
            return values
        return [self.speed.scale(v, start, reference)
                for v, (start, reference) in zip(values, self.moments[key])]

    def end_to_end(self, scaled: bool = True) -> dict[str, tuple[float, str, int]]:
        """Metric name -> (value, unit, sample count).

        Every time is scaled to the reference speed (see ``speed.py``)
        unless `scaled` is false; the unscaled figures are printed
        beside the result for comparison.  Per-operation costs are
        medians, throughputs are counts over summed times.
        """
        setup, compiles, trains = (self.times(k, scaled) for k in ("setup_s", "compile_s", "train_s"))
        analyze, generate, tag = (self.times(k, scaled) for k in ("analyze", "generate", "tag"))
        return {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "analyze_per_s": (len(analyze) / sum(analyze), "words/s", len(analyze)),
            "analyze_p50_us": (statistics.median(analyze) * 1e6, "us", len(analyze)),
            "analyze_p90_us": (_quantile(analyze, 0.90) * 1e6, "us", len(analyze)),
            "generate_p50_us": (statistics.median(generate) * 1e6, "us", len(generate)),
            "generate_p90_us": (_quantile(generate, 0.90) * 1e6, "us", len(generate)),
            "compile_s": (statistics.median(compiles), "s", len(compiles)),
            "train_s": (statistics.median(trains), "s", len(trains)),
            "train_loss": (self.default_loss, "nats", 1),
            "tag_tokens_per_s": (self.tagged_tokens / sum(tag), "tokens/s", len(tag)),
            "tag_p50_ms": (statistics.median(tag) * 1e3, "ms", len(tag)),
            "tag_p90_ms": (_quantile(tag, 0.90) * 1e3, "ms", len(tag)),
            "tag_accuracy": (self.accuracy_hits / max(1, self.accuracy_tokens), "ratio",
                             self.accuracy_tokens),
            "peak_rss_mb": (self.samples["peak_rss_mb"][0], "MiB", 1),
        }

    def input_properties(self) -> dict[str, object]:
        """Measured properties of the inputs this run consumed."""
        words = self.words[: self.used["words"]]
        kinds = {k: sum(1 for *_, kind in words if kind == k) / len(words)
                 for k in ("hit", "near", "ooa", "indecl")} if words else {}
        n = min(self.used["sentences"], len(self.sentences))
        tokens = [t for s in self.sentences[:n] for t in s.tokens]
        unknown = sum(s.unknown for s in self.sentences[:n])
        return {
            "grammar_stems": sum(len(v) for v in self.grammar.roots.values()),
            "words_analyzed": len(words),
            "word_shares": {k: round(v, 4) for k, v in kinds.items()},
            "word_repeat_share": round(1 - len({w for w, *_ in words}) / len(words), 4) if words else 0.0,
            "sentences_tagged": self.used["sentences"],
            "tag_unknown_token_share": round(unknown / len(tokens), 4) if tokens else 0.0,
            "tag_token_repeat_share": round(1 - len(set(tokens)) / len(tokens), 4) if tokens else 0.0,
        }

    # -- the traced run ----------------------------------------------------

    def fixed_pass(self, tracer: Tracer | None) -> tuple[float, dict[str, float]]:
        """A fixed amount of every phase; returns wall time and exact sizes."""

        def request(name: str) -> None:
            if tracer is not None:
                tracer.request = name

        plan = self.plan
        start = time.perf_counter()
        request("compile:0")
        self.compile_once(in_process=True)
        for i in range(SETUP_LOADS):
            request(f"load:{i}")
            self.load_once(record=False)
        request("load:rest")
        self.finish_setup()
        for i in range(plan.traced_words):
            request(f"word:{i}")
            self.analyze_pair(i)
        request("train:0")
        self.train_once(record=False)
        for i in range(plan.traced_sentences):
            request(f"sentence:{i}")
            self.tag_sentence(i)
        request("")
        sizes = {"fst.grammar.states": self.machine.state_count,
                 "fst.grammar.arcs": len(self.machine.arcs),
                 "fst.grammar.bytes": len(self.compiled_blob),
                 "tagger.weights": self.weights}
        return time.perf_counter() - start, sizes

    def _check_analyze_output(self, lines: list[str], words: list[tuple]) -> None:
        want = [w + "\t" + ("\t".join(exp) if exp else "?") for w, exp, _ in words]
        self.check(lines == want, "cli analyze output differs")

    def _check_tag_output(self, lines: list[str], sents: list) -> None:
        ok = len(lines) == len(sents) and all(
            [item.rsplit("/", 1)[0] for item in line.split()] == list(s.tokens)
            and all(item.rsplit("/", 1)[1] in allowed
                    for item, allowed in zip(line.split(), s.allowed))
            for line, s in zip(lines, sents))
        self.check(ok, "cli tag output breaks the candidate rule")

    def cli_runs(self, tracer: Tracer) -> dict[str, float]:
        """One in-process ``cli.main`` per command on this workload's inputs."""
        wd = self.workdir
        words = self.words[: self.plan.traced_words]
        sents = self.sentences[: self.plan.traced_sentences]
        runs = {
            "compile": (["compile", "-r", str(self.rules_path), "-o", str(wd / "cli.fst")], ""),
            "analyze": (["analyze", "-m", str(self.fst_path), "--indecl", str(self.indecl_path),
                         "-"], "".join(w + "\n" for w, *_ in words)),
            "train": (["train", "-c", str(CORPUS), "-o", str(wd / "cli.tag"),
                       "--epochs", str(TRAIN_CONFIG.epochs)], ""),
            "tag": (["tag", "-m", str(self.model_path), "-f", str(self.tag_fst), "-"],
                    "".join(s.text + "\n" for s in sents)),
            "eval": (["eval", "-m", str(self.model_path), "-f", str(self.tag_fst),
                      "-c", str(CORPUS)], ""),
        }
        walls = {}
        for command, (argv, stdin) in runs.items():
            tracer.request = f"cli:{command}"
            out = io.StringIO()
            saved_stdin = sys.stdin
            sys.stdin = io.StringIO(stdin)
            try:
                start = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                walls[f"cli.{command}.wall_s"] = time.perf_counter() - start
            finally:
                sys.stdin = saved_stdin
            self.check(code == 0, f"cli {command} exited {code}")
            lines = out.getvalue().splitlines()
            if command == "compile":
                self.check((wd / "cli.fst").read_bytes() == self.compiled_blob,
                           "cli compile wrote other bytes")
            elif command == "analyze":
                self._check_analyze_output(lines, words)
            elif command == "train":
                self.check((wd / "cli.tag").read_bytes() == self.train_blob,
                           "cli train wrote other bytes")
            elif command == "tag":
                self._check_tag_output(lines, sents)
            else:
                self.check(GOLDEN_EVAL in lines, f"cli eval: {lines}")
        tracer.request = ""
        return walls

    def counts_in_child(self) -> dict[str, int]:
        """The exact counts of the traced pass, taken again in a process
        with another PYTHONHASHSEED, so that an order that hangs on the
        string hash or on this process's state shows up as a difference."""
        child_dir = self.workdir / "counts"
        child_dir.mkdir()
        hash_seed = os.environ.get("PYTHONHASHSEED", "")
        other = str((int(hash_seed) + 1) % 2**32) if hash_seed.isdigit() else "1"
        done = subprocess.run(
            [sys.executable, str(COUNTS_WORKER), self.name, str(self.seed),
             str(child_dir), str(self.workdir)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED=other))
        self.check(done.returncode == 0, f"counts worker exited {done.returncode}: "
                                         f"{done.stderr[-500:]}")
        if done.returncode != 0:
            return {}
        child = json.loads(done.stdout.splitlines()[-1])
        self.attempted += child["attempted"]
        self.failed += child["failed"]
        self.errors.extend(child["errors"][: 10 - len(self.errors)])
        self.check((child_dir / "synth.fst").read_bytes() == self.compiled_blob,
                   "compiled bytes differ in a process with another hash seed")
        return child["counts"]

    def run_traced(self, out_path: Path) -> dict[str, tuple[float, str]]:
        untraced_s, sizes = self.fixed_pass(None)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, sizes1 = self.fixed_pass(tracer)
            metrics = tracer.layer_metrics(
                sum(len(s.tokens) for s in self.sentences[: self.plan.traced_sentences]))
            counts1 = {**tracer.exact_counts(), **sizes1}
            tracer.write(out_path, "pass")
            tracer.reset()
            walls = self.cli_runs(tracer)
            tracer.write(out_path, "cli")
        finally:
            tracer.uninstall()
        counts2 = self.counts_in_child()
        differ = sorted(k for k in counts1.keys() | counts2.keys()
                        if counts1.get(k) != counts2.get(k))
        self.check(not differ, f"exact counts differ in a process with another hash seed: {differ}")
        self.check(sizes == sizes1, "machine or model sizes differ between passes")
        for name, value in sizes1.items():
            metrics[name] = (value, "bytes" if name.endswith("bytes") else "count")
        for name, value in walls.items():
            metrics[name] = (value, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        return metrics
