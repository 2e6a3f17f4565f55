"""Timing spans around the public functions of the hindimorph modules.

:class:`Tracer` replaces module attributes with wrappers, so calls made
through the module namespace are seen too, including a module's calls
to its own globals (``minimize`` → ``determinize``).  A span is
(name, start, end, parent, request, error); spans stay in memory until
the benchmark writes them out once at the end.  Nothing is installed
unless the benchmark runs traced.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
import unicodedata
from collections import Counter
from pathlib import Path

from hindimorph import cli, fst, lexicon, morph, rules, tagger

from sentences import PUNCT_CHARS

MODULES = {"fst": fst, "rules": rules, "lexicon": lexicon, "morph": morph,
           "tagger": tagger, "cli": cli}
ALGEBRA = ("fst.union", "fst.concat", "fst.closure")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request = ""
        self.counts: Counter = Counter()
        self.minimize_states = [0, 0]  # states in, states out
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.stack, self.request = [], [], ""
        self.counts = Counter()
        self.minimize_states = [0, 0]

    def install(self) -> None:
        posts = {"fst.minimize": self._post_minimize,
                 "morph.analyze": self._post_analyze,
                 "tagger.candidate_tags": self._post_candidates}
        for short, module in MODULES.items():
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    span = f"{short}.{name}"
                    self._patch(module, name, self._wrap(span, obj, posts.get(span)))
        load = morph.MorphModel.__dict__["load"]
        self._patch(morph.MorphModel, "load",
                    classmethod(self._wrap("morph.MorphModel.load", load.__func__)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrap(self, name: str, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.request, error)
            if post is not None:
                post(idx, args, result)
            return result

        return wrapper

    def _post_minimize(self, idx, args, result) -> None:
        self.minimize_states[0] += args[0].state_count
        self.minimize_states[1] += result.state_count

    def _post_analyze(self, idx, args, result) -> None:
        model, surface = args
        if unicodedata.normalize("NFC", surface) in model.indeclinables:
            outcome = "indecl_hit"
        elif result:
            outcome = "grammar_hit"
        elif any(s[0] == "fst.apply" and s[3] == idx and s[5] == "UnknownSymbol"
                 for s in self.spans[idx + 1:]):
            outcome = "unknown_symbol"
        else:
            outcome = "rejected"
        self.counts[f"morph.analyze.{outcome}"] += 1

    def _post_candidates(self, idx, args, result) -> None:
        model, _, word = args
        word = unicodedata.normalize("NFC", word)
        if word and all(ch in PUNCT_CHARS for ch in word):
            source = "punct"
        elif word in model.dictionary:
            source = "dictionary"
        elif result == model.tagset:
            source = "open"
        else:
            source = "morph"
        self.counts[f"tagger.candidate_tags.{source}"] += 1

    def exact_counts(self) -> dict[str, int]:
        """Every call count and outcome count: equal work must repeat them exactly."""
        counts = Counter(span[0] + ".calls" for span in self.spans)
        counts.update(self.counts)
        counts["fst.minimize.states_in"] = self.minimize_states[0]
        counts["fst.minimize.states_out"] = self.minimize_states[1]
        return dict(sorted(counts.items()))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration less the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def durations(self, name: str, request: str) -> list[float]:
        """Durations of the spans `name` made for requests starting with `request`."""
        return [end - start for n, start, end, _, req, _ in self.spans
                if n == name and req.startswith(request)]

    def layer_metrics(self, tokens_tagged: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of one traced pass, by name: (value, unit)."""
        counts = self.exact_counts()
        selfs = self.self_times()
        out: dict[str, tuple[float, str]] = {}

        def calls(name):
            out[f"{name}.calls"] = (counts.get(f"{name}.calls", 0), "count")

        def self_s(name):
            out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")

        for name in ("fst.apply", "fst.scan", "fst.remove_epsilons", "fst.determinize",
                     "fst.minimize", "fst.build", "lexicon.compile_root_fst",
                     "morph.analyze", "tagger.objective", "tagger.gradient"):
            calls(name)
            self_s(name)
        for name in ("fst.compose", "fst.to_bytes", "fst.from_bytes", "fst.invert",
                     "rules.parse_rules_file", "rules.compile", "lexicon.read_lexicon_file",
                     "morph.MorphModel.load", "morph.generate", "tagger.train", "tagger.tag",
                     "tagger.candidate_tags", "tagger.model_from_bytes"):
            self_s(name)
        # One median per machine: word and form requests run the synthetic
        # grammar, sentence requests fall back on the demo machine.
        for key, request in (("fst.apply.p50_us", "word:"), ("fst.apply.tag_p50_us", "sentence:")):
            applies = self.durations("fst.apply", request)
            out[key] = (statistics.median(applies) * 1e6 if applies else 0.0, "us")
        out["fst.algebra.self_s"] = (sum(selfs.get(n, 0.0) for n in ALGEBRA), "s")
        states_in, states_out = self.minimize_states
        out["fst.minimize.state_ratio"] = (states_out / states_in if states_in else 0.0, "ratio")
        outcomes = ("indecl_hit", "grammar_hit", "rejected", "unknown_symbol")
        for outcome in outcomes:
            key = f"morph.analyze.{outcome}"
            out[key] = (counts.get(key, 0), "count")
        analyzed = counts.get("morph.analyze.calls", 0)
        hits = counts.get("morph.analyze.indecl_hit", 0) + counts.get("morph.analyze.grammar_hit", 0)
        out["morph.analyze.hit_ratio"] = (hits / analyzed if analyzed else 0.0, "ratio")
        for source in ("punct", "dictionary", "morph", "open"):
            key = f"tagger.candidate_tags.{source}"
            out[key] = (counts.get(key, 0), "count")
        decode_features = sum(1 for span in self.spans
                              if span[0] == "tagger.extract_features"
                              and span[4].startswith("sentence:"))
        out["tagger.extract_features.per_token"] = (
            decode_features / tokens_tagged if tokens_tagged else 0.0, "calls/token")
        return out

    def write(self, path: Path, label: str) -> None:
        """Append this tracer's spans to a tab-separated file."""
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, request, error in self.spans:
                fh.write(f"{label}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                         f"{request}\t{error or ''}\n")
