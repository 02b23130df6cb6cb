"""In-memory spans around the calls into each layer of the pipeline.

The wrappers sit at the names the pipeline calls through: module
attributes of phraseforge.cli, .translator, .decoder, .tuning and
.metrics, and the instance attributes of the objects those names create
(a loaded model's lm_.logprob and decoder_.decode/nbest). Nothing inside
the package is edited.

A span is [name, parent, start, end, counts, leaves]. Calls made once
per query or per sentence pair (LM lookups, Viterbi alignment,
symmetrization, BLEU statistics) run millions or thousands of times a
pass, so they are not stored one by one: each is folded into the
enclosing span's `leaves` as {name: [calls, seconds, count]}. A layer's
self time is its span's duration minus its child spans and leaves.

Probe(trace=False) installs only what the output checks need: it keeps
the last fitted translator and its two aligners, and the n-best lists
tuning asks for, and records no time.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

clock = time.perf_counter


class Probe:
    """The wrappers of one run, the spans they record when tracing, and
    the objects the output checks read."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.translators: list = []
        self.aligners: list = []
        self.nbest_calls: list[tuple] = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span around a block; yields its counts dict (no-op untraced)."""
        if not self.trace:
            yield {}
            return
        index = self._begin(name)
        try:
            yield self.spans[index][4]
        finally:
            self._end(index)

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, clock(), None, {}, {}])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, index: int) -> None:
        self.spans[index][3] = clock()
        self._open.pop()

    def timed(self, fn, name: str, count=None):
        """fn wrapped in a span; count(result), a number or a dict of
        numbers, goes into the span's counts after the span ends."""
        def wrapper(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if count is not None:
                counted = count(result)
                self.spans[index][4].update(
                    counted if isinstance(counted, dict) else {"n": counted})
            return result
        return wrapper

    def leaf(self, fn, name: str, count=None):
        """fn folded into the enclosing span as calls, seconds and count."""
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            if not self._open:
                return result
            leaves = self.spans[self._open[-1]][5]
            slot = leaves.get(name)
            if slot is None:
                slot = leaves[name] = [0, 0.0, 0]
            slot[0] += 1
            slot[1] += elapsed
            if count is not None:
                slot[2] += count(result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the module attributes the pipeline calls through."""
        from phraseforge import cli, decoder, metrics, translator, tuning

        probe = self
        translator_cls = cli.PhraseBasedTranslator

        def make_translator(*args, **kwargs):
            model = translator_cls(*args, **kwargs)
            probe.translators[:] = [model]
            if probe.trace:
                model.fit = probe.timed(model.fit, "translator.fit")
                model.save = probe.timed(model.save, "translator.save")
            return model

        make_translator.load = translator_cls.load
        self._patch(cli, "PhraseBasedTranslator", make_translator)

        aligner_cls = translator.IBM1Aligner

        def make_aligner(*args, **kwargs):
            aligner = aligner_cls(*args, **kwargs)
            probe.aligners[:] = probe.aligners[-1:] + [aligner]
            if probe.trace:
                aligner.fit = probe.timed(
                    aligner.fit, "align.em",
                    count=lambda a: {"n": sum(len(r) for r in a.ttable_.rows().values()),
                                     "iterations": a.iterations},
                )
            return aligner

        self._patch(translator, "IBM1Aligner", make_aligner)
        if not self.trace:
            return

        self._patch(cli, "cmd_prepare", self.timed(cli.cmd_prepare, "corpus.prepare"))
        self._patch(cli, "cmd_train", self.timed(cli.cmd_train, "cli.train"))

        lm_cls = translator.NGramLanguageModel

        def make_lm(*args, **kwargs):
            lm = lm_cls(*args, **kwargs)
            lm.fit = probe.timed(lm.fit, "lm.fit")
            lm.write_arpa = probe.timed(lm.write_arpa, "lm.arpa_write")
            return lm

        self._patch(translator, "NGramLanguageModel", make_lm)
        self._patch(translator, "viterbi_align", self.leaf(translator.viterbi_align, "align.viterbi"))
        self._patch(translator, "symmetrize", self.leaf(
            translator.symmetrize, "align.symmetrize", count=lambda a: len(a.links)))
        self._patch(translator, "extract_corpus", self.timed(
            translator.extract_corpus, "phrases.extract", count=len))

        score_phrases = translator.score_phrases

        def scored(*args, **kwargs):
            table = score_phrases(*args, **kwargs)
            table.write = probe.timed(table.write, "phrases.table_write")
            return table

        self._patch(translator, "score_phrases", self.timed(scored, "phrases.score", count=len))
        self._patch(translator, "train_reordering", self.timed(
            translator.train_reordering, "phrases.reordering"))
        self._patch(translator, "read_arpa", self.timed(translator.read_arpa, "lm.arpa_read"))
        table_cls = translator.PhraseTable

        class PhraseTableReader:
            read = staticmethod(self.timed(table_cls.read, "phrases.table_read"))

        self._patch(translator, "PhraseTable", PhraseTableReader)
        self._patch(decoder, "build_options", self.timed(
            decoder.build_options, "decoder.build_options", count=len))
        self._patch(tuning, "optimize_weights", self.timed(tuning.optimize_weights, "tuning.optimize"))
        self._patch(tuning, "sentence_stats", self.leaf(tuning.sentence_stats, "metrics.sentence_stats"))
        self._patch(metrics, "sentence_stats", self.leaf(metrics.sentence_stats, "metrics.sentence_stats"))

    def attach(self, model) -> None:
        """Wrap a loaded model's LM queries and decoder entry points."""
        nbest = model.decoder_.nbest

        def keep_nbest(tokens, n):
            results = nbest(tokens, n)
            self.nbest_calls.append(
                (tuple(tokens), model.decoder_.weights.as_vector(), results))
            return results

        if not self.trace:
            model.decoder_.nbest = keep_nbest
            return
        model.lm_.logprob = self.leaf(model.lm_.logprob, "lm.query")
        model.decoder_.decode = self.timed(model.decoder_.decode, "decoder.decode")
        model.decoder_.nbest = self.timed(keep_nbest, "decoder.nbest", count=len)

    def write(self, path: str) -> None:
        fields = ("name", "parent", "start", "end", "counts", "leaves")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, span)) for span in self.spans], fh)
            fh.write("\n")


# -- per-layer metrics ------------------------------------------------------

# name -> unit. Times are seconds per pass; see layer_metrics().
LAYER_UNITS = {
    "corpus.prepare_s": "s",
    "lm.fit_s": "s",
    "lm.arpa_write_s": "s",
    "lm.arpa_read_s": "s",
    "lm.queries": "count",
    "lm.query_s": "s",
    "align.em_s_per_iteration": "s",
    "align.viterbi_s": "s",
    "align.symmetrize_s": "s",
    "align.ttable_entries": "count",
    "align.links": "count",
    "phrases.extract_s": "s",
    "phrases.occurrences": "count",
    "phrases.occurrences_per_s": "1/s",
    "phrases.score_s": "s",
    "phrases.reordering_s": "s",
    "phrases.table_write_s": "s",
    "phrases.table_read_s": "s",
    "phrases.table_entries": "count",
    "decoder.build_options_s": "s",
    "decoder.options_per_sentence": "count",
    "decoder.search_self_s": "s",
    "decoder.nbest_entries": "count",
    "tuning.decode_s": "s",
    "tuning.optimize_s": "s",
    "tuning.pool_entries": "count",
    "tuning.iterations": "count",
    "metrics.sentence_stats_s": "s",
    "translator.save_s": "s",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from the spans of one run.

    Each top-level span is a pass: one set-up, one set of model loads,
    or one round of the workload. A metric is computed per pass from the spans and leaves
    inside it, and the median is taken over the passes where the layer
    ran; a layer that never ran in this workload reads 0.
    """
    children: dict[int | None, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[1], []).append(index)

    def duration(index: int) -> float:
        return spans[index][3] - spans[index][2]

    def self_time(index: int) -> float:
        inner = sum(duration(c) for c in children.get(index, ()))
        inner += sum(slot[1] for slot in spans[index][5].values())
        return duration(index) - inner

    per_pass: dict[str, list[float]] = {name: [] for name in LAYER_UNITS}
    for root in children.get(None, ()):
        members = []
        stack = [root]
        while stack:
            index = stack.pop()
            members.append(index)
            stack.extend(children.get(index, ()))

        sums: dict[str, float] = {}
        calls: dict[str, float] = {}
        leaf_calls: dict[str, float] = {}
        leaf_time: dict[str, float] = {}
        leaf_count: dict[str, float] = {}
        search_self = 0.0
        for index in members:
            name, counts = spans[index][0], spans[index][4]
            sums[name] = sums.get(name, 0.0) + duration(index)
            calls[name] = calls.get(name, 0) + 1
            if "n" in counts:
                sums[name + "#n"] = sums.get(name + "#n", 0) + counts["n"]
            for key, value in counts.items():
                if key != "n":
                    sums[name + "#" + key] = value
            for leaf, (n, seconds, count) in spans[index][5].items():
                leaf_calls[leaf] = leaf_calls.get(leaf, 0) + n
                leaf_time[leaf] = leaf_time.get(leaf, 0.0) + seconds
                leaf_count[leaf] = leaf_count.get(leaf, 0) + count
            if name in ("decoder.decode", "decoder.nbest"):
                search_self += self_time(index)

        def put(metric: str, value: float, ran: bool) -> None:
            if ran:
                per_pass[metric].append(value)

        simple = {
            "corpus.prepare_s": "corpus.prepare",
            "lm.fit_s": "lm.fit",
            "lm.arpa_write_s": "lm.arpa_write",
            "lm.arpa_read_s": "lm.arpa_read",
            "phrases.extract_s": "phrases.extract",
            "phrases.score_s": "phrases.score",
            "phrases.reordering_s": "phrases.reordering",
            "phrases.table_write_s": "phrases.table_write",
            "phrases.table_read_s": "phrases.table_read",
            "decoder.build_options_s": "decoder.build_options",
            "tuning.optimize_s": "tuning.optimize",
            "translator.save_s": "translator.save",
        }
        for metric, name in simple.items():
            put(metric, sums.get(name, 0.0), name in sums)
        put("lm.queries", leaf_calls.get("lm.query", 0), "lm.query" in leaf_calls)
        put("lm.query_s", leaf_time.get("lm.query", 0.0), "lm.query" in leaf_calls)
        if "align.em" in sums:
            put("align.em_s_per_iteration", sums["align.em"] / sums["align.em#iterations"], True)
            put("align.ttable_entries", sums["align.em#n"], True)
        for metric, leaf in (("align.viterbi_s", "align.viterbi"),
                             ("align.symmetrize_s", "align.symmetrize"),
                             ("metrics.sentence_stats_s", "metrics.sentence_stats")):
            put(metric, leaf_time.get(leaf, 0.0), leaf in leaf_calls)
        put("align.links", leaf_count.get("align.symmetrize", 0), "align.symmetrize" in leaf_calls)
        if "phrases.extract" in sums:
            occurrences = sums["phrases.extract#n"]
            put("phrases.occurrences", occurrences, True)
            put("phrases.occurrences_per_s", occurrences / sums["phrases.extract"], True)
        put("phrases.table_entries", sums.get("phrases.score#n", 0), "phrases.score" in sums)
        if "decoder.build_options" in sums:
            put("decoder.options_per_sentence",
                sums["decoder.build_options#n"] / calls["decoder.build_options"], True)
        ran_search = "decoder.decode" in sums or "decoder.nbest" in sums
        put("decoder.search_self_s", search_self, ran_search)
        put("decoder.nbest_entries", sums.get("decoder.nbest#n", 0), "decoder.nbest" in sums)
        # n-best lists are asked for by MertTuner.fit alone
        put("tuning.decode_s", sums.get("decoder.nbest", 0.0), "tuning.fit" in sums)
        put("tuning.pool_entries", sums.get("tuning.fit#pool", 0), "tuning.fit" in sums)
        put("tuning.iterations", sums.get("tuning.fit#iterations", 0), "tuning.fit" in sums)

    return {
        name: (statistics.median(values) if values else 0.0)
        for name, values in per_pass.items()
    }
