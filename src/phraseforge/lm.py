"""Backoff n-gram language modeling.

Conventions, used consistently by counting, estimation, queries, and the
ARPA reader/writer:

- Sentences are padded with a single <s> context marker and a terminating
  </s> event. <s> is a context only: it is counted inside higher-order
  n-grams but never as a unigram and never predicted.
- Probabilities are natural-log internally; ARPA files store log10.
- Queries use longest-match backoff: P(w|h) is the stored probability when
  the full n-gram is stored, otherwise alpha(h) * P(w|h[1:]), with
  alpha(h) = 1 for histories that are not stored.
- Estimation produces an exactly normalized model: for any history, the
  probabilities of the whole predicted vocabulary sum to 1 (up to float
  rounding), because each backoff weight is computed as
  leftover mass / lower-order mass of the unseen continuation set.

Two smoothing families are provided. Witten-Bell interpolation uses the
continuation-diversity weight lambda(h) = N1+(h) / (N1+(h) + c(h)); add-k
is the simple additive estimate, with k=0 giving plain MLE (useful for
hand-checked fixtures). In open-vocabulary mode the unigram level reserves
mass for <unk> by interpolating with a uniform base over vocab + <unk>.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .base import BaseEstimator, DataError, ParseError, check_is_fitted
from .corpus import BOS, EOS, UNK

LOG10 = math.log(10.0)
NEG_INF = float("-inf")

# ARPA convention: log10 values at or below this stand for "exactly zero".
_ARPA_ZERO = -98.0

Ngram = tuple[str, ...]

SMOOTHING_METHODS = ("witten-bell", "add-k")


@dataclass
class NGramCounts:
    """Raw n-gram counts for all orders 1..order.

    by_order[k-1] maps a k-token tuple to its count. Unigrams exclude <s>;
    higher orders are windows over the <s>-padded, </s>-terminated sentence.
    """

    order: int
    by_order: list[dict[Ngram, int]]
    sentence_count: int


def count_ngrams(sentences: Iterable[tuple[str, ...]], order: int) -> NGramCounts:
    """Count all n-grams of orders 1..order over padded sentences."""
    if not 1 <= order <= 5:
        raise ValueError(f"order must be in 1..5, got {order}")
    by_order: list[dict[Ngram, int]] = [defaultdict(int) for _ in range(order)]
    n_sent = 0
    for tokens in sentences:
        tokens = tuple(tokens)
        if not tokens:
            raise DataError("cannot count n-grams of an empty sentence")
        n_sent += 1
        for w in tokens:
            by_order[0][(w,)] += 1
        by_order[0][(EOS,)] += 1
        padded = (BOS,) + tokens + (EOS,)
        for k in range(2, order + 1):
            for i in range(len(padded) - k + 1):
                by_order[k - 1][padded[i : i + k]] += 1
    if n_sent == 0:
        raise DataError("no sentences to count")
    return NGramCounts(order, [dict(d) for d in by_order], n_sent)


class NGramLanguageModel(BaseEstimator):
    """Interpolated backoff n-gram model with ARPA serialization.

    Parameters
    ----------
    order : n-gram order, 1..5.
    smoothing : one of SMOOTHING_METHODS, "witten-bell" or "add-k".
    add_k : the k of add-k smoothing, finite and >= 0 (0 = MLE); ignored
        by witten-bell.
    open_vocab : when True, out-of-vocabulary queries map to <unk>, which
        holds real unigram mass. When False the vocabulary is closed and
        unseen words score -inf.
    """

    def __init__(
        self,
        order: int = 3,
        smoothing: str = "witten-bell",
        add_k: float = 0.5,
        open_vocab: bool = True,
    ):
        self.order = order
        self.smoothing = smoothing
        self.add_k = add_k
        self.open_vocab = open_vocab
        # entry: ngram -> [logprob | None, log-backoff | None]
        self.entries_: dict[Ngram, list[float | None]] | None = None
        self.vocab_: frozenset[str] | None = None

    # -- training ---------------------------------------------------------

    def fit(self, sentences: Iterable[tuple[str, ...]]) -> "NGramLanguageModel":
        counts = count_ngrams(sentences, self.order)
        self._estimate(counts)
        return self

    def _interpolated(self, counts: NGramCounts) -> list[dict[Ngram, float]]:
        """Per-order interpolated conditionals P(w|h) for every counted n-gram."""
        if self.smoothing not in SMOOTHING_METHODS:
            raise ValueError(f"unknown smoothing {self.smoothing!r}")
        if self.smoothing == "add-k" and not 0.0 <= self.add_k < math.inf:
            raise ValueError(f"add_k must be finite and >= 0, got {self.add_k}")

        unigrams = counts.by_order[0]
        vocab = sorted(w for (w,) in unigrams)
        predicted = list(vocab)
        if self.open_vocab:
            predicted.append(UNK)
        v_size = len(predicted)
        total = sum(unigrams.values())

        probs: list[dict[Ngram, float]] = [dict() for _ in range(counts.order)]
        if self.smoothing == "witten-bell":
            diversity = len(unigrams)
            denom = total + diversity
            base = 1.0 / v_size
            for w in predicted:
                c = unigrams.get((w,), 0)
                probs[0][(w,)] = (c + diversity * base) / denom
        else:
            k = self.add_k
            denom = total + k * v_size
            for w in predicted:
                c = unigrams.get((w,), 0)
                p = (c + k) / denom
                if p > 0.0:
                    probs[0][(w,)] = p

        for k_order in range(2, counts.order + 1):
            grams = counts.by_order[k_order - 1]
            ctx_total: dict[Ngram, int] = defaultdict(int)
            ctx_distinct: dict[Ngram, int] = defaultdict(int)
            for g, c in grams.items():
                ctx_total[g[:-1]] += c
                ctx_distinct[g[:-1]] += 1
            lower = probs[k_order - 2]
            here = probs[k_order - 1]
            for g, c in grams.items():
                h = g[:-1]
                if self.smoothing == "witten-bell":
                    n1p = ctx_distinct[h]
                    p_low = lower[g[1:]]
                    here[g] = (c + n1p * p_low) / (ctx_total[h] + n1p)
                else:
                    here[g] = (c + self.add_k) / (ctx_total[h] + self.add_k * v_size)
        return probs

    def _estimate(self, counts: NGramCounts) -> None:
        probs = self._interpolated(counts)
        entries: dict[Ngram, list[float | None]] = {}
        for order_probs in probs:
            for g, p in order_probs.items():
                entries[g] = [math.log(p), None]

        # Backoff weights: for each history h of stored continuations,
        # alpha(h) = (1 - sum stored P(w|h)) / (1 - sum stored P(w|h[1:]))
        # over the seen continuation set, which normalizes queries exactly.
        for k_order in range(2, counts.order + 1):
            followers: dict[Ngram, list[str]] = defaultdict(list)
            for g in probs[k_order - 1]:
                followers[g[:-1]].append(g[-1])
            for h, words in followers.items():
                seen = math.fsum(probs[k_order - 1][h + (w,)] for w in words)
                lower = math.fsum(probs[k_order - 2][h[1:] + (w,)] for w in words)
                leftover = 1.0 - seen
                lower_leftover = 1.0 - lower
                if leftover < 1e-12 or lower_leftover < 1e-12:
                    alpha_log = NEG_INF
                else:
                    alpha_log = math.log(leftover) - math.log(lower_leftover)
                entry = entries.get(h)
                if entry is None:
                    # <s>-initial contexts are not unigram events; store a
                    # probability-free entry so the backoff weight has a home.
                    entry = entries[h] = [None, None]
                entry[1] = alpha_log

        self.entries_ = entries
        self.vocab_ = frozenset(w for (w,) in probs[0])
        self._max_logprob = _query_bound(self.order, entries)

    # -- queries ----------------------------------------------------------

    def logprob(self, word: str, context: tuple[str, ...] = ()) -> float:
        """Natural-log P(word | context), truncating long contexts."""
        if self.vocab_ is None:  # one test per query on the decoder's hot path
            check_is_fitted(self, "entries_", "vocab_")
        if self.order > 1:
            context = tuple(context)[-(self.order - 1) :]
        else:
            context = ()
        if word not in self.vocab_:
            if UNK in self.vocab_:
                word = UNK
            else:
                return NEG_INF
        return self._backoff_query(word, context)

    def _backoff_query(self, word: str, context: Ngram) -> float:
        entry = self.entries_.get(context + (word,))
        if entry is not None and entry[0] is not None:
            return entry[0]
        if not context:
            return NEG_INF
        hist = self.entries_.get(context)
        alpha = hist[1] if hist is not None and hist[1] is not None else 0.0
        return alpha + self._backoff_query(word, context[1:])

    @property
    def max_logprob(self) -> float:
        """No logprob() query of the fitted model exceeds this (see
        _query_bound)."""
        check_is_fitted(self, "entries_")
        return self._max_logprob

    @property
    def start_state(self) -> Ngram:
        """The LM state before a sentence's first word: (<s>,), or () for
        order 1, which keeps no history."""
        return (BOS,) if self.order > 1 else ()

    def extend(self, state: Ngram, words: Iterable[str]) -> tuple[float, Ngram]:
        """(natural-log probability sum, next state) of words following
        the LM state `state`: one logprob query per word, summed left to
        right. A state holds the last order - 1 words, <s> included."""
        total = 0.0
        keep = self.order - 1
        for w in words:
            total += self.logprob(w, state)
            if keep:  # order 1 keeps the empty state; [-0:] would keep all
                state = (state + (w,))[-keep:]
        return total, state

    def sentence_logprob(self, tokens: Iterable[str]) -> float:
        """Natural-log probability of a sentence including the </s> event."""
        return self.extend(self.start_state, (*tokens, EOS))[0]

    def perplexity(self, sentences: Iterable[tuple[str, ...]]) -> float:
        """exp of the negative mean token log-likelihood, </s> included."""
        total = 0.0
        tokens = 0
        for sent in sentences:
            sent = tuple(sent)
            total += self.sentence_logprob(sent)
            tokens += len(sent) + 1
        if tokens == 0:
            raise DataError("perplexity of an empty corpus is undefined")
        return math.exp(-total / tokens)

    # -- serialization ----------------------------------------------------

    def write_arpa(self, path: str) -> None:
        """Write the model in ARPA format (log10, %.12g, sorted entries)."""
        check_is_fitted(self, "entries_")
        by_order: list[list[Ngram]] = [[] for _ in range(self.order)]
        for g in self.entries_:
            by_order[len(g) - 1].append(g)
        for grams in by_order:
            grams.sort()

        def log10_str(value: float | None) -> str:
            if value is None or value == NEG_INF:
                return "-99"
            return f"{value / LOG10:.12g}"

        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\\data\\\n")
            for k in range(1, self.order + 1):
                fh.write(f"ngram {k}={len(by_order[k - 1])}\n")
            for k in range(1, self.order + 1):
                fh.write(f"\n\\{k}-grams:\n")
                for g in by_order[k - 1]:
                    logp, backoff = self.entries_[g]
                    line = f"{log10_str(logp)}\t{' '.join(g)}"
                    if backoff is not None:
                        line += f"\t{log10_str(backoff)}"
                    fh.write(line + "\n")
            fh.write("\n\\end\\\n")

    @classmethod
    def _from_entries(
        cls, order: int, entries: dict[Ngram, list[float | None]]
    ) -> "NGramLanguageModel":
        vocab = frozenset(g[0] for g in entries if len(g) == 1 and entries[g][0] is not None)
        model = cls(order=order, open_vocab=UNK in vocab)
        model.entries_ = entries
        model.vocab_ = vocab
        model._max_logprob = _query_bound(order, entries)
        return model


def _query_bound(order: int, entries: dict[Ngram, list[float | None]]) -> float:
    """An upper bound on every query of a model of this order over these
    entries: the largest stored log-probability plus order - 1 times the
    largest positive backoff weight (0 if there is none).

    A query adds at most order - 1 backoff weights (or 0.0 for a history
    with none) to one stored log-probability, as alpha + (rest). The bound
    adds its backoff term one at a time in that same association, and
    float addition is monotone, so no query rounds above it.
    """
    bound = max((e[0] for e in entries.values() if e[0] is not None), default=NEG_INF)
    backoff = max(
        (e[1] for e in entries.values() if e[1] is not None and e[1] > 0.0), default=0.0
    )
    for _ in range(order - 1):
        bound = backoff + bound
    return bound


def read_arpa(path: str) -> NGramLanguageModel:
    """Parse an ARPA file into a query-ready model.

    Raises ParseError (with the offending line number) on malformed headers,
    section count mismatches, or a missing \\end\\ marker.
    """
    declared: dict[int, int] = {}
    entries: dict[Ngram, list[float | None]] = {}
    section: int | None = None
    section_seen = 0
    saw_data = False
    saw_end = False

    def close_section(lineno: int) -> None:
        if section is not None and section_seen != declared.get(section, -1):
            raise ParseError(
                f"\\{section}-grams: section has {section_seen} entries, "
                f"header declared {declared.get(section)}",
                path=path,
                line=lineno,
            )

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line == "\\data\\":
                saw_data = True
                continue
            if line == "\\end\\":
                close_section(lineno)
                saw_end = True
                section = None
                continue
            if saw_end:
                raise ParseError("content after \\end\\", path=path, line=lineno)
            if line.startswith("ngram "):
                try:
                    k_str, n_str = line[len("ngram ") :].split("=")
                    declared[int(k_str)] = int(n_str)
                except ValueError:
                    raise ParseError(f"malformed count header {line!r}", path=path, line=lineno)
                continue
            if line.startswith("\\") and line.endswith("-grams:"):
                close_section(lineno)
                try:
                    k = int(line[1 : -len("-grams:")])
                except ValueError:
                    raise ParseError(f"malformed section header {line!r}", path=path, line=lineno)
                if k not in declared:
                    raise ParseError(f"section \\{k}-grams: not declared in \\data\\",
                                     path=path, line=lineno)
                section = k
                section_seen = 0
                continue
            if section is None:
                if not saw_data:
                    raise ParseError("expected \\data\\ header", path=path, line=lineno)
                raise ParseError(f"unexpected line {line!r}", path=path, line=lineno)
            fields = line.split("\t")
            if len(fields) == 1:
                fields = line.split()
                if len(fields) < section + 1:
                    raise ParseError(f"malformed entry {line!r}", path=path, line=lineno)
                fields = [fields[0], " ".join(fields[1 : section + 1])] + fields[section + 1 :]
            if len(fields) not in (2, 3):
                raise ParseError(f"malformed entry {line!r}", path=path, line=lineno)
            try:
                log10p = float(fields[0])
            except ValueError:
                raise ParseError(f"bad probability {fields[0]!r}", path=path, line=lineno)
            gram = tuple(fields[1].split())
            if len(gram) != section:
                raise ParseError(
                    f"entry has {len(gram)} tokens in \\{section}-grams: section",
                    path=path,
                    line=lineno,
                )
            logp = None if log10p <= _ARPA_ZERO else log10p * LOG10
            backoff: float | None = None
            if len(fields) == 3:
                try:
                    log10b = float(fields[2])
                except ValueError:
                    raise ParseError(f"bad backoff {fields[2]!r}", path=path, line=lineno)
                backoff = NEG_INF if log10b <= _ARPA_ZERO else log10b * LOG10
            entries[gram] = [logp, backoff]
            section_seen += 1

    if not saw_data:
        raise ParseError("missing \\data\\ header", path=path)
    if not saw_end:
        raise ParseError("missing \\end\\ marker", path=path)
    if not declared:
        raise ParseError("no n-gram counts declared", path=path)
    order = max(declared)
    for k in range(1, order + 1):
        if k not in declared:
            raise ParseError(f"missing ngram {k} count in \\data\\", path=path)
    for k, n in declared.items():
        actual = sum(1 for g in entries if len(g) == k)
        if actual != n:
            raise ParseError(
                f"\\data\\ declares {n} {k}-grams but file contains {actual}", path=path
            )
    return NGramLanguageModel._from_entries(order, entries)
