"""Log-linear phrase-based beam decoding over coverage stacks.

The model score of a derivation is the dot product of FeatureWeights with
a fixed 9-feature vector, in this order everywhere (weights, n-best
output, per-derivation feature totals):

  lm             natural-log language model probability of the full target,
                 <s>-conditioned and including the </s> event
  phrase_st      sum of ln phi(source phrase | target phrase)
  lex_st         sum of ln lex(source|target)
  phrase_ts      sum of ln phi(target|source)
  lex_ts         sum of ln lex(target|source)
  reordering     sum of orientation log-probabilities: each phrase-to-phrase
                 transition is scored by the incoming phrase's forward
                 distribution and the outgoing phrase's backward
                 distribution; the first phrase is monotone iff it starts
                 the sentence, the last is (backward) monotone iff it ends it
  word_penalty   number of target words emitted
  phrase_penalty number of phrases used
  distortion     sum over phrases of -|start - previous_end|, with spans
                 half-open, so a monotone step costs 0

Unknown source words get a synthetic copy-through option whose four
translation probabilities are e^-10; since every complete derivation must
cover an unknown word with that same option, the penalty cancels out of
comparisons and weight scaling still preserves the argmax.

Search keeps one stack per number of covered source words. Hypotheses
recombine on (coverage, LM state, end position); when a reordering table
is active the key also carries the last phrase's span and backward
distribution, which the next transition's score depends on. Recombined
losers stay in the lattice as extra arcs, which is what nbest() walks.

Lattice arcs carry their weighted score only. The feature totals of a
returned derivation come from BeamDecoder.score_derivation(), which
replays the derivation's options through the same LM, translation,
reordering, penalty and distortion terms; a step's LM and reordering
terms come from _step, the one function the search scores arcs with.
The replay sums the terms in the order the options were applied, so
decode() and the first nbest() entry agree bitwise. An arc's score is
math.fsum over the nine weighted terms, which is exactly rounded and so
equals FeatureWeights.dot of its features.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple, Sequence

from .base import check_sentence
from .corpus import EOS
from .lm import NGramLanguageModel
from .phrases import DISC, MONO, SWAP, PhraseTable, ReorderingTable

OOV_LOGPROB = -10.0
_UNIFORM_REO = (math.log(1.0 / 3.0),) * 3
NEG_INF = float("-inf")


class DecodeError(RuntimeError):
    """No complete derivation survived the search."""


@dataclass
class FeatureWeights:
    """Log-linear weights, one per feature; the field order is the
    canonical feature order (FEATURE_NAMES)."""

    lm: float = 0.5
    phrase_st: float = 0.2
    lex_st: float = 0.2
    phrase_ts: float = 0.2
    lex_ts: float = 0.2
    reordering: float = 0.3
    word_penalty: float = -1.0
    phrase_penalty: float = 0.2
    distortion: float = 0.2

    def as_vector(self) -> tuple[float, ...]:
        return _weights_in_order(self)

    @classmethod
    def from_vector(cls, vector: Iterable[float]) -> "FeatureWeights":
        values = tuple(float(v) for v in vector)
        if len(values) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} weights, got {len(values)}")
        return cls(*values)

    def dot(self, features: Iterable[float]) -> float:
        return math.fsum(w * f for w, f in zip(self.as_vector(), features, strict=True))


FEATURE_NAMES = tuple(f.name for f in fields(FeatureWeights))
N_FEATURES = len(FEATURE_NAMES)
_weights_in_order = operator.attrgetter(*FEATURE_NAMES)


class TranslationOption(NamedTuple):
    """One way to translate the half-open source span [start, end)."""

    start: int
    end: int
    src: tuple[str, ...]
    tgt: tuple[str, ...]
    tm_logs: tuple[float, float, float, float]
    fwd_reo: tuple[float, float, float] | None
    bwd_reo: tuple[float, float, float] | None
    oov: bool = False

    @property
    def mask(self) -> int:
        return ((1 << (self.end - self.start)) - 1) << self.start


@dataclass
class DecodeResult:
    """A complete derivation: target tokens, score, raw feature totals,
    and the applied phrases as (start, end, target tokens) steps."""

    tokens: tuple[str, ...]
    score: float
    features: tuple[float, ...]
    derivation: tuple[tuple[int, int, tuple[str, ...]], ...]


def build_options(
    tokens: tuple[str, ...],
    phrase_table: PhraseTable,
    reordering_table: ReorderingTable | None = None,
    options_per_span: int | None = 20,
) -> list[TranslationOption]:
    """Translation options for every source span, plus OOV copy-through.

    Spans with table entries get up to options_per_span options, best
    translation score first; any single word with no single-word entry
    gets a copy-through option so full coverage is always possible. Every
    span is looked up: one longer than any source phrase simply misses.
    """
    n = len(tokens)
    reo_active = reordering_table is not None
    options = []
    for start in range(n):
        for end in range(start + 1, n + 1):
            src = tokens[start:end]
            matches = phrase_table.lookup(src)
            if not matches:
                continue
            ranked = sorted(
                matches.items(),
                key=lambda kv: (-math.fsum(_safe_log(p) for p in kv[1]), kv[0]),
            )
            if options_per_span is not None:
                ranked = ranked[:options_per_span]
            for tgt, scores in ranked:
                fwd = bwd = None
                if reo_active:
                    entry = reordering_table.lookup(src, tgt)
                    if entry is None:
                        fwd = bwd = _UNIFORM_REO
                    else:
                        fwd = tuple(_safe_log(p) for p in entry.forward)
                        bwd = tuple(_safe_log(p) for p in entry.backward)
                options.append(
                    TranslationOption(
                        start,
                        end,
                        src,
                        tgt,
                        tuple(_safe_log(p) for p in scores),
                        fwd,
                        bwd,
                    )
                )
    for i, word in enumerate(tokens):
        if not phrase_table.lookup((word,)):
            reo = _UNIFORM_REO if reo_active else None
            options.append(
                TranslationOption(
                    i, i + 1, (word,), (word,), (OOV_LOGPROB,) * 4, reo, reo, oov=True
                )
            )
    options.sort(key=lambda o: (o.start, o.end, o.tgt))
    return options


def _safe_log(p: float) -> float:
    return math.log(p) if p > 0.0 else NEG_INF


def future_cost_table(
    options: Iterable[TranslationOption],
    n: int,
    weights: FeatureWeights,
    lm: NGramLanguageModel,
) -> dict[tuple[int, int], float]:
    """Estimated weighted score per source span, by dynamic programming.

    A span's estimate is the better of its best single option (translation
    features, context-free LM estimate of its target words, word and phrase
    penalties; reordering and distortion excluded) and the best split into
    two sub-spans. Every span is reachable because unknown words carry
    copy-through options. It is an estimate, not a bound: the unigram LM
    term can score a word lower than its in-context probability.
    """
    span_best: dict[tuple[int, int], float] = {}
    for opt in options:
        lm_est = math.fsum(lm.logprob(w, ()) for w in opt.tgt)
        features = (lm_est, *opt.tm_logs, 0.0, float(len(opt.tgt)), 1.0, 0.0)
        score = weights.dot(features)
        key = (opt.start, opt.end)
        if score > span_best.get(key, NEG_INF):
            span_best[key] = score
    table: dict[tuple[int, int], float] = {}
    for length in range(1, n + 1):
        for i in range(0, n - length + 1):
            j = i + length
            best = span_best.get((i, j), NEG_INF)
            for k in range(i + 1, j):
                split = table[(i, k)] + table[(k, j)]
                if split > best:
                    best = split
            table[(i, j)] = best
    return table


class _Arc(NamedTuple):
    pred: "_Node"
    option: TranslationOption | None  # None marks the completion transition
    score: float


class _Node:
    __slots__ = (
        "coverage",
        "lm_state",
        "span",
        "bwd_reo",
        "score",
        "target",
        "future",
        "arcs",
        "best_arc",
    )

    def __init__(self, coverage, lm_state, span, bwd_reo, future):
        self.coverage = coverage
        self.lm_state = lm_state
        self.span = span
        self.bwd_reo = bwd_reo
        self.future = future
        self.score = NEG_INF
        self.target: tuple[str, ...] | None = None
        self.arcs: list[_Arc] = []
        self.best_arc: _Arc | None = None

    def offer(self, arc: _Arc) -> None:
        self.arcs.append(arc)
        candidate = arc.pred.score + arc.score
        if self.best_arc is None or candidate > self.score:
            self.score = candidate
            self.best_arc = arc
            self.target = arc.pred.target + (arc.option.tgt if arc.option else ())
        elif candidate == self.score:
            target = arc.pred.target + (arc.option.tgt if arc.option else ())
            if target < self.target:
                self.best_arc = arc
                self.target = target


def _steps(options: Sequence[TranslationOption]) -> tuple[tuple[int, int, tuple[str, ...]], ...]:
    return tuple((opt.start, opt.end, opt.tgt) for opt in options)


class BeamDecoder:
    """Stack decoder over a phrase table, language model, and optional
    lexicalized reordering model.

    beam_size is the per-stack histogram limit (None = unlimited);
    beam_threshold is the relative score threshold (0 disables it);
    distortion_limit caps |phrase start - previous phrase end| (None =
    unlimited); options_per_span caps the options kept per source span
    (None = all). Ties anywhere break toward the lexicographically smaller
    target, so decoding is deterministic. weights and the four limits may
    be changed between calls; each search reads them afresh.
    """

    def __init__(
        self,
        phrase_table: PhraseTable,
        lm: NGramLanguageModel,
        reordering_table: ReorderingTable | None = None,
        weights: FeatureWeights | None = None,
        beam_size: int | None = 100,
        beam_threshold: float = 1e-5,
        distortion_limit: int | None = 6,
        options_per_span: int | None = 20,
    ):
        if beam_size is not None and beam_size < 1:
            raise ValueError(f"beam_size must be >= 1 or None, got {beam_size}")
        if not 0.0 <= beam_threshold <= 1.0:
            raise ValueError(f"beam_threshold must be in [0, 1], got {beam_threshold}")
        if distortion_limit is not None and distortion_limit < 0:
            raise ValueError(f"distortion_limit must be >= 0 or None, got {distortion_limit}")
        if options_per_span is not None and options_per_span < 1:
            raise ValueError(f"options_per_span must be >= 1 or None, got {options_per_span}")
        self.phrase_table = phrase_table
        self.lm = lm
        self.reordering_table = reordering_table
        self.weights = weights if weights is not None else FeatureWeights()
        self.beam_size = beam_size
        self.beam_threshold = beam_threshold
        self.distortion_limit = distortion_limit
        self.options_per_span = options_per_span

    # -- public API ---------------------------------------------------

    def decode(self, tokens: Iterable[str]) -> DecodeResult:
        """Best-scoring complete derivation for one source sentence."""
        tokens = check_sentence(tokens)
        lm_memo: dict = {}
        final = self._search(tokens, lm_memo)
        options = []
        node = final
        while node.best_arc is not None:
            arc = node.best_arc
            if arc.option is not None:
                options.append(arc.option)
            node = arc.pred
        options.reverse()
        features = self.score_derivation(options, len(tokens), lm_memo)
        return DecodeResult(final.target, final.score, features, _steps(options))

    def nbest(self, tokens: Iterable[str], n: int) -> list[DecodeResult]:
        """The n best distinct derivations, best first."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        tokens = check_sentence(tokens)
        lm_memo: dict = {}
        final = self._search(tokens, lm_memo)

        def features(options):
            return self.score_derivation(options, len(tokens), lm_memo)

        return list(itertools.islice(_KBest(final, features).derivations(), n))

    def score_derivation(
        self,
        options: Sequence[TranslationOption],
        source_len: int,
        lm_memo: dict,
    ) -> tuple[float, ...]:
        """Feature totals of a complete derivation of a source sentence of
        source_len words: its options in the order they are applied, with
        the LM's </s> event and the final reordering transition added.

        These are the terms the search scores its arcs with, summed in
        the order the options were applied. lm_memo is the memo of the
        search that found the derivation (see _step).
        """
        state = self.lm.start_state
        totals = (0.0,) * N_FEATURES
        prev_start = prev_end = 0
        prev_bwd = None
        for opt in options:
            lm_sum, state, reo_feat = self._step(
                lm_memo, state, opt, prev_start, prev_end, prev_bwd
            )
            features = (
                lm_sum,
                *opt.tm_logs,
                reo_feat,
                float(len(opt.tgt)),
                1.0,
                -float(abs(opt.start - prev_end)),
            )
            totals = tuple(a + b for a, b in zip(totals, features))
            prev_start, prev_end = opt.start, opt.end
            prev_bwd = opt.bwd_reo if self.reordering_table is not None else None
        features = self._completion_features(state, prev_end, prev_bwd, source_len)
        return tuple(a + b for a, b in zip(totals, features))

    def _completion_features(self, lm_state, last_end, last_bwd, source_len):
        """Features of the transition to the end of the sentence: the LM's
        </s> event and the last phrase's backward orientation (monotone
        iff that phrase ends the sentence)."""
        reo_feat = 0.0
        if last_bwd is not None:
            reo_feat = last_bwd[MONO if last_end == source_len else DISC]
        return (self.lm.logprob(EOS, lm_state), 0.0, 0.0, 0.0, 0.0, reo_feat, 0.0, 0.0, 0.0)

    # -- search ---------------------------------------------------------

    def _step(self, lm_memo, state, opt, prev_start, prev_end, prev_bwd):
        """(LM log-probability sum, next LM state, reordering feature) of
        applying opt in LM state `state` after the phrase [prev_start,
        prev_end) whose backward distribution is prev_bwd (None before the
        first phrase). The search scores its arcs and score_derivation()
        replays a derivation with this one function.

        lm_memo maps (LM state, target phrase) to (log-probability sum,
        next state) for one search; a miss asks the LM to extend the state.
        """
        hit = lm_memo.get((state, opt.tgt))
        if hit is None:
            hit = lm_memo[(state, opt.tgt)] = self.lm.extend(state, opt.tgt)
        reo_feat = 0.0
        if self.reordering_table is not None:
            if opt.start == prev_end:
                orient = MONO
            elif opt.end == prev_start:
                orient = SWAP
            else:
                orient = DISC
            reo_feat = opt.fwd_reo[orient]
            if prev_bwd is not None:
                reo_feat += prev_bwd[orient]
        return hit[0], hit[1], reo_feat

    def _search(self, tokens: tuple[str, ...], lm_memo: dict) -> _Node:
        """Fill the coverage stacks; returns the final lattice node.

        lm_memo maps (LM state, target phrase) to (log-probability sum,
        next state) for this sentence; it is filled here and by the
        caller's replay of the derivations it returns.
        """
        n = len(tokens)
        options = build_options(
            tokens,
            self.phrase_table,
            self.reordering_table,
            self.options_per_span,
        )
        weights = self.weights
        span_future = future_cost_table(options, n, weights, self.lm)
        reo_on = self.reordering_table is not None
        limit = self.distortion_limit
        wvec = weights.as_vector()
        w_lm, w_reo, w_dist = wvec[0], wvec[5], wvec[8]
        fsum = math.fsum
        step = self._step
        future_memo: dict[int, float] = {}

        def future_of(coverage: int) -> float:
            cached = future_memo.get(coverage)
            if cached is not None:
                return cached
            total = 0.0
            i = 0
            while i < n:
                if coverage & (1 << i):
                    i += 1
                    continue
                j = i
                while j < n and not coverage & (1 << j):
                    j += 1
                total += span_future[(i, j)]
                i = j
            future_memo[coverage] = total
            return total

        # Options by start position, in build_options order (end, then
        # target), so that once one overlaps a coverage every later one at
        # that start does too. Each carries the weighted terms that do not
        # depend on the hypothesis: four translation scores, word penalty
        # and phrase penalty. It also carries its part of the recombination
        # key (see the module docstring).
        by_start: list[list[tuple]] = [[] for _ in range(n)]
        for opt in options:
            static = tuple(w * f for w, f in zip(wvec[1:5], opt.tm_logs)) + (
                wvec[6] * float(len(opt.tgt)),
                wvec[7] * 1.0,
            )
            recombine = (opt.start, opt.end, opt.bwd_reo) if reo_on else opt.end
            by_start[opt.start].append((opt, opt.mask, static, recombine))

        init_state = self.lm.start_state
        init = _Node(0, init_state, (0, 0), None, future_of(0))
        init.score = 0.0
        init.target = ()
        stacks: list[dict] = [dict() for _ in range(n + 1)]
        stacks[0][(0, init_state, 0)] = init
        threshold_log = (
            math.log(self.beam_threshold) if self.beam_threshold > 0.0 else NEG_INF
        )

        for covered in range(n):
            stack = stacks[covered]
            if not stack:
                continue
            nodes = sorted(
                stack.values(), key=lambda nd: (-(nd.score + nd.future), nd.target)
            )
            if self.beam_size is not None:
                nodes = nodes[: self.beam_size]
            if threshold_log != NEG_INF and nodes:
                cutoff = nodes[0].score + nodes[0].future + threshold_log
                nodes = [nd for nd in nodes if nd.score + nd.future >= cutoff]
            for node in nodes:
                coverage = node.coverage
                state = node.lm_state
                prev_start, prev_end = node.span
                prev_bwd = node.bwd_reo
                if limit is None:
                    starts = range(n)
                else:
                    starts = range(max(0, prev_end - limit), min(n, prev_end + limit + 1))
                for start in starts:
                    dist_term = w_dist * -float(abs(start - prev_end))
                    for opt, mask, static, recombine in by_start[start]:
                        if coverage & mask:
                            break
                        lm_sum, new_state, reo_feat = step(
                            lm_memo, state, opt, prev_start, prev_end, prev_bwd
                        )
                        arc_score = fsum((w_lm * lm_sum, w_reo * reo_feat, dist_term) + static)
                        new_cov = coverage | mask
                        key = (new_cov, new_state, recombine)
                        child_stack = stacks[new_cov.bit_count()]
                        child = child_stack.get(key)
                        if child is None:
                            child = _Node(
                                new_cov,
                                new_state,
                                (start, opt.end),
                                opt.bwd_reo if reo_on else None,
                                future_of(new_cov),
                            )
                            child_stack[key] = child
                        child.offer(_Arc(node, opt, arc_score))

        final = _Node((1 << n) - 1, (), (0, n), None, 0.0)
        for node in stacks[n].values():
            features = self._completion_features(node.lm_state, node.span[1], node.bwd_reo, n)
            final.offer(_Arc(node, None, fsum(w * f for w, f in zip(wvec, features))))
        if not final.arcs:
            raise DecodeError(
                f"no complete derivation for {' '.join(tokens)!r} "
                f"(distortion_limit={self.distortion_limit}, beam_size={self.beam_size})"
            )
        return final


class _KBest:
    """Lazy k-best path enumeration over the search lattice.

    A path is (score, target, options); features(options) gives the
    feature totals of each derivation yielded.
    """

    _BASE = (0.0, (), ())

    def __init__(self, final: _Node, features):
        self.final = final
        self.features = features
        self.states: dict[int, dict] = {}

    def derivations(self):
        k = 0
        while True:
            entry = self._kth(self.final, k)
            if entry is None:
                return
            score, target, options = entry
            yield DecodeResult(target, score, self.features(options), _steps(options))
            k += 1

    def _state(self, node: _Node) -> dict:
        state = self.states.get(id(node))
        if state is None:
            heap = []
            counter = itertools.count()
            for arc in node.arcs:
                first = self._kth(arc.pred, 0)
                score = first[0] + arc.score
                target = first[1] + (arc.option.tgt if arc.option else ())
                heapq.heappush(heap, (-score, target, next(counter), arc, 0))
            state = {"out": [], "heap": heap, "counter": counter}
            self.states[id(node)] = state
        return state

    def _kth(self, node: _Node, k: int):
        if not node.arcs:  # the initial hypothesis
            return self._BASE if k == 0 else None
        state = self._state(node)
        out, heap = state["out"], state["heap"]
        while len(out) <= k and heap:
            neg_score, _, _, arc, idx = heapq.heappop(heap)
            pred_entry = self._kth(arc.pred, idx)
            score = pred_entry[0] + arc.score
            target = pred_entry[1]
            options = pred_entry[2]
            if arc.option is not None:
                target = target + arc.option.tgt
                options = options + (arc.option,)
            out.append((score, target, options))
            succ = self._kth(arc.pred, idx + 1)
            if succ is not None:
                s_score = succ[0] + arc.score
                s_target = succ[1] + (arc.option.tgt if arc.option else ())
                heapq.heappush(
                    heap, (-s_score, s_target, next(state["counter"]), arc, idx + 1)
                )
        return out[k] if k < len(out) else None
