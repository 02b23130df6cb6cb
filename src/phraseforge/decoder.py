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
distribution, which the next transition's score depends on. A stack is
pruned when it is expanded: its nodes are ranked by priority (score plus
future estimate), the best beam_size are kept, and of those the ones
within log(beam_threshold) of the best.

Every search also discards at insertion, so it builds no node or arc
that this pruning is bound to drop (after Moore & Quirk 2007, "Faster
beam-search decoding for phrasal SMT"; Moses applies one such search to
every request, whatever its n-best size):

- Floors: an arc whose priority is below its stack's floor is dropped
  before its node or arc is built. The floor is the larger of the best
  priority offered to the stack so far plus log(beam_threshold) and,
  once beam_size nodes exist, the smallest of the beam_size largest
  priorities those nodes were created with. A node's score only rises,
  so both are lower bounds on the cut the stack's pruning makes: an arc
  below the floor gives any node it would be the best arc of a priority
  that pruning removes. Every node that survives pruning thus has the
  best arc, score and target of the same search without floors, and no
  node survives that that search prunes. The final stack is never
  pruned, so it discards nothing.
- Bound before the LM: when the LM and reordering weights are >= 0 and
  no LM query (NGramLanguageModel.max_logprob) or reordering
  log-probability exceeds 0, their weighted terms are <= 0, so math.fsum
  of an arc's other terms bounds its score (fsum rounds exactly, and
  rounding is monotone). An arc whose bound is below the floor is
  dropped before its LM lookup.

decode() and nbest() draw from one lazy k-best enumeration of the
lattice's paths (Huang & Chiang 2005, "Better k-best parsing",
Algorithm 3): decode() is its first path. A node's first path ends in
the best arc the search kept for it; its heap of candidates for later
paths is built only when its second path is asked for. The lattice is
every arc that survived insertion, recombined losers included; a search
asked for one path reads only the best arcs, so its nodes keep no
others. An n-best list is thus the best n paths among the arcs that
survive insertion pruning, and its first entry is decode()'s.

Lattice arcs carry their weighted score only. The feature totals of a
returned derivation come from BeamDecoder.score_derivation(), which
replays the derivation's options through the same LM, translation,
reordering, penalty and distortion terms; a step's LM and reordering
terms come from _step, the one function the search scores arcs with,
and its nine features from _step_features. An arc's score is math.fsum
over the nine weighted terms, which is exactly rounded and so equals
FeatureWeights.dot of its features.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple, Sequence

from .base import check_sentence, paused_gc
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


def _step_features(
    opt: TranslationOption, lm_sum: float, reo_feat: float, distortion: float
) -> tuple[float, ...]:
    """The nine features of applying opt, in FEATURE_NAMES order, given
    its LM log-probability sum, reordering feature and distortion."""
    return (lm_sum, *opt.tm_logs, reo_feat, float(len(opt.tgt)), 1.0, distortion)


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
        score = weights.dot(_step_features(opt, lm_est, 0.0, 0.0))
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

    @property
    def tgt(self) -> tuple[str, ...]:
        """The target words this arc appends to a path through pred."""
        return self.option.tgt if self.option is not None else ()


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
        """Keep arc as the best one if it scores higher, or equal with a
        smaller target; the search appends it to arcs itself."""
        candidate = arc.pred.score + arc.score
        if self.best_arc is None or candidate > self.score:
            self.score = candidate
            self.best_arc = arc
            self.target = arc.pred.target + arc.tgt
        elif candidate == self.score:
            target = arc.pred.target + arc.tgt
            if target < self.target:
                self.best_arc = arc
                self.target = target


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

    Every search discards at insertion what its stacks' pruning would
    drop (see the module docstring); the size of an n-best request only
    decides whether nodes keep their arcs, so decode() and every nbest()
    list start with the same derivation.
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
        return next(self._derivations(tokens, keep_arcs=False))

    def nbest(self, tokens: Iterable[str], n: int) -> list[DecodeResult]:
        """The n best distinct derivations, best first: the n best paths
        among the arcs that survive the search's insertion pruning (see
        the module docstring). The first is decode()'s derivation."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return list(itertools.islice(self._derivations(tokens, keep_arcs=n > 1), n))

    def _derivations(self, tokens: Iterable[str], keep_arcs: bool):
        """The complete derivations of one source sentence, best first,
        each enumerated when it is asked for; without keep_arcs, only the
        first may be asked for."""
        tokens = check_sentence(tokens)
        lm_memo: dict = {}
        final = self._search(tokens, lm_memo, keep_arcs)
        for score, target, options in _KBest(final).paths():
            features = self.score_derivation(options, len(tokens), lm_memo)
            steps = tuple((opt.start, opt.end, opt.tgt) for opt in options)
            yield DecodeResult(target, score, features, steps)

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
            features = _step_features(opt, lm_sum, reo_feat, -float(abs(opt.start - prev_end)))
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

    @paused_gc()
    def _search(self, tokens: tuple[str, ...], lm_memo: dict, keep_arcs: bool) -> _Node:
        """Fill the coverage stacks, dropping at insertion every arc that
        its stack's pruning would (see the module docstring); returns the
        final lattice node.

        lm_memo maps (LM state, target phrase) to (log-probability sum,
        next state) for this sentence; it is filled here and by the
        caller's replay of the derivations it returns. With keep_arcs
        each node keeps every arc that passed its stack's floor, for the
        paths after the first; without it a node keeps its best arc only.
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
        beam_size = self.beam_size
        wvec = weights.as_vector()
        w_lm, w_reo, w_dist = weights.lm, weights.reordering, weights.distortion
        fsum = math.fsum
        step = self._step
        future_memo: dict[int, float] = {}

        def future_of(coverage: int) -> float:
            """The future estimate of coverage, memoized in future_memo
            (which the expansion loop reads first)."""
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
        # depend on the hypothesis: all but the LM, reordering and
        # distortion ones, which each arc adds. It also carries its part of
        # the recombination key (see the module docstring) and, when the
        # LM and reordering terms cannot be positive, the bound on its arc
        # score at each jump distance.
        bound_before_lm = w_lm >= 0.0 and self.lm.max_logprob <= 0.0
        if bound_before_lm and reo_on:
            bound_before_lm = w_reo >= 0.0 and all(
                v <= 0.0 for opt in options for v in opt.fwd_reo + opt.bwd_reo
            )
        max_jump = n if limit is None else min(n, limit)
        by_start: list[list[tuple]] = [[] for _ in range(n)]
        for opt in options:
            static = tuple(
                w * f
                for name, w, f in zip(FEATURE_NAMES, wvec, _step_features(opt, 0.0, 0.0, 0.0))
                if name not in ("lm", "reordering", "distortion")
            )
            recombine = (opt.start, opt.end, opt.bwd_reo) if reo_on else opt.end
            bounds = None
            if bound_before_lm:
                bounds = [
                    fsum((w_dist * -float(jump),) + static) for jump in range(max_jump + 1)
                ]
            by_start[opt.start].append((opt, opt.mask, static, recombine, bounds))

        init_state = self.lm.start_state
        init = _Node(0, init_state, (0, 0), None, future_of(0))
        init.score = 0.0
        init.target = ()
        stacks: list[dict] = [dict() for _ in range(n + 1)]
        stacks[0][(0, init_state, 0)] = init
        threshold_log = (
            math.log(self.beam_threshold) if self.beam_threshold > 0.0 else NEG_INF
        )
        # Insertion floors, one per stack (see the module docstring). The
        # final stack is never pruned, so its floor stays -inf.
        floors = [NEG_INF] * (n + 1)
        created: list[list[float]] = [[] for _ in range(n + 1)]

        def raise_floor(covered: int, priority: float, is_new: bool) -> None:
            """Note an arc of this priority offered to stack `covered`,
            which created its node if is_new."""
            floor = max(floors[covered], priority + threshold_log)
            if is_new and beam_size is not None:
                heap = created[covered]  # the beam_size best creation priorities
                if len(heap) < beam_size:
                    heapq.heappush(heap, priority)
                elif priority > heap[0]:
                    heapq.heapreplace(heap, priority)
                if len(heap) == beam_size:
                    floor = max(floor, heap[0])
            floors[covered] = floor

        for covered in range(n):
            stack = stacks[covered]
            if not stack:
                continue
            nodes = sorted(
                stack.values(), key=lambda nd: (-(nd.score + nd.future), nd.target)
            )
            if beam_size is not None:
                nodes = nodes[:beam_size]
            if threshold_log != NEG_INF and nodes:
                cutoff = nodes[0].score + nodes[0].future + threshold_log
                nodes = [nd for nd in nodes if nd.score + nd.future >= cutoff]
            for node in nodes:
                coverage = node.coverage
                score = node.score
                state = node.lm_state
                prev_start, prev_end = node.span
                prev_bwd = node.bwd_reo
                if limit is None:
                    starts = range(n)
                else:
                    starts = range(max(0, prev_end - limit), min(n, prev_end + limit + 1))
                for start in starts:
                    jump = abs(start - prev_end)
                    dist_term = w_dist * -float(jump)
                    for opt, mask, static, recombine, bounds in by_start[start]:
                        if coverage & mask:
                            break
                        new_cov = coverage | mask
                        child_covered = new_cov.bit_count()
                        floor = floors[child_covered]
                        future = future_memo.get(new_cov)
                        if future is None:
                            future = future_of(new_cov)
                        if bounds is not None and score + bounds[jump] + future < floor:
                            continue
                        lm_sum, new_state, reo_feat = step(
                            lm_memo, state, opt, prev_start, prev_end, prev_bwd
                        )
                        arc_score = fsum((w_lm * lm_sum, w_reo * reo_feat, dist_term) + static)
                        priority = score + arc_score + future
                        if priority < floor:
                            continue
                        key = (new_cov, new_state, recombine)
                        child_stack = stacks[child_covered]
                        child = child_stack.get(key)
                        is_new = child is None
                        if is_new:
                            child = _Node(
                                new_cov,
                                new_state,
                                (start, opt.end),
                                opt.bwd_reo if reo_on else None,
                                future,
                            )
                            child_stack[key] = child
                        arc = _Arc(node, opt, arc_score)
                        if keep_arcs:
                            child.arcs.append(arc)
                        child.offer(arc)
                        if child_covered < n:
                            raise_floor(child_covered, priority, is_new)

        final = _Node((1 << n) - 1, (), (0, n), None, 0.0)
        for node in stacks[n].values():
            features = self._completion_features(node.lm_state, node.span[1], node.bwd_reo, n)
            arc = _Arc(node, None, weights.dot(features))
            if keep_arcs:
                final.arcs.append(arc)
            final.offer(arc)
        if final.best_arc is None:
            raise DecodeError(
                f"no complete derivation for {' '.join(tokens)!r} "
                f"(distortion_limit={self.distortion_limit}, beam_size={self.beam_size})"
            )
        return final


class _KBest:
    """Lazy k-best path enumeration over the search lattice.

    A path to a node is (score, target, arc, idx): it ends in arc and
    continues the idx-th best path to arc.pred. A node's first path ends
    in its best arc, with the score and target the search left on it.
    Its heap of candidates for later paths is built when its second path
    is asked for; ties break toward the smaller target, then the earlier
    push, as the search breaks them.
    """

    def __init__(self, final: _Node):
        self.final = final
        self.out: dict[int, list[tuple]] = {}
        self.heaps: dict[int, list[tuple]] = {}
        self.counter = itertools.count()

    def paths(self):
        """(score, target, options) of each path to the final node, best
        first."""
        k = 0
        while (path := self._kth(self.final, k)) is not None:
            options = []
            _, _, arc, idx = path
            while arc is not None:
                if arc.option is not None:
                    options.append(arc.option)
                _, _, arc, idx = self._kth(arc.pred, idx)
            options.reverse()
            yield path[0], path[1], options
            k += 1

    def _kth(self, node: _Node, k: int):
        out = self.out.get(id(node))
        if out is None:
            out = self.out[id(node)] = [(node.score, node.target, node.best_arc, 0)]
        if k < len(out):
            return out[k]
        best = node.best_arc
        if best is None:  # the initial hypothesis has one path
            return None
        heap = self.heaps.get(id(node))
        if heap is None:
            heap = self.heaps[id(node)] = []
            for arc in node.arcs:
                if arc is not best:
                    self._push(heap, arc, 0)
            self._push(heap, best, 1)
        while len(out) <= k and heap:
            path = heapq.heappop(heap)[-1]
            out.append(path)
            self._push(heap, path[2], path[3] + 1)
        return out[k] if k < len(out) else None

    def _push(self, heap: list, arc: _Arc, idx: int) -> None:
        """Push the idx-th path to arc.pred continued by arc, if it exists."""
        pred = self._kth(arc.pred, idx)
        if pred is not None:
            path = (pred[0] + arc.score, pred[1] + arc.tgt, arc, idx)
            heapq.heappush(heap, (-path[0], path[1], next(self.counter), path))
