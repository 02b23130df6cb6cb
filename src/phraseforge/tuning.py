"""Minimum-error-rate weight tuning over accumulating n-best pools.

The outer loop decodes the dev set with the current weights, merges the
n-best lists into a pool keyed by translation string, and runs an inner
optimizer on the pool. The inner optimizer is an exact line search: along
a direction d from weights w, every pool entry's score is the line
(w . f) + gamma (d . f), so per sentence the argmax as a function of
gamma is the upper envelope of lines, and corpus BLEU is piecewise
constant in gamma. We enumerate the pieces, score each from precomputed
per-entry sufficient statistics, and step to the best interval's
midpoint. Directions are the 9 coordinate axes plus seeded random ones.

A move is accepted only when the recomputed pool BLEU strictly improves,
so the result can never be worse on the pool than the starting point.
Pool BLEU uses +1 smoothing on precisions of order 2 and up, which keeps
short dev sets from flatlining at zero.
"""

from __future__ import annotations

import logging
import math
import random
from typing import Iterable, Sequence

from .base import BaseEstimator, DataError
from .corpus import ParallelCorpus
from .decoder import N_FEATURES, BeamDecoder, DecodeError, DecodeResult, FeatureWeights
from .metrics import BleuStats, _as_reference_sets, sentence_stats, stats_bleu

logger = logging.getLogger(__name__)

_EPS = 1e-12
RANDOM_DIRECTIONS = 8  # seeded random directions per round, after the 9 axes
MAX_ROUNDS = 20


class NBestPool:
    """Per dev sentence, every distinct translation seen so far with its
    feature vector and BLEU sufficient statistics.

    Deduplication is by translation string; the first feature vector seen
    for a string wins (it is the best-scoring derivation at the decode
    that produced it).
    """

    def __init__(self, references: Sequence):
        self.references = _as_reference_sets(references)
        self.entries: list[dict[tuple[str, ...], tuple[float, ...]]] = [
            {} for _ in self.references
        ]
        self.stats: list[dict[tuple[str, ...], BleuStats]] = [
            {} for _ in self.references
        ]

    def __len__(self) -> int:
        return sum(len(e) for e in self.entries)

    def add(self, index: int, target: Sequence[str], features: Iterable[float]) -> bool:
        """Record one candidate; returns True if it was new."""
        target = tuple(target)
        features = tuple(float(f) for f in features)
        if len(features) != N_FEATURES:
            raise DataError(f"expected {N_FEATURES} features, got {len(features)}")
        if target in self.entries[index]:
            return False
        self.entries[index][target] = features
        self.stats[index][target] = sentence_stats(target, self.references[index])
        return True

    def add_results(self, index: int, results: Iterable[DecodeResult]) -> int:
        return sum(self.add(index, r.tokens, r.features) for r in results)


def _argmax(entries: dict, vector: tuple[float, ...]) -> tuple[str, ...]:
    # ties break toward the lexicographically smaller translation
    best = None
    best_key = None
    for target, features in entries.items():
        score = math.fsum(w * f for w, f in zip(vector, features))
        key = (-score, target)
        if best_key is None or key < best_key:
            best_key = key
            best = target
    return best


def pool_bleu(pool: NBestPool, weights: FeatureWeights | Iterable[float]) -> float:
    """Smoothed corpus BLEU of the pool-argmax translations."""
    vector = weights.as_vector() if isinstance(weights, FeatureWeights) else tuple(weights)
    total = BleuStats.zero()
    for entries, stats in zip(pool.entries, pool.stats):
        if entries:
            total = total + stats[_argmax(entries, vector)]
    return stats_bleu(total, smooth=True)


def _envelope(lines):
    """Upper envelope of (slope, intercept, payload) lines.

    Returns [(left_x, payload)] in increasing left_x order, starting at
    -inf. Standard hull sweep over lines sorted by slope.
    """
    lines = sorted(lines, key=lambda l: (l[0], -l[1], l[2]))
    hull: list[list] = []  # [slope, intercept, payload, left_x]
    for slope, intercept, payload in lines:
        if hull and slope == hull[-1][0]:
            continue  # same slope, lower-or-equal intercept: never on top
        x = -math.inf
        while hull:
            top = hull[-1]
            x = (top[1] - intercept) / (slope - top[0])
            if x <= top[3]:
                hull.pop()
                x = -math.inf
                continue
            break
        hull.append([slope, intercept, payload, x])
    return [(item[3], item[2]) for item in hull]


def _line_search(pool: NBestPool, base: tuple[float, ...], direction: tuple[float, ...]):
    """Best (gamma, pool BLEU) along base + gamma * direction, or None if
    the pool argmax never changes along this direction."""
    matched = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    hyp_len = 0
    ref_len = 0
    events: list[tuple[float, int, tuple, tuple]] = []
    for i, entries in enumerate(pool.entries):
        if not entries:
            continue
        lines = []
        for target, features in entries.items():
            slope = math.fsum(d * f for d, f in zip(direction, features))
            intercept = math.fsum(w * f for w, f in zip(base, features))
            lines.append((slope, intercept, target))
        hull = _envelope(lines)
        first = pool.stats[i][hull[0][1]]
        for k in range(4):
            matched[k] += first.matched[k]
            totals[k] += first.totals[k]
        hyp_len += first.hyp_length
        ref_len += first.ref_length
        for k in range(1, len(hull)):
            events.append((hull[k][0], i, hull[k - 1][1], hull[k][1]))
    if not events:
        return None

    def current_bleu() -> float:
        stats = BleuStats(tuple(matched), tuple(totals), hyp_len, ref_len)
        return stats_bleu(stats, smooth=True)

    events.sort(key=lambda e: e[0])
    boundaries = sorted({e[0] for e in events})
    candidates = [(current_bleu(), boundaries[0] - 1.0)]
    pos = 0
    for b, boundary in enumerate(boundaries):
        while pos < len(events) and events[pos][0] == boundary:
            _, i, old, new = events[pos]
            old_stats, new_stats = pool.stats[i][old], pool.stats[i][new]
            for k in range(4):
                matched[k] += new_stats.matched[k] - old_stats.matched[k]
                totals[k] += new_stats.totals[k] - old_stats.totals[k]
            hyp_len += new_stats.hyp_length - old_stats.hyp_length
            ref_len += new_stats.ref_length - old_stats.ref_length
            pos += 1
        if b + 1 < len(boundaries):
            gamma = (boundary + boundaries[b + 1]) / 2.0
        else:
            gamma = boundary + 1.0
        candidates.append((current_bleu(), gamma))
    # prefer higher BLEU, then the gamma closest to zero
    return max(candidates, key=lambda c: (c[0], -abs(c[1]), c[1]))


def optimize_weights(
    pool: NBestPool,
    initial: FeatureWeights | Iterable[float],
    seed: int = 0,
) -> tuple[FeatureWeights, float]:
    """Exact line search over coordinate axes plus seeded random
    directions, repeated until a full round yields no improvement (at
    most MAX_ROUNDS rounds).

    Returns the best weights found and their pool BLEU; never worse on
    the pool than the initial point.
    """
    if isinstance(initial, FeatureWeights):
        best = initial.as_vector()
    else:
        best = tuple(float(v) for v in initial)
        if len(best) != N_FEATURES:
            raise DataError(f"expected {N_FEATURES} weights, got {len(best)}")
    best_bleu = pool_bleu(pool, best)
    rng = random.Random(seed)
    for _ in range(MAX_ROUNDS):
        improved = False
        directions = [
            tuple(1.0 if j == i else 0.0 for j in range(N_FEATURES))
            for i in range(N_FEATURES)
        ]
        directions += [
            tuple(rng.gauss(0.0, 1.0) for _ in range(N_FEATURES))
            for _ in range(RANDOM_DIRECTIONS)
        ]
        for direction in directions:
            found = _line_search(pool, best, direction)
            if found is None:
                continue
            sweep_bleu, gamma = found
            if sweep_bleu <= best_bleu + _EPS:
                continue
            candidate = tuple(w + gamma * d for w, d in zip(best, direction))
            candidate_bleu = pool_bleu(pool, candidate)
            if candidate_bleu > best_bleu + _EPS:
                best = candidate
                best_bleu = candidate_bleu
                improved = True
        if not improved:
            break
    return FeatureWeights.from_vector(best), best_bleu


class MertTuner(BaseEstimator):
    """Outer tuning loop as an estimator.

    fit() decodes the dev corpus, grows the pool, and optimizes; fitted
    attributes expose the tuned weights, the pool, and the per-iteration
    (before, after) pool-BLEU history. A dev sentence whose n-best decode
    raises DecodeError is logged and skipped for that iteration, and
    skipped_ lists it as (iteration, sentence index), both from 0; the
    pool and the line search pass over sentences with no entries. fit
    raises DataError when no dev sentence has any.
    """

    def __init__(self, iterations: int = 5, nbest_size: int = 100, seed: int = 0):
        self.iterations = iterations
        self.nbest_size = nbest_size
        self.seed = seed

    def fit(
        self,
        devset: ParallelCorpus | Sequence,
        decoder: BeamDecoder,
        initial: FeatureWeights | None = None,
    ) -> "MertTuner":
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.nbest_size < 1:
            raise ValueError(f"nbest_size must be >= 1, got {self.nbest_size}")
        pairs = list(devset)
        if not pairs:
            raise DataError("empty dev set")
        references = [pair[1] for pair in pairs]
        pool = NBestPool(references)
        best = initial if initial is not None else decoder.weights
        history = []
        skipped = []
        for iteration in range(self.iterations):
            decoder.weights = best
            added = 0
            for i, pair in enumerate(pairs):
                try:
                    results = decoder.nbest(pair[0], self.nbest_size)
                except DecodeError as exc:
                    logger.warning(
                        "tuning iteration %d: dev sentence %d skipped: %s",
                        iteration + 1, i + 1, exc,
                    )
                    skipped.append((iteration, i))
                    continue
                added += pool.add_results(i, results)
            if len(pool) == 0:
                raise DataError("no dev sentence could be decoded")
            before = pool_bleu(pool, best)
            best, after = optimize_weights(pool, best, seed=self.seed + iteration)
            if after < before - 1e-9:
                raise RuntimeError(
                    f"line search regressed on the pool: {before} -> {after}"
                )
            history.append((before, after))
            if added == 0 and iteration > 0:
                break
        decoder.weights = best
        self.weights_ = best
        self.pool_ = pool
        self.history_ = history
        self.skipped_ = skipped
        return self
