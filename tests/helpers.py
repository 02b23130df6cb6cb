"""Independent reference implementations the tests compare the package to.

Everything here is written the slow, obvious way on purpose: linear
probability domain, dense dictionaries, exhaustive enumeration. A second
opinion is only worth having when it shares no code with the first.
"""

import itertools
import math
from collections import Counter, defaultdict

from phraseforge.align import AlignmentMatrix
from phraseforge.corpus import BOS, EOS, NULL_WORD, UNK
from phraseforge.decoder import FeatureWeights, build_options
from phraseforge.lm import NGramLanguageModel
from phraseforge.phrases import PhraseScores, PhraseTable, ReorderingEntry, ReorderingTable


# -- language model -----------------------------------------------------


class ReferenceModel:
    """Interpolated n-gram probabilities computed on demand from raw counts.

    Witten-Bell uses the lambda form of the recursion directly, with no
    backoff table and no log domain, so agreement with the package model
    is a real check of the backoff conversion. add-k follows the same
    counting but redistributes unseen mass through the lower order in
    proportion to leftover probability.
    """

    def __init__(self, sentences, order, smoothing="witten-bell", add_k=0.5,
                 open_vocab=True):
        self.order = order
        self.smoothing = smoothing
        self.add_k = add_k
        self.counts = [Counter() for _ in range(order + 1)]
        for tokens in sentences:
            tokens = tuple(tokens)
            for w in tokens:
                self.counts[1][(w,)] += 1
            self.counts[1][(EOS,)] += 1
            padded = (BOS,) + tokens + (EOS,)
            for k in range(2, order + 1):
                for i in range(len(padded) - k + 1):
                    self.counts[k][padded[i:i + k]] += 1
        self.ctx_total = [defaultdict(int) for _ in range(order + 1)]
        self.ctx_words = [defaultdict(list) for _ in range(order + 1)]
        for k in range(2, order + 1):
            for gram, c in self.counts[k].items():
                self.ctx_total[k][gram[:-1]] += c
                self.ctx_words[k][gram[:-1]].append(gram[-1])
        vocab = sorted(w for (w,) in self.counts[1])
        self.predicted = vocab + ([UNK] if open_vocab else [])
        self.v_size = len(self.predicted)
        self.total = sum(self.counts[1].values())

    def prob(self, word, context=()):
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        if word not in self.predicted:
            if UNK not in self.predicted:
                return 0.0
            word = UNK
        return self._p(word, context)

    def _p(self, w, h):
        if not h:
            c = self.counts[1].get((w,), 0)
            if self.smoothing == "witten-bell":
                d = len(self.counts[1])
                lam = d / (d + self.total)
                return (1.0 - lam) * (c / self.total) + lam / self.v_size
            return (c + self.add_k) / (self.total + self.add_k * self.v_size)
        k = len(h) + 1
        total = self.ctx_total[k].get(h, 0)
        if total == 0:
            return self._p(w, h[1:])
        seen_words = self.ctx_words[k][h]
        c = self.counts[k].get(h + (w,), 0)
        if self.smoothing == "witten-bell":
            lam = len(seen_words) / (len(seen_words) + total)
            return (1.0 - lam) * (c / total) + lam * self._p(w, h[1:])
        denom = total + self.add_k * self.v_size
        if c > 0:
            return (c + self.add_k) / denom
        taken = math.fsum((self.counts[k][h + (x,)] + self.add_k) / denom
                          for x in seen_words)
        lower_taken = math.fsum(self._p(x, h[1:]) for x in seen_words)
        if 1.0 - taken < 1e-12 or 1.0 - lower_taken < 1e-12:
            return 0.0
        return (1.0 - taken) / (1.0 - lower_taken) * self._p(w, h[1:])


# -- IBM Model 1 ----------------------------------------------------------


def dense_em(pairs, iterations):
    """Textbook Model 1 EM, dense over the full vocabulary, NULL included.

    Returns the final table as {source word: {target word: prob}} and the
    per-iteration corpus log-likelihood (measured before each M-step).
    """
    pairs = [((NULL_WORD,) + tuple(src), tuple(tgt)) for src, tgt in pairs]
    targets = sorted({f for _, tgt in pairs for f in tgt})
    sources = sorted({e for src, _ in pairs for e in src})
    t = {e: {f: 1.0 / len(targets) for f in targets} for e in sources}
    history = []
    for _ in range(iterations):
        counts = {e: {f: 0.0 for f in targets} for e in sources}
        loglik = 0.0
        for src, tgt in pairs:
            loglik -= len(tgt) * math.log(len(src))
            for f in tgt:
                z = math.fsum(t[e][f] for e in src)
                loglik += math.log(z)
                for e in src:
                    counts[e][f] += t[e][f] / z
        history.append(loglik)
        t = {}
        for e in sources:
            total = math.fsum(counts[e].values())
            t[e] = {f: c / total for f, c in counts[e].items()}
    return t, history


# -- phrase extraction ----------------------------------------------------


def consistent_boxes(n, m, links, max_len):
    """Every (src span, tgt span) box passing the textbook consistency
    predicate, by brute force over all span combinations."""
    boxes = set()
    for s1 in range(n):
        for s2 in range(s1, min(s1 + max_len - 1, n - 1) + 1):
            for j1 in range(m):
                for j2 in range(j1, min(j1 + max_len - 1, m - 1) + 1):
                    inside = False
                    leak = False
                    for i, j in links:
                        in_src = s1 <= i <= s2
                        in_tgt = j1 <= j <= j2
                        if in_src and in_tgt:
                            inside = True
                        elif in_src or in_tgt:
                            leak = True
                    if inside and not leak:
                        boxes.add(((s1, s2), (j1, j2)))
    return boxes


# -- decoding -------------------------------------------------------------


def score_path(opts, n, lm, weights, reordering):
    """Independently score one sequence of translation options."""
    target = tuple(w for o in opts for w in o.tgt)
    tm = [0.0, 0.0, 0.0, 0.0]
    for o in opts:
        for k in range(4):
            tm[k] += o.tm_logs[k]
    distortion = 0.0
    reo = 0.0
    prev = None
    prev_end = 0
    for o in opts:
        distortion -= abs(o.start - prev_end)
        if reordering is not None:  # an empty table still scores orientations
            if o.start == prev_end:
                k = 0
            elif prev is not None and o.end == prev.start:
                k = 1
            else:
                k = 2
            reo += o.fwd_reo[k]
            if prev is not None:
                reo += prev.bwd_reo[k]
        prev = o
        prev_end = o.end
    if reordering is not None and prev is not None:
        reo += prev.bwd_reo[0] if prev_end == n else prev.bwd_reo[2]
    features = (
        lm.sentence_logprob(target),
        tm[0], tm[1], tm[2], tm[3],
        reo,
        float(len(target)),
        float(len(opts)),
        distortion,
    )
    steps = tuple((o.start, o.end, o.tgt) for o in opts)
    return weights.dot(features), features, target, steps


def all_derivations(tokens, options, lm, weights, reordering):
    """Score every complete derivation: contiguous segmentations of the
    source, times visit orders, times option choices per span."""
    n = len(tokens)
    by_span = defaultdict(list)
    for opt in options:
        by_span[(opt.start, opt.end)].append(opt)

    def splits(start):
        if start == n:
            yield ()
            return
        for end in range(start + 1, n + 1):
            if (start, end) in by_span:
                for rest in splits(end):
                    yield ((start, end),) + rest

    out = []
    for spans in splits(0):
        for visit in itertools.permutations(spans):
            for opts in itertools.product(*(by_span[s] for s in visit)):
                out.append(score_path(opts, n, lm, weights, reordering))
    return out


# -- random instances -------------------------------------------------------


def random_pairs(rng, n_pairs, max_len=4, src_vocab=None, tgt_vocab=None):
    src_vocab = src_vocab or ["s%d" % k for k in range(4)]
    tgt_vocab = tgt_vocab or ["t%d" % k for k in range(4)]
    return [
        (
            tuple(rng.choice(src_vocab) for _ in range(rng.randint(1, max_len))),
            tuple(rng.choice(tgt_vocab) for _ in range(rng.randint(1, max_len))),
        )
        for _ in range(n_pairs)
    ]


def random_alignment(rng, n, m, density=0.3):
    links = frozenset(
        (i, j) for i in range(n) for j in range(m) if rng.random() < density
    )
    return AlignmentMatrix(n, m, links)


def random_triple(rng):
    raw = [rng.uniform(0.1, 1.0) for _ in range(3)]
    total = sum(raw)
    return tuple(v / total for v in raw)


def random_decoder_instance(rng, with_reordering=False, max_sentence=4,
                            max_entries=20, min_sentence=1):
    """A random decoding problem; at the default sizes it is small enough
    for exhaustive search."""
    src_vocab = ["s%d" % k for k in range(5)]
    tgt_vocab = ["t%d" % k for k in range(5)]
    n = rng.randint(min_sentence, max_sentence)
    tokens = tuple(rng.choice(src_vocab) for _ in range(n))
    lm_corpus = [
        tuple(rng.choice(tgt_vocab) for _ in range(rng.randint(1, 5)))
        for _ in range(8)
    ]
    lm = NGramLanguageModel(order=rng.choice((1, 2, 3))).fit(lm_corpus)
    spans = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    entries = defaultdict(dict)
    for _ in range(rng.randint(0, max_entries)):
        start, end = rng.choice(spans)
        tgt = tuple(rng.choice(tgt_vocab) for _ in range(rng.randint(1, 3)))
        entries[tokens[start:end]].setdefault(
            tgt, PhraseScores(*(rng.uniform(0.05, 1.0) for _ in range(4)))
        )
    table = PhraseTable(dict(entries))
    reordering = None
    if with_reordering:
        reo = {}
        for src, tgts in entries.items():
            for tgt in tgts:
                if rng.random() < 0.7:  # leave some pairs to the uniform fallback
                    reo[(src, tgt)] = ReorderingEntry(
                        random_triple(rng), random_triple(rng)
                    )
        reordering = ReorderingTable(reo)
    weights = FeatureWeights.from_vector(
        rng.uniform(-1.0, 1.0) for _ in range(9)
    )
    options = build_options(tokens, table, reordering, options_per_span=None)
    return tokens, table, reordering, lm, weights, options
