"""Independent reference implementations the tests compare the package to.

Everything here is written the slow, obvious way on purpose: linear
probability domain, dense dictionaries, exhaustive enumeration. A second
opinion is only worth having when it shares no code with the first.
"""

import itertools
import math
from collections import Counter, defaultdict

from phraseforge.align import AlignmentMatrix
from phraseforge.base import ParseError
from phraseforge.corpus import BOS, EOS, NULL_WORD, UNK
from phraseforge.decoder import (
    OOV_LOGPROB,
    FeatureWeights,
    TranslationOption,
    _step_features,
    build_options,
    future_cost_table,
)
from phraseforge.lm import NGramLanguageModel
from phraseforge.phrases import (
    DISC,
    MONO,
    ORIENTATIONS,
    SWAP,
    PhraseOccurrence,
    PhrasePair,
    PhraseScores,
    PhraseTable,
    ReorderingEntry,
    ReorderingTable,
)


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


def sparse_em(pairs, iterations):
    """Model 1 EM over vocabulary ids, looking every t(f|e) and every
    expected count up afresh, with the package's accumulation order (pair,
    then target word, then source word): the package's EM must reproduce
    it float for float. Returns ({source word: {target word: prob}},
    per-iteration log-likelihood)."""
    src_index = {NULL_WORD: 0}
    tgt_index = {}

    def encode(ids, words):
        return [ids.setdefault(w, len(ids)) for w in words]

    encoded = [([0] + encode(src_index, src), encode(tgt_index, tgt)) for src, tgt in pairs]
    uniform = 1.0 / len({f for _, tgt in encoded for f in tgt})
    table = defaultdict(dict)
    for src_ids, tgt_ids in encoded:
        for e in src_ids:
            for f in tgt_ids:
                table[e][f] = uniform
    history = []
    for _ in range(iterations):
        counts = defaultdict(lambda: defaultdict(float))
        loglik = 0.0
        for src_ids, tgt_ids in encoded:
            loglik -= len(tgt_ids) * math.log(len(src_ids))
            for f in tgt_ids:
                z = math.fsum(table[e][f] for e in src_ids)
                loglik += math.log(z) if z > 0.0 else float("-inf")
                for e in src_ids:
                    counts[e][f] += table[e][f] / z
        history.append(loglik)
        table = {}
        for e, row in counts.items():
            total = math.fsum(row.values())
            table[e] = {f: c / total for f, c in row.items()}
    src_words = {i: w for w, i in src_index.items()}
    tgt_words = {i: w for w, i in tgt_index.items()}
    rows = {
        src_words[e]: {tgt_words[f]: p for f, p in row.items()}
        for e, row in table.items()
    }
    return rows, history


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


def rescanning_extract(pair, alignment, max_len):
    """Phrase occurrences in the package's order, found by rescanning every
    link for each target span, each leak check and each occurrence."""
    src, tgt = tuple(pair[0]), tuple(pair[1])
    n, m = len(src), len(tgt)
    links = alignment.links
    src_aligned = {i for i, _ in links}
    occurrences = []
    for j1 in range(m):
        for j2 in range(j1, min(j1 + max_len, m)):
            in_span = [(i, j) for (i, j) in links if j1 <= j <= j2]
            if not in_span:
                continue
            i1 = min(i for i, _ in in_span)
            i2 = max(i for i, _ in in_span)
            if any(i1 <= i <= i2 and not (j1 <= j <= j2) for i, j in links):
                continue
            lo = i1
            while lo > 0 and (lo - 1) not in src_aligned:
                lo -= 1
            hi = i2
            while hi < n - 1 and (hi + 1) not in src_aligned:
                hi += 1
            for s1 in range(lo, i1 + 1):
                for s2 in range(i2, hi + 1):
                    if s2 - s1 + 1 > max_len:
                        continue
                    internal = frozenset(
                        (i - s1, j - j1)
                        for (i, j) in links
                        if s1 <= i <= s2 and j1 <= j <= j2
                    )
                    if (s1 - 1, j1 - 1) in links or (s1 == 0 and j1 == 0):
                        prev = MONO
                    elif (s2 + 1, j1 - 1) in links:
                        prev = SWAP
                    else:
                        prev = DISC
                    if (s2 + 1, j2 + 1) in links or (s2 == n - 1 and j2 == m - 1):
                        nxt = MONO
                    elif (s1 - 1, j2 + 1) in links:
                        nxt = SWAP
                    else:
                        nxt = DISC
                    phrase = PhrasePair(
                        (s1, s2), (j1, j2), src[s1:s2 + 1], tgt[j1:j2 + 1]
                    )
                    occurrences.append(PhraseOccurrence(phrase, internal, prev, nxt))
    return occurrences


def _counting_lexical_weight(produced, producing, links, ttable):
    by_produced = defaultdict(list)
    for i, j in links:
        by_produced[j].append(i)
    weight = 1.0
    for j, word in enumerate(produced):
        aligned = by_produced.get(j)
        if aligned:
            weight *= math.fsum(ttable.prob(producing[i], word) for i in aligned) / len(
                aligned
            )
        else:
            weight *= ttable.prob(NULL_WORD, word)
    return weight


def counting_score(occurrences, ttable_forward, ttable_reverse):
    """Phrase scores from three separate counters, with each link set's
    lexical weights recomputed from the set (and its transpose) through
    TTable.prob, the link sets visited in sorted order."""
    pair_counts = Counter()
    src_counts = Counter()
    tgt_counts = Counter()
    alignments = defaultdict(set)
    for occ in occurrences:
        key = (occ.phrase.src, occ.phrase.tgt)
        pair_counts[key] += 1
        src_counts[occ.phrase.src] += 1
        tgt_counts[occ.phrase.tgt] += 1
        alignments[key].add(occ.links)
    entries = defaultdict(dict)
    for (src, tgt), count in pair_counts.items():
        best_ts = 0.0
        best_st = 0.0
        for links in sorted(alignments[(src, tgt)], key=sorted):
            best_ts = max(best_ts, _counting_lexical_weight(tgt, src, links, ttable_forward))
            transposed = frozenset((j, i) for i, j in links)
            best_st = max(
                best_st, _counting_lexical_weight(src, tgt, transposed, ttable_reverse)
            )
        entries[src][tgt] = PhraseScores(
            phrase_st=count / tgt_counts[tgt],
            lex_st=best_st,
            phrase_ts=count / src_counts[src],
            lex_ts=best_ts,
        )
    return PhraseTable(dict(entries))


def counting_reordering(occurrences, smoothing):
    """Orientation distributions from one Counter per pair and direction."""
    fwd_counts = defaultdict(Counter)
    bwd_counts = defaultdict(Counter)
    for occ in occurrences:
        key = (occ.phrase.src, occ.phrase.tgt)
        fwd_counts[key][occ.prev_orient] += 1
        bwd_counts[key][occ.next_orient] += 1

    def smooth(counts):
        total = sum(counts.values()) + 3 * smoothing
        return tuple((counts.get(o, 0) + smoothing) / total for o in ORIENTATIONS)

    return ReorderingTable({
        key: ReorderingEntry(forward=smooth(fwd_counts[key]), backward=smooth(bwd_counts[key]))
        for key in fwd_counts
    })


# -- decoding -------------------------------------------------------------


def eager_scored_lines(path, width, table, value):
    """Every line `src ||| tgt ||| numbers` of a table file, read and
    converted in one pass: (source, target, floats) per non-blank line,
    or the ParseError of the first bad one. Each number must be a float
    in (0, 1]."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split(" ||| ")
            if len(fields) != 3:
                raise ParseError(
                    f"expected 'src ||| tgt ||| {width} numbers', got {line!r}",
                    path=path,
                    line=lineno,
                )
            src, tgt, numbers = fields[0].split(), fields[1].split(), fields[2].split()
            if not src or not tgt or len(numbers) != width:
                raise ParseError(f"malformed {table} entry", path=path, line=lineno)
            try:
                values = [float(x) for x in numbers]
            except ValueError:
                raise ParseError(f"bad {value} in {fields[2]!r}", path=path, line=lineno)
            for v in values:
                if not 0.0 < v <= 1.0:
                    raise ParseError(
                        f"{table} {value} {v} outside (0, 1]", path=path, line=lineno
                    )
            rows.append((tuple(src), tuple(tgt), tuple(values)))
    return rows


def capped_build_options(tokens, phrase_table, reordering_table=None, options_per_span=20):
    """Option building that looks up only the spans no longer than the
    table's longest source phrase, found by scanning the whole table."""
    def log(p):
        return math.log(p) if p > 0.0 else float("-inf")

    uniform = (math.log(1.0 / 3.0),) * 3
    n = len(tokens)
    max_len = max(max((len(s) for s in phrase_table.entries), default=0), 1)
    options = []
    for start in range(n):
        for end in range(start + 1, min(start + max_len, n) + 1):
            src = tokens[start:end]
            matches = phrase_table.lookup(src)
            if not matches:
                continue
            ranked = sorted(matches.items(),
                            key=lambda kv: (-math.fsum(log(p) for p in kv[1]), kv[0]))
            if options_per_span is not None:
                ranked = ranked[:options_per_span]
            for tgt, scores in ranked:
                fwd = bwd = None
                if reordering_table is not None:
                    entry = reordering_table.lookup(src, tgt)
                    if entry is None:
                        fwd = bwd = uniform
                    else:
                        fwd = tuple(log(p) for p in entry.forward)
                        bwd = tuple(log(p) for p in entry.backward)
                options.append(TranslationOption(
                    start, end, src, tgt, tuple(log(p) for p in scores), fwd, bwd))
    for i, word in enumerate(tokens):
        if not phrase_table.lookup((word,)):
            reo = uniform if reordering_table is not None else None
            options.append(TranslationOption(
                i, i + 1, (word,), (word,), (OOV_LOGPROB,) * 4, reo, reo, oov=True))
    options.sort(key=lambda o: (o.start, o.end, o.tgt))
    return options


def expansion_pruned_decode(decoder, tokens):
    """The best derivation of a plain stack search with decoder's model
    and limits that prunes a stack only when it expands it: no insertion
    floors, no bound before the LM lookup and no LM memo. It recombines
    on the package's key and breaks ties as the package does (the smaller
    target, then the first offered). Returns (score, target, derivation
    steps), or None when no complete derivation survives."""
    n = len(tokens)
    lm, weights = decoder.lm, decoder.weights
    reo_on = decoder.reordering_table is not None
    limit = decoder.distortion_limit
    options = build_options(
        tokens, decoder.phrase_table, decoder.reordering_table, decoder.options_per_span
    )
    masks = [opt.mask for opt in options]
    span_future = future_cost_table(options, n, weights, lm)

    def priority(hyp):
        total, i = 0.0, 0
        while i < n:
            j = i
            while j < n and not hyp["coverage"] >> j & 1:
                j += 1
            if j > i:
                total += span_future[(i, j)]
            i = j + 1
        return hyp["score"] + total

    def offer(stack, key, hyp):
        old = stack.get(key)
        if old is None or hyp["score"] > old["score"] or (
            hyp["score"] == old["score"] and hyp["target"] < old["target"]
        ):
            stack[key] = hyp

    keep = lm.order - 1
    start = {"score": 0.0, "target": (), "steps": (), "coverage": 0,
             "state": (BOS,) if keep else (), "span": (0, 0), "bwd": None}
    stacks = [{None: start}] + [{} for _ in range(n)]
    for covered in range(n):
        ranked = sorted(stacks[covered].values(), key=lambda h: (-priority(h), h["target"]))
        if decoder.beam_size is not None:
            ranked = ranked[:decoder.beam_size]
        if decoder.beam_threshold > 0.0 and ranked:
            cutoff = priority(ranked[0]) + math.log(decoder.beam_threshold)
            ranked = [h for h in ranked if priority(h) >= cutoff]
        for hyp in ranked:
            prev_start, prev_end = hyp["span"]
            for opt, mask in zip(options, masks):
                if limit is not None and abs(opt.start - prev_end) > limit:
                    continue
                if hyp["coverage"] & mask:
                    continue
                lm_sum, state = 0.0, hyp["state"]
                for word in opt.tgt:
                    lm_sum += lm.logprob(word, state)
                    if keep:
                        state = (state + (word,))[-keep:]
                reo = 0.0
                if reo_on:
                    orient = (MONO if opt.start == prev_end
                              else SWAP if opt.end == prev_start else DISC)
                    reo = opt.fwd_reo[orient]
                    if hyp["bwd"] is not None:
                        reo += hyp["bwd"][orient]
                features = _step_features(opt, lm_sum, reo, -float(abs(opt.start - prev_end)))
                coverage = hyp["coverage"] | mask
                recombine = (opt.start, opt.end, opt.bwd_reo) if reo_on else opt.end
                offer(stacks[coverage.bit_count()], (coverage, state, recombine), {
                    "score": hyp["score"] + weights.dot(features),
                    "target": hyp["target"] + opt.tgt,
                    "steps": hyp["steps"] + ((opt.start, opt.end, opt.tgt),),
                    "coverage": coverage, "state": state, "span": (opt.start, opt.end),
                    "bwd": opt.bwd_reo if reo_on else None,
                })
    final = {}
    for hyp in stacks[n].values():
        reo = 0.0
        if hyp["bwd"] is not None:
            reo = hyp["bwd"][MONO if hyp["span"][1] == n else DISC]
        features = (lm.logprob(EOS, hyp["state"]), 0.0, 0.0, 0.0, 0.0, reo, 0.0, 0.0, 0.0)
        offer(final, None, dict(hyp, score=hyp["score"] + weights.dot(features)))
    if not final:
        return None
    best = final[None]
    return best["score"], best["target"], best["steps"]


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
