"""Output checks computed apart from the program.

Every check here reads the model files itself, or takes the program's
in-memory results, and compares them with an independent computation or
a property the method guarantees. None of them compares against a stored
copy of earlier output. A failed check raises CheckFailure.
"""

from __future__ import annotations

import configparser
import math
from collections import Counter, defaultdict

LN10 = math.log(10.0)
NEG_INF = float("-inf")
OOV_LOGPROB = -10.0  # the copy-through option's four translation log-scores
UNIFORM_REO = math.log(1.0 / 3.0)
FEATURE_COUNT = 9
TOL = 1e-6
MAX_PHRASE_LEN = 7  # the program's default phrase length limit
DISTORTION_LIMIT = 6  # the decoder's default
MAX_ORDER = 4  # BLEU n-gram order
DICTIONARY_MIN_COUNT = 10


class CheckFailure(AssertionError):
    """A program output failed an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# -- model files, parsed without the program -----------------------------


class Arpa:
    """An ARPA backoff model read straight from the file."""

    def __init__(self, path: str):
        self.entries: dict[tuple[str, ...], tuple[float | None, float | None]] = {}
        self.order = 0
        section = 0
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("ngram ") or line == "\\data\\":
                    continue
                if line == "\\end\\":
                    break
                if line.endswith("-grams:"):
                    section = int(line[1:-len("-grams:")])
                    self.order = max(self.order, section)
                    continue
                fields = line.split("\t")
                gram = tuple(fields[1].split())
                require(len(gram) == section, f"{path}: {line!r} in \\{section}-grams:")
                logp = _arpa_value(fields[0])
                backoff = _arpa_value(fields[2]) if len(fields) > 2 else None
                self.entries[gram] = (logp, backoff)
        self.vocab = frozenset(
            g[0] for g, (p, _) in self.entries.items() if len(g) == 1 and p is not None
        )

    def logprob(self, word: str, context: tuple[str, ...]) -> float:
        """Natural-log P(word | context) by longest-match backoff; words
        outside the vocabulary are scored as <unk>."""
        if word not in self.vocab:
            if "<unk>" not in self.vocab:
                return NEG_INF
            word = "<unk>"
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        penalty = 0.0
        while True:
            entry = self.entries.get(context + (word,))
            if entry is not None and entry[0] is not None:
                return penalty + entry[0]
            if not context:
                return NEG_INF
            history = self.entries.get(context)
            if history is not None and history[1] is not None:
                penalty += history[1]
            context = context[1:]

    def sentence_logprob(self, tokens) -> float:
        context: tuple[str, ...] = ("<s>",)
        total = 0.0
        for word in tuple(tokens) + ("</s>",):
            total += self.logprob(word, context)
            context = context + (word,)
        return total


def _arpa_value(text: str) -> float | None:
    value = float(text)
    return None if value <= -98.0 else value * LN10


def read_phrase_table(path: str, sources=None) -> dict[tuple[str, ...], dict[tuple[str, ...], tuple[float, ...]]]:
    """{source phrase: {target phrase: (phi_st, lex_st, phi_ts, lex_ts)}},
    limited to the source phrases in `sources` when that is given."""
    table: dict = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            src, tgt, scores = line.rstrip("\n").split(" ||| ")
            src = tuple(src.split())
            if sources is None or src in sources:
                table[src][tuple(tgt.split())] = tuple(float(x) for x in scores.split())
    return dict(table)


def read_reordering_table(path: str, sources=None) -> dict[tuple, tuple[float, ...]]:
    """{(source phrase, target phrase): six probabilities, forward then
    backward}, limited to the source phrases in `sources` when given."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            src, tgt, nums = line.rstrip("\n").split(" ||| ")
            src = tuple(src.split())
            if sources is None or src in sources:
                table[(src, tuple(tgt.split()))] = tuple(float(x) for x in nums.split())
    return table


def phrases_of(sentences) -> set[tuple[str, ...]]:
    """Every phrase of at most MAX_PHRASE_LEN words in the sentences."""
    out = set()
    for sentence in sentences:
        sentence = tuple(sentence)
        for i in range(len(sentence)):
            for j in range(i + 1, min(i + MAX_PHRASE_LEN, len(sentence)) + 1):
                out.add(sentence[i:j])
    return out


def read_weights(config_path: str) -> tuple[float, ...]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(config_path, encoding="utf-8")
    names = ("lm", "phrase_st", "lex_st", "phrase_ts", "lex_ts", "reordering",
             "word_penalty", "phrase_penalty", "distortion")
    return tuple(float(parser["weights"][name]) for name in names)


def read_tokens(path: str) -> list[tuple[str, ...]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.split()) for line in fh]


def read_links(path: str) -> list[list[tuple[int, int]]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            out.append([tuple(int(x) for x in piece.split("-")) for piece in line.split()])
    return out


# -- training outputs ----------------------------------------------------


def check_ttable_rows(rows: dict[str, dict[str, float]], name: str) -> None:
    for src, row in rows.items():
        total = math.fsum(row.values())
        require(abs(total - 1.0) < 1e-9, f"{name}: t-table row {src!r} sums to {total!r}")


def check_loglik(history: list[float], name: str) -> None:
    require(len(history) >= 1, f"{name}: no EM log-likelihood recorded")
    for before, after in zip(history, history[1:]):
        require(after >= before - 1e-9 * abs(before),
                f"{name}: EM log-likelihood fell from {before!r} to {after!r}")


def check_lm(model_logprob, arpa: Arpa, histories) -> None:
    """For each history: the probabilities of vocabulary + <unk> sum to
    one, and the written ARPA file gives the same numbers."""
    vocab = sorted(arpa.vocab)
    require("<unk>" in arpa.vocab, "ARPA file has no <unk> unigram")
    for history in histories:
        probs = []
        for word in vocab:
            lp = model_logprob(word, history)
            own = arpa.logprob(word, history)
            require(abs(lp - own) < 1e-9,
                    f"LM P({word!r}|{history!r}): model {lp!r}, ARPA file {own!r}")
            probs.append(math.exp(lp))
        total = math.fsum(probs)
        require(abs(total - 1.0) < 1e-9, f"LM history {history!r}: probabilities sum to {total!r}")


def check_phrase_table(table) -> None:
    by_src: dict = defaultdict(list)
    by_tgt: dict = defaultdict(list)
    for src, row in table.items():
        for tgt, scores in row.items():
            require(all(0.0 < s <= 1.0 for s in scores), f"phrase score outside (0, 1]: {src} ||| {tgt}")
            by_src[src].append(scores[2])
            by_tgt[tgt].append(scores[0])
    for name, groups in (("phi(t|s)", by_src), ("phi(s|t)", by_tgt)):
        for phrase, values in groups.items():
            total = math.fsum(values)
            require(abs(total - 1.0) < 1e-8, f"{name} for {' '.join(phrase)!r} sums to {total!r}")


def check_reordering(table) -> None:
    for key, probs in table.items():
        for name, triple in (("forward", probs[:3]), ("backward", probs[3:])):
            total = math.fsum(triple)
            require(abs(total - 1.0) < 1e-9, f"{name} reordering for {key} sums to {total!r}")


def consistent_boxes(n: int, m: int, links):
    """Every (source span, target span), inclusive, whose box holds at
    least one link and that no link leaves on either axis, found by
    trying every box."""
    for s1 in range(n):
        for s2 in range(s1, min(s1 + MAX_PHRASE_LEN, n)):
            for t1 in range(m):
                for t2 in range(t1, min(t1 + MAX_PHRASE_LEN, m)):
                    inside = False
                    for i, j in links:
                        src_in = s1 <= i <= s2
                        if src_in != (t1 <= j <= t2):
                            break
                        inside = inside or src_in
                    else:
                        if inside:
                            yield (s1, s2), (t1, t2)


def check_extraction(source, target, links, table) -> int:
    found = 0
    for (s1, s2), (t1, t2) in consistent_boxes(len(source), len(target), links):
        src, tgt = source[s1:s2 + 1], target[t1:t2 + 1]
        require(tgt in table.get(src, {}),
                f"consistent pair {' '.join(src)!r} ||| {' '.join(tgt)!r} missing from the phrase table")
        found += 1
    return found


def check_dictionary(rows, corpus_sources, dictionary) -> int:
    """For every source word seen at least DICTIONARY_MIN_COUNT times, the
    t-table argmax must be a word of its hidden dictionary entry."""
    counts = Counter(w for sentence in corpus_sources for w in sentence)
    frequent = sorted(w for w, c in counts.items()
                      if c >= DICTIONARY_MIN_COUNT and w in dictionary)
    for word in frequent:
        row = rows[word]
        best = max(sorted(row), key=lambda t: row[t])
        require(best in dictionary[word],
                f"t-table argmax for {word!r} is {best!r}, hidden dictionary says {dictionary[word]}")
    return len(frequent)


# -- decoding outputs ----------------------------------------------------


class Rescorer:
    """Re-derives a derivation's nine features from the model files.

    Only the table entries for phrases of the given source sentences are
    kept, so the benchmark's copy of the model stays small next to the
    program's and does not set the run's peak memory.
    """

    distortion_limit = DISTORTION_LIMIT

    def __init__(self, files: dict, sentences):
        phrases = phrases_of(sentences)
        self.arpa = Arpa(files["lm"])
        self.table = read_phrase_table(files["phrase_table"], phrases)
        self.reordering = read_reordering_table(files["reordering_table"], phrases)

    def features(self, source, tokens, derivation) -> tuple[float, ...]:
        source = tuple(source)
        n = len(source)
        covered = [False] * n
        tm = [0.0, 0.0, 0.0, 0.0]
        reordering = []
        distortion = 0
        prev_span = (0, 0)
        prev_bwd = None
        target: list[str] = []
        for start, end, tgt in derivation:
            require(0 <= start < end <= n, f"step span ({start}, {end}) outside a {n}-word sentence")
            require(not any(covered[start:end]), f"step ({start}, {end}) covers a word twice")
            covered[start:end] = [True] * (end - start)
            src = source[start:end]
            tgt = tuple(tgt)
            scores = self.table.get(src, {}).get(tgt)
            if scores is not None:
                logs = [math.log(p) for p in scores]
                entry = self.reordering.get((src, tgt))
                if entry is None:
                    fwd = bwd = (UNIFORM_REO,) * 3
                else:
                    fwd = tuple(math.log(p) for p in entry[:3])
                    bwd = tuple(math.log(p) for p in entry[3:])
            else:
                unknown = end - start == 1 and tgt == src and not self.table.get(src)
                require(unknown, f"step {' '.join(src)!r} -> {' '.join(tgt)!r} is neither a "
                                 "table entry nor an unknown word's copy")
                logs = [OOV_LOGPROB] * 4
                fwd = bwd = (UNIFORM_REO,) * 3
            jump = abs(start - prev_span[1])
            require(jump <= self.distortion_limit,
                    f"jump of {jump} exceeds the distortion limit {self.distortion_limit}")
            if start == prev_span[1]:
                orient = 0
            elif end == prev_span[0]:
                orient = 1
            else:
                orient = 2
            reordering.append(fwd[orient])
            if prev_bwd is not None:
                reordering.append(prev_bwd[orient])
            for k in range(4):
                tm[k] += logs[k]
            distortion -= jump
            target.extend(tgt)
            prev_span = (start, end)
            prev_bwd = bwd
        require(all(covered), f"derivation leaves words uncovered: {covered}")
        require(tuple(target) == tuple(tokens),
                f"concatenated targets {target} differ from the output {list(tokens)}")
        if prev_bwd is not None:
            reordering.append(prev_bwd[0 if prev_span[1] == n else 2])
        lm = self.arpa.sentence_logprob(target)
        return (lm, *tm, math.fsum(reordering), float(len(target)),
                float(len(derivation)), float(distortion))

    def check(self, source, result, weights) -> None:
        """Features must match within TOL. The score must match within TOL
        times the sum of its terms' magnitudes, the scale of its rounding:
        MERT can return weights of order 1e11, which makes terms of 1e12."""
        own = self.features(source, result.tokens, result.derivation)
        require(len(result.features) == FEATURE_COUNT, "result has the wrong number of features")
        for k, (mine, theirs) in enumerate(zip(own, result.features)):
            require(abs(mine - theirs) <= TOL,
                    f"feature {k} of {' '.join(result.tokens)!r}: program {theirs!r}, rescored {mine!r}")
        terms = [w * f for w, f in zip(weights, own)]
        score = math.fsum(terms)
        scale = max(1.0, math.fsum(abs(t) for t in terms))
        require(abs(score - result.score) <= TOL * scale,
                f"score of {' '.join(result.tokens)!r}: program {result.score!r}, rescored {score!r}")


def check_nbest_order(results) -> None:
    for a, b in zip(results, results[1:]):
        require(b.score <= a.score + 1e-9, f"n-best score rises down the list: {a.score!r} -> {b.score!r}")


def own_bleu(hypotheses, references, smooth: bool = False) -> float:
    """Corpus BLEU from clipped n-gram counts, one reference per sentence.
    smooth adds one to the matches and totals of orders 2 and up, as the
    pool BLEU that MERT maximizes does."""
    matched = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp, ref = tuple(hyp), tuple(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            hyp_grams = Counter(hyp[i:i + n] for i in range(len(hyp) - n + 1))
            ref_grams = Counter(ref[i:i + n] for i in range(len(ref) - n + 1))
            matched[n - 1] += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
            totals[n - 1] += max(0, len(hyp) - n + 1)
    if smooth:
        matched = matched[:1] + [m + 1 for m in matched[1:]]
        totals = totals[:1] + [t + 1 for t in totals[1:]]
    if hyp_len == 0 or any(t == 0 or m == 0 for m, t in zip(matched, totals)):
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(math.fsum(math.log(m / t) for m, t in zip(matched, totals)) / MAX_ORDER)


def check_bleu(program_bleu: float, hypotheses, references) -> None:
    own = own_bleu(hypotheses, references)
    require(abs(own - program_bleu) < 1e-9, f"BLEU: program {program_bleu!r}, recomputed {own!r}")


def pool_argmax_bleu(pool, references, weights) -> float:
    """Smoothed BLEU of each dev sentence's highest-scoring pool entry;
    ties go to the lexicographically smaller translation, MERT's rule."""
    hypotheses = []
    for entries in pool:
        scored = ((-math.fsum(w * f for w, f in zip(weights, features)), target)
                  for target, features in entries.items())
        hypotheses.append(min(scored)[1])
    return own_bleu(hypotheses, references, smooth=True)


def check_tuning(history, calls, dev, tuned) -> None:
    """Rebuild MERT's n-best pool from the lists each iteration decoded
    (one entry per translation, the first feature vector seen) and
    recompute each iteration's pool BLEU: before under the weights the
    iteration decoded with, after under the weights the next one decoded
    with, or the tuned weights after the last. Both must match the
    tuner's history, and after may not be below before.

    calls holds (source, weights, n-best list) per n-best call, in order."""
    size = len(dev)
    require(len(history) >= 1, "tuning recorded no iterations")
    require(len(calls) == size * len(history),
            "tuning did not decode every dev sentence once per iteration")
    references = [target for _, target in dev]
    pool: list[dict] = [{} for _ in dev]
    for k, (before, after) in enumerate(history):
        iteration = calls[k * size:(k + 1) * size]
        for entries, (source, _), (decoded, _, results) in zip(pool, dev, iteration):
            require(tuple(decoded) == tuple(source), f"tuning iteration {k + 1} decoded out of order")
            for result in results:
                entries.setdefault(tuple(result.tokens), tuple(result.features))
        start = iteration[0][1]
        end = calls[(k + 1) * size][1] if k + 1 < len(history) else tuned
        own = (pool_argmax_bleu(pool, references, start), pool_argmax_bleu(pool, references, end))
        require(all(abs(a - b) < 1e-9 for a, b in zip(own, (before, after))),
                f"tuning iteration {k + 1}: history says pool BLEU {before!r} -> {after!r}, "
                f"the pool gives {own[0]!r} -> {own[1]!r}")
        require(own[1] >= own[0], f"tuning iteration {k + 1}: pool BLEU fell {own[0]!r} -> {own[1]!r}")
