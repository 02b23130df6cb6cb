"""Word alignment: IBM Model 1 EM training, Viterbi alignment, symmetrization.

The lexical translation table t(f|e) gives the probability of a target
word f being produced by a source word e; a NULL source word is prepended
to every source sentence so target words can align to nothing. EM here is
the classic alternation: expected link counts in proportion to current
probabilities, then per-source-row renormalization.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .base import BaseEstimator, DataError, ParseError
from .corpus import NULL_WORD, ParallelCorpus, SentencePair

logger = logging.getLogger(__name__)

Link = tuple[int, int]


@dataclass(frozen=True)
class AlignmentMatrix:
    """A set of (source index, target index) links over an n x m pair."""

    n_source: int
    m_target: int
    links: frozenset[Link]

    def __post_init__(self):
        for i, j in self.links:
            if not (0 <= i < self.n_source and 0 <= j < self.m_target):
                raise DataError(
                    f"link ({i},{j}) outside a {self.n_source}x{self.m_target} pair"
                )

    def transposed(self) -> "AlignmentMatrix":
        return AlignmentMatrix(
            self.m_target, self.n_source, frozenset((j, i) for i, j in self.links)
        )


_NO_ROW: Mapping[str, float] = MappingProxyType({})  # the row of an unseen word


class TTable:
    """Sparse lexical translation probabilities, keyed by token.

    The rows are {source token: {target token: prob}}; rows() returns a
    fresh copy of them, and prob() returns 0.0 for unseen pairs. Every
    stored row sums to 1.
    """

    def __init__(self, rows: dict[str, dict[str, float]]):
        self._rows = rows

    @classmethod
    def from_dict(cls, mapping: dict[tuple[str, str], float]) -> "TTable":
        """Build a table from {(source token, target token): prob}."""
        rows: dict[str, dict[str, float]] = defaultdict(dict)
        for (src, tgt), p in mapping.items():
            rows[src][tgt] = p
        return cls(dict(rows))

    def prob(self, src_token: str, tgt_token: str) -> float:
        return self._rows.get(src_token, _NO_ROW).get(tgt_token, 0.0)

    def row(self, src_token: str) -> Mapping[str, float]:
        """The stored row of src_token (empty when unseen); do not mutate it."""
        return self._rows.get(src_token, _NO_ROW)

    def rows(self) -> dict[str, dict[str, float]]:
        return {src: dict(row) for src, row in self._rows.items()}


class IBM1Aligner(BaseEstimator):
    """IBM Model 1 trained by EM.

    fit() expects an iterable of (source tokens, target tokens) pairs or a
    ParallelCorpus; it learns ttable_ = t(target word | source word) and
    records loglik_per_iteration_, the corpus log-likelihood under the
    table in force at the start of each iteration (non-decreasing).
    """

    def __init__(self, iterations: int = 5):
        self.iterations = iterations
        self.ttable_: TTable | None = None
        self.loglik_per_iteration_: list[float] | None = None

    def fit(self, pairs) -> "IBM1Aligner":
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        pair_list = _as_pairs(pairs)
        if not pair_list:
            raise DataError("cannot train an aligner on an empty corpus")

        sentences: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
        for src, tgt in pair_list:
            if not src or not tgt:
                raise DataError("alignment pairs must be non-empty on both sides")
            sentences.append(((NULL_WORD, *src), tuple(tgt)))

        n_targets = len({f for _, tgt in sentences for f in tgt})
        uniform = 1.0 / n_targets
        table: dict[str, dict[str, float]] = defaultdict(dict)
        for src, tgt in sentences:
            for e in src:
                row = table[e]
                for f in tgt:
                    row[f] = uniform

        history = []
        for _ in range(self.iterations):
            counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
            loglik = 0.0
            for src, tgt in sentences:
                loglik -= len(tgt) * math.log(len(src))
                t_rows = [table[e] for e in src]
                c_rows = [counts[e] for e in src]
                for f in tgt:
                    probs = [row[f] for row in t_rows]
                    z = math.fsum(probs)
                    loglik += math.log(z) if z > 0.0 else float("-inf")
                    for c_row, p in zip(c_rows, probs):
                        c_row[f] += p / z
            history.append(loglik)
            new_table: dict[str, dict[str, float]] = {}
            for e, row in counts.items():
                total = math.fsum(row.values())
                new_table[e] = {f: c / total for f, c in row.items()}
            table = new_table

        self.ttable_ = TTable(table)
        self.loglik_per_iteration_ = history
        return self


def _as_pairs(pairs) -> list[SentencePair]:
    if isinstance(pairs, ParallelCorpus):
        return list(pairs.pairs)
    return [SentencePair(tuple(s), tuple(t)) for s, t in pairs]


def corpus_loglik(ttable: TTable, pairs) -> float:
    """Model 1 corpus log-likelihood.

    Per pair: -m*ln(n+1) + sum_j ln sum_i t(f_j|e_i) with e_i ranging over
    the source words plus NULL. A zero inner sum makes the pair impossible;
    it is flagged and contributes -inf.
    """
    total = 0.0
    for src, tgt in _as_pairs(pairs):
        total -= len(tgt) * math.log(len(src) + 1)
        for f in tgt:
            z = ttable.prob(NULL_WORD, f) + math.fsum(ttable.prob(e, f) for e in src)
            if z <= 0.0:
                logger.warning("target word %r unreachable from %r", f, src)
                total += float("-inf")
            else:
                total += math.log(z)
    return total


def viterbi_align(
    ttable: TTable, pair: SentencePair | tuple, direction: str = "forward"
) -> AlignmentMatrix:
    """Best single link per target word under Model 1.

    Each target word links to its argmax source word, or to no word at all
    when NULL wins; ties prefer NULL, then the smallest source index. With
    direction="reverse" the pair's roles are swapped for alignment and the
    links are transposed back, so the result is always source x target.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")
    src, tgt = (tuple(pair[0]), tuple(pair[1]))
    if direction == "reverse":
        src, tgt = tgt, src
    null_row = ttable.row(NULL_WORD)
    src_rows = [ttable.row(e) for e in src]
    links = set()
    for j, f in enumerate(tgt):
        best = null_row.get(f, 0.0)
        best_i = None
        for i, row in enumerate(src_rows):
            p = row.get(f, 0.0)
            if p > best:
                best = p
                best_i = i
        if best_i is not None:
            links.add((best_i, j))
    matrix = AlignmentMatrix(len(src), len(tgt), frozenset(links))
    if direction == "reverse":
        matrix = matrix.transposed()
    return matrix


_HEURISTICS = ("intersection", "union", "grow-diag-final-and")


def symmetrize(
    forward: AlignmentMatrix,
    reverse: AlignmentMatrix,
    heuristic: str = "grow-diag-final-and",
) -> AlignmentMatrix:
    """Combine two directional alignments over the same pair.

    Both inputs must already be in source x target orientation (transpose
    the swapped-direction alignment first). grow-diag-final-and starts from
    the intersection, repeatedly adds union links 8-adjacent to the current
    set when either endpoint is uncovered, then finally adds union links
    whose endpoints are both uncovered. Always satisfies
    intersection <= result <= union.
    """
    if heuristic not in _HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}; choose from {_HEURISTICS}")
    if (forward.n_source, forward.m_target) != (reverse.n_source, reverse.m_target):
        raise DataError(
            f"alignment shapes differ: {forward.n_source}x{forward.m_target} vs "
            f"{reverse.n_source}x{reverse.m_target}"
        )
    inter = forward.links & reverse.links
    union = forward.links | reverse.links
    if heuristic == "intersection":
        return AlignmentMatrix(forward.n_source, forward.m_target, frozenset(inter))
    if heuristic == "union":
        return AlignmentMatrix(forward.n_source, forward.m_target, frozenset(union))

    current = set(inter)
    src_covered = {i for i, _ in current}
    tgt_covered = {j for _, j in current}
    candidates = sorted(union - current)

    def neighbors(i: int, j: int):
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di or dj:
                    yield (i + di, j + dj)

    changed = True
    while changed:
        changed = False
        for i, j in candidates:
            if (i, j) in current:
                continue
            if i in src_covered and j in tgt_covered:
                continue
            if any(nb in current for nb in neighbors(i, j)):
                current.add((i, j))
                src_covered.add(i)
                tgt_covered.add(j)
                changed = True

    for i, j in candidates:
        if (i, j) not in current and i not in src_covered and j not in tgt_covered:
            current.add((i, j))
            src_covered.add(i)
            tgt_covered.add(j)

    return AlignmentMatrix(forward.n_source, forward.m_target, frozenset(current))


def write_pharaoh(alignments: Iterable[AlignmentMatrix], path: str) -> None:
    """Write alignments one per line as space-separated i-j links (0-based)."""
    with open(path, "w", encoding="utf-8") as fh:
        for a in alignments:
            fh.write(" ".join(f"{i}-{j}" for i, j in sorted(a.links)) + "\n")


def read_pharaoh(path: str) -> list[frozenset[Link]]:
    """Read Pharaoh-format alignment link sets, one per line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            links = set()
            for piece in raw.split():
                left, sep, right = piece.partition("-")
                if not sep or not left.isdigit() or not right.isdigit():
                    raise ParseError(f"malformed link {piece!r}", path=path, line=lineno)
                links.add((int(left), int(right)))
            out.append(frozenset(links))
    return out
