"""Phrase pair extraction, translation scoring, and lexicalized reordering.

A phrase pair is a source span and target span that are consistent with
the word alignment: the box contains at least one link, no link leaves the
box on either axis, and spans may extend over unaligned boundary words.

Score columns, in file order and everywhere else: phi(s|t), lex(s|t),
phi(t|s), lex(t|s), abbreviated st/ts for source-given-target and
target-given-source.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .align import AlignmentMatrix, Link, TTable
from .base import DataError, ParseError
from .corpus import NULL_WORD, SentencePair

MONO = "mono"
SWAP = "swap"
DISC = "disc"
ORIENTATIONS = (MONO, SWAP, DISC)


@dataclass(frozen=True, slots=True)
class PhrasePair:
    """Extracted phrase pair: inclusive spans plus their surface tokens."""

    src_span: tuple[int, int]
    tgt_span: tuple[int, int]
    src: tuple[str, ...]
    tgt: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class PhraseOccurrence:
    """One extraction instance with its box-internal links and orientations.

    links are re-indexed to the box (0-based from the span starts);
    prev_orient/next_orient classify the pair against the adjacent
    alignment corners (the forward and backward reordering events).
    """

    phrase: PhrasePair
    links: frozenset[Link]
    prev_orient: str
    next_orient: str


class PhraseScores(NamedTuple):
    phrase_st: float
    lex_st: float
    phrase_ts: float
    lex_ts: float


class ReorderingEntry(NamedTuple):
    """Orientation distributions (mono, swap, disc), forward and backward."""

    forward: tuple[float, float, float]
    backward: tuple[float, float, float]


def extract_occurrences(
    pair: SentencePair | tuple,
    alignment: AlignmentMatrix,
    max_phrase_len: int = 7,
) -> list[PhraseOccurrence]:
    """Enumerate consistent phrase pair occurrences for one aligned pair.

    Iterates target spans, projects each onto the source side, rejects
    spans whose projected box leaks links, then emits every extension of
    the source span over adjacent unaligned source words. The links are
    indexed once by target position, and each source position keeps the
    first and last target it links to: for a fixed target start the
    projection grows by a running min/max as the target span grows, and a
    box leaks exactly when a source position inside it links outside the
    target span. Runs in O(|links| + m * L * n) per pair, for
    L = max_phrase_len, plus the size of the occurrences it emits.
    """
    if max_phrase_len < 1:
        raise ValueError(f"max_phrase_len must be >= 1, got {max_phrase_len}")
    src, tgt = tuple(pair[0]), tuple(pair[1])
    n, m = len(src), len(tgt)
    if (alignment.n_source, alignment.m_target) != (n, m):
        raise DataError(
            f"alignment is {alignment.n_source}x{alignment.m_target} "
            f"but the pair is {n}x{m}"
        )
    links = alignment.links
    by_target: list[list[Link]] = [[] for _ in range(m)]
    # Unaligned source positions get the empty extent (m, -1), which never
    # leaks.
    first_tgt = [m] * n
    last_tgt = [-1] * n
    for link in links:
        i, j = link
        by_target[j].append(link)
        if j < first_tgt[i]:
            first_tgt[i] = j
        if j > last_tgt[i]:
            last_tgt[i] = j
    occurrences = []
    for j1 in range(m):
        in_span: list[Link] = []
        i1, i2 = n, -1
        for j2 in range(j1, min(j1 + max_phrase_len, m)):
            column = by_target[j2]
            in_span += column
            for i, _ in column:
                if i < i1:
                    i1 = i
                if i > i2:
                    i2 = i
            if not in_span:
                continue
            if min(first_tgt[i1 : i2 + 1]) < j1:
                break  # a link left of j1 stays inside every longer span's projection
            if max(last_tgt[i1 : i2 + 1]) > j2:
                continue
            lo = i1
            while lo > 0 and last_tgt[lo - 1] < 0:
                lo -= 1
            hi = i2
            while hi < n - 1 and last_tgt[hi + 1] < 0:
                hi += 1
            # The box is consistent and its extensions are unaligned, so
            # in_span holds exactly the links inside every box emitted here.
            for s1 in range(lo, i1 + 1):
                for s2 in range(i2, min(hi, s1 + max_phrase_len - 1) + 1):
                    occurrences.append(
                        _occurrence(src, tgt, links, in_span, n, m, s1, s2, j1, j2)
                    )
    return occurrences


def _occurrence(src, tgt, links, in_box, n, m, s1, s2, j1, j2) -> PhraseOccurrence:
    internal = frozenset([(i - s1, j - j1) for i, j in in_box])
    # Orientation against the previous target phrase: monotone when the
    # diagonal corner continues the alignment (the sentence corners count),
    # swap when the anti-diagonal corner does, discontinuous otherwise.
    if (s1 - 1, j1 - 1) in links or (s1 == 0 and j1 == 0):
        prev_orient = MONO
    elif (s2 + 1, j1 - 1) in links:
        prev_orient = SWAP
    else:
        prev_orient = DISC
    if (s2 + 1, j2 + 1) in links or (s2 == n - 1 and j2 == m - 1):
        next_orient = MONO
    elif (s1 - 1, j2 + 1) in links:
        next_orient = SWAP
    else:
        next_orient = DISC
    phrase = PhrasePair((s1, s2), (j1, j2), src[s1 : s2 + 1], tgt[j1 : j2 + 1])
    return PhraseOccurrence(phrase, internal, prev_orient, next_orient)


def extract_phrases(
    pair: SentencePair | tuple,
    alignment: AlignmentMatrix,
    max_phrase_len: int = 7,
) -> set[PhrasePair]:
    """The set of consistent phrase pairs for one aligned sentence pair."""
    return {occ.phrase for occ in extract_occurrences(pair, alignment, max_phrase_len)}


def extract_corpus(
    pairs: Iterable[SentencePair | tuple],
    alignments: Iterable[AlignmentMatrix],
    max_phrase_len: int = 7,
) -> list[PhraseOccurrence]:
    """Extraction over a whole aligned corpus, concatenated in corpus order."""
    occurrences = []
    for pair, alignment in zip(pairs, alignments):
        occurrences.extend(extract_occurrences(pair, alignment, max_phrase_len))
    return occurrences


def _lexical_weight(
    produced: tuple[str, ...],
    aligned_to: list[list[int]],
    producer_rows: list[Mapping[str, float]],
    null_row: Mapping[str, float],
) -> float:
    """Koehn lexical weight: for each produced word, average t over the
    producing words it is aligned to (aligned_to[k] lists their positions,
    producer_rows their t-table rows), or take t(word|NULL) when it is
    unaligned; multiply in produced-position order."""
    weight = 1.0
    for word, aligned in zip(produced, aligned_to):
        if not aligned:
            weight *= null_row.get(word, 0.0)
        elif len(aligned) == 1:
            weight *= producer_rows[aligned[0]].get(word, 0.0)  # == fsum([t]) / 1
        else:
            weight *= math.fsum(producer_rows[i].get(word, 0.0) for i in aligned) / len(
                aligned
            )
    return weight


def score_phrases(
    occurrences: Iterable[PhraseOccurrence],
    ttable_forward: TTable,
    ttable_reverse: TTable,
) -> "PhraseTable":
    """Relative-frequency phrase probabilities plus lexical weights.

    ttable_forward is t(target|source), ttable_reverse is t(source|target).
    Lexical weights take, per pair and direction, the maximum over the
    distinct internal alignments observed for that pair.
    """
    # (src, tgt) -> [occurrence count, distinct internal link sets]
    pairs: dict[tuple, list] = {}
    for occ in occurrences:
        key = (occ.phrase.src, occ.phrase.tgt)
        seen = pairs.get(key)
        if seen is None:
            pairs[key] = [1, {occ.links}]
        else:
            seen[0] += 1
            seen[1].add(occ.links)
    src_counts: defaultdict[tuple, int] = defaultdict(int)
    tgt_counts: defaultdict[tuple, int] = defaultdict(int)
    for (src, tgt), (count, _) in pairs.items():
        src_counts[src] += count
        tgt_counts[tgt] += count
    null_fwd = ttable_forward.row(NULL_WORD)
    null_rev = ttable_reverse.row(NULL_WORD)
    entries: dict[tuple[str, ...], dict[tuple[str, ...], PhraseScores]] = defaultdict(dict)
    for (src, tgt), (count, link_sets) in pairs.items():
        src_rows = [ttable_forward.row(w) for w in src]
        tgt_rows = [ttable_reverse.row(w) for w in tgt]
        best_ts = 0.0
        best_st = 0.0
        for links in link_sets:
            by_src: list[list[int]] = [[] for _ in src]
            by_tgt: list[list[int]] = [[] for _ in tgt]
            for i, j in links:
                by_src[i].append(j)
                by_tgt[j].append(i)
            lex_ts = _lexical_weight(tgt, by_tgt, src_rows, null_fwd)
            if lex_ts > best_ts:
                best_ts = lex_ts
            lex_st = _lexical_weight(src, by_src, tgt_rows, null_rev)
            if lex_st > best_st:
                best_st = lex_st
        entries[src][tgt] = PhraseScores(
            phrase_st=count / tgt_counts[tgt],
            lex_st=best_st,
            phrase_ts=count / src_counts[src],
            lex_ts=best_ts,
        )
    return PhraseTable(dict(entries))


_ORIENT_INDEX = {MONO: 0, SWAP: 1, DISC: 2}


def train_reordering(
    occurrences: Iterable[PhraseOccurrence], smoothing: float = 0.5
) -> "ReorderingTable":
    """Per-pair msd orientation distributions, both directions, add-sigma
    smoothed: P(o) = (count_o + sigma) / (count_total + 3*sigma)."""
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    # (src, tgt) -> forward mono, swap, disc counts, then backward ones
    counts: dict[tuple, list[int]] = {}
    for occ in occurrences:
        key = (occ.phrase.src, occ.phrase.tgt)
        c = counts.get(key)
        if c is None:
            c = counts[key] = [0, 0, 0, 0, 0, 0]
        c[_ORIENT_INDEX[occ.prev_orient]] += 1
        c[3 + _ORIENT_INDEX[occ.next_orient]] += 1
    return ReorderingTable(
        {
            key: ReorderingEntry(
                forward=_smooth_triple(c[0], c[1], c[2], smoothing),
                backward=_smooth_triple(c[3], c[4], c[5], smoothing),
            )
            for key, c in counts.items()
        }
    )


def _smooth_triple(
    mono: int, swap: int, disc: int, sigma: float
) -> tuple[float, float, float]:
    total = (mono + swap + disc) + 3 * sigma
    return ((mono + sigma) / total, (swap + sigma) / total, (disc + sigma) / total)


class PhraseTable:
    """Scored phrase pairs: {source tokens: {target tokens: PhraseScores}}."""

    def __init__(self, entries: dict[tuple[str, ...], dict[tuple[str, ...], PhraseScores]]):
        self.entries = entries

    def lookup(self, src: tuple[str, ...]) -> dict[tuple[str, ...], PhraseScores]:
        return self.entries.get(tuple(src), {})

    def __len__(self) -> int:
        return sum(len(t) for t in self.entries.values())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for src in sorted(self.entries):
                for tgt in sorted(self.entries[src]):
                    s = self.entries[src][tgt]
                    fh.write(
                        f"{' '.join(src)} ||| {' '.join(tgt)} ||| "
                        f"{s.phrase_st:.12g} {s.lex_st:.12g} "
                        f"{s.phrase_ts:.12g} {s.lex_ts:.12g}\n"
                    )

    @classmethod
    def read(cls, path: str) -> "PhraseTable":
        entries: dict = defaultdict(dict)
        for src, tgt, values in _read_scored_lines(path, 4, "phrase table", "score"):
            entries[src][tgt] = PhraseScores(*values)
        return cls(dict(entries))


class ReorderingTable:
    """Lexicalized reordering distributions keyed by (source, target) tokens."""

    def __init__(self, entries: dict[tuple, ReorderingEntry]):
        self.entries = entries

    def lookup(
        self, src: tuple[str, ...], tgt: tuple[str, ...]
    ) -> ReorderingEntry | None:
        return self.entries.get((tuple(src), tuple(tgt)))

    def __len__(self) -> int:
        return len(self.entries)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for src, tgt in sorted(self.entries):
                e = self.entries[(src, tgt)]
                fh.write(
                    "%s ||| %s ||| %.12g %.12g %.12g %.12g %.12g %.12g\n"
                    % (" ".join(src), " ".join(tgt), *e.forward, *e.backward)
                )

    @classmethod
    def read(cls, path: str) -> "ReorderingTable":
        lines = _read_scored_lines(path, 6, "reordering", "probability")
        return cls(
            {
                (src, tgt): ReorderingEntry(forward=tuple(v[:3]), backward=tuple(v[3:]))
                for src, tgt, v in lines
            }
        )


def _read_scored_lines(path: str, width: int, table: str, value: str):
    """(source tokens, target tokens, numbers) for each non-blank line
    `src ||| tgt ||| numbers` of path, with exactly width numbers, each
    in (0, 1]. table and value name the table and its numbers in the
    ParseError that a bad line raises."""
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
            src = tuple(fields[0].split())
            tgt = tuple(fields[1].split())
            numbers = fields[2].split()
            if not src or not tgt or len(numbers) != width:
                raise ParseError(f"malformed {table} entry", path=path, line=lineno)
            try:
                values = [float(x) for x in numbers]
            except ValueError:
                raise ParseError(f"bad {value} in {fields[2]!r}", path=path, line=lineno)
            for v in values:
                if not (0.0 < v <= 1.0):
                    raise ParseError(
                        f"{table} {value} {v} outside (0, 1]", path=path, line=lineno
                    )
            yield src, tgt, values
