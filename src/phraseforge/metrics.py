"""Corpus BLEU and the exact-match success report.

BLEU here is corpus-level: clipped n-gram matches and n-gram totals are
summed over all sentences, the geometric mean of the modified precisions
is taken at the end, and a brevity penalty exp(1 - r/h) applies when the
hypothesis corpus is shorter than the effective reference length r. r
sums, per sentence, the length of the shortest reference; that choice
keeps BLEU monotone under added references (shorter r can only raise the
penalty term, and extra references can only raise clipped counts).

Scores live in [0, 1]; the conventional 0-100 reading is formatting,
which summary() applies.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, NamedTuple, Sequence

from .base import DataError

MAX_ORDER = 4


def _ngrams(tokens: Sequence[str], n: int) -> Iterable[tuple[str, ...]]:
    return (tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


@dataclass(frozen=True)
class BleuStats:
    """Per-sentence sufficient statistics; add them to pool a corpus."""

    matched: tuple[int, ...]
    totals: tuple[int, ...]
    hyp_length: int
    ref_length: int

    def __add__(self, other: "BleuStats") -> "BleuStats":
        return BleuStats(
            tuple(a + b for a, b in zip(self.matched, other.matched)),
            tuple(a + b for a, b in zip(self.totals, other.totals)),
            self.hyp_length + other.hyp_length,
            self.ref_length + other.ref_length,
        )

    @classmethod
    def zero(cls) -> "BleuStats":
        return cls((0,) * MAX_ORDER, (0,) * MAX_ORDER, 0, 0)


def sentence_stats(
    hypothesis: Sequence[str], references: Sequence[Sequence[str]]
) -> BleuStats:
    """Clipped matches and totals for one hypothesis against its references."""
    hyp = tuple(hypothesis)
    refs = [tuple(r) for r in references]
    if not refs:
        raise DataError("empty reference set")
    matched = []
    totals = []
    for n in range(1, MAX_ORDER + 1):
        hyp_counts = Counter(_ngrams(hyp, n))
        clipped = 0
        if hyp_counts:
            limits: Counter = Counter()
            for ref in refs:
                for gram, count in Counter(_ngrams(ref, n)).items():
                    if count > limits[gram]:
                        limits[gram] = count
            clipped = sum(min(c, limits[g]) for g, c in hyp_counts.items())
        matched.append(clipped)
        totals.append(max(0, len(hyp) - n + 1))
    return BleuStats(tuple(matched), tuple(totals), len(hyp), min(len(r) for r in refs))


def _score(stats: BleuStats, smooth: bool) -> tuple[float, tuple[float, ...], float]:
    precisions = []
    for n, (m, t) in enumerate(zip(stats.matched, stats.totals)):
        if smooth and n > 0:  # +1 smoothing on orders >= 2 only
            m, t = m + 1, t + 1
        precisions.append(m / t if t else 0.0)
    if stats.hyp_length == 0:
        bp = 0.0
    elif stats.hyp_length < stats.ref_length:
        bp = math.exp(1.0 - stats.ref_length / stats.hyp_length)
    else:
        bp = 1.0
    if bp == 0.0 or any(p == 0.0 for p in precisions):
        value = 0.0
    else:
        value = bp * math.exp(math.fsum(math.log(p) for p in precisions) / len(precisions))
    return value, tuple(precisions), bp


def stats_bleu(stats: BleuStats, smooth: bool = False) -> float:
    """BLEU in [0, 1] from summed sufficient statistics."""
    return _score(stats, smooth)[0]


class BleuReport(NamedTuple):
    bleu: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hyp_length: int
    ref_length: int
    smoothed: bool

    def summary(self) -> str:
        """One-line report, score and precisions in the 0-100 convention."""
        ratio = self.hyp_length / self.ref_length if self.ref_length else float("inf")
        body = "/".join(f"{100.0 * p:.1f}" for p in self.precisions)
        return (
            f"BLEU = {100.0 * self.bleu:.2f} "
            f"({body}, BP={self.brevity_penalty:.3f}, ratio={ratio:.3f})"
        )


def _as_reference_sets(references: Sequence) -> list[list[tuple[str, ...]]]:
    sets = []
    for entry in references:
        entry = list(entry)
        if entry and isinstance(entry[0], str):  # a single reference sentence
            sets.append([tuple(entry)])
        else:
            sets.append([tuple(ref) for ref in entry])
    return sets


def bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence,
    smooth: bool = False,
) -> BleuReport:
    """Corpus BLEU of tokenized hypotheses against reference sets.

    Each element of references is either one reference sentence or a list
    of alternative references for the hypothesis at the same index.
    """
    if len(hypotheses) != len(references):
        raise DataError(
            f"length mismatch: {len(hypotheses)} hypotheses, "
            f"{len(references)} reference sets"
        )
    if not hypotheses:
        raise DataError("empty corpus")
    total = BleuStats.zero()
    for hyp, refs in zip(hypotheses, _as_reference_sets(references)):
        total = total + sentence_stats(hyp, refs)
    value, precisions, bp = _score(total, smooth)
    return BleuReport(value, precisions, bp, total.hyp_length, total.ref_length, smooth)


def error_rate(total: int, unsuccessful: int) -> float:
    """Percentage of unsuccessful sentences, rounded half-up to 1 decimal."""
    if total <= 0:
        raise DataError(f"total must be positive, got {total}")
    if not 0 <= unsuccessful <= total:
        raise DataError(f"unsuccessful must be in [0, {total}], got {unsuccessful}")
    percent = Decimal(100 * unsuccessful) / Decimal(total)
    return float(percent.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class ErrorAnalysis:
    total: int
    successful: int
    unsuccessful: int
    percent: float

    def __post_init__(self):
        if self.successful + self.unsuccessful != self.total:
            raise DataError(
                f"successful ({self.successful}) + unsuccessful "
                f"({self.unsuccessful}) != total ({self.total})"
            )

    @classmethod
    def from_flags(cls, successes: Iterable[bool]) -> "ErrorAnalysis":
        flags = list(successes)
        total = len(flags)
        good = sum(1 for f in flags if f)
        return cls(total, good, total - good, error_rate(total, total - good))

    def summary(self) -> str:
        return (
            f"sentences: {self.total}  successful: {self.successful}  "
            f"unsuccessful: {self.unsuccessful}  error: {self.percent}%"
        )


def report(
    sources: Sequence[Sequence[str]],
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    successes: Sequence[bool] | None = None,
    smooth: bool = False,
) -> str:
    """Side-by-side evaluation: sentence table, BLEU line, error analysis.

    Success defaults to exact token match against the reference; pass
    explicit flags (e.g. human judgments) to override.
    """
    if not len(sources) == len(hypotheses) == len(references):
        raise DataError(
            f"length mismatch: {len(sources)} sources, {len(hypotheses)} "
            f"hypotheses, {len(references)} references"
        )
    if successes is None:
        flags = [tuple(h) == tuple(r) for h, r in zip(hypotheses, references)]
    else:
        flags = [bool(f) for f in successes]
        if len(flags) != len(sources):
            raise DataError(
                f"length mismatch: {len(flags)} success flags, {len(sources)} sentences"
            )
    rows = [("#", "source", "hypothesis", "reference", "result")]
    for i, (src, hyp, ref, ok) in enumerate(zip(sources, hypotheses, references, flags)):
        rows.append(
            (str(i + 1), " ".join(src), " ".join(hyp), " ".join(ref),
             "ok" if ok else "ERROR")
        )
    widths = [max(len(row[c]) for row in rows) for c in range(5)]
    lines = [
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    score = bleu(hypotheses, [list(r) for r in references], smooth=smooth)
    analysis = ErrorAnalysis.from_flags(flags)
    lines += ["", score.summary(), f"bleu: {score.bleu:.4f}", analysis.summary()]
    return "\n".join(lines) + "\n"
