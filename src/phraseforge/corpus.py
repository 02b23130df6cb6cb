"""Parallel corpus preparation: tokenization, truecasing, cleaning, splits.

All text is NFC-normalized on the way in. Tokens never contain whitespace,
so a corpus file round-trips as one space-joined sentence per line.
"""

from __future__ import annotations

import random
import re
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .base import CorpusError, check_sentence

NULL_WORD = "<NULL>"
BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# Detachable clause/terminal punctuation. The danda and double danda cover
# Bengali-script text; the rest covers Latin-punctuated material.
_DETACH_CHARS = "।॥.,?!;:\"'()"
_DETACH_RE = re.compile("([" + re.escape(_DETACH_CHARS) + "])")
# Re-join decimal/thousands separators that sit between digits: 3.14, 1,200.
_NUMERIC_RE = re.compile(r"(?<=\d) ([.,]) (?=\d)")


class SentencePair(NamedTuple):
    source: tuple[str, ...]
    target: tuple[str, ...]


@dataclass
class ParallelCorpus:
    """Sentence-aligned bitext plus the language names used for file suffixes."""

    pairs: list[SentencePair]
    source_lang: str = "src"
    target_lang: str = "tgt"

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SentencePair]:
        return iter(self.pairs)


def tokenize(raw: str) -> tuple[str, ...]:
    """Tokenize one raw line: NFC-normalize, detach punctuation, split.

    The detach set covers Indic danda punctuation alongside the usual
    Latin marks.
    Periods and commas flanked by digits on both sides stay attached.
    Raises CorpusError on lines with no tokens.
    """
    text = unicodedata.normalize("NFC", raw)
    text = _DETACH_RE.sub(r" \1 ", text)
    text = _NUMERIC_RE.sub(r"\1", text)
    tokens = tuple(text.split())
    if not tokens:
        raise CorpusError("empty line")
    return tokens


def learn_truecase(sentences: Iterable[tuple[str, ...]]) -> dict[str, str]:
    """Learn a truecasing table: lowercased form -> most frequent surface form.

    Counts are taken at non-initial positions only, where capitalization is
    informative; ties break lexicographically for determinism. Caseless
    scripts produce an identity table.
    """
    by_form: defaultdict[str, Counter] = defaultdict(Counter)
    for tokens in sentences:
        for tok in tokens[1:]:
            by_form[tok.lower()][tok] += 1
    table = {}
    for low, counts in by_form.items():
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        table[low] = best[0]
    return table


def truecase(tokens: tuple[str, ...], table: dict[str, str]) -> tuple[str, ...]:
    """Recase the sentence-initial token to its most frequent training form."""
    if not tokens:
        return tokens
    repl = table.get(tokens[0].lower())
    if repl is None or repl == tokens[0]:
        return tuple(tokens)
    return (repl,) + tuple(tokens[1:])


def clean(corpus: ParallelCorpus, max_len: int = 80, max_ratio: float = 9.0) -> ParallelCorpus:
    """Drop pairs that are overlong or badly length-mismatched.

    Keeps pairs with both side lengths in [1, max_len] and
    max(len)/min(len) <= max_ratio. Idempotent.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if max_ratio < 1:
        raise ValueError(f"max_ratio must be >= 1, got {max_ratio}")
    kept = []
    for pair in corpus.pairs:
        ls, lt = len(pair.source), len(pair.target)
        if ls < 1 or lt < 1 or ls > max_len or lt > max_len:
            continue
        if max(ls, lt) / min(ls, lt) > max_ratio:
            continue
        kept.append(pair)
    return ParallelCorpus(kept, corpus.source_lang, corpus.target_lang)


def split(
    corpus: ParallelCorpus,
    n_train: int,
    n_test: int,
    n_tune: int,
    seed: int = 0,
) -> tuple[ParallelCorpus, ParallelCorpus, ParallelCorpus]:
    """Deterministically split a corpus into disjoint train/test/tune parts.

    Selection is a seeded shuffle of pair indices; each part keeps the
    original corpus order. Sizes must not exceed the corpus.
    """
    for name, n in (("n_train", n_train), ("n_test", n_test), ("n_tune", n_tune)):
        if n < 0:
            raise ValueError(f"{name} must be >= 0, got {n}")
    total = n_train + n_test + n_tune
    if total > len(corpus):
        raise CorpusError(
            f"requested split sizes sum to {total} but corpus has {len(corpus)} pairs"
        )
    indices = list(range(len(corpus)))
    random.Random(seed).shuffle(indices)
    parts = []
    offset = 0
    for n in (n_train, n_test, n_tune):
        chosen = sorted(indices[offset : offset + n])
        parts.append(
            ParallelCorpus(
                [corpus.pairs[i] for i in chosen], corpus.source_lang, corpus.target_lang
            )
        )
        offset += n
    return parts[0], parts[1], parts[2]


def read_lines(path: str) -> list[str]:
    """Read a UTF-8 text file into a list of lines without trailing newlines."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def read_line_pairs(stem: str, source_lang: str, target_lang: str) -> list[tuple[str, str]]:
    """The lines of <stem>.<source_lang> and <stem>.<target_lang>, paired
    in order; CorpusError unless both files have the same number of lines."""
    src_path = f"{stem}.{source_lang}"
    tgt_path = f"{stem}.{target_lang}"
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            f"line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    return list(zip(src_lines, tgt_lines))


def read_parallel(stem: str, source_lang: str, target_lang: str) -> ParallelCorpus:
    """Load a tokenized parallel corpus from <stem>.<source_lang>/<stem>.<target_lang>.

    Lines hold space-separated tokens; both files must have the same number
    of lines and no empty lines.
    """
    lines = read_line_pairs(stem, source_lang, target_lang)
    pairs = []
    for lineno, (src, tgt) in enumerate(lines, start=1):
        src_toks = tuple(unicodedata.normalize("NFC", src).split())
        tgt_toks = tuple(unicodedata.normalize("NFC", tgt).split())
        if not src_toks:
            raise CorpusError(f"{stem}.{source_lang}:{lineno}: empty line")
        if not tgt_toks:
            raise CorpusError(f"{stem}.{target_lang}:{lineno}: empty line")
        pairs.append(SentencePair(check_sentence(src_toks), check_sentence(tgt_toks)))
    return ParallelCorpus(pairs, source_lang, target_lang)


def write_parallel(corpus: ParallelCorpus, stem: str) -> tuple[str, str]:
    """Write a corpus to <stem>.<source_lang> and <stem>.<target_lang>."""
    src_path = f"{stem}.{corpus.source_lang}"
    tgt_path = f"{stem}.{corpus.target_lang}"
    write_lines(src_path, (" ".join(p.source) for p in corpus.pairs))
    write_lines(tgt_path, (" ".join(p.target) for p in corpus.pairs))
    return src_path, tgt_path
