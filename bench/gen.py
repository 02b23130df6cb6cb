"""Seeded synthetic bitext generator.

Source words are drawn with Zipf-like frequencies and translated word by
word through a hidden dictionary; a share of the dictionary entries
produce two target words. Adjacent target chunks (the translations of
adjacent source words) are swapped at a set rate, which gives the
aligner and the reordering model something to learn. Raw lines are
capitalized and end in a period, so prepare's tokenizer and truecaser
do real work. The program sees only the written files; the dictionary
stays with the benchmark, which uses it to check the aligner.
"""

from __future__ import annotations

import bisect
import itertools
import random

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
VOCAB_SIZE = 400
TWO_WORD_RATE = 0.1  # share of dictionary entries that give two target words
ZIPF_EXPONENT = 1.0
SWAP_RATE = 0.15  # chance of swapping a pair of adjacent target chunks


class Language:
    """A hidden source vocabulary, its Zipf weights and its dictionary."""

    def __init__(self, seed: int):
        rng = random.Random(f"language-{seed}")
        self.source_words = _words(rng, VOCAB_SIZE, 2)
        target_pool = _words(rng, 2 * VOCAB_SIZE, 3)
        rng.shuffle(target_pool)
        pool = iter(target_pool)
        self.dictionary: dict[str, tuple[str, ...]] = {}
        for word in self.source_words:
            width = 2 if rng.random() < TWO_WORD_RATE else 1
            self.dictionary[word] = tuple(next(pool) for _ in range(width))
        self.cumulative = list(itertools.accumulate(
            1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, VOCAB_SIZE + 1)
        ))

    def draw(self, rng: random.Random, length: int) -> list[str]:
        total = self.cumulative[-1]
        return [
            self.source_words[bisect.bisect_left(self.cumulative, rng.random() * total)]
            for _ in range(length)
        ]

    def translate(self, rng: random.Random, source: list[str]) -> list[str]:
        chunks = [list(self.dictionary[w]) for w in source]
        k = 0
        while k + 1 < len(chunks):
            if rng.random() < SWAP_RATE:
                chunks[k], chunks[k + 1] = chunks[k + 1], chunks[k]
                k += 2
            else:
                k += 1
        return [w for chunk in chunks for w in chunk]


def _words(rng: random.Random, count: int, syllables: int) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < count:
        word = "".join(
            rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def lengths(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """count sentence lengths spread evenly over [low, high], in seeded
    order. Every seed gets the same multiset, so the work per run does
    not drift with the seed."""
    span = high - low + 1
    out = [low + (k % span) for k in range(count)]
    rng.shuffle(out)
    return out


def sentences(language: Language, seed: int, tag: str, count: int, low: int,
              high: int) -> list[tuple[list[str], list[str]]]:
    """count (source, target) token lists with lengths in [low, high]."""
    rng = random.Random(f"{tag}-{seed}")
    out = []
    for length in lengths(rng, count, low, high):
        source = language.draw(rng, length)
        out.append((source, language.translate(rng, source)))
    return out


def raw_line(tokens: list[str]) -> str:
    return " ".join([tokens[0].capitalize(), *tokens[1:]]) + "."


def write_raw(pairs, stem: str) -> None:
    """Write raw lines to <stem>.src and <stem>.tgt."""
    with open(f"{stem}.src", "w", encoding="utf-8") as src_fh, \
            open(f"{stem}.tgt", "w", encoding="utf-8") as tgt_fh:
        for source, target in pairs:
            src_fh.write(raw_line(source) + "\n")
            tgt_fh.write(raw_line(target) + "\n")
