"""Acceptance gate: one test per shipped guarantee.

Each criterion states its tolerance and a wall-clock budget and prints a
single pass line, so a full run reads as a checklist. Everything here is
covered in more detail by the per-module suites; this file is the short
honest summary.
"""

import io
import math
import os
import random
import sys
import time
import unicodedata

import pytest

from helpers import (
    all_derivations,
    consistent_boxes,
    random_alignment,
    random_decoder_instance,
    random_pairs,
)
from phraseforge.align import IBM1Aligner, read_pharaoh, write_pharaoh
from phraseforge.cli import main
from phraseforge.config import RunConfig, read_config, write_config
from phraseforge.corpus import tokenize
from phraseforge.decoder import BeamDecoder, FeatureWeights
from phraseforge.lm import NGramLanguageModel, read_arpa
from phraseforge.metrics import bleu, error_rate
from phraseforge.phrases import (
    PhraseScores,
    PhraseTable,
    ReorderingEntry,
    ReorderingTable,
    extract_phrases,
)
from phraseforge.translator import PhraseBasedTranslator
from phraseforge.tuning import MertTuner

FIXTURE_CONFIG = os.path.join(
    os.path.dirname(__file__), "fixtures", "bn-as", "run.ini"
)

DEMO_SENTENCES = [
    ("আসামে একটি সুন্দর জায়গা ।", "অসম এখন সুন্দৰ ঠাই ।"),
    ("আমি গৌহাটী বিশ্ববিদ্যালয়ের একজন ছাত্র", "মই গুৱাহাটী বিশ্ববিদ্যালয়ৰ ছাত্ৰ"),
]


def finish(number, label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def spans(phrases):
    return {(p.src_span, p.tgt_span) for p in phrases}


def random_corpus(rng, n_sentences, vocab, min_len=1, max_len=8):
    return [
        tuple(rng.choice(vocab) for _ in range(rng.randint(min_len, max_len)))
        for _ in range(n_sentences)
    ]


def identity_pairs(rng, n_pairs=50, vocab=("a", "b", "c", "d", "e", "f", "g", "h")):
    # distinct words per sentence: repeats make Model 1 alignments ambiguous
    pairs = []
    for _ in range(n_pairs):
        sentence = tuple(rng.sample(vocab, rng.randint(1, 6)))
        pairs.append((sentence, sentence))
    return pairs


def mapped_pairs(rng, n_pairs=50, vocab=8):
    pairs = []
    for _ in range(n_pairs):
        src = tuple(f"s{rng.randrange(vocab)}" for _ in range(rng.randint(1, 6)))
        pairs.append((src, tuple("t" + w[1:] for w in src)))
    return pairs


def test_criterion_01_error_rate_arithmetic():
    started = time.perf_counter()
    assert error_rate(200, 35) == 17.5
    assert error_rate(250, 39) == 15.6
    assert error_rate(300, 41) == 13.7
    finish(1, "error rate arithmetic is exact", started, 1.0)


def test_criterion_02_em_likelihood_and_row_sums():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(25):
        pairs = random_pairs(rng, rng.randint(1, 5), max_len=4)
        aligner = IBM1Aligner(iterations=10).fit(pairs)
        history = aligner.loglik_per_iteration_
        assert len(history) == 10
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-9
        for row in aligner.ttable_.rows().values():
            assert math.fsum(row.values()) == pytest.approx(1.0, abs=1e-9)
    finish(2, "EM log-likelihood non-decreasing, rows sum to 1", started, 5.0)


def test_criterion_03_decoder_matches_brute_force():
    started = time.perf_counter()
    rng = random.Random(103)
    for trial in range(100):
        tokens, table, reordering, lm, weights, options = random_decoder_instance(
            rng, with_reordering=trial % 2 == 1
        )
        decoder = BeamDecoder(
            table, lm, reordering, weights,
            beam_size=None, beam_threshold=0.0,
            distortion_limit=None, options_per_span=None,
        )
        best = max(e[0] for e in all_derivations(tokens, options, lm, weights, reordering))
        assert decoder.decode(tokens).score == pytest.approx(best, abs=1e-6)
    finish(3, "unrestricted decoder equals brute-force search", started, 30.0)


def test_criterion_04_extraction_matches_brute_force():
    started = time.perf_counter()
    rng = random.Random(107)
    for _ in range(500):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        alignment = random_alignment(rng, n, m)
        max_len = rng.choice((1, 2, 3, 4, 7))
        src = tuple(f"s{i}" for i in range(n))
        tgt = tuple(f"t{j}" for j in range(m))
        got = spans(extract_phrases((src, tgt), alignment, max_len))
        assert got == consistent_boxes(n, m, alignment.links, max_len)
    finish(4, "phrase extraction equals exhaustive consistency check", started, 10.0)


def test_criterion_05_bleu_laws():
    started = time.perf_counter()
    rng = random.Random(109)
    vocab = ["w%d" % k for k in range(6)]

    for _ in range(20):
        hyps = random_corpus(rng, rng.randint(1, 8), vocab, min_len=4)
        assert bleu(hyps, hyps).bleu == 1.0

    report = bleu([("the", "the", "the")], [("the", "cat")])
    assert report.precisions[0] == 1 / 3

    for _ in range(100):
        hyps = random_corpus(rng, rng.randint(1, 6), vocab)
        refs = [[random_corpus(rng, 1, vocab)[0]] for _ in hyps]
        more = [rs + [random_corpus(rng, 1, vocab)[0]] for rs in refs]
        assert bleu(hyps, more).bleu >= bleu(hyps, refs).bleu - 1e-12
    finish(5, "BLEU identity, clipping, and added-reference laws", started, 10.0)


def test_criterion_06_identity_language_end_to_end():
    started = time.perf_counter()
    rng = random.Random(113)
    pairs = identity_pairs(rng)
    model = PhraseBasedTranslator().fit(pairs)
    sources = [src for src, _ in pairs]
    hypotheses = [model.translate(s) for s in sources]
    assert bleu(hypotheses, sources).bleu >= 0.99
    finish(6, "identity corpus round-trips at BLEU >= 0.99", started, 60.0)


def test_criterion_07_overfit_end_to_end():
    started = time.perf_counter()
    rng = random.Random(127)
    pairs = mapped_pairs(rng)
    model = PhraseBasedTranslator().fit(pairs)
    hypotheses = [model.translate(src) for src, _ in pairs]
    references = [tgt for _, tgt in pairs]
    assert bleu(hypotheses, references).bleu >= 0.9
    finish(7, "trained corpus is memorized at BLEU >= 0.9", started, 120.0)


def test_criterion_08_tuning_never_regresses():
    started = time.perf_counter()
    rng = random.Random(131)
    pairs = mapped_pairs(rng, n_pairs=30)
    devset = mapped_pairs(rng, n_pairs=20)
    model = PhraseBasedTranslator().fit(pairs)
    tuner = MertTuner(iterations=3, nbest_size=50, seed=0)
    tuner.fit(devset, model.decoder_, initial=model.weights_)
    assert tuner.history_
    for before, after in tuner.history_:
        assert after >= before - 1e-12
    finish(8, "every tuning iteration keeps or improves pool BLEU", started, 120.0)


def test_criterion_09_shipped_demo_models(capsys, monkeypatch):
    started = time.perf_counter()
    stdin = "".join(source + "\n" for source, _ in DEMO_SENTENCES)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    capsys.readouterr()
    code = main(["translate", "--config", FIXTURE_CONFIG])
    stdout = capsys.readouterr().out
    assert code == 0
    got = [unicodedata.normalize("NFC", line) for line in stdout.splitlines()]
    want = [unicodedata.normalize("NFC", expected) for _, expected in DEMO_SENTENCES]
    assert got == want

    model = PhraseBasedTranslator.load(FIXTURE_CONFIG)
    for source, _ in DEMO_SENTENCES:
        results = model.nbest(tokenize(source), 2)
        assert len(results) == 2
        assert results[0].score > results[1].score + 1e-9  # the argmax is unique
    finish(9, "demo models translate both showcase sentences", started, 5.0)


def test_criterion_10_format_round_trips(tmp_path):
    started = time.perf_counter()
    rng = random.Random(137)
    vocab = ["w%d" % k for k in range(5)]

    lm = NGramLanguageModel(order=3).fit(random_corpus(rng, 12, vocab, max_len=6))
    arpa = str(tmp_path / "model.arpa")
    lm.write_arpa(arpa)
    loaded = read_arpa(arpa)
    history = ()
    for word in vocab + ["zzz"]:
        assert loaded.logprob(word, history) == pytest.approx(
            lm.logprob(word, history), abs=1e-8
        )
        history = (history + (word,))[-2:]

    entries = {
        ("s0", "s1"): {("t0",): PhraseScores(*(rng.uniform(0.01, 1) for _ in range(4)))},
        ("s2",): {("t1", "t2"): PhraseScores(*(rng.uniform(0.01, 1) for _ in range(4)))},
    }
    table_path = str(tmp_path / "phrases.txt")
    PhraseTable(entries).write(table_path)
    reread = PhraseTable.read(table_path)
    for src, tgts in entries.items():
        for tgt, scores in tgts.items():
            got = reread.lookup(src)[tgt]
            assert got == pytest.approx(scores, rel=1e-9)

    reo = {
        (("s0",), ("t0",)): ReorderingEntry((0.5, 0.25, 0.25), (0.1, 0.2, 0.7)),
        (("s1", "s2"), ("t1",)): ReorderingEntry((0.6, 0.3, 0.1), (0.4, 0.4, 0.2)),
    }
    reo_path = str(tmp_path / "reordering.txt")
    ReorderingTable(reo).write(reo_path)
    reread_reo = ReorderingTable.read(reo_path)
    for key, entry in reo.items():
        assert reread_reo.lookup(*key).forward == pytest.approx(entry.forward, rel=1e-9)
        assert reread_reo.lookup(*key).backward == pytest.approx(entry.backward, rel=1e-9)

    matrices = [random_alignment(rng, 4, 4) for _ in range(6)]
    pharaoh = str(tmp_path / "links.pharaoh")
    write_pharaoh(matrices, pharaoh)
    assert read_pharaoh(pharaoh) == [m.links for m in matrices]

    (tmp_path / "lm.arpa").write_text("stub", encoding="utf-8")
    (tmp_path / "pt.txt").write_text("stub", encoding="utf-8")
    config = RunConfig(
        lm="lm.arpa", phrase_table="pt.txt", order=2, add_k=0.25,
        weights=FeatureWeights(lm=0.75),
    )
    config_path = str(tmp_path / "run.ini")
    write_config(config, config_path)
    reread_config = read_config(config_path)
    assert reread_config.order == 2
    assert reread_config.add_k == 0.25
    assert reread_config.weights == config.weights
    roundtrip = str(tmp_path / "run2.ini")
    write_config(reread_config, roundtrip)
    with open(config_path, encoding="utf-8") as fh:
        first = fh.read()
    with open(roundtrip, encoding="utf-8") as fh:
        assert fh.read() == first
    finish(10, "all five file formats survive write/read", started, 10.0)
