"""MERT: n-best pools, exact line search, and the outer tuning loop."""

import random

import pytest

from phraseforge.base import DataError
from phraseforge.decoder import BeamDecoder, DecodeError, FeatureWeights
from phraseforge.lm import NGramLanguageModel
from phraseforge.phrases import PhraseScores, PhraseTable
from phraseforge.tuning import (
    MertTuner,
    NBestPool,
    _line_search,
    optimize_weights,
    pool_bleu,
)

REF = ("t0", "t1", "t2", "t3")


def vec(*pairs):
    """A feature vector with the given (index, value) entries, zero elsewhere."""
    out = [0.0] * 9
    for index, value in pairs:
        out[index] = value
    return tuple(out)


def random_pool(rng, n_sentences=4):
    vocab = ["t%d" % k for k in range(6)]
    references = [
        tuple(rng.choice(vocab) for _ in range(rng.randint(4, 8)))
        for _ in range(n_sentences)
    ]
    pool = NBestPool(references)
    for i, ref in enumerate(references):
        candidates = [ref] if rng.random() < 0.5 else []
        while len(candidates) < rng.randint(3, 6):
            candidates.append(
                tuple(rng.choice(vocab) for _ in range(rng.randint(2, 8)))
            )
        for target in candidates:
            pool.add(i, target, [rng.uniform(-2.0, 2.0) for _ in range(9)])
    return pool


# -- the pool -----------------------------------------------------------------


def test_pool_keeps_the_first_feature_vector_per_translation():
    pool = NBestPool([REF])
    assert pool.add(0, ("t0",), vec((0, 1.0))) is True
    assert pool.add(0, ("t0",), vec((0, 2.0))) is False
    assert pool.entries[0][("t0",)] == vec((0, 1.0))
    assert len(pool) == 1


def test_pool_validates_feature_arity():
    pool = NBestPool([REF])
    with pytest.raises(DataError, match="9"):
        pool.add(0, ("t0",), (1.0, 2.0))


def test_pool_add_results_counts_new_entries():
    from phraseforge.decoder import DecodeResult

    pool = NBestPool([REF])
    results = [
        DecodeResult(("t0",), 0.0, vec(), ()),
        DecodeResult(("t1",), -1.0, vec((1, 1.0)), ()),
        DecodeResult(("t0",), -2.0, vec((2, 1.0)), ()),
    ]
    assert pool.add_results(0, results) == 2
    assert pool.add_results(0, results) == 0


def test_pool_bleu_is_one_when_the_argmax_hits_the_references():
    pool = NBestPool([REF, REF])
    for i in range(2):
        pool.add(i, REF, vec((0, 1.0)))
        pool.add(i, ("t9", "t9", "t9", "t9"), vec((0, -1.0)))
    assert pool_bleu(pool, vec((0, 1.0))) == 1.0
    # flipping the weight flips the argmax away from the references
    assert pool_bleu(pool, vec((0, -1.0))) < 1.0


def test_pool_argmax_ties_break_toward_the_smaller_translation():
    pool = NBestPool([("a", "a", "a", "a")])
    pool.add(0, ("a", "a", "a", "a"), vec())
    pool.add(0, ("z",), vec())
    # both score 0 under any weights; the smaller string is the reference
    assert pool_bleu(pool, FeatureWeights()) == 1.0


def test_pool_argmax_is_scale_invariant():
    rng = random.Random(3)
    for _ in range(20):
        pool = random_pool(rng)
        weights = tuple(rng.uniform(-1.0, 1.0) for _ in range(9))
        scaled = tuple(3.7 * w for w in weights)
        assert pool_bleu(pool, weights) == pool_bleu(pool, scaled)


# -- line search --------------------------------------------------------------


def test_line_search_dominates_dense_sampling():
    rng = random.Random(5)
    for _ in range(15):
        pool = random_pool(rng)
        base = tuple(rng.uniform(-1.0, 1.0) for _ in range(9))
        direction = tuple(rng.uniform(-1.0, 1.0) for _ in range(9))
        found = _line_search(pool, base, direction)
        assert found is not None
        best_bleu, gamma = found
        sampled = max(
            pool_bleu(pool, tuple(w + (g / 50.0) * d for w, d in zip(base, direction)))
            for g in range(-500, 501)
        )
        assert best_bleu >= sampled - 1e-12
        at_gamma = tuple(w + gamma * d for w, d in zip(base, direction))
        assert pool_bleu(pool, at_gamma) == pytest.approx(best_bleu, abs=1e-9)


def test_line_search_returns_none_when_nothing_can_change():
    pool = NBestPool([REF])
    pool.add(0, REF, vec((0, 1.0)))
    assert _line_search(pool, vec((0, 1.0)), vec((1, 1.0))) is None


# -- inner optimizer ----------------------------------------------------------


def test_optimize_weights_never_regresses_on_the_pool():
    rng = random.Random(7)
    for _ in range(10):
        pool = random_pool(rng)
        initial = tuple(rng.uniform(-1.0, 1.0) for _ in range(9))
        start = pool_bleu(pool, initial)
        weights, final = optimize_weights(pool, initial, seed=1)
        assert final >= start - 1e-12
        assert pool_bleu(pool, weights.as_vector()) == pytest.approx(final, abs=1e-12)


def test_optimize_weights_finds_the_obvious_improvement():
    pool = NBestPool([REF, REF, REF])
    for i in range(3):
        pool.add(i, REF, vec((2, 1.0)))
        pool.add(i, ("zz", "zz", "zz", "zz"), vec((1, 1.0)))
    initial = vec((1, 1.0))  # prefers the junk translations
    assert pool_bleu(pool, initial) < 1.0
    weights, final = optimize_weights(pool, initial, seed=0)
    assert final == 1.0
    assert pool_bleu(pool, weights.as_vector()) == 1.0


def test_optimize_weights_is_deterministic_per_seed():
    pool = random_pool(random.Random(11))
    initial = FeatureWeights()
    first = optimize_weights(pool, initial, seed=4)
    second = optimize_weights(pool, initial, seed=4)
    assert first == second


def test_optimize_weights_validates_arity():
    pool = random_pool(random.Random(13))
    with pytest.raises(DataError, match="9"):
        optimize_weights(pool, (1.0, 2.0, 3.0))


# -- the outer loop -----------------------------------------------------------


def toy_translation_task(rng, n_pairs=6):
    entries = {}
    for k in range(4):
        entries[(f"s{k}",)] = {
            (f"t{k}",): PhraseScores(0.7, 0.7, 0.7, 0.7),
            (f"t{(k + 1) % 4}",): PhraseScores(0.3, 0.3, 0.3, 0.3),
        }
    table = PhraseTable(entries)
    pairs = []
    for _ in range(n_pairs):
        src = tuple(f"s{rng.randrange(4)}" for _ in range(rng.randint(2, 4)))
        pairs.append((src, tuple("t" + w[1:] for w in src)))
    lm = NGramLanguageModel(order=2).fit([tgt for _, tgt in pairs])
    return table, lm, pairs


def test_mert_tuner_improves_within_every_iteration():
    rng = random.Random(17)
    table, lm, pairs = toy_translation_task(rng)
    decoder = BeamDecoder(table, lm)
    tuner = MertTuner(iterations=3, nbest_size=20).fit(pairs, decoder)
    assert len(tuner.history_) >= 1
    for before, after in tuner.history_:
        assert after >= before - 1e-9
    assert isinstance(tuner.weights_, FeatureWeights)
    assert decoder.weights == tuner.weights_
    assert len(tuner.pool_.entries) == len(pairs)
    assert len(tuner.pool_) > 0


def test_mert_tuner_validates_inputs():
    rng = random.Random(19)
    table, lm, pairs = toy_translation_task(rng)
    decoder = BeamDecoder(table, lm)
    with pytest.raises(ValueError, match="iterations"):
        MertTuner(iterations=0).fit(pairs, decoder)
    with pytest.raises(ValueError, match="nbest_size"):
        MertTuner(nbest_size=0).fit(pairs, decoder)
    with pytest.raises(DataError, match="dev set"):
        MertTuner().fit([], decoder)


class FailingDecoder(BeamDecoder):
    """A decoder whose n-best search raises DecodeError on the sources in
    `failing`."""

    def __init__(self, *args, failing=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.failing = set(failing)

    def nbest(self, tokens, n):
        if tuple(tokens) in self.failing:
            raise DecodeError(f"no complete derivation for {' '.join(tokens)!r}")
        return super().nbest(tokens, n)


def test_mert_tuner_skips_a_dev_sentence_that_cannot_be_decoded(caplog):
    rng = random.Random(23)
    table, lm, pairs = toy_translation_task(rng, n_pairs=8)
    bad = ("s0", "s3", "s1", "s2", "s2")
    dev = pairs[:3] + [(bad, ("t0", "t3", "t1", "t2", "t2"))] + pairs[3:]
    with caplog.at_level("WARNING", logger="phraseforge.tuning"):
        tuner = MertTuner(iterations=3, nbest_size=20).fit(
            dev, FailingDecoder(table, lm, failing=[bad])
        )
    assert tuner.skipped_ == [(iteration, 3) for iteration in range(len(tuner.history_))]
    assert "dev sentence 4 skipped" in caplog.text
    assert "s0 s3 s1 s2 s2" in caplog.text
    assert tuner.pool_.entries[3] == {}
    # the skipped sentence adds nothing, so tuning matches tuning without it
    alone = MertTuner(iterations=3, nbest_size=20).fit(pairs, BeamDecoder(table, lm))
    assert alone.skipped_ == []
    assert (tuner.history_, tuner.weights_) == (alone.history_, alone.weights_)


def test_mert_tuner_rejects_a_dev_set_it_cannot_decode_at_all():
    rng = random.Random(29)
    table, lm, pairs = toy_translation_task(rng, n_pairs=3)
    decoder = FailingDecoder(table, lm, failing=[src for src, _ in pairs])
    with pytest.raises(DataError, match="no dev sentence could be decoded"):
        MertTuner(iterations=2, nbest_size=5).fit(pairs, decoder)
