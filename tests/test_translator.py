"""The end-to-end estimator: train, translate, save, load."""

import gc
import random
import shutil

import pytest

from phraseforge.base import DataError, NotFittedError
from phraseforge.config import PARAM_KEYS, RunConfig, read_config, validate_config
from phraseforge.corpus import ParallelCorpus, SentencePair
from phraseforge.decoder import DecodeResult, FeatureWeights
from phraseforge.translator import SETTINGS, PhraseBasedTranslator
from phraseforge.tuning import MertTuner


def identity_corpus(rng, n_pairs=10, vocab=("a", "b", "c", "d", "e", "f")):
    pairs = []
    for _ in range(n_pairs):
        sentence = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
        pairs.append((sentence, sentence))
    return pairs


def mapped_corpus(rng, n_pairs=10):
    pairs = []
    for _ in range(n_pairs):
        src = tuple(f"s{rng.randrange(5)}" for _ in range(rng.randint(1, 5)))
        pairs.append((src, tuple("t" + w[1:] for w in src)))
    return pairs


def test_identity_corpus_translates_to_itself():
    rng = random.Random(3)
    pairs = identity_corpus(rng)
    model = PhraseBasedTranslator(em_iterations=5).fit(pairs)
    for src, _ in pairs[:5]:
        assert model.translate(src) == src


def test_disjoint_vocabularies_learn_the_word_mapping():
    rng = random.Random(5)
    pairs = mapped_corpus(rng)
    model = PhraseBasedTranslator().fit(pairs)
    for src, tgt in pairs[:5]:
        assert model.translate(src) == tgt


def test_fit_accepts_a_parallel_corpus_object():
    pairs = [SentencePair(("a", "b"), ("a", "b")), SentencePair(("b",), ("b",))]
    model = PhraseBasedTranslator().fit(ParallelCorpus(tuple(pairs)))
    assert model.translate(("a", "b")) == ("a", "b")


def test_fitted_attributes_are_populated():
    rng = random.Random(7)
    pairs = identity_corpus(rng, n_pairs=6)
    model = PhraseBasedTranslator().fit(pairs)
    assert model.lm_.order == 3
    assert len(model.alignments_) == len(pairs)
    assert len(model.phrase_table_) > 0
    assert len(model.reordering_table_) > 0
    assert model.weights_ == FeatureWeights()
    assert model.decoder_.phrase_table is model.phrase_table_


def test_nbest_is_ordered_and_leads_with_the_translation():
    rng = random.Random(11)
    pairs = mapped_corpus(rng)
    model = PhraseBasedTranslator().fit(pairs)
    sources = [src for src, _ in pairs[:3]]
    translations = [model.translate(s) for s in sources]
    assert [model.nbest(s, 1)[0].tokens for s in sources] == translations
    results = model.nbest(sources[0], 5)
    assert all(isinstance(r, DecodeResult) for r in results)
    assert results[0].tokens == model.translate(sources[0])
    for earlier, later in zip(results, results[1:]):
        assert earlier.score >= later.score - 1e-9


def test_save_writes_the_weights_tuned_on_the_decoder(tmp_path):
    rng = random.Random(0)
    pairs = mapped_corpus(rng, n_pairs=20)
    # noisy pairs, so the default weights leave dev BLEU to gain
    pairs += [(src, tuple(reversed(tgt)) + ("t0",)) for src, tgt in mapped_corpus(rng, 8)]
    model = PhraseBasedTranslator().fit(pairs)
    tuner = MertTuner(iterations=2, nbest_size=20).fit(mapped_corpus(rng), model.decoder_)
    assert tuner.weights_ != FeatureWeights()
    assert model.weights_ is model.decoder_.weights
    assert read_config(model.save(str(tmp_path / "m"))).weights == tuner.weights_


def test_translate_requires_fit():
    with pytest.raises(NotFittedError):
        PhraseBasedTranslator().translate(("a",))


def test_fit_rejects_an_empty_corpus():
    with pytest.raises(DataError):
        PhraseBasedTranslator().fit([])


def test_stage_failures_name_the_stage():
    with pytest.raises(DataError, match="language-model"):
        PhraseBasedTranslator().fit([(("a",), ())])


def test_save_and_load_round_trip(tmp_path):
    rng = random.Random(13)
    pairs = mapped_corpus(rng)
    model = PhraseBasedTranslator(order=2).fit(pairs)
    out = tmp_path / "model"
    config_path = model.save(str(out), source_lang="xx", target_lang="yy")
    assert config_path == str(out / "run.ini")
    for name in ("lm.arpa", "phrase-table.txt", "reordering-table.txt",
                 "alignments.pharaoh", "run.ini"):
        assert (out / name).is_file(), name
    loaded = PhraseBasedTranslator.load(config_path)
    for src, _ in pairs[:5]:
        assert loaded.translate(src) == model.translate(src)
    assert loaded.weights_ == model.weights_
    assert loaded.order == 2
    assert getattr(loaded, "alignments_", None) is None


def random_settings(rng):
    return {
        "order": rng.randint(1, 5),
        "smoothing": rng.choice(("witten-bell", "add-k")),
        "add_k": rng.choice((0.0, rng.uniform(0.0, 2.0))),
        "em_iterations": rng.randint(1, 6),
        "max_phrase_len": rng.randint(1, 7),
        "beam_size": rng.choice((None, rng.randint(1, 200))),
        "beam_threshold": rng.choice((0.0, 1.0, rng.random())),
        "distortion_limit": rng.choice((None, rng.randint(0, 10))),
        "options_per_span": rng.choice((None, rng.randint(1, 30))),
    }


def test_saved_settings_load_back_unchanged(tmp_path):
    rng = random.Random(17)
    pairs = mapped_corpus(rng, n_pairs=4)
    for k in range(25):
        settings = random_settings(rng)
        validate_config(RunConfig(**settings))
        weights = FeatureWeights.from_vector(rng.uniform(-2.0, 2.0) for _ in range(9))
        model = PhraseBasedTranslator(weights=weights, **settings).fit(pairs)
        config = read_config(model.save(str(tmp_path / f"m{k}"), "xx", "yy"))
        assert (config.source_lang, config.target_lang) == ("xx", "yy")
        assert PhraseBasedTranslator.load(config).get_params() == model.get_params()


def test_translator_settings_are_the_run_config_params():
    params = PhraseBasedTranslator().get_params()
    assert set(SETTINGS) == set(params) - {"weights"}
    assert set(SETTINGS) <= set(PARAM_KEYS)
    defaults = RunConfig()
    assert {name: params[name] for name in SETTINGS} == {
        name: getattr(defaults, name) for name in SETTINGS
    }


def test_saved_model_directory_is_relocatable(tmp_path):
    model = PhraseBasedTranslator().fit([(("a", "b"), ("a", "b")), (("b",), ("b",))])
    first = tmp_path / "before"
    model.save(str(first))
    second = tmp_path / "after"
    shutil.move(str(first), str(second))
    loaded = PhraseBasedTranslator.load(str(second / "run.ini"))
    assert loaded.translate(("a", "b")) == ("a", "b")


def test_load_requires_model_paths():
    from phraseforge.config import RunConfig

    with pytest.raises(DataError, match="phrase_table"):
        PhraseBasedTranslator.load(RunConfig(lm="lm.arpa"))


def test_estimator_params_reflect_the_constructor():
    model = PhraseBasedTranslator(order=2, beam_size=None)
    params = model.get_params()
    assert params["order"] == 2
    assert params["beam_size"] is None


def test_fit_leaves_the_garbage_collector_as_it_found_it():
    corpus = mapped_corpus(random.Random(5))
    assert gc.isenabled()
    try:
        PhraseBasedTranslator().fit(corpus)
        assert gc.isenabled()
        with pytest.raises(DataError, match="word-alignment"):
            PhraseBasedTranslator().fit([(("a",), ("b",)), ((), ("c",))])
        assert gc.isenabled()
        gc.disable()
        PhraseBasedTranslator().fit(corpus)
        assert not gc.isenabled()
    finally:
        gc.enable()
