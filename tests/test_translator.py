"""The end-to-end estimator: train, translate, save, load."""

import copy
import gc
import logging
import math
import os
import random
import re
import shutil

import pytest

from phraseforge.base import ConfigError, DataError, NotFittedError, ParseError
from phraseforge.config import PARAM_KEYS, RunConfig, read_config, validate_config
from phraseforge.corpus import ParallelCorpus, SentencePair
from phraseforge.decoder import BeamDecoder, DecodeResult, FeatureWeights
from phraseforge import translator
from phraseforge.translator import PhraseBasedTranslator
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


def test_save_writes_the_search_limits_set_on_the_decoder(tmp_path):
    model = PhraseBasedTranslator().fit(mapped_corpus(random.Random(5)))
    model.decoder_.beam_size = 10
    model.decoder_.beam_threshold = 0.0
    model.decoder_.distortion_limit = 0
    model.decoder_.options_per_span = None
    config = read_config(model.save(str(tmp_path / "m")))
    assert (config.beam_size, config.beam_threshold) == (10, 0.0)
    assert (config.distortion_limit, config.options_per_span) == (0, None)


@pytest.mark.parametrize(
    "attr,value,message",
    [
        ("beam_size", 0, "beam_size must be >= 1"),
        ("distortion_limit", -1, "distortion_limit must be >= 0"),
        ("weights", FeatureWeights(lm=math.nan), "weight lm must be finite"),
    ],
)
def test_save_writes_nothing_the_loader_would_reject(tmp_path, attr, value, message):
    model = PhraseBasedTranslator().fit(mapped_corpus(random.Random(5)))
    setattr(model.decoder_, attr, value)
    out = tmp_path / "m"
    with pytest.raises(ConfigError, match=message):
        model.save(str(out))
    assert not out.exists()


def test_load_then_save_keeps_the_language_pair(tmp_path):
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "bn-as", "run.ini")
    model = PhraseBasedTranslator.load(fixture)
    assert (model.source_lang, model.target_lang) == ("bn", "as")
    config = read_config(model.save(str(tmp_path / "m")))
    assert (config.source_lang, config.target_lang) == ("bn", "as")


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
    model = PhraseBasedTranslator(source_lang="xx", target_lang="yy", order=2).fit(pairs)
    out = tmp_path / "model"
    config_path = model.save(str(out))
    assert config_path == str(out / "run.ini")
    for name in ("lm.arpa", "phrase-table.txt", "reordering-table.txt",
                 "alignments.pharaoh", "run.ini"):
        assert (out / name).is_file(), name
    loaded = PhraseBasedTranslator.load(config_path)
    for src, _ in pairs[:5]:
        assert loaded.translate(src) == model.translate(src)
    assert loaded.weights_ == model.weights_
    assert (loaded.source_lang, loaded.target_lang, loaded.order) == ("xx", "yy", 2)
    assert getattr(loaded, "alignments_", None) is None


def rounded(numbers):
    """numbers as written to a table file and read back."""
    return tuple(float("%.12g" % x) for x in numbers)


def test_loaded_tables_answer_every_lookup_as_the_fitted_ones(tmp_path):
    """load() keeps the table files' lines as text and builds a source
    phrase's rows on its first lookup; every lookup, len() and a second
    save agree with the fitted tables."""
    model = PhraseBasedTranslator().fit(mapped_corpus(random.Random(17), n_pairs=40))
    model.save(str(tmp_path / "first"))
    loaded = PhraseBasedTranslator.load(str(tmp_path / "first" / "run.ini"))
    table, loaded_table = model.phrase_table_, loaded.phrase_table_
    reordering, loaded_reordering = model.reordering_table_, loaded.reordering_table_
    assert loaded_table.sources_read == len(table.entries)
    assert loaded_table.lines_read == loaded_reordering.lines_read == len(table)
    for src, row in table.entries.items():
        assert loaded_table.lookup(src) == {
            tgt: rounded(scores) for tgt, scores in row.items()
        }
        for tgt in row:
            entry = loaded_reordering.lookup(src, tgt)
            expected = reordering.lookup(src, tgt)
            assert (entry.forward, entry.backward) == (
                rounded(expected.forward), rounded(expected.backward)
            )
    assert loaded_table.lookup(("s9",)) == {}
    assert loaded_reordering.lookup(("s9",), ("t9",)) is None
    assert (len(loaded_table), len(loaded_reordering)) == (len(table), len(reordering))

    loaded = PhraseBasedTranslator.load(str(tmp_path / "first" / "run.ini"))
    loaded.save(str(tmp_path / "second"))
    for name in ("phrase-table.txt", "reordering-table.txt"):
        first = (tmp_path / "first" / name).read_bytes()
        assert (tmp_path / "second" / name).read_bytes() == first, name


def test_load_logs_its_time_and_table_sizes(tmp_path, caplog):
    model = PhraseBasedTranslator().fit(mapped_corpus(random.Random(17)))
    config_path = model.save(str(tmp_path))
    with caplog.at_level(logging.INFO, logger="phraseforge.translator"):
        PhraseBasedTranslator.load(config_path)
    sources = len(model.phrase_table_.entries)
    lines = len(model.phrase_table_)
    assert re.fullmatch(
        rf"loaded the model in [0-9.]+ s; phrase table: {lines} lines, "
        rf"{sources} source phrases; reordering table: {lines} lines, "
        rf"{sources} source phrases",
        caplog.messages[-1],
    )


def random_settings(rng):
    return {
        "source_lang": rng.choice(("src", "xx")),
        "target_lang": rng.choice(("tgt", "yy")),
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
        config = read_config(model.save(str(tmp_path / f"m{k}")))
        assert all(getattr(config, name) == settings[name] for name in settings)
        assert PhraseBasedTranslator.load(config).get_params() == model.get_params()


def test_translator_settings_are_the_run_config_params():
    params = PhraseBasedTranslator().get_params()
    assert tuple(name for name in params if name != "weights") == PARAM_KEYS
    defaults = RunConfig()
    assert {name: params[name] for name in PARAM_KEYS} == {
        name: getattr(defaults, name) for name in PARAM_KEYS
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
    """fit and every decoder search pause the collector; each restores
    it, whether it was on or off and whether the call raised."""
    corpus = mapped_corpus(random.Random(5))
    assert gc.isenabled()
    try:
        model = PhraseBasedTranslator().fit(corpus)
        assert gc.isenabled()
        with pytest.raises(DataError, match="word-alignment"):
            PhraseBasedTranslator().fit([(("a",), ("b",)), ((), ("c",))])
        assert gc.isenabled()
        # A search whose first LM lookup raises.
        failing_lm = copy.copy(model.lm_)

        def failing_extend(state, words):
            raise RuntimeError("LM lookup failed")

        failing_lm.extend = failing_extend
        failing = BeamDecoder(model.phrase_table_, failing_lm)
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            model.decoder_.decode(("s0", "s1", "s2"))
            assert gc.isenabled() == enabled
            assert len(model.decoder_.nbest(("s0", "s1", "s2"), 5)) == 5
            assert gc.isenabled() == enabled
            with pytest.raises(RuntimeError, match="LM lookup failed"):
                failing.decode(("s0", "s1"))
            assert gc.isenabled() == enabled
        PhraseBasedTranslator().fit(corpus)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_load_leaves_the_garbage_collector_as_it_found_it(tmp_path, monkeypatch):
    """load reads the model with the collector paused and restores it,
    whether it was on or off and whether the read raised."""
    config = PhraseBasedTranslator().fit(mapped_corpus(random.Random(5))).save(
        str(tmp_path / "model")
    )
    collecting_during_reads = []
    read_arpa = translator.read_arpa

    def watched_read_arpa(path):
        collecting_during_reads.append(gc.isenabled())
        return read_arpa(path)

    monkeypatch.setattr(translator, "read_arpa", watched_read_arpa)
    broken = tmp_path / "broken"
    shutil.copytree(tmp_path / "model", broken)
    with open(broken / "phrase-table.txt", "a", encoding="utf-8") as fh:
        fh.write("s0 ||| t0 ||| 2 1 1 1\n")
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert PhraseBasedTranslator.load(config).translate(("s0",))
            assert gc.isenabled() == enabled
            with pytest.raises(ParseError, match="outside"):
                PhraseBasedTranslator.load(str(broken / "run.ini"))
            assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert collecting_during_reads == [False] * 4


def test_fit_hands_its_objects_to_the_oldest_generation():
    """Training allocates far more containers than the youngest
    generation's threshold with the collector paused; fit moves them out
    of it, so the first young collection afterwards need not scan them."""
    corpus = mapped_corpus(random.Random(7), n_pairs=200)
    assert gc.isenabled()
    PhraseBasedTranslator().fit(corpus)
    young = gc.get_count()[0]
    assert young < gc.get_threshold()[0] // 10, young
