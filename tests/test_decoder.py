"""Decoder: option building, future costs, beam search vs exhaustive search."""

import dataclasses
import math
import random

import pytest

from helpers import all_derivations, capped_build_options, random_decoder_instance, score_path
from phraseforge.base import CorpusError
from phraseforge.corpus import BOS
from phraseforge.decoder import (
    FEATURE_NAMES,
    N_FEATURES,
    OOV_LOGPROB,
    BeamDecoder,
    DecodeError,
    DecodeResult,
    FeatureWeights,
    TranslationOption,
    build_options,
    future_cost_table,
)
from phraseforge.lm import NGramLanguageModel, read_arpa
from phraseforge.phrases import (
    PhraseScores,
    PhraseTable,
    ReorderingEntry,
    ReorderingTable,
)

THIRD = math.log(1.0 / 3.0)


def exhaustive(table, lm, reordering=None, weights=None):
    return BeamDecoder(
        table,
        lm,
        reordering,
        weights,
        beam_size=None,
        beam_threshold=0.0,
        distortion_limit=None,
        options_per_span=None,
    )


def tiny_lm():
    return NGramLanguageModel(order=2).fit([("x", "y"), ("y", "x"), ("x",)])


# -- feature weights ----------------------------------------------------------


def test_feature_names_and_defaults_line_up():
    assert len(FEATURE_NAMES) == N_FEATURES == 9
    assert FEATURE_NAMES == tuple(f.name for f in dataclasses.fields(FeatureWeights))
    assert FEATURE_NAMES == (
        "lm", "phrase_st", "lex_st", "phrase_ts", "lex_ts",
        "reordering", "word_penalty", "phrase_penalty", "distortion",
    )
    weights = FeatureWeights()
    assert weights.as_vector() == (0.5, 0.2, 0.2, 0.2, 0.2, 0.3, -1.0, 0.2, 0.2)
    assert FeatureWeights.from_vector(weights.as_vector()) == weights
    distinct = FeatureWeights.from_vector(range(9))
    assert distinct.as_vector() == tuple(getattr(distinct, n) for n in FEATURE_NAMES)


def test_feature_weights_vector_arity_is_checked():
    with pytest.raises(ValueError, match="9"):
        FeatureWeights.from_vector([1.0] * 8)
    with pytest.raises(ValueError):
        FeatureWeights().dot([1.0] * 8)


def test_feature_weights_dot():
    weights = FeatureWeights.from_vector(range(9))
    assert weights.dot([1.0] * 9) == pytest.approx(36.0, abs=1e-12)


# -- translation options ------------------------------------------------------


def test_build_options_ranks_by_translation_score_before_capping():
    table = PhraseTable(
        {
            ("a",): {
                ("best",): PhraseScores(0.9, 0.9, 0.9, 0.9),
                ("mid",): PhraseScores(0.5, 0.5, 0.5, 0.5),
                ("worst",): PhraseScores(0.1, 0.1, 0.1, 0.1),
            }
        }
    )
    options = build_options(("a",), table, options_per_span=2)
    assert {o.tgt for o in options} == {("best",), ("mid",)}


def test_build_options_emits_copy_through_for_unknown_words():
    table = PhraseTable({("a",): {("x",): PhraseScores(0.5, 0.5, 0.5, 0.5)}})
    options = build_options(("a", "qqq"), table)
    oov = [o for o in options if o.oov]
    assert len(oov) == 1
    assert oov[0].src == oov[0].tgt == ("qqq",)
    assert (oov[0].start, oov[0].end) == (1, 2)
    assert oov[0].tm_logs == (OOV_LOGPROB,) * 4
    assert not [o for o in options if o.oov and o.src == ("a",)]


def test_build_options_reordering_fallback_is_uniform():
    table = PhraseTable(
        {
            ("a",): {("x",): PhraseScores(0.5, 0.5, 0.5, 0.5)},
            ("b",): {("y",): PhraseScores(0.5, 0.5, 0.5, 0.5)},
        }
    )
    reordering = ReorderingTable(
        {(("a",), ("x",)): ReorderingEntry((0.8, 0.1, 0.1), (0.1, 0.1, 0.8))}
    )
    options = {o.src: o for o in build_options(("a", "b"), table, reordering)}
    assert options[("a",)].fwd_reo == pytest.approx(
        (math.log(0.8), math.log(0.1), math.log(0.1))
    )
    assert options[("b",)].fwd_reo == (THIRD, THIRD, THIRD)
    assert options[("b",)].bwd_reo == (THIRD, THIRD, THIRD)


def test_build_options_without_reordering_leaves_none():
    table = PhraseTable({("a",): {("x",): PhraseScores(0.5, 0.5, 0.5, 0.5)}})
    (option,) = build_options(("a",), table)
    assert option.fwd_reo is None and option.bwd_reo is None


def test_build_options_output_is_sorted_and_max_len_respected():
    table = PhraseTable(
        {
            ("a", "b"): {("xy",): PhraseScores(0.9, 0.9, 0.9, 0.9)},
            ("a",): {("x",): PhraseScores(0.5, 0.5, 0.5, 0.5)},
            ("b",): {("y",): PhraseScores(0.5, 0.5, 0.5, 0.5)},
        }
    )
    options = build_options(("a", "b"), table)
    assert [(o.start, o.end, o.tgt) for o in options] == sorted(
        (o.start, o.end, o.tgt) for o in options
    )
    assert ("xy",) in {o.tgt for o in options}
    # no span longer than the longest source phrase yields an option
    longer = build_options(("a", "b", "a", "b"), table)
    assert max(o.end - o.start for o in longer) == 2
    assert len(longer) == 2 * len(options)


def test_build_options_matches_the_lookups_capped_at_the_longest_phrase():
    rng = random.Random(29)
    for _ in range(150):
        tokens, table, reordering, *_ = random_decoder_instance(
            rng, with_reordering=rng.random() < 0.5, max_sentence=8
        )
        # a longer input than the table was drawn from, with unseen words
        sentence = tokens + tuple(rng.choice(tokens + ("zz",)) for _ in range(rng.randint(0, 6)))
        for per_span in (None, 1, 3):
            assert build_options(sentence, table, reordering, per_span) == (
                capped_build_options(sentence, table, reordering, per_span)
            )


def test_option_mask_is_the_span_bitmask():
    option = TranslationOption(1, 3, ("b", "c"), ("y",), (0.0,) * 4, None, None)
    assert option.mask == 0b110


# -- future costs -------------------------------------------------------------


def test_future_cost_of_a_single_option_span():
    lm = NGramLanguageModel(order=1, smoothing="add-k", add_k=0.0).fit([("x",)])
    table = PhraseTable({("a",): {("x",): PhraseScores(0.5, 0.25, 0.5, 0.25)}})
    weights = FeatureWeights()
    options = build_options(("a",), table)
    got = future_cost_table(options, 1, weights, lm)
    expected = weights.dot(
        (math.log(0.5), math.log(0.5), math.log(0.25), math.log(0.5), math.log(0.25),
         0.0, 1.0, 1.0, 0.0)
    )
    assert got[(0, 1)] == pytest.approx(expected, abs=1e-12)


def test_future_cost_takes_the_better_of_option_and_split():
    rng = random.Random(3)
    for _ in range(30):
        tokens, table, reordering, lm, weights, options = random_decoder_instance(
            rng, max_sentence=4
        )
        n = len(tokens)
        fct = future_cost_table(options, n, weights, lm)
        for i in range(n):
            for j in range(i + 1, n + 1):
                for k in range(i + 1, j):
                    assert fct[(i, j)] >= fct[(i, k)] + fct[(k, j)] - 1e-9
        # the whole-sentence estimate equals the best additive segmentation
        single = {}
        for o in options:
            est = weights.dot(
                (
                    math.fsum(lm.logprob(w, ()) for w in o.tgt),
                    *o.tm_logs,
                    0.0,
                    float(len(o.tgt)),
                    1.0,
                    0.0,
                )
            )
            key = (o.start, o.end)
            single[key] = max(single.get(key, -math.inf), est)

        def best_sum(start):
            if start == n:
                return 0.0
            best = -math.inf
            for (i, j), est in single.items():
                if i == start:
                    best = max(best, est + best_sum(j))
            return best

        assert fct[(0, n)] == pytest.approx(best_sum(0), abs=1e-9)


# -- decoding vs exhaustive enumeration ---------------------------------------


def test_decoder_matches_exhaustive_search():
    rng = random.Random(47)
    for trial in range(40):
        with_reo = trial % 2 == 1
        tokens, table, reordering, lm, weights, options = random_decoder_instance(
            rng, with_reordering=with_reo
        )
        decoder = exhaustive(table, lm, reordering, weights)
        result = decoder.decode(tokens)
        enumerated = all_derivations(tokens, options, lm, weights, reordering)
        best = max(entry[0] for entry in enumerated)
        assert result.score == pytest.approx(best, abs=1e-6)
        assert weights.dot(result.features) == pytest.approx(result.score, abs=1e-9)
        near = [f for s, f, _, _ in enumerated if abs(s - best) < 1e-9]
        assert any(
            all(abs(a - b) < 1e-6 for a, b in zip(result.features, f)) for f in near
        ), "winning feature vector not produced by any optimal derivation"


def test_decode_agrees_with_the_first_nbest_entry():
    rng = random.Random(53)
    for trial in range(20):
        tokens, table, reordering, lm, weights, _ = random_decoder_instance(
            rng, with_reordering=trial % 2 == 0
        )
        decoder = exhaustive(table, lm, reordering, weights)
        top = decoder.nbest(tokens, 1)[0]
        # both replay the derivation through score_derivation, so they
        # agree bitwise, features included
        assert decoder.decode(tokens) == top


def test_nbest_enumerates_every_derivation_in_score_order():
    rng = random.Random(59)
    for trial in range(15):
        tokens, table, reordering, lm, weights, options = random_decoder_instance(
            rng, with_reordering=trial % 2 == 0, max_sentence=3, max_entries=8
        )
        decoder = exhaustive(table, lm, reordering, weights)
        results = decoder.nbest(tokens, 10_000)
        enumerated = all_derivations(tokens, options, lm, weights, reordering)
        assert len(results) == len(enumerated)
        oracle_scores = sorted((entry[0] for entry in enumerated), reverse=True)
        for got, want in zip(results, oracle_scores):
            assert got.score == pytest.approx(want, abs=1e-6)
        for earlier, later in zip(results, results[1:]):
            assert earlier.score >= later.score - 1e-9
        assert len({r.derivation for r in results}) == len(results)
        for r in results:
            assert weights.dot(r.features) == pytest.approx(r.score, abs=1e-9)
            assert r.features[0] == pytest.approx(
                lm.sentence_logprob(r.tokens), abs=1e-9
            )


def test_wider_beams_never_score_worse():
    rng = random.Random(61)
    for trial in range(15):
        tokens, table, reordering, lm, weights, _ = random_decoder_instance(
            rng, with_reordering=trial % 2 == 0
        )
        scores = []
        for beam in (1, 10, 100, None):
            decoder = BeamDecoder(
                table,
                lm,
                reordering,
                weights,
                beam_size=beam,
                beam_threshold=0.0,
                distortion_limit=None,
                options_per_span=None,
            )
            scores.append(decoder.decode(tokens).score)
        for narrow, wide in zip(scores, scores[1:]):
            assert narrow <= wide + 1e-9
        exact = exhaustive(table, lm, reordering, weights).decode(tokens).score
        assert scores[-1] == pytest.approx(exact, abs=1e-9)


def test_pruned_search_scores_match_an_independent_rescoring():
    """Long sentences under histogram, threshold and distortion pruning:
    every returned derivation's features equal an independent rescoring
    of its options, and its score is the weighted sum of them."""
    rng = random.Random(79)
    settings = {"default": {}, "beam 10, limit 3": {"beam_size": 10, "distortion_limit": 3}}
    checked = dict.fromkeys(settings, 0)
    for trial in range(12):
        tokens, table, reordering, lm, weights, options = random_decoder_instance(
            rng, with_reordering=trial % 2 == 0, min_sentence=8, max_sentence=14,
            max_entries=120,
        )
        by_step = {(o.start, o.end, o.tgt): o for o in options}
        for name, kwargs in settings.items():
            decoder = BeamDecoder(table, lm, reordering, weights, **kwargs)
            try:
                results = [decoder.decode(tokens)] + decoder.nbest(tokens, 20)
            except DecodeError:
                continue
            for result in results:
                opts = [by_step[step] for step in result.derivation]
                _, features, target, steps = score_path(
                    opts, len(tokens), lm, weights, reordering
                )
                assert (target, steps) == (result.tokens, result.derivation)
                assert all(abs(a - b) <= 1e-9 for a, b in zip(result.features, features))
                assert abs(weights.dot(result.features) - result.score) <= 1e-9 * max(
                    1.0, abs(result.score)
                )
                checked[name] += 1
    assert all(checked.values()), checked


def test_nbest_order_does_not_depend_on_how_many_are_asked_for():
    """Each lattice node's candidate heap is built when its second path is
    first asked for, so a shorter request must be a prefix of a longer one,
    ties included, and decode() must be the first entry."""
    rng = random.Random(83)
    settings = {"default": {}, "beam 10, limit 3": {"beam_size": 10, "distortion_limit": 3}}
    checked = dict.fromkeys(settings, 0)
    for trial in range(6):
        tokens, table, reordering, lm, weights, _ = random_decoder_instance(
            rng, with_reordering=trial % 2 == 0, min_sentence=8, max_sentence=14,
            max_entries=120,
        )
        for name, kwargs in settings.items():
            decoder = BeamDecoder(table, lm, reordering, weights, **kwargs)
            try:
                longest = decoder.nbest(tokens, 40)
            except DecodeError:
                continue
            assert all(a.score >= b.score for a, b in zip(longest, longest[1:]))
            assert decoder.decode(tokens) == decoder.nbest(tokens, 1)[0] == longest[0]
            for k in (3, 17):
                assert decoder.nbest(tokens, k) == longest[:k]
            checked[name] += 1
    assert all(checked.values()), checked


# name -> (search settings, longest sentence tried). An unbounded beam
# keeps every hypothesis within the threshold of the best, which took up
# to seconds per sentence of 11-14 words.
ONE_PATH_SETTINGS = {
    "default": ({}, 14),
    "beam 10, limit 3": ({"beam_size": 10, "distortion_limit": 3}, 14),
    "beam 3, no threshold": ({"beam_size": 3, "beam_threshold": 0.0}, 14),
    "no beam, threshold 1e-2": ({"beam_size": None, "beam_threshold": 1e-2}, 10),
}

# A bigram LM with positive backoff weights, so that some queries exceed
# 0, such as t2 after t0 (log10 values; <s> has a backoff only).
POSITIVE_BACKOFF_ARPA = """\\data\\
ngram 1=8
ngram 2=3

\\1-grams:
-0.8\t</s>
-99\t<s>\t-0.3
-1.0\t<unk>
-0.7\tt0\t0.9
-0.7\tt1\t0.8
-0.3\tt2
-0.7\tt3\t1.0
-0.9\tt4

\\2-grams:
-0.2\t<s> t0
-0.1\tt0 t1
-0.3\tt1 </s>

\\end\\
"""


def one_path_matches_the_lattice(decoder, tokens):
    """decode() searches without a lattice, nbest(tokens, 2) with one.
    Their first derivation must be the same, bit for bit, and either both
    raise DecodeError or neither does; returns whether they decoded."""
    try:
        lattice = decoder.nbest(tokens, 2)[0]
    except DecodeError:
        with pytest.raises(DecodeError):
            decoder.decode(tokens)
        return False
    assert decoder.decode(tokens) == lattice
    return True


def test_one_path_search_finds_the_lattice_search_best_derivation():
    """The one-path search drops arcs below its stacks' floors, and when
    the LM and reordering terms cannot be positive it drops them before
    the LM lookup. Half the instances get a non-negative LM and
    reordering weight and half a negative one, so the LM bound is both
    used and not."""
    rng = random.Random(89)
    decoded = dict.fromkeys(ONE_PATH_SETTINGS, 0)
    bounded = {True: 0, False: 0}
    for trial in range(30):
        tokens, table, reordering, lm, weights, _ = random_decoder_instance(
            rng, with_reordering=trial % 2 == 0, min_sentence=8, max_sentence=14,
            max_entries=120,
        )
        sign = 1.0 if trial % 4 < 2 else -1.0
        weights = dataclasses.replace(
            weights, lm=sign * abs(weights.lm), reordering=sign * abs(weights.reordering)
        )
        bounded[sign > 0 and lm.max_logprob <= 0.0] += 1
        for name, (kwargs, longest) in ONE_PATH_SETTINGS.items():
            if len(tokens) <= longest:
                decoder = BeamDecoder(table, lm, reordering, weights, **kwargs)
                decoded[name] += one_path_matches_the_lattice(decoder, tokens)
    assert all(decoded.values()), decoded
    assert all(bounded.values()), bounded


def test_one_path_search_under_tight_beams_and_an_lm_above_zero(tmp_path):
    """Short sentences at histogram limits of 1-3 and at thresholds alone,
    where a floor one node too high or a discard in the final stack would
    change the best derivation. Every third instance decodes with an LM
    whose queries can exceed 0, at an LM weight of at least 1, where
    bounding an arc before its LM lookup would drop the best one."""
    path = tmp_path / "positive-backoff.arpa"
    path.write_text(POSITIVE_BACKOFF_ARPA, encoding="utf-8")
    positive_lm = read_arpa(str(path))
    assert positive_lm.max_logprob > 0.0
    assert positive_lm.logprob("t2", ("t0",)) > 0.0
    settings = [{"beam_size": b, "beam_threshold": 0.0} for b in (1, 2, 3)]
    settings += [{"beam_size": None, "beam_threshold": t} for t in (0.3, 0.05)]
    settings.append({})
    rng = random.Random(101)
    decoded = 0
    for trial in range(120):
        tokens, table, reordering, lm, weights, _ = random_decoder_instance(
            rng, with_reordering=trial % 2 == 0, min_sentence=4, max_sentence=8,
            max_entries=40,
        )
        if trial % 3 == 0:
            lm = positive_lm
            weights = dataclasses.replace(
                weights, lm=1.0 + abs(weights.lm), reordering=abs(weights.reordering)
            )
        for kwargs in settings:
            decoder = BeamDecoder(table, lm, reordering, weights, **kwargs)
            decoded += one_path_matches_the_lattice(decoder, tokens)
    assert decoded


def test_settings_changed_on_a_live_decoder_apply_to_the_next_search():
    """weights, beam_size and distortion_limit are read by each search,
    as MERT and the CLI rely on when they change them on a live decoder."""
    rng = random.Random(83)
    changed = 0
    for trial in range(10):
        tokens, table, reordering, lm, weights, _ = random_decoder_instance(
            rng, with_reordering=trial % 2 == 0, min_sentence=8, max_sentence=12,
            max_entries=80,
        )
        other = FeatureWeights.from_vector(rng.uniform(-1.0, 1.0) for _ in range(9))
        live = BeamDecoder(table, lm, reordering, weights)
        before = live.nbest(tokens, 5)
        live.weights, live.beam_size, live.distortion_limit = other, 4, 2
        fresh = BeamDecoder(table, lm, reordering, other, beam_size=4, distortion_limit=2)
        try:
            expected = (fresh.decode(tokens), fresh.nbest(tokens, 5))
        except DecodeError:
            with pytest.raises(DecodeError):
                live.decode(tokens)
            continue
        assert (live.decode(tokens), live.nbest(tokens, 5)) == expected
        changed += expected[1] != before
    assert changed


def test_zero_distortion_limit_forces_monotone_derivations():
    rng = random.Random(67)
    for trial in range(15):
        tokens, table, reordering, lm, weights, options = random_decoder_instance(
            rng, with_reordering=trial % 2 == 0
        )
        decoder = BeamDecoder(
            table,
            lm,
            reordering,
            weights,
            beam_size=None,
            beam_threshold=0.0,
            distortion_limit=0,
            options_per_span=None,
        )
        result = decoder.decode(tokens)
        prev_end = 0
        for start, end, _ in result.derivation:
            assert start == prev_end
            prev_end = end
        assert prev_end == len(tokens)
        monotone = [
            entry
            for entry in all_derivations(tokens, options, lm, weights, reordering)
            if all(
                step[0] == (entry[3][k - 1][1] if k else 0)
                for k, step in enumerate(entry[3])
            )
        ]
        assert result.score == pytest.approx(
            max(entry[0] for entry in monotone), abs=1e-6
        )


def test_scaling_all_weights_preserves_the_argmax():
    rng = random.Random(71)
    for trial in range(10):
        tokens, table, reordering, lm, weights, _ = random_decoder_instance(
            rng, with_reordering=trial % 2 == 0
        )
        base = exhaustive(table, lm, reordering, weights).decode(tokens)
        times = FeatureWeights.from_vector(2.5 * w for w in weights.as_vector())
        scaled = exhaustive(table, lm, reordering, times).decode(tokens)
        assert scaled.tokens == base.tokens
        assert scaled.score == pytest.approx(2.5 * base.score, rel=1e-9)


def test_unknown_words_are_copied_through():
    table = PhraseTable({("a",): {("x",): PhraseScores(0.5, 0.5, 0.5, 0.5)}})
    decoder = BeamDecoder(table, tiny_lm())
    result = decoder.decode(("a", "zzz"))
    assert "zzz" in result.tokens
    assert result.derivation[-1][2] == ("zzz",) or result.derivation[0][2] == ("zzz",)


def test_oov_only_sentence_features():
    table = PhraseTable({})
    lm = tiny_lm()
    decoder = BeamDecoder(table, lm)
    result = decoder.decode(("zzz",))
    assert result.tokens == ("zzz",)
    assert result.features[1:5] == (OOV_LOGPROB,) * 4
    assert result.features[6] == 1.0  # word penalty
    assert result.features[7] == 1.0  # phrase penalty
    assert result.features[8] == 0.0  # no distortion
    expected_lm = lm.logprob("zzz", (BOS,)) + lm.logprob(
        "</s>", ("zzz",)
    )
    assert result.features[0] == pytest.approx(expected_lm, abs=1e-12)


def test_derivation_steps_tile_the_source_sentence():
    rng = random.Random(73)
    for trial in range(10):
        tokens, table, reordering, lm, weights, _ = random_decoder_instance(
            rng, with_reordering=trial % 2 == 0
        )
        result = exhaustive(table, lm, reordering, weights).decode(tokens)
        covered = []
        for start, end, _ in result.derivation:
            covered.extend(range(start, end))
        assert sorted(covered) == list(range(len(tokens)))


def test_decode_rejects_empty_or_blank_input():
    decoder = BeamDecoder(PhraseTable({}), tiny_lm())
    with pytest.raises(CorpusError):
        decoder.decode(())
    with pytest.raises(CorpusError):
        decoder.decode(("a", ""))


def test_decoder_validates_parameters():
    table, lm = PhraseTable({}), tiny_lm()
    with pytest.raises(ValueError, match="beam_size"):
        BeamDecoder(table, lm, beam_size=0)
    with pytest.raises(ValueError, match="beam_threshold"):
        BeamDecoder(table, lm, beam_threshold=1.5)
    with pytest.raises(ValueError, match="distortion_limit"):
        BeamDecoder(table, lm, distortion_limit=-1)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="options_per_span"):
            BeamDecoder(table, lm, options_per_span=bad)
    with pytest.raises(ValueError, match="n must"):
        BeamDecoder(table, lm).nbest(("a",), 0)


def test_decode_result_shape():
    result = BeamDecoder(
        PhraseTable({("a",): {("x",): PhraseScores(0.5, 0.5, 0.5, 0.5)}}), tiny_lm()
    ).decode(("a",))
    assert isinstance(result, DecodeResult)
    assert result.tokens == ("x",)
    assert len(result.features) == N_FEATURES
    assert result.derivation == ((0, 1, ("x",)),)
