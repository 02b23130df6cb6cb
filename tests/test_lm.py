"""Language model: counting, smoothing, backoff queries, ARPA round trips.

The central check compares every query against ReferenceModel, an
independent linear-domain implementation of the same smoothing math, on a
grid of corpora, orders, and smoothing settings.
"""

import itertools
import math
import random

import pytest

from helpers import ReferenceModel, random_pairs
from phraseforge.base import DataError, NotFittedError, ParseError
from phraseforge.corpus import BOS, EOS, UNK
from phraseforge.lm import SMOOTHING_METHODS, NGramLanguageModel, count_ngrams, read_arpa

NEG_INF = float("-inf")


def toy_sentences(rng, n=12, vocab=("a", "b", "c", "d"), max_len=5):
    return [
        tuple(rng.choice(vocab) for _ in range(rng.randint(1, max_len)))
        for _ in range(n)
    ]


# -- counting ---------------------------------------------------------------


def test_count_ngrams_single_bigram_sentence():
    counts = count_ngrams([("a", "b")], 2)
    assert counts.by_order[0] == {("a",): 1, ("b",): 1, (EOS,): 1}
    assert counts.by_order[1] == {(BOS, "a"): 1, ("a", "b"): 1, ("b", EOS): 1}
    assert counts.sentence_count == 1


def test_count_ngrams_accumulates_eos_per_sentence():
    counts = count_ngrams([("a",), ("a",)], 1)
    assert counts.by_order[0] == {("a",): 2, (EOS,): 2}


def test_count_ngrams_never_counts_bos_as_unigram():
    counts = count_ngrams([("a", "b", "a")], 3)
    assert (BOS,) not in counts.by_order[0]
    assert counts.by_order[2][(BOS, "a", "b")] == 1


def test_count_ngrams_rejects_empty_input():
    with pytest.raises(DataError):
        count_ngrams([()], 2)
    with pytest.raises(DataError):
        count_ngrams([], 2)


@pytest.mark.parametrize("order", [0, 6])
def test_count_ngrams_validates_order(order):
    with pytest.raises(ValueError):
        count_ngrams([("a",)], order)


# -- hand-checked estimates ---------------------------------------------------


def test_mle_unigram_relative_frequencies():
    model = NGramLanguageModel(order=1, smoothing="add-k", add_k=0.0)
    model.fit([("a", "a", "a", "b")])
    assert math.isclose(model.logprob("a"), math.log(3 / 5), abs_tol=1e-12)
    assert math.isclose(model.logprob("b"), math.log(1 / 5), abs_tol=1e-12)
    assert math.isclose(model.logprob(EOS), math.log(1 / 5), abs_tol=1e-12)


def test_mle_unigram_sentence_logprob():
    model = NGramLanguageModel(order=1, smoothing="add-k", add_k=0.0)
    model.fit([("a",)])
    expected = math.log(1 / 2) + math.log(1 / 2)  # the word, then </s>
    assert math.isclose(model.sentence_logprob(("a",)), expected, abs_tol=1e-12)


def test_witten_bell_hand_computed_bigram():
    # corpus "a b" / "a c": unigram counts a=2 b=1 c=1 </s>=2, total 6,
    # 4 distinct events, 5 predicted words with <unk>
    model = NGramLanguageModel(order=2, smoothing="witten-bell").fit(
        [("a", "b"), ("a", "c")]
    )
    assert math.isclose(model.logprob("a"), math.log(7 / 25), abs_tol=1e-12)
    assert math.isclose(model.logprob("b"), math.log(9 / 50), abs_tol=1e-12)
    # context "a": two continuations once each, so lambda = 2/4
    assert math.isclose(model.logprob("b", ("a",)), math.log(17 / 50), abs_tol=1e-12)
    # context <s>: single continuation seen twice, lambda = 1/3
    assert math.isclose(model.logprob("a", (BOS,)), math.log(19 / 25), abs_tol=1e-12)


def test_add_k_smooths_unseen_unigrams():
    model = NGramLanguageModel(order=1, smoothing="add-k", add_k=1.0)
    model.fit([("a", "a", "b")])
    # counts a=2 b=1 </s>=1, total 4; vocab {a, b, </s>, <unk>}
    assert math.isclose(model.logprob("a"), math.log(3 / 8), abs_tol=1e-12)
    assert math.isclose(model.logprob(UNK), math.log(1 / 8), abs_tol=1e-12)
    assert math.isclose(model.logprob("never-seen"), math.log(1 / 8), abs_tol=1e-12)


def test_closed_vocab_rejects_unseen_words():
    model = NGramLanguageModel(order=1, open_vocab=False).fit([("a",)])
    assert model.logprob("zzz") == NEG_INF


def test_unfitted_model_rejects_queries():
    with pytest.raises(NotFittedError, match="call fit"):
        NGramLanguageModel().logprob("a")


def test_fit_validates_parameters():
    with pytest.raises(ValueError, match="smoothing"):
        NGramLanguageModel(smoothing="kneser-ney").fit([("a",)])
    with pytest.raises(ValueError, match="add_k"):
        NGramLanguageModel(smoothing="add-k", add_k=-1.0).fit([("a",)])


@pytest.mark.parametrize("add_k", [float("nan"), float("inf")])
def test_fit_rejects_a_non_finite_add_k(add_k):
    with pytest.raises(ValueError, match="add_k must be finite"):
        NGramLanguageModel(smoothing="add-k", add_k=add_k).fit([("a",)])


# -- the interpolation oracle -------------------------------------------------


CONFIGS = (
    ("witten-bell", 0.5, True),
    ("witten-bell", 0.5, False),
    ("add-k", 0.0, True),
    ("add-k", 0.0, False),
    ("add-k", 0.5, True),
    ("add-k", 2.0, False),
)


def query_grid(ref, rng, order):
    contexts = {()}
    for k in range(2, order + 1):
        contexts.update(ref.ctx_total[k].keys())
    vocab = [w for (w,) in ref.counts[1]]
    for _ in range(10):  # unseen and overlong contexts exercise backoff
        length = rng.randint(1, order + 1)
        contexts.add(tuple(rng.choice(vocab + ["zzz"]) for _ in range(length)))
    words = ref.predicted + ["zzz"]
    return sorted(contexts), words


def assert_matches_reference(model, ref, contexts, words):
    for context in contexts:
        for word in words:
            expected = ref.prob(word, context)
            got = model.logprob(word, context)
            if expected < 1e-300:
                assert got == NEG_INF, (word, context, got)
            else:
                assert got == pytest.approx(math.log(expected), abs=1e-9), (
                    word,
                    context,
                )


@pytest.mark.parametrize("smoothing,add_k,open_vocab", CONFIGS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_backoff_equals_direct_interpolation(smoothing, add_k, open_vocab, order):
    rng = random.Random(order * 100 + len(smoothing))
    for trial in range(5):
        sentences = toy_sentences(rng, n=rng.randint(3, 15))
        model = NGramLanguageModel(
            order=order, smoothing=smoothing, add_k=add_k, open_vocab=open_vocab
        ).fit(sentences)
        ref = ReferenceModel(
            sentences, order, smoothing=smoothing, add_k=add_k, open_vocab=open_vocab
        )
        contexts, words = query_grid(ref, rng, order)
        assert_matches_reference(model, ref, contexts, words)


def test_distributions_normalize_over_sampled_histories():
    rng = random.Random(5)
    sentences = toy_sentences(rng, n=20, vocab=("a", "b", "c", "d", "e"))
    for smoothing, add_k in (("witten-bell", 0.5), ("add-k", 0.3), ("add-k", 0.0)):
        model = NGramLanguageModel(order=3, smoothing=smoothing, add_k=add_k)
        model.fit(sentences)
        seen = [g for g in model.entries_ if len(g) < 3]
        histories = [rng.choice(seen) for _ in range(80)]
        histories += [
            tuple(rng.choice("abcdez") for _ in range(rng.randint(1, 2)))
            for _ in range(20)
        ]
        for h in histories:
            total = math.fsum(math.exp(model.logprob(w, h)) for w in model.vocab_)
            assert total == pytest.approx(1.0, abs=1e-6), (smoothing, h)


def test_adding_a_sentence_never_lowers_its_own_probability():
    rng = random.Random(11)
    for _ in range(30):
        sentences = toy_sentences(rng, n=rng.randint(2, 10))
        target = rng.choice(sentences)
        before = NGramLanguageModel(order=1, smoothing="add-k", add_k=0.0)
        before.fit(sentences)
        after = NGramLanguageModel(order=1, smoothing="add-k", add_k=0.0)
        after.fit(sentences + [target])
        assert after.sentence_logprob(target) >= before.sentence_logprob(target) - 1e-12


def test_sentence_logprob_is_the_sum_of_stepwise_queries():
    model = NGramLanguageModel(order=3).fit([("a", "b"), ("b", "a", "c")])
    tokens = ("b", "a", "b", "c")
    state = (BOS,)
    total = 0.0
    for w in tokens + (EOS,):
        total += model.logprob(w, state)
        state = (state + (w,))[-2:]
    assert math.isclose(model.sentence_logprob(tokens), total, abs_tol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_extend_is_a_truncating_loop_of_logprob_queries(order):
    rng = random.Random(order)
    vocab = ("a", "b", "c", "d", "e")
    model = NGramLanguageModel(order=order).fit(toy_sentences(rng, n=30, vocab=vocab))
    assert model.start_state == ((BOS,) if order > 1 else ())
    for _ in range(50):
        state = tuple(rng.choice(vocab) for _ in range(rng.randint(0, order - 1)))
        if order > 1 and rng.random() < 0.3:
            state = ((BOS,) + state)[: order - 1]
        words = tuple(rng.choice(vocab + ("zz",)) for _ in range(rng.randint(0, 6)))
        total, expected_state = 0.0, state
        for w in words:
            total += model.logprob(w, expected_state)
            tail = expected_state + (w,)
            expected_state = tail[max(0, len(tail) - (order - 1)) :]
        assert model.extend(state, words) == (total, expected_state)
        sentence = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
        assert model.sentence_logprob(sentence) == model.extend(
            model.start_state, sentence + (EOS,)
        )[0]


def test_perplexity_of_uniform_corpus_is_vocab_size():
    model = NGramLanguageModel(order=1, smoothing="add-k", add_k=0.0)
    model.fit([("a", "b", "c")])
    # four equiprobable events: a, b, c, </s>
    assert model.perplexity([("a", "b", "c")]) == pytest.approx(4.0, abs=1e-9)


def test_perplexity_rejects_empty_corpus():
    model = NGramLanguageModel(order=1).fit([("a",)])
    with pytest.raises(DataError):
        model.perplexity([])


# -- ARPA serialization -------------------------------------------------------


def test_arpa_roundtrip_preserves_queries(tmp_path):
    rng = random.Random(3)
    sentences = toy_sentences(rng, n=15)
    model = NGramLanguageModel(order=3).fit(sentences)
    path = str(tmp_path / "lm.arpa")
    model.write_arpa(path)
    back = read_arpa(path)
    assert back.order == 3
    assert back.vocab_ == model.vocab_
    contexts = [(), ("a",), ("b", "a"), (BOS,), ("zzz",), ("a", "b", "c")]
    for context in contexts:
        for word in sorted(model.vocab_):
            orig = model.logprob(word, context)
            again = back.logprob(word, context)
            assert again == pytest.approx(orig, abs=1e-4)
            assert again == pytest.approx(orig, abs=1e-9)  # much tighter in practice


def test_arpa_roundtrip_keeps_minus_inf_backoffs(tmp_path):
    model = NGramLanguageModel(order=2, smoothing="add-k", add_k=0.0)
    model.fit([("a", "b"), ("a", "c")])
    path = str(tmp_path / "mle.arpa")
    model.write_arpa(path)
    back = read_arpa(path)
    assert back.logprob("b", ("a",)) == pytest.approx(math.log(0.5), abs=1e-9)
    # unseen continuation of a seen history stays impossible after the trip
    assert model.logprob(EOS, ("a",)) == NEG_INF
    assert back.logprob(EOS, ("a",)) == NEG_INF


def test_read_arpa_hand_written_unigram_file(tmp_path):
    path = tmp_path / "tiny.arpa"
    path.write_text(
        "\\data\\\n"
        "ngram 1=2\n"
        "\n"
        "\\1-grams:\n"
        "-0.301029995663981 a\n"
        "-0.602059991327962 b\n"
        "\n"
        "\\end\\\n",
        encoding="utf-8",
    )
    model = read_arpa(str(path))
    assert model.logprob("a") == pytest.approx(math.log(0.5), abs=1e-9)
    assert model.logprob("b") == pytest.approx(math.log(0.25), abs=1e-9)
    assert model.logprob("zzz") == NEG_INF


def test_read_arpa_accepts_space_separated_entries(tmp_path):
    path = tmp_path / "spaces.arpa"
    path.write_text(
        "\\data\\\n"
        "ngram 1=1\n"
        "ngram 2=1\n"
        "\n"
        "\\1-grams:\n"
        "-0.5 a -0.25\n"
        "\n"
        "\\2-grams:\n"
        "-0.75 a a\n"
        "\n"
        "\\end\\\n",
        encoding="utf-8",
    )
    model = read_arpa(str(path))
    assert model.logprob("a", ("a",)) == pytest.approx(-0.75 * math.log(10), abs=1e-12)
    # backoff weight applies to unseen continuations of "a"
    assert model.logprob("a", ("zzz",)) == pytest.approx(-0.5 * math.log(10), abs=1e-12)


def test_read_arpa_rejects_count_mismatch(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\n"
        "ngram 1=3\n"
        "\n"
        "\\1-grams:\n"
        "-0.3 a\n"
        "-0.3 b\n"
        "\n"
        "\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="declared"):
        read_arpa(str(path))


@pytest.mark.parametrize(
    "body,message",
    [
        ("", "missing"),
        ("\\data\\\nngram 1=0\n\n\\1-grams:\n", "end"),
        ("\\data\\\nngram one=2\n\n\\end\\\n", "malformed count"),
        ("\\data\\\nngram 1=1\n\n\\2-grams:\n-0.1 a b\n\n\\end\\\n", "not declared"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1 a b c\n\n\\end\\\n", "entry"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\nxx\ta\n\n\\end\\\n", "probability"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1\ta\n\n\\end\\\nextra\n", "after"),
        ("\\data\\\nngram 1=1\n\n\\one-grams:\n-0.1\ta\n\n\\end\\\n", "malformed section"),
        ("hello\n\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1\ta\n\n\\end\\\n", "expected \\\\data"),
        ("\\data\\\nngram 1=1\nstray\n\n\\1-grams:\n-0.1\ta\n\n\\end\\\n", "unexpected line"),
        (
            "\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.1\ta\n\n"
            "\\2-grams:\n-0.1 a\n\n\\end\\\n",
            "malformed entry",
        ),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1\ta b\n\n\\end\\\n", "has 2 tokens"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1\ta\tx\n\n\\end\\\n", "bad backoff"),
        ("\\data\\\n\\end\\\n", "no n-gram counts"),
        ("\\data\\\nngram 2=1\n\n\\2-grams:\n-0.1\ta b\n\n\\end\\\n", "missing ngram 1"),
        (
            "\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.1\ta\n\n\\end\\\n",
            "file contains 0",
        ),
    ],
)
def test_read_arpa_rejects_malformed_files(tmp_path, body, message):
    path = tmp_path / "broken.arpa"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        read_arpa(str(path))


def test_read_arpa_names_the_file_of_a_missing_end_marker(tmp_path):
    path = tmp_path / "lm.arpa"
    path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1\ta\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_arpa(str(path))
    assert str(err.value) == f"{path}: missing \\end\\ marker"


def test_write_arpa_declares_true_entry_counts(tmp_path):
    model = NGramLanguageModel(order=2).fit([("a", "b"), ("c",)])
    path = str(tmp_path / "counts.arpa")
    model.write_arpa(path)
    lines = open(path, encoding="utf-8").read().splitlines()
    declared = {
        int(line.split("=")[0].split()[1]): int(line.split("=")[1])
        for line in lines
        if line.startswith("ngram ")
    }
    for k, n in declared.items():
        section = f"\\{k}-grams:"
        start = lines.index(section) + 1
        entries = 0
        while start + entries < len(lines) and lines[start + entries].strip() and not lines[start + entries].startswith("\\"):
            entries += 1
        assert entries == n


def test_random_corpora_roundtrip_through_arpa(tmp_path):
    rng = random.Random(21)
    for trial in range(6):
        pairs = random_pairs(rng, rng.randint(2, 8))
        sentences = [tgt for _, tgt in pairs]
        order = rng.choice((1, 2, 3))
        smoothing, add_k = rng.choice((("witten-bell", 0.5), ("add-k", 0.4)))
        model = NGramLanguageModel(order=order, smoothing=smoothing, add_k=add_k)
        model.fit(sentences)
        path = str(tmp_path / f"rt{trial}.arpa")
        model.write_arpa(path)
        back = read_arpa(path)
        for word in sorted(model.vocab_):
            for context in [(), sentences[0][:1], (BOS,), ("zzz", word)]:
                assert back.logprob(word, context) == pytest.approx(
                    model.logprob(word, context), abs=1e-9
                )


# -- the query bound ------------------------------------------------------------


def every_query(model, words):
    """logprob of each of words after every context of up to order - 1
    tokens drawn from words and <s>."""
    histories = list(words) + [BOS]
    for length in range(model.order):
        for context in itertools.product(histories, repeat=length):
            for word in words:
                yield model.logprob(word, context)


@pytest.mark.parametrize("smoothing", SMOOTHING_METHODS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_no_query_of_a_fitted_model_exceeds_max_logprob(smoothing, order):
    rng = random.Random(order)
    for _ in range(6):
        model = NGramLanguageModel(
            order=order, smoothing=smoothing, add_k=rng.choice((0.0, 0.1, 1.0)),
            open_vocab=rng.random() < 0.7,
        ).fit(toy_sentences(rng))
        words = sorted(model.vocab_) + ["zzz"]
        assert max(every_query(model, words)) <= model.max_logprob


def random_arpa(rng, order, words):
    """ARPA text over words and <s> with random log10 probabilities in
    [-2, 0.5] (a few -99, read as zero) and random backoff weights in
    [-1, 1] on most entries."""
    tokens = list(words) + [BOS]
    sections = []
    for k in range(1, order + 1):
        grams = sorted(itertools.product(tokens, repeat=k))
        if k > 1:
            grams = sorted(rng.sample(grams, min(len(grams), 12)))
        lines = []
        for gram in grams:
            logp = -99.0 if rng.random() < 0.1 else rng.uniform(-2.0, 0.5)
            line = f"{logp!r}\t{' '.join(gram)}"
            if rng.random() < 0.7:
                line += f"\t{rng.uniform(-1.0, 1.0)!r}"
            lines.append(line)
        sections.append(lines)
    header = "".join(f"ngram {k}={len(lines)}\n" for k, lines in enumerate(sections, 1))
    body = "".join(
        f"\n\\{k}-grams:\n" + "\n".join(lines) + "\n"
        for k, lines in enumerate(sections, 1)
    )
    return "\\data\\\n" + header + body + "\n\\end\\\n"


def test_no_query_of_a_read_model_exceeds_max_logprob(tmp_path):
    """ARPA files need not be normalized: probabilities and backoff
    weights above 1 raise the bound, which must still hold."""
    rng = random.Random(17)
    words = ("a", "b", "c", UNK, EOS)
    positive = 0
    for trial in range(30):
        path = tmp_path / f"random-{trial}.arpa"
        path.write_text(random_arpa(rng, 1 + trial % 3, words), encoding="utf-8")
        model = read_arpa(str(path))
        queries = list(every_query(model, words + ("zzz",)))
        assert max(queries) <= model.max_logprob
        positive += max(queries) > 0.0
    assert positive
