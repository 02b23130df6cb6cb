"""Corpus preparation: tokenization, truecasing, cleaning, splitting, files."""

import random
import unicodedata

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phraseforge.base import CorpusError
from phraseforge.corpus import (
    ParallelCorpus,
    SentencePair,
    clean,
    learn_truecase,
    read_lines,
    read_parallel,
    split,
    tokenize,
    truecase,
    write_lines,
    write_parallel,
)


def corpus_of(*pairs):
    return ParallelCorpus([SentencePair(tuple(s.split()), tuple(t.split())) for s, t in pairs])


# -- tokenize ------------------------------------------------------------


def test_tokenize_plain_bengali_sentence():
    assert tokenize("আসামে একটি সুন্দর জায়গা ।") == (
        "আসামে", "একটি", "সুন্দর", "জায়গা", "।",
    )


def test_tokenize_detaches_attached_danda():
    assert tokenize("দিল্লী ভারতের রাজধানী।") == ("দিল্লী", "ভারতের", "রাজধানী", "।")


def test_tokenize_detaches_latin_punctuation():
    assert tokenize('he said "hi" (twice)!') == (
        "he", "said", '"', "hi", '"', "(", "twice", ")", "!",
    )


def test_tokenize_keeps_numeric_separators():
    assert tokenize("pi is 3.14, price 1,200.") == (
        "pi", "is", "3.14", ",", "price", "1,200", ".",
    )


def test_tokenize_double_danda():
    assert tokenize("শেষ॥") == ("শেষ", "॥")


@pytest.mark.parametrize("raw", ["", "   ", "\t"])
def test_tokenize_rejects_blank_lines(raw):
    with pytest.raises(CorpusError, match="empty"):
        tokenize(raw)


def test_tokenize_applies_nfc():
    # YYA is a composition exclusion: NFC of both spellings is YA + nukta
    precomposed = "য়"
    decomposed = "য়"
    assert tokenize(precomposed) == tokenize(decomposed)
    assert tokenize(precomposed) == (unicodedata.normalize("NFC", precomposed),)


@given(st.text(alphabet="abc আসামে।॥.,?!\"'()0123456789 ", max_size=40))
@settings(max_examples=200)
def test_tokenize_idempotent_on_its_own_output(raw):
    try:
        tokens = tokenize(raw)
    except CorpusError:
        assume(False)
    assert tokenize(" ".join(tokens)) == tokens
    assert all(" " not in tok for tok in tokens)


# -- truecase ------------------------------------------------------------


def test_truecase_recase_initial_token():
    table = {"the": "the"}
    assert truecase(("The", "Cat"), table) == ("the", "Cat")


def test_truecase_leaves_unknown_initial_token():
    assert truecase(("Xyz", "abc"), {}) == ("Xyz", "abc")


def test_learn_truecase_counts_non_initial_positions():
    table = learn_truecase([("The", "cat", "sat"), ("Dogs", "the", "cat")])
    assert table["the"] == "the"
    assert table["cat"] == "cat"
    assert "dogs" not in table  # sentence-initial only, never counted


def test_learn_truecase_prefers_frequent_then_lexicographic():
    sents = [("x", "NASA", "a"), ("y", "NASA", "b"), ("z", "nasa", "c")]
    assert learn_truecase(sents)["nasa"] == "NASA"
    tied = learn_truecase([("x", "Foo"), ("y", "foo")])
    assert tied["foo"] == "Foo"  # deterministic tie


def test_truecase_pipeline_is_idempotent():
    sents = [("The", "cat"), ("a", "the", "cat")]
    table = learn_truecase(sents)
    once = [truecase(s, table) for s in sents]
    assert [truecase(s, table) for s in once] == once


# -- clean ---------------------------------------------------------------


def test_clean_drops_overlong_pairs():
    corpus = corpus_of(("a", "x"), ("a b c", "x"), ("a b", "x y"))
    kept = clean(corpus, max_len=2, max_ratio=9.0)
    assert [p.source for p in kept] == [("a",), ("a", "b")]
    assert len(kept) == 2


def test_clean_drops_ratio_violations():
    long_side = " ".join(["w"] * 10)
    corpus = corpus_of(("a", long_side), ("a b", "x y"))
    kept = clean(corpus, max_len=80, max_ratio=9.0)
    assert len(kept) == 1


def test_clean_keeps_exact_boundaries():
    corpus = corpus_of(("a b", "x y z w x y z w x y z w x y z w x y"))
    # 2 vs 18 is exactly ratio 9
    assert len(clean(corpus, max_len=80, max_ratio=9.0)) == 1


def test_clean_is_idempotent():
    rng = random.Random(7)
    pairs = [
        (" ".join("w" for _ in range(rng.randint(1, 12))),
         " ".join("v" for _ in range(rng.randint(1, 12))))
        for _ in range(50)
    ]
    corpus = corpus_of(*pairs)
    once = clean(corpus, max_len=8, max_ratio=3.0)
    again = clean(once, max_len=8, max_ratio=3.0)
    assert again.pairs == once.pairs


def test_clean_validates_parameters():
    with pytest.raises(ValueError):
        clean(corpus_of(("a", "b")), max_len=0)
    with pytest.raises(ValueError):
        clean(corpus_of(("a", "b")), max_ratio=0.5)


@pytest.mark.parametrize("max_ratio", [float("nan"), float("inf")])
def test_clean_rejects_a_non_finite_max_ratio(max_ratio):
    with pytest.raises(ValueError, match="max_ratio must be finite"):
        clean(corpus_of(("a", " ".join(["b"] * 20))), max_ratio=max_ratio)


# -- split ---------------------------------------------------------------


def big_corpus(n=20):
    return corpus_of(*[(f"s{i}", f"t{i}") for i in range(n)])


def test_split_sizes_and_disjointness():
    corpus = big_corpus(20)
    train, test, tune = split(corpus, 14, 3, 3, seed=1)
    assert (len(train), len(test), len(tune)) == (14, 3, 3)
    seen = [p.source for part in (train, test, tune) for p in part]
    assert len(set(seen)) == 20


def test_split_preserves_original_order_within_parts():
    corpus = big_corpus(20)
    train, _, _ = split(corpus, 10, 5, 5, seed=3)
    positions = [int(p.source[0][1:]) for p in train]
    assert positions == sorted(positions)


def test_split_is_deterministic():
    corpus = big_corpus(30)
    a = split(corpus, 20, 5, 5, seed=9)
    b = split(corpus, 20, 5, 5, seed=9)
    assert all(x.pairs == y.pairs for x, y in zip(a, b))


def test_split_seed_changes_selection():
    corpus = big_corpus(30)
    a, _, _ = split(corpus, 15, 10, 5, seed=0)
    b, _, _ = split(corpus, 15, 10, 5, seed=1)
    assert a.pairs != b.pairs


def test_split_oversubscription_is_an_error():
    with pytest.raises(CorpusError, match="corpus has"):
        split(big_corpus(5), 4, 1, 1)


def test_split_negative_size_is_an_error():
    with pytest.raises(ValueError, match="n_test"):
        split(big_corpus(5), 1, -1, 1)


# -- parallel files --------------------------------------------------------


def test_write_read_parallel_roundtrip(tmp_path):
    corpus = ParallelCorpus(
        [SentencePair(("a", "b"), ("x",)), SentencePair(("c",), ("y", "z"))],
        source_lang="bn",
        target_lang="as",
    )
    stem = str(tmp_path / "toy")
    write_parallel(corpus, stem)
    back = read_parallel(stem, "bn", "as")
    assert back.pairs == corpus.pairs
    assert back.source_lang == "bn"


def test_read_parallel_reports_mismatch_with_both_files(tmp_path):
    write_lines(str(tmp_path / "c.bn"), ["a", "b"])
    write_lines(str(tmp_path / "c.as"), ["x"])
    with pytest.raises(CorpusError) as err:
        read_parallel(str(tmp_path / "c"), "bn", "as")
    assert "c.bn" in str(err.value) and "c.as" in str(err.value)


def test_read_parallel_rejects_empty_line_with_location(tmp_path):
    write_lines(str(tmp_path / "c.bn"), ["a", ""])
    write_lines(str(tmp_path / "c.as"), ["x", "y"])
    with pytest.raises(CorpusError, match=r"c\.bn:2"):
        read_parallel(str(tmp_path / "c"), "bn", "as")


def test_read_write_lines_roundtrip(tmp_path):
    path = str(tmp_path / "f.txt")
    write_lines(path, ["one", "two three"])
    assert read_lines(path) == ["one", "two three"]


def test_nfc_is_identity_on_canonical_text():
    text = "অসম এখন সুন্দৰ ঠাই ।"
    assert unicodedata.normalize("NFC", text) == text
