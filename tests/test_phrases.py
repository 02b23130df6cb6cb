"""Phrase extraction, scoring, reordering statistics, and table files."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    consistent_boxes,
    counting_reordering,
    counting_score,
    eager_scored_lines,
    random_alignment,
    rescanning_extract,
    sparse_em,
)
from phraseforge.align import AlignmentMatrix, IBM1Aligner, TTable, symmetrize, viterbi_align
from phraseforge.base import DataError, ParseError
from phraseforge.corpus import NULL_WORD
from phraseforge.phrases import (
    DISC,
    MONO,
    SWAP,
    PhraseOccurrence,
    PhrasePair,
    PhraseScores,
    PhraseTable,
    ReorderingEntry,
    ReorderingTable,
    extract_corpus,
    extract_occurrences,
    extract_phrases,
    score_phrases,
    train_reordering,
)

DIAG_2X2 = AlignmentMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
SWAP_2X2 = AlignmentMatrix(2, 2, frozenset({(0, 1), (1, 0)}))


def spans(phrases):
    return {(p.src_span, p.tgt_span) for p in phrases}


def occ(src, tgt, links=frozenset(), prev=MONO, nxt=MONO):
    phrase = PhrasePair((0, len(src) - 1), (0, len(tgt) - 1), src, tgt)
    return PhraseOccurrence(phrase, frozenset(links), prev, nxt)


# -- extraction ---------------------------------------------------------------


def test_monotone_two_by_two_extracts_three_boxes():
    phrases = extract_phrases((("s0", "s1"), ("t0", "t1")), DIAG_2X2, 2)
    assert spans(phrases) == {
        ((0, 0), (0, 0)),
        ((1, 1), (1, 1)),
        ((0, 1), (0, 1)),
    }
    by_span = {p.src_span: p for p in phrases}
    assert by_span[(0, 1)].src == ("s0", "s1")
    assert by_span[(0, 1)].tgt == ("t0", "t1")


def test_monotone_diagonal_five_by_five_extracts_all_substrings():
    src = tuple(f"s{i}" for i in range(5))
    tgt = tuple(f"t{i}" for i in range(5))
    diag = AlignmentMatrix(5, 5, frozenset((i, i) for i in range(5)))
    assert len(extract_phrases((src, tgt), diag, 7)) == 15


def test_fully_crossing_pair_yields_only_single_words_at_length_one():
    phrases = extract_phrases((("s0", "s1"), ("t0", "t1")), SWAP_2X2, 1)
    assert spans(phrases) == {((0, 0), (1, 1)), ((1, 1), (0, 0))}


def test_unaligned_source_words_extend_phrases():
    pair = (("s0", "s1", "s2"), ("t0", "t1"))
    alignment = AlignmentMatrix(3, 2, frozenset({(0, 0), (2, 1)}))
    assert spans(extract_phrases(pair, alignment, 3)) == {
        ((0, 0), (0, 0)),
        ((0, 1), (0, 0)),
        ((1, 2), (1, 1)),
        ((2, 2), (1, 1)),
        ((0, 2), (0, 1)),
    }


def test_extraction_matches_brute_force_consistency_check():
    rng = random.Random(31)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        alignment = random_alignment(rng, n, m)
        max_len = rng.choice((1, 2, 3, 7))
        src = tuple(f"s{i}" for i in range(n))
        tgt = tuple(f"t{j}" for j in range(m))
        got = spans(extract_phrases((src, tgt), alignment, max_len))
        assert got == consistent_boxes(n, m, alignment.links, max_len)


def test_every_extracted_box_contains_a_link():
    rng = random.Random(37)
    for _ in range(50):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        alignment = random_alignment(rng, n, m)
        src = tuple(f"s{i}" for i in range(n))
        tgt = tuple(f"t{j}" for j in range(m))
        for o in extract_occurrences((src, tgt), alignment, 7):
            assert o.links, o.phrase
            (s1, s2), (j1, j2) = o.phrase.src_span, o.phrase.tgt_span
            for i, j in o.links:
                assert 0 <= i <= s2 - s1 and 0 <= j <= j2 - j1


def test_internal_links_are_reindexed_to_the_box():
    pair = (("s0", "s1", "s2"), ("t0", "t1"))
    alignment = AlignmentMatrix(3, 2, frozenset({(0, 0), (2, 1)}))
    by_span = {
        (o.phrase.src_span, o.phrase.tgt_span): o
        for o in extract_occurrences(pair, alignment, 3)
    }
    assert by_span[((1, 2), (1, 1))].links == frozenset({(1, 0)})
    assert by_span[((0, 2), (0, 1))].links == frozenset({(0, 0), (2, 1)})


def test_extraction_validates_inputs():
    with pytest.raises(DataError, match="2x2"):
        extract_phrases((("a",), ("x",)), DIAG_2X2, 2)
    with pytest.raises(ValueError, match="max_phrase_len"):
        extract_phrases((("a",), ("x",)), AlignmentMatrix(1, 1, frozenset()), 0)


def test_extract_corpus_concatenates_in_order():
    pairs = [(("a",), ("x",)), (("b",), ("y",))]
    alignments = [AlignmentMatrix(1, 1, frozenset({(0, 0)}))] * 2
    out = extract_corpus(pairs, alignments, 1)
    assert [o.phrase.src for o in out] == [("a",), ("b",)]


# -- orientations -------------------------------------------------------------


def orientations(pair, alignment, max_len=2):
    return {
        (o.phrase.src_span, o.phrase.tgt_span): (o.prev_orient, o.next_orient)
        for o in extract_occurrences(pair, alignment, max_len)
    }


def test_monotone_diagonal_is_monotone_throughout():
    table = orientations((("s0", "s1"), ("t0", "t1")), DIAG_2X2)
    assert table[((0, 0), (0, 0))] == (MONO, MONO)
    assert table[((1, 1), (1, 1))] == (MONO, MONO)
    assert table[((0, 1), (0, 1))] == (MONO, MONO)


def test_crossing_pair_reports_swap_corners():
    table = orientations((("s0", "s1"), ("t0", "t1")), SWAP_2X2, max_len=1)
    assert table[((1, 1), (0, 0))] == (DISC, SWAP)
    assert table[((0, 0), (1, 1))] == (SWAP, DISC)


def test_isolated_link_is_discontinuous_on_both_sides():
    alignment = AlignmentMatrix(3, 3, frozenset({(0, 0), (2, 1)}))
    pair = (("s0", "s1", "s2"), ("t0", "t1", "t2"))
    table = orientations(pair, alignment, max_len=1)
    assert table[((2, 2), (1, 1))] == (DISC, DISC)


# -- scoring ------------------------------------------------------------------


def unit_ttable(pairs):
    return TTable.from_dict(dict(pairs))


def test_phrase_probabilities_are_relative_frequencies():
    occurrences = [
        occ(("a",), ("x",), {(0, 0)}),
        occ(("a",), ("x",), {(0, 0)}),
        occ(("a",), ("y",), {(0, 0)}),
        occ(("b",), ("x",), {(0, 0)}),
    ]
    forward = unit_ttable([(("a", "x"), 1.0), (("a", "y"), 1.0), (("b", "x"), 1.0)])
    reverse = unit_ttable([(("x", "a"), 1.0), (("y", "a"), 1.0), (("x", "b"), 1.0)])
    table = score_phrases(occurrences, forward, reverse)
    scores = table.lookup(("a",))[("x",)]
    assert scores.phrase_ts == pytest.approx(2 / 3, abs=1e-12)
    assert scores.phrase_st == pytest.approx(2 / 3, abs=1e-12)
    assert table.lookup(("a",))[("y",)].phrase_ts == pytest.approx(1 / 3, abs=1e-12)
    assert table.lookup(("b",))[("x",)].phrase_st == pytest.approx(1 / 3, abs=1e-12)


def test_phrase_probabilities_normalize_over_random_extractions():
    rng = random.Random(41)
    occurrences = []
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        src = tuple(rng.choice("abc") + str(i) for i in range(n))
        tgt = tuple(rng.choice("xyz") + str(j) for j in range(m))
        occurrences.extend(
            extract_occurrences((src, tgt), random_alignment(rng, n, m), 3)
        )
    mapping = {}
    for o in occurrences:
        for i, e in enumerate(o.phrase.src):
            for j, f in enumerate(o.phrase.tgt):
                mapping[(e, f)] = 0.5
                mapping[(f, e)] = 0.5
    table = score_phrases(occurrences, unit_ttable(mapping.items()), unit_ttable(mapping.items()))
    by_tgt = {}
    for src, row in table.entries.items():
        assert math.fsum(s.phrase_ts for s in row.values()) == pytest.approx(1.0, abs=1e-9)
        for tgt, s in row.items():
            by_tgt.setdefault(tgt, []).append(s.phrase_st)
    for tgt, probs in by_tgt.items():
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)


def test_lexical_weights_single_link():
    occurrences = [occ(("a",), ("x",), {(0, 0)})]
    forward = unit_ttable([(("a", "x"), 0.3)])
    reverse = unit_ttable([(("x", "a"), 0.7)])
    scores = score_phrases(occurrences, forward, reverse).lookup(("a",))[("x",)]
    assert scores.lex_ts == pytest.approx(0.3, abs=1e-12)
    assert scores.lex_st == pytest.approx(0.7, abs=1e-12)


def test_lexical_weight_unaligned_words_use_null():
    occurrences = [occ(("a",), ("x", "y"), {(0, 0)})]
    forward = unit_ttable([(("a", "x"), 0.4), ((NULL_WORD, "y"), 0.2)])
    reverse = unit_ttable([(("x", "a"), 0.5)])
    scores = score_phrases(occurrences, forward, reverse).lookup(("a",))[("x", "y")]
    assert scores.lex_ts == pytest.approx(0.4 * 0.2, abs=1e-12)
    assert scores.lex_st == pytest.approx(0.5, abs=1e-12)


def test_lexical_weight_averages_over_multiple_producers():
    occurrences = [occ(("a", "b"), ("x",), {(0, 0), (1, 0)})]
    forward = unit_ttable([(("a", "x"), 0.8), (("b", "x"), 0.2)])
    reverse = unit_ttable([(("x", "a"), 0.6), (("x", "b"), 0.4)])
    scores = score_phrases(occurrences, forward, reverse).lookup(("a", "b"))[("x",)]
    assert scores.lex_ts == pytest.approx((0.8 + 0.2) / 2, abs=1e-12)
    # source side: both source words produced by the single target word
    assert scores.lex_st == pytest.approx(0.6 * 0.4, abs=1e-12)


def test_lexical_weight_takes_the_best_observed_alignment():
    base = PhrasePair((0, 1), (0, 0), ("a", "b"), ("x",))
    occurrences = [
        PhraseOccurrence(base, frozenset({(0, 0)}), MONO, MONO),
        PhraseOccurrence(base, frozenset({(1, 0)}), MONO, MONO),
    ]
    forward = unit_ttable([(("a", "x"), 0.9), (("b", "x"), 0.2), ((NULL_WORD, "x"), 0.1)])
    reverse = unit_ttable(
        [(("x", "a"), 0.5), (("x", "b"), 0.3), ((NULL_WORD, "a"), 0.1), ((NULL_WORD, "b"), 0.1)]
    )
    scores = score_phrases(occurrences, forward, reverse).lookup(("a", "b"))[("x",)]
    assert scores.lex_ts == pytest.approx(0.9, abs=1e-12)
    # with only (0,0): lex(a)=0.5, lex(b)=t(b|NULL)=0.1; with (1,0): 0.1 * 0.3
    assert scores.lex_st == pytest.approx(max(0.5 * 0.1, 0.1 * 0.3), abs=1e-12)


# -- reordering ---------------------------------------------------------------


def test_single_monotone_occurrence_with_default_smoothing():
    table = train_reordering([occ(("a",), ("x",), {(0, 0)})], smoothing=0.5)
    entry = table.lookup(("a",), ("x",))
    assert entry.forward == pytest.approx((0.6, 0.2, 0.2), abs=1e-12)
    assert entry.backward == pytest.approx((0.6, 0.2, 0.2), abs=1e-12)


def test_reordering_counts_accumulate_per_phrase_pair():
    occurrences = [
        occ(("a",), ("x",), {(0, 0)}, prev=MONO, nxt=DISC),
        occ(("a",), ("x",), {(0, 0)}, prev=MONO, nxt=DISC),
        occ(("a",), ("x",), {(0, 0)}, prev=SWAP, nxt=DISC),
    ]
    entry = train_reordering(occurrences, smoothing=0.1).lookup(("a",), ("x",))
    assert entry.forward == pytest.approx(
        (2.1 / 3.3, 1.1 / 3.3, 0.1 / 3.3), abs=1e-12
    )
    assert entry.backward == pytest.approx(
        (0.1 / 3.3, 0.1 / 3.3, 3.1 / 3.3), abs=1e-12
    )


def test_reordering_triples_are_indexed_by_orientation():
    orientations = (MONO, SWAP, DISC)
    for prev in orientations:
        for nxt in orientations:
            occurrence = occ(("a",), ("x",), {(0, 0)}, prev=prev, nxt=nxt)
            entry = train_reordering([occurrence], smoothing=0.0).lookup(("a",), ("x",))
            assert entry.forward == tuple(float(o == prev) for o in orientations)
            assert entry.backward == tuple(float(o == nxt) for o in orientations)
    assert orientations == (0, 1, 2)


def test_reordering_distributions_are_proper():
    rng = random.Random(43)
    occurrences = []
    for _ in range(15):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        src = tuple(f"s{i}" for i in range(n))
        tgt = tuple(f"t{j}" for j in range(m))
        occurrences.extend(
            extract_occurrences((src, tgt), random_alignment(rng, n, m), 3)
        )
    table = train_reordering(occurrences)
    assert len(table) > 0
    for entry in table.entries.values():
        for triple in (entry.forward, entry.backward):
            assert math.fsum(triple) == pytest.approx(1.0, abs=1e-9)
            assert all(p > 0 for p in triple)


def test_train_reordering_rejects_negative_smoothing():
    with pytest.raises(ValueError, match="smoothing"):
        train_reordering([], smoothing=-0.5)


@pytest.mark.parametrize("smoothing", [float("nan"), float("inf")])
def test_train_reordering_rejects_a_non_finite_smoothing(smoothing):
    with pytest.raises(ValueError, match="smoothing must be finite"):
        train_reordering([occ(("a",), ("x",), {(0, 0)})], smoothing=smoothing)


# -- table files --------------------------------------------------------------


def sample_phrase_table():
    return PhraseTable(
        {
            ("a", "b"): {("x",): PhraseScores(0.5, 0.25, 1.0, 0.125)},
            ("c",): {
                ("y", "z"): PhraseScores(2 / 3, 0.1, 0.75, 0.01),
                ("y",): PhraseScores(1 / 3, 0.2, 0.25, 0.02),
            },
        }
    )


def test_phrase_table_roundtrip(tmp_path):
    table = sample_phrase_table()
    path = str(tmp_path / "pt.txt")
    table.write(path)
    back = PhraseTable.read(path)
    assert len(back) == len(table) == 3
    for src, row in table.entries.items():
        for tgt, scores in row.items():
            assert back.lookup(src)[tgt] == pytest.approx(scores, abs=1e-9)


def test_phrase_table_write_format(tmp_path):
    table = PhraseTable({("a", "b"): {("x",): PhraseScores(0.5, 0.25, 1.0, 0.125)}})
    path = str(tmp_path / "pt.txt")
    table.write(path)
    assert open(path, encoding="utf-8").read() == "a b ||| x ||| 0.5 0.25 1 0.125\n"


def test_phrase_table_lookup_missing_source_is_empty():
    assert sample_phrase_table().lookup(("zzz",)) == {}


@pytest.mark.parametrize(
    "line,message",
    [
        ("a ||| x ||| 0 0.5 0.5 0.5", "outside"),
        ("a ||| x ||| 1.5 0.5 0.5 0.5", "outside"),
        ("a ||| x ||| 0.5 0.5 0.5", "malformed"),
        ("a ||| x", "expected"),
        ("a ||| x ||| 0.5 oops 0.5 0.5", "bad score"),
        (" ||| x ||| 0.5 0.5 0.5 0.5", "malformed"),
    ],
)
def test_phrase_table_read_rejects_bad_lines(tmp_path, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        PhraseTable.read(str(path))


def test_reordering_table_roundtrip(tmp_path):
    table = ReorderingTable(
        {
            (("a",), ("x",)): ReorderingEntry((0.6, 0.2, 0.2), (0.2, 0.2, 0.6)),
            (("a", "b"), ("y",)): ReorderingEntry(
                (1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25)
            ),
        }
    )
    path = str(tmp_path / "rt.txt")
    table.write(path)
    back = ReorderingTable.read(path)
    assert len(back) == 2
    entry = back.lookup(("a",), ("x",))
    assert entry.forward == pytest.approx((0.6, 0.2, 0.2), abs=1e-9)
    assert entry.backward == pytest.approx((0.2, 0.2, 0.6), abs=1e-9)
    assert back.lookup(("zzz",), ("x",)) is None


@pytest.mark.parametrize(
    "line,message",
    [
        ("a ||| x ||| 0.6 0.2 0.2 0.2 0.2", "malformed"),
        ("a ||| x ||| 0.6 0.2 0.2 0.2 0.2 0", "outside"),
        ("a ||| x ||| 0.6 0.2 0.2 0.2 0.2 oops", "bad probability"),
        ("a ||| 0.6 0.2 0.2 0.2 0.2 0.2", "expected"),
    ],
)
def test_reordering_table_read_rejects_bad_lines(tmp_path, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        ReorderingTable.read(str(path))


def test_tables_read_keep_the_last_of_a_duplicated_pair(tmp_path):
    path = tmp_path / "pt.txt"
    path.write_text(
        "a ||| x ||| 0.5 0.5 0.5 0.5\n"
        "a ||| y ||| 0.5 0.5 0.5 0.5\n"
        "a ||| x ||| 0.25 0.125 1 1e-05\n",
        encoding="utf-8",
    )
    table = PhraseTable.read(str(path))
    assert table.lookup(("a",))[("x",)] == (0.25, 0.125, 1.0, 1e-05)
    assert (len(table), table.lines_read, table.sources_read) == (2, 3, 1)
    path.write_text(
        "a ||| x ||| 0.5 0.5 0.5 0.5 0.5 0.5\na ||| x ||| 0.25 0.25 0.5 1 1 1\n",
        encoding="utf-8",
    )
    reordering = ReorderingTable.read(str(path))
    assert reordering.lookup(("a",), ("x",)) == ((0.25, 0.25, 0.5), (1.0, 1.0, 1.0))
    assert len(reordering) == 1


@pytest.mark.parametrize("cls,numbers", [(PhraseTable, 4), (ReorderingTable, 6)])
def test_read_rejects_a_bad_line_whose_phrase_is_never_looked_up(tmp_path, cls, numbers):
    good = " ".join(["0.5"] * numbers)
    path = tmp_path / "table.txt"
    path.write_text(
        f"a ||| x ||| {good}\n\nb ||| y ||| {good} 0.5\nc ||| z ||| {good}\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="malformed") as raised:
        cls.read(str(path))
    assert raised.value.line == 3
    assert str(raised.value).startswith(f"{path}:3: ")


# Number texts from float formatting and by hand, inside and outside
# (0, 1]; the fast path of the table readers must agree with float() on
# every one.
NUMBER_TEXTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(lambda x: "%.12g" % x),
    st.floats(min_value=0.0, max_value=1.0).map(lambda x: "%.12g" % x),
    st.sampled_from(
        [
            "%.12g" % x
            for x in (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-100, 1.0,
                      math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 1e-05)
        ]
        + ["1.0", "+0.5", ".5", "5E-1", "1e-400", "0." + "0" * 400 + "1", "nan",
           "inf", "1_0", "0.", "0", "0.0000000000000000000", "0.0000000000000000001",
           "0.00000000000000000001", "0.9999999999999999999999", "1e-00", "9e-00",
           "9.99e-01", "1.e-05", "9e-100", "1e-9", "01", "0.5e-01", "-0.5", "١"]
    ),
    st.text(alphabet="0123456789.e-+E", max_size=24),
)


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    text=NUMBER_TEXTS,
    width=st.sampled_from([4, 6]),
    separator=st.sampled_from([" ", "  ", "\t"]),
)
def test_table_read_agrees_with_the_eager_float_check(tmp_path, data, text, width, separator):
    """A table file's line is accepted exactly when converting all its
    numbers with float() finds each in (0, 1], with the same ParseError
    otherwise, and a looked-up row holds those floats."""
    numbers = ["0.5"] * width
    numbers[data.draw(st.integers(0, width - 1))] = text
    path = str(tmp_path / "table.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"a b ||| x ||| 0.5{' 0.25' * (width - 1)}\n")
        fh.write(f"a b ||| y ||| {separator.join(numbers)}\n")
    cls, table, value = (
        (PhraseTable, "phrase table", "score")
        if width == 4
        else (ReorderingTable, "reordering", "probability")
    )
    try:
        expected = eager_scored_lines(path, width, table, value)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            cls.read(path)
        assert (str(raised.value), raised.value.line) == (str(exc), exc.line)
        return
    read = cls.read(path)
    for src, tgt, values in expected:
        if cls is PhraseTable:
            assert read.lookup(src)[tgt] == values
        else:
            assert read.lookup(src, tgt) == (values[:3], values[3:])


# -- agreement with the rescanning references ----------------------------------


def test_training_steps_match_their_rescanning_references():
    """EM, extraction, scoring and reordering agree exactly, float for
    float and occurrence by occurrence, with straightforward versions that
    rescan the links and count in separate passes."""
    rng = random.Random(7021)
    for _ in range(40):
        # small vocabularies make phrase pairs recur with other alignments
        src_vocab = ["s%d" % k for k in range(rng.randint(2, 6))]
        tgt_vocab = ["t%d" % k for k in range(rng.randint(2, 6))]
        pairs = [
            (
                tuple(rng.choice(src_vocab) for _ in range(rng.randint(1, 15))),
                tuple(rng.choice(tgt_vocab) for _ in range(rng.randint(1, 15))),
            )
            for _ in range(rng.randint(1, 6))
        ]
        iterations = rng.randint(1, 4)
        forward = IBM1Aligner(iterations=iterations).fit(pairs)
        reverse = IBM1Aligner(iterations=iterations).fit([(t, s) for s, t in pairs])
        for aligner, data in ((forward, pairs), (reverse, [(t, s) for s, t in pairs])):
            rows, history = sparse_em(data, iterations)
            assert aligner.ttable_.rows() == rows
            assert aligner.loglik_per_iteration_ == history

        if rng.random() < 0.5:
            density = rng.choice((0.05, 0.15, 0.3, 0.5))
            alignments = [random_alignment(rng, len(s), len(t), density) for s, t in pairs]
        else:
            alignments = [
                symmetrize(
                    viterbi_align(forward.ttable_, pair, "forward"),
                    viterbi_align(reverse.ttable_, pair, "reverse"),
                )
                for pair in pairs
            ]
        max_len = rng.randint(1, 7)
        occurrences = []
        for pair, alignment in zip(pairs, alignments):
            found = extract_occurrences(pair, alignment, max_len)
            assert found == rescanning_extract(pair, alignment, max_len)
            occurrences += found

        table = score_phrases(occurrences, forward.ttable_, reverse.ttable_)
        assert table.entries == counting_score(
            occurrences, forward.ttable_, reverse.ttable_
        ).entries
        smoothing = rng.choice((0, 0.5, 1.0, 2.5))
        assert (
            train_reordering(occurrences, smoothing).entries
            == counting_reordering(occurrences, smoothing).entries
        )
