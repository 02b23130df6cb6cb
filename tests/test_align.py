"""Alignment: EM training, likelihoods, Viterbi links, symmetrization, IO."""

import math
import random

import pytest

from helpers import dense_em, random_alignment, random_pairs
from phraseforge.align import (
    AlignmentMatrix,
    IBM1Aligner,
    TTable,
    corpus_loglik,
    read_pharaoh,
    symmetrize,
    viterbi_align,
    write_pharaoh,
)
from phraseforge.base import DataError, ParseError
from phraseforge.corpus import NULL_WORD


# -- EM training --------------------------------------------------------------


def test_single_pair_em_reaches_certainty():
    aligner = IBM1Aligner(iterations=5).fit([(("a",), ("x",))])
    assert aligner.ttable_.prob("a", "x") == pytest.approx(1.0, abs=1e-12)
    assert aligner.ttable_.prob(NULL_WORD, "x") == pytest.approx(1.0, abs=1e-12)
    for total in aligner.ttable_.row_sums().values():
        assert total == pytest.approx(1.0, abs=1e-12)


def test_overlapping_pairs_disambiguate_each_other():
    pairs = [(("a", "b"), ("x", "y")), (("a",), ("x",))]
    aligner = IBM1Aligner(iterations=20).fit(pairs)
    assert aligner.ttable_.prob("a", "x") > 0.9
    assert aligner.ttable_.prob("b", "y") > 0.9


def test_em_matches_dense_reference():
    rng = random.Random(7)
    for _ in range(10):
        pairs = random_pairs(rng, rng.randint(2, 8))
        iterations = rng.randint(1, 6)
        aligner = IBM1Aligner(iterations=iterations).fit(pairs)
        t_ref, history_ref = dense_em(pairs, iterations)
        assert aligner.loglik_per_iteration_ == pytest.approx(history_ref, abs=1e-9)
        rows = aligner.ttable_.rows()
        for e, row in rows.items():
            for f, p in row.items():
                assert p == pytest.approx(t_ref[e][f], abs=1e-9), (e, f)
        # the sparse table must not be missing any mass the dense one has
        for e, row in t_ref.items():
            for f, p in row.items():
                if p > 1e-12:
                    assert f in rows[e], (e, f)


def test_em_loglik_never_decreases():
    rng = random.Random(13)
    for _ in range(8):
        pairs = random_pairs(rng, rng.randint(2, 10))
        aligner = IBM1Aligner(iterations=10).fit(pairs)
        history = aligner.loglik_per_iteration_
        assert len(history) == 10
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-9


def test_first_iteration_loglik_is_the_uniform_value():
    # under the uniform init each target word costs exactly ln(1/|V_target|)
    pairs = [(("a", "b"), ("x", "y", "z")), (("c",), ("x",))]
    aligner = IBM1Aligner(iterations=1).fit(pairs)
    assert aligner.loglik_per_iteration_[0] == pytest.approx(
        -4 * math.log(3), abs=1e-12
    )


def test_em_is_deterministic():
    pairs = random_pairs(random.Random(2), 6)
    a = IBM1Aligner(iterations=4).fit(pairs)
    b = IBM1Aligner(iterations=4).fit(pairs)
    assert a.loglik_per_iteration_ == b.loglik_per_iteration_
    assert a.ttable_.rows() == b.ttable_.rows()


def test_em_rejects_bad_input():
    with pytest.raises(DataError):
        IBM1Aligner().fit([])
    with pytest.raises(DataError):
        IBM1Aligner().fit([(("a",), ())])
    with pytest.raises(ValueError, match="iterations"):
        IBM1Aligner(iterations=0).fit([(("a",), ("x",))])


def test_fitted_aligner_aligns_training_pairs():
    pairs = [(("a", "b"), ("x", "y")), (("a",), ("x",)), (("b",), ("y",))]
    aligner = IBM1Aligner(iterations=15).fit(pairs)
    matrix = viterbi_align(aligner.ttable_, pairs[0])
    assert (matrix.n_source, matrix.m_target) == (2, 2)
    assert matrix.links == frozenset({(0, 0), (1, 1)})
    assert [viterbi_align(aligner.ttable_, pair) for pair in pairs[1:]] == [
        AlignmentMatrix(1, 1, frozenset({(0, 0)})),
        AlignmentMatrix(1, 1, frozenset({(0, 0)})),
    ]


# -- corpus likelihood --------------------------------------------------------


def test_corpus_loglik_hand_computed():
    ttable = TTable.from_dict({("a", "x"): 0.5, (NULL_WORD, "x"): 0.5})
    assert corpus_loglik(ttable, [(("a",), ("x",))]) == pytest.approx(
        math.log(0.5), abs=1e-12
    )


def test_corpus_loglik_certain_table_costs_only_length():
    ttable = TTable.from_dict({("a", "x"): 1.0, ("b", "y"): 1.0})
    got = corpus_loglik(ttable, [(("a", "b"), ("x", "y"))])
    assert got == pytest.approx(-2 * math.log(3), abs=1e-12)


def test_corpus_loglik_unreachable_word_is_minus_inf():
    ttable = TTable.from_dict({("a", "x"): 1.0})
    assert corpus_loglik(ttable, [(("a",), ("q",))]) == float("-inf")


def test_ttable_prob_unseen_is_zero():
    ttable = TTable.from_dict({("a", "x"): 1.0})
    assert ttable.prob("a", "zzz") == 0.0
    assert ttable.prob("zzz", "x") == 0.0


# -- Viterbi alignment --------------------------------------------------------


def hand_table():
    return TTable.from_dict(
        {
            ("a", "x"): 0.9,
            ("a", "y"): 0.1,
            ("b", "x"): 0.2,
            ("b", "y"): 0.7,
            (NULL_WORD, "x"): 0.05,
            (NULL_WORD, "y"): 0.05,
        }
    )


def test_viterbi_links_each_target_word_to_its_argmax():
    matrix = viterbi_align(hand_table(), (("a", "b"), ("y", "x")))
    assert matrix.links == frozenset({(1, 0), (0, 1)})


def test_viterbi_prefers_null_on_a_tie():
    ttable = TTable.from_dict({("a", "x"): 0.5, (NULL_WORD, "x"): 0.5})
    matrix = viterbi_align(ttable, (("a",), ("x",)))
    assert matrix.links == frozenset()


def test_viterbi_prefers_the_smallest_source_index_on_ties():
    ttable = TTable.from_dict(
        {("a", "x"): 0.4, ("b", "x"): 0.4, (NULL_WORD, "x"): 0.1}
    )
    matrix = viterbi_align(ttable, (("a", "b"), ("x",)))
    assert matrix.links == frozenset({(0, 0)})


def test_viterbi_unseen_target_word_stays_unlinked():
    matrix = viterbi_align(hand_table(), (("a",), ("zzz",)))
    assert matrix.links == frozenset()


def test_viterbi_is_invariant_under_global_rescaling():
    rng = random.Random(17)
    base = {
        (e, f): rng.uniform(0.05, 1.0)
        for e in ("a", "b", "c", NULL_WORD)
        for f in ("x", "y", "z")
    }
    scaled = {pair: 0.37 * p for pair, p in base.items()}
    pair = (("a", "b", "c"), ("z", "x", "y", "x"))
    assert (
        viterbi_align(TTable.from_dict(base), pair).links
        == viterbi_align(TTable.from_dict(scaled), pair).links
    )


def test_viterbi_reverse_direction_transposes():
    ttable = hand_table()
    pair = (("x", "y"), ("a", "b"))
    reverse = viterbi_align(ttable, pair, direction="reverse")
    forward_swapped = viterbi_align(ttable, (pair[1], pair[0]))
    assert reverse == forward_swapped.transposed()
    assert (reverse.n_source, reverse.m_target) == (2, 2)


def test_viterbi_validates_direction():
    with pytest.raises(ValueError, match="direction"):
        viterbi_align(hand_table(), (("a",), ("x",)), direction="backward")


# -- symmetrization -----------------------------------------------------------


HEURISTICS = ("intersection", "union", "grow-diag-final-and")


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_symmetrize_identical_inputs_pass_through(heuristic):
    matrix = AlignmentMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
    assert symmetrize(matrix, matrix, heuristic) == matrix


def test_symmetrize_basic_heuristics():
    forward = AlignmentMatrix(2, 2, frozenset({(0, 0)}))
    reverse = AlignmentMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
    assert symmetrize(forward, reverse, "intersection").links == frozenset({(0, 0)})
    assert symmetrize(forward, reverse, "union").links == frozenset({(0, 0), (1, 1)})
    # (1,1) is diagonally adjacent to the intersection and both ends are free
    grown = symmetrize(forward, reverse, "grow-diag-final-and")
    assert grown.links == frozenset({(0, 0), (1, 1)})


def test_grow_diag_final_and_adds_isolated_links_once_only():
    forward = AlignmentMatrix(3, 3, frozenset({(0, 0), (1, 2), (2, 2)}))
    reverse = AlignmentMatrix(3, 3, frozenset({(0, 0)}))
    result = symmetrize(forward, reverse, "grow-diag-final-and")
    # neither candidate touches (0,0); final-and takes (1,2), which then
    # blocks (2,2) because target 2 is covered
    assert result.links == frozenset({(0, 0), (1, 2)})


def test_symmetrize_disjoint_links_survive_final_and():
    forward = AlignmentMatrix(2, 2, frozenset({(0, 0)}))
    reverse = AlignmentMatrix(2, 2, frozenset({(1, 1)}))
    result = symmetrize(forward, reverse, "grow-diag-final-and")
    assert result.links == frozenset({(0, 0), (1, 1)})


def test_symmetrize_results_sit_between_intersection_and_union():
    rng = random.Random(23)
    for _ in range(1000):
        forward = random_alignment(rng, 5, 5)
        reverse = random_alignment(rng, 5, 5)
        inter = forward.links & reverse.links
        union = forward.links | reverse.links
        for heuristic in HEURISTICS:
            links = symmetrize(forward, reverse, heuristic).links
            assert inter <= links <= union, heuristic


def test_symmetrize_validates_inputs():
    a = AlignmentMatrix(2, 2, frozenset())
    b = AlignmentMatrix(2, 3, frozenset())
    with pytest.raises(DataError, match="shapes"):
        symmetrize(a, b)
    with pytest.raises(ValueError, match="heuristic"):
        symmetrize(a, a, "diag-only")


def test_alignment_matrix_rejects_out_of_range_links():
    with pytest.raises(DataError):
        AlignmentMatrix(2, 2, frozenset({(2, 0)}))
    with pytest.raises(DataError):
        AlignmentMatrix(2, 2, frozenset({(0, -1)}))


def test_alignment_matrix_transpose_is_an_involution():
    matrix = AlignmentMatrix(2, 3, frozenset({(0, 2), (1, 0)}))
    assert matrix.transposed().transposed() == matrix
    assert matrix.transposed().links == frozenset({(2, 0), (0, 1)})


# -- pharaoh files ------------------------------------------------------------


def test_pharaoh_roundtrip(tmp_path):
    matrices = [
        AlignmentMatrix(2, 2, frozenset({(1, 0), (0, 1)})),
        AlignmentMatrix(1, 1, frozenset()),
        AlignmentMatrix(3, 2, frozenset({(2, 1)})),
    ]
    path = str(tmp_path / "a.pharaoh")
    write_pharaoh(matrices, path)
    text = open(path, encoding="utf-8").read()
    assert text == "0-1 1-0\n\n2-1\n"
    assert read_pharaoh(path) == [m.links for m in matrices]


def test_read_pharaoh_rejects_malformed_links(tmp_path):
    path = tmp_path / "bad.pharaoh"
    path.write_text("0-0\n1-x\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"bad\.pharaoh:2"):
        read_pharaoh(str(path))
