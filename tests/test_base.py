"""Shared plumbing: estimator parameters, errors, sentence validation."""

import pytest

from phraseforge.align import IBM1Aligner
from phraseforge.base import (
    BaseEstimator,
    CorpusError,
    NotFittedError,
    ParseError,
    check_is_fitted,
    check_sentence,
)
from phraseforge.lm import NGramLanguageModel
from phraseforge.tuning import MertTuner


def test_get_params_reflects_constructor():
    model = NGramLanguageModel(order=2, smoothing="add-k", add_k=0.0)
    params = model.get_params()
    assert params["order"] == 2
    assert params["smoothing"] == "add-k"
    assert params["add_k"] == 0.0
    assert params["open_vocab"] is True


def test_repr_shows_params():
    assert repr(MertTuner(iterations=2)).startswith("MertTuner(iterations=2")


def test_estimators_expose_params():
    for est in (NGramLanguageModel(), IBM1Aligner(), MertTuner()):
        assert isinstance(est, BaseEstimator)
        assert est.get_params()


def test_check_is_fitted():
    aligner = IBM1Aligner()
    with pytest.raises(NotFittedError, match="call fit"):
        check_is_fitted(aligner, "ttable_")


def test_check_sentence_accepts_tokens():
    assert check_sentence(["a", "b"]) == ("a", "b")


@pytest.mark.parametrize("bad", [[], [""], ["a b"], ["a", "\t"]])
def test_check_sentence_rejects(bad):
    with pytest.raises(CorpusError):
        check_sentence(bad)


def test_parse_error_carries_location():
    err = ParseError("boom", path="f.txt", line=3)
    assert err.path == "f.txt"
    assert err.line == 3
    assert "f.txt:3" in str(err)
