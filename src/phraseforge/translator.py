"""End-to-end training: parallel corpus in, working decoder out.

fit() runs the full pipeline on a tokenized parallel corpus: target-side
language model, IBM Model 1 in both directions, Viterbi alignment and
grow-diag-final-and symmetrization, phrase extraction with scores and
lexicalized reordering, then a beam decoder wired up with the default or
supplied weights. save()/load() round-trip all artifacts through a run
config so a trained system can be shipped as a directory of flat files.
"""

from __future__ import annotations

import logging
import os
import time
from contextlib import contextmanager
from typing import Iterable, Sequence

from .base import BaseEstimator, DataError, check_is_fitted, paused_gc
from .align import IBM1Aligner, _as_pairs, symmetrize, viterbi_align, write_pharaoh
from .config import PARAM_KEYS, RunConfig, read_config, validate_config, write_config
from .corpus import ParallelCorpus
from .decoder import BeamDecoder, DecodeResult, FeatureWeights
from .lm import NGramLanguageModel, read_arpa
from .phrases import (
    PhraseTable,
    ReorderingTable,
    extract_corpus,
    score_phrases,
    train_reordering,
)

logger = logging.getLogger(__name__)

LM_FILE = "lm.arpa"
PHRASE_TABLE_FILE = "phrase-table.txt"
REORDERING_FILE = "reordering-table.txt"
ALIGNMENT_FILE = "alignments.pharaoh"
CONFIG_FILE = "run.ini"


@contextmanager
def _stage(name: str):
    """Label any failure inside a training stage with the stage name."""
    logger.info("train stage: %s", name)
    try:
        yield
    except Exception as exc:
        try:
            wrapped = type(exc)(f"{name}: {exc}")
        except Exception:
            wrapped = RuntimeError(f"{name}: {exc}")
        raise wrapped from exc


class PhraseBasedTranslator(BaseEstimator):
    """The whole toolkit behind one estimator.

    The constructor parameters but weights are the run config's [params]
    keys, in PARAM_KEYS order. The constructor checks them and the weights
    with the run config's validator, so a setting that load() would reject
    fails here, before fit() reads any corpus.

    Fitted attributes: lm_, ttable_fwd_ (t(target|source)), ttable_rev_,
    alignments_ (symmetrized, one per training pair), phrase_table_,
    reordering_table_, decoder_. weights_ is the decoder's weights. save()
    writes decoder_'s weights and SEARCH_LIMITS, so weights tuned or a
    beam set on decoder_ are the ones written.
    """

    def __init__(
        self,
        source_lang: str = "src",
        target_lang: str = "tgt",
        order: int = 3,
        smoothing: str = "witten-bell",
        add_k: float = 0.5,
        em_iterations: int = 5,
        max_phrase_len: int = 7,
        beam_size: int | None = 100,
        beam_threshold: float = 1e-5,
        distortion_limit: int | None = 6,
        options_per_span: int | None = 20,
        weights: FeatureWeights | None = None,
    ):
        self.source_lang = source_lang
        self.target_lang = target_lang
        self.order = order
        self.smoothing = smoothing
        self.add_k = add_k
        self.em_iterations = em_iterations
        self.max_phrase_len = max_phrase_len
        self.beam_size = beam_size
        self.beam_threshold = beam_threshold
        self.distortion_limit = distortion_limit
        self.options_per_span = options_per_span
        self.weights = weights
        config = RunConfig(**{name: getattr(self, name) for name in PARAM_KEYS})
        if weights is not None:
            config.weights = weights
        validate_config(config)

    @paused_gc()
    def fit(self, corpus: ParallelCorpus | Iterable) -> "PhraseBasedTranslator":
        """Train every model on a tokenized parallel corpus.

        Training runs with the cyclic garbage collector paused
        (base.paused_gc): it keeps about a million containers alive at
        once (link sets, phrase tuples, t-table rows), which every
        collection would rescan, yet it creates no reference cycles.
        """
        pairs = _as_pairs(corpus)
        if not pairs:
            raise DataError("cannot train on an empty corpus")

        with _stage("language-model"):
            self.lm_ = NGramLanguageModel(
                order=self.order, smoothing=self.smoothing, add_k=self.add_k
            ).fit([p.target for p in pairs])

        with _stage("word-alignment"):
            forward = IBM1Aligner(iterations=self.em_iterations).fit(pairs)
            reverse = IBM1Aligner(iterations=self.em_iterations).fit(
                [(p.target, p.source) for p in pairs]
            )
            self.ttable_fwd_ = forward.ttable_
            self.ttable_rev_ = reverse.ttable_

        with _stage("symmetrization"):
            self.alignments_ = [
                symmetrize(
                    viterbi_align(self.ttable_fwd_, pair, "forward"),
                    viterbi_align(self.ttable_rev_, pair, "reverse"),
                    "grow-diag-final-and",
                )
                for pair in pairs
            ]

        with _stage("phrase-extraction"):
            occurrences = extract_corpus(pairs, self.alignments_, self.max_phrase_len)
            self.phrase_table_ = score_phrases(
                occurrences, self.ttable_fwd_, self.ttable_rev_
            )

        with _stage("reordering-model"):
            self.reordering_table_ = train_reordering(occurrences)

        with _stage("decoder"):
            self.decoder_ = self._make_decoder()
        return self

    @property
    def weights_(self) -> FeatureWeights:
        check_is_fitted(self, "decoder_")
        return self.decoder_.weights

    def _make_decoder(self) -> BeamDecoder:
        return BeamDecoder(
            self.phrase_table_,
            self.lm_,
            reordering_table=self.reordering_table_,
            weights=self.weights,
            **{name: getattr(self, name) for name in SEARCH_LIMITS},
        )

    def translate(self, tokens: Sequence[str]) -> tuple[str, ...]:
        check_is_fitted(self, "decoder_")
        return self.decoder_.decode(tokens).tokens

    def nbest(self, tokens: Sequence[str], n: int) -> list[DecodeResult]:
        check_is_fitted(self, "decoder_")
        return self.decoder_.nbest(tokens, n)

    def save(self, out_dir: str, train_stem: str | None = None) -> str:
        """Write all model files plus a run config into out_dir; returns
        the config path. File names inside the config are relative, so
        the directory can be moved as a unit. The run config is validated
        before any file is written, so save() writes only what load()
        accepts."""
        check_is_fitted(self, "decoder_")
        config = RunConfig(
            train_stem=os.path.abspath(train_stem) if train_stem else None,
            lm=LM_FILE,
            phrase_table=PHRASE_TABLE_FILE,
            reordering_table=REORDERING_FILE if self.reordering_table_ is not None else None,
            weights=self.weights_,
            base_dir=out_dir,
            **{
                name: getattr(self.decoder_ if name in SEARCH_LIMITS else self, name)
                for name in PARAM_KEYS
            },
        )
        validate_config(config)
        os.makedirs(out_dir, exist_ok=True)
        self.lm_.write_arpa(os.path.join(out_dir, LM_FILE))
        self.phrase_table_.write(os.path.join(out_dir, PHRASE_TABLE_FILE))
        if self.reordering_table_ is not None:
            self.reordering_table_.write(os.path.join(out_dir, REORDERING_FILE))
        if getattr(self, "alignments_", None) is not None:
            write_pharaoh(self.alignments_, os.path.join(out_dir, ALIGNMENT_FILE))
        config_path = os.path.join(out_dir, CONFIG_FILE)
        write_config(config, config_path)
        return config_path

    @classmethod
    @paused_gc()
    def load(cls, config: RunConfig | str) -> "PhraseBasedTranslator":
        """Rebuild a decoder-ready translator from a run config (path or
        parsed). Training-only attributes stay unset. Logs at INFO its
        wall time and each table's line and source-phrase counts.

        Reading keeps the LM and the tables' lines alive at once and makes
        no reference cycles, so it runs with the collector paused, as fit
        does (base.paused_gc)."""
        start = time.perf_counter()
        if isinstance(config, str):
            config = read_config(config)
        if config.lm is None or config.phrase_table is None:
            raise DataError("config must name both an lm and a phrase_table")
        model = cls(
            weights=config.weights, **{name: getattr(config, name) for name in PARAM_KEYS}
        )
        model.lm_ = read_arpa(config.resolve("lm"))
        model.phrase_table_ = PhraseTable.read(config.resolve("phrase_table"))
        reordering = config.resolve("reordering_table")
        model.reordering_table_ = (
            ReorderingTable.read(reordering) if reordering else None
        )
        model.decoder_ = model._make_decoder()
        tables = [("phrase table", model.phrase_table_)]
        if model.reordering_table_ is not None:
            tables.append(("reordering table", model.reordering_table_))
        logger.info(
            "loaded the model in %.3f s; %s",
            time.perf_counter() - start,
            "; ".join(
                f"{name}: {table.lines_read} lines, {table.sources_read} source phrases"
                for name, table in tables
            ),
        )
        return model


# The settings passed to the decoder, which reads them afresh on each search.
SEARCH_LIMITS = ("beam_size", "beam_threshold", "distortion_limit", "options_per_span")
