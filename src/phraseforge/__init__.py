"""phraseforge: a phrase-based statistical machine translation toolkit.

Everything is built from the standard library: corpus preparation,
n-gram language modeling with backoff smoothing, IBM Model 1 word
alignment, phrase extraction and scoring with lexicalized reordering,
beam-search decoding, MERT weight tuning, and BLEU evaluation.
"""

from .base import (
    BaseEstimator,
    ConfigError,
    CorpusError,
    DataError,
    NotFittedError,
    ParseError,
)
from .corpus import ParallelCorpus, SentencePair, tokenize
from .lm import NGramLanguageModel, count_ngrams, read_arpa
from .align import (
    AlignmentMatrix,
    IBM1Aligner,
    TTable,
    corpus_loglik,
    read_pharaoh,
    symmetrize,
    viterbi_align,
    write_pharaoh,
)
from .phrases import (
    PhrasePair,
    PhraseScores,
    PhraseTable,
    ReorderingEntry,
    ReorderingTable,
    extract_phrases,
    score_phrases,
    train_reordering,
)
from .decoder import (
    BeamDecoder,
    DecodeError,
    DecodeResult,
    FeatureWeights,
    TranslationOption,
    build_options,
)
from .metrics import BleuReport, ErrorAnalysis, bleu, error_rate, report
from .tuning import MertTuner, NBestPool, optimize_weights, pool_bleu
from .config import RunConfig, read_config, write_config
from .translator import PhraseBasedTranslator

__version__ = "0.1.0"

__all__ = [
    "AlignmentMatrix",
    "BaseEstimator",
    "BeamDecoder",
    "BleuReport",
    "ConfigError",
    "CorpusError",
    "DataError",
    "DecodeError",
    "DecodeResult",
    "ErrorAnalysis",
    "FeatureWeights",
    "IBM1Aligner",
    "MertTuner",
    "NBestPool",
    "NGramLanguageModel",
    "NotFittedError",
    "ParallelCorpus",
    "ParseError",
    "PhraseBasedTranslator",
    "PhrasePair",
    "PhraseScores",
    "PhraseTable",
    "ReorderingEntry",
    "ReorderingTable",
    "RunConfig",
    "SentencePair",
    "TTable",
    "TranslationOption",
    "bleu",
    "build_options",
    "corpus_loglik",
    "count_ngrams",
    "error_rate",
    "extract_phrases",
    "optimize_weights",
    "pool_bleu",
    "read_arpa",
    "read_config",
    "read_pharaoh",
    "report",
    "score_phrases",
    "symmetrize",
    "tokenize",
    "train_reordering",
    "viterbi_align",
    "write_config",
    "write_pharaoh",
]
