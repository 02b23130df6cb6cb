"""Command line front end: prepare, train, tune, translate, evaluate.

One run config (INI) ties the pipeline together: train writes it, tune
rewrites its weights, translate and evaluate load models through it.
translate is a line filter (stdin to stdout) so the toolkit composes
with shell pipes.

Exit codes: 0 success, 1 usage error (a setting flag out of range is
caught before any corpus or input is read; a count flag such as
prepare --max-len, tune --iterations or translate --nbest, before any
file is opened), 2 data error (bad input files, malformed configs,
undecodable input), 3 internal error.
translate prints each line as soon as it is decoded; a line that cannot
be decoded is logged to stderr and yields an empty line (no entries with
--nbest), the other lines are still translated, and the exit code is 2.
evaluate gives such a sentence an empty hypothesis, marks it ERROR, and
still prints the report before exiting 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import __version__
from .base import ConfigError, CorpusError, DataError
from .config import PARAM_KEYS, RunConfig, read_config, validate_config, write_config
from .corpus import (
    ParallelCorpus,
    SentencePair,
    clean,
    learn_truecase,
    read_line_pairs,
    read_lines,
    read_parallel,
    split,
    tokenize,
    truecase,
    write_parallel,
)
from .decoder import FEATURE_NAMES, DecodeError
from .lm import SMOOTHING_METHODS
from .metrics import report
from .translator import PhraseBasedTranslator
from .tuning import MertTuner

logger = logging.getLogger(__name__)

MANIFEST_FILE = "prepare-manifest.json"
TEST_FRACTION = 0.075
TUNE_FRACTION = 0.075


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least(minimum, kind=int):
    """An argparse type: the flag's value as kind, a usage error below
    minimum or not finite (NaN included)."""

    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {raw!r}") from None
        if not minimum <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite and >= {minimum}, got {raw}")
        return value

    return parse


def _apply_flags(args, base: RunConfig) -> RunConfig:
    """base with the setting flags given on the command line applied and
    validated; -1 lifts beam_size and distortion_limit. A setting out of
    range is a usage error."""
    given = {
        key: getattr(args, key)
        for key in PARAM_KEYS
        if getattr(args, key, None) is not None
    }
    for key in ("beam_size", "distortion_limit"):
        if given.get(key) == -1:
            given[key] = None
    config = dataclasses.replace(base, **given)
    try:
        validate_config(config)
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    return config


# -- prepare -----------------------------------------------------------


def cmd_prepare(args) -> int:
    lines = read_line_pairs(args.corpus, args.source_lang, args.target_lang)
    pairs = []
    dropped_empty = 0
    for src_raw, tgt_raw in lines:
        if not src_raw.strip() or not tgt_raw.strip():
            dropped_empty += 1
            continue
        pairs.append(SentencePair(tokenize(src_raw), tokenize(tgt_raw)))
    src_case = learn_truecase(p.source for p in pairs)
    tgt_case = learn_truecase(p.target for p in pairs)
    pairs = [
        SentencePair(truecase(p.source, src_case), truecase(p.target, tgt_case))
        for p in pairs
    ]
    corpus = ParallelCorpus(pairs, args.source_lang, args.target_lang)
    cleaned = clean(corpus, max_len=args.max_len, max_ratio=args.max_ratio)
    dropped_clean = len(corpus) - len(cleaned)

    n = len(cleaned)
    n_test = args.test if args.test is not None else round(TEST_FRACTION * n)
    n_tune = args.tune if args.tune is not None else round(TUNE_FRACTION * n)
    n_train = args.train if args.train is not None else n - n_test - n_tune
    if n_train < 0:
        raise CorpusError(f"corpus too small to split: {n} pairs survive cleaning")
    train_part, test_part, tune_part = split(cleaned, n_train, n_test, n_tune, args.seed)

    os.makedirs(args.out, exist_ok=True)
    for name, part in (("train", train_part), ("test", test_part), ("tune", tune_part)):
        write_parallel(part, os.path.join(args.out, name))
    manifest = {
        "source_lang": args.source_lang,
        "target_lang": args.target_lang,
        "seed": args.seed,
        "max_len": args.max_len,
        "max_ratio": args.max_ratio,
        "input_pairs": len(lines),
        "dropped_empty": dropped_empty,
        "dropped_clean": dropped_clean,
        "train": len(train_part),
        "test": len(test_part),
        "tune": len(tune_part),
    }
    with open(os.path.join(args.out, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"train={len(train_part)} test={len(test_part)} tune={len(tune_part)} "
        f"(dropped {dropped_empty} empty, {dropped_clean} unclean)"
    )
    return 0


# -- train -------------------------------------------------------------


def cmd_train(args) -> int:
    config = _apply_flags(args, read_config(args.config) if args.config else RunConfig())
    corpus_stem = args.corpus or config.resolve("train_stem")
    if corpus_stem is None:
        raise UsageError("--corpus is required (or a --config with train_stem)")

    corpus = read_parallel(corpus_stem, config.source_lang, config.target_lang)
    model = PhraseBasedTranslator(
        weights=config.weights, **{name: getattr(config, name) for name in PARAM_KEYS}
    )
    model.fit(corpus)
    config_path = model.save(args.out, train_stem=corpus_stem)
    logger.info("trained on %d pairs", len(corpus))
    print(config_path)
    return 0


# -- tune --------------------------------------------------------------


def cmd_tune(args) -> int:
    config = read_config(args.config)
    model = PhraseBasedTranslator.load(config)
    devset = read_parallel(args.corpus, config.source_lang, config.target_lang)
    tuner = MertTuner(iterations=args.iterations, nbest_size=args.nbest, seed=args.seed)
    tuner.fit(devset, model.decoder_, initial=config.weights)
    for i, (before, after) in enumerate(tuner.history_, start=1):
        logger.info("tuning iteration %d: pool BLEU %.4f -> %.4f", i, before, after)
    if tuner.skipped_:
        logger.warning("%d dev sentence decode(s) skipped", len(tuner.skipped_))

    out_path = args.out or args.config
    tuned = dataclasses.replace(config, weights=tuner.weights_)
    out_dir = os.path.dirname(os.path.abspath(out_path))
    if out_dir != os.path.abspath(config.base_dir):
        # moving the config: pin the model paths so they stay valid
        tuned = dataclasses.replace(
            tuned,
            train_stem=config.resolve("train_stem"),
            lm=config.resolve("lm"),
            phrase_table=config.resolve("phrase_table"),
            reordering_table=config.resolve("reordering_table"),
        )
    write_config(tuned, out_path)
    print(out_path)
    return 0


# -- translate ---------------------------------------------------------


def cmd_translate(args) -> int:
    model = PhraseBasedTranslator.load(_apply_flags(args, read_config(args.config)))

    def render(index: int, line: str) -> list[str]:
        if not line.strip():
            logger.info("line %d: empty input", index + 1)
            return [""] if args.nbest is None else []
        tokens = tokenize(line)
        if args.nbest is None:
            return [" ".join(model.translate(tokens))]
        return [
            f"{index} ||| {' '.join(r.tokens)} ||| "
            + " ".join(f"{n}: {v:.6f}" for n, v in zip(FEATURE_NAMES, r.features))
            + f" ||| {r.score:.6f}"
            for r in model.nbest(tokens, args.nbest)
        ]

    failed = 0
    for index, line in enumerate(_input_lines(sys.stdin)):
        try:
            rendered = render(index, line)
        except DecodeError as exc:
            logger.error("line %d: %s", index + 1, exc)
            failed += 1
            rendered = [""] if args.nbest is None else []
        for out in rendered:
            print(out, flush=True)
    if failed:
        logger.error("%d input line(s) could not be decoded", failed)
        return 2
    return 0


def _input_lines(stream):
    """The lines of stream as str.splitlines() splits its whole text, read
    one physical line at a time."""
    for raw in stream:
        yield from raw.splitlines()


# -- evaluate ----------------------------------------------------------


def _read_flags(path: str, expected: int) -> list[bool]:
    truthy = {"1", "true", "yes", "ok"}
    falsy = {"0", "false", "no", "error"}
    flags = []
    for lineno, line in enumerate(read_lines(path), start=1):
        word = line.strip().lower()
        if not word:
            continue
        if word in truthy:
            flags.append(True)
        elif word in falsy:
            flags.append(False)
        else:
            raise DataError(f"{path}:{lineno}: cannot read success flag {line!r}")
    if len(flags) != expected:
        raise DataError(
            f"{path}: {len(flags)} success flags for {expected} test sentences"
        )
    return flags


def cmd_evaluate(args) -> int:
    config = read_config(args.config)
    model = PhraseBasedTranslator.load(config)
    testset = read_parallel(args.corpus, config.source_lang, config.target_lang)
    sources = [p.source for p in testset]
    references = [p.target for p in testset]
    successes = _read_flags(args.success_file, len(sources)) if args.success_file else None
    hypotheses = []
    failed = set()
    for index, source in enumerate(sources):
        try:
            hypotheses.append(model.translate(source))
        except DecodeError as exc:
            logger.error("line %d: %s", index + 1, exc)
            failed.add(index)
            hypotheses.append(())
    if successes is not None:
        # without flags an empty hypothesis already fails the exact match
        successes = [ok and i not in failed for i, ok in enumerate(successes)]
    sys.stdout.write(
        report(sources, hypotheses, references, successes=successes, smooth=args.smooth)
    )
    if failed:
        logger.error("%d test sentence(s) could not be decoded", len(failed))
        return 2
    return 0


# -- wiring ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phraseforge",
        description="Phrase-based statistical machine translation toolkit.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "prepare", help="tokenize, truecase, clean, and split a raw parallel corpus"
    )
    p.add_argument("--corpus", required=True, help="raw corpus stem")
    p.add_argument("--source-lang", required=True, metavar="EXT")
    p.add_argument("--target-lang", required=True, metavar="EXT")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--train", type=_at_least(0), help="train size (default: the remainder)")
    p.add_argument("--test", type=_at_least(0), help="test size (default: 7.5%% of survivors)")
    p.add_argument("--tune", type=_at_least(0), help="tune size (default: 7.5%% of survivors)")
    p.add_argument("--seed", type=int, default=0, help="split shuffle seed")
    p.add_argument("--max-len", type=_at_least(1), default=80)
    p.add_argument("--max-ratio", type=_at_least(1.0, float), default=9.0)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train all models and write a run config")
    p.add_argument("--corpus", help="tokenized training corpus stem")
    p.add_argument("--source-lang", metavar="EXT")
    p.add_argument("--target-lang", metavar="EXT")
    p.add_argument("--out", required=True, help="model output directory")
    p.add_argument("--config", help="read defaults from an existing config")
    p.add_argument("--order", type=int, help="language model order")
    p.add_argument("--smoothing", choices=SMOOTHING_METHODS)
    p.add_argument("--add-k", type=float, help="additive constant for add-k")
    p.add_argument(
        "--em-iters", dest="em_iterations", type=int, help="Model 1 EM iterations"
    )
    p.add_argument("--max-phrase-len", type=int)
    p.add_argument("--beam", dest="beam_size", type=int, help="stack size (-1 = unlimited)")
    p.add_argument("--beam-threshold", type=float)
    p.add_argument("--distortion-limit", type=int, help="-1 = unlimited")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="optimize feature weights on a dev corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True, help="tokenized dev corpus stem")
    p.add_argument("--iterations", type=_at_least(1), default=5)
    p.add_argument("--nbest", type=_at_least(1), default=100, help="n-best size per sentence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the tuned config here (default: in place)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("translate", help="decode stdin to stdout, line by line")
    p.add_argument("--config", required=True)
    p.add_argument("--nbest", type=_at_least(1), help="emit the N best derivations per line")
    p.add_argument(
        "--beam", dest="beam_size", type=int, help="override stack size (-1 = unlimited)"
    )
    p.add_argument("--distortion-limit", type=int, help="override (-1 = unlimited)")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="translate a test corpus and score it")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True, help="tokenized test corpus stem")
    p.add_argument("--success-file", help="per-sentence success flags (1/0 lines)")
    p.add_argument("--smooth", action="store_true", help="smoothed BLEU")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )
    try:
        return args.func(args) or 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DecodeError, FileNotFoundError, UnicodeDecodeError) as exc:
        logger.error("%s", exc)
        return 2
    except Exception:
        logger.exception("internal error")
        return 3


if __name__ == "__main__":
    sys.exit(main())
