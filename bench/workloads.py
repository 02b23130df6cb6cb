"""The three workloads: train, translate-long and tune.

Each run sets up several times (setup_s is their median), then repeats
whole rounds of the workload's operations until --seconds have passed;
train then loads the model its rounds wrote and decodes a held-out set.
All outputs are checked by checks.py as they are produced.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import gen
from checks import CheckFailure, require
from tracing import LAYER_UNITS, Probe, layer_metrics

clock = time.perf_counter

# All text comes from one hidden language (LANGUAGE_SEED) and every
# corpus and sentence set is drawn with FIXED_SEED; --seed only picks the
# LM histories and sentence pairs the train checks sample. Fixed inputs are
# what keeps the figures steady from seed to seed: with seeded corpora and
# sentence sets, the trained model's decode cost and BLEU moved by 15-40%
# between seeds, and MERT's weights, on which every later decode's cost
# depends, swung between seeds by orders of magnitude. Even a seeded
# decode order moved the median sentence time by about 10%, since garbage
# collections then land on other sentences. Fixed inputs also keep
# translate-long's DecodeError failures (the decoder's known dead-end
# fault: no first-gap reachability check in BeamDecoder._search) on the
# same sentences in every run.
LANGUAGE_SEED = 1504
FIXED_SEED = 2015

# At distortion limit 6 every jump inside a sentence of at most 6 words is
# within the limit, so such a sentence can never dead-end. The dev and
# held-out sentences stay in that range so that only translate-long
# fails: dev sets of 7-12-word sentences made MertTuner.fit raise
# DecodeError on some of the sets tried.
SHORT_RANGE = (3, 6)
TRAIN_RANGE = (5, 20)
LONG_RANGE = (15, 30)
HELDOUT_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "stage_s": "s",
    "load_s": "s",
    "translate_words_per_s": "words/s",
    "translate_sentence_p50_ms": "ms",
    "bleu": "BLEU",
    "peak_rss_mb": "MB",
}

FAULT = ("DecodeError: BeamDecoder._search expands hypotheses whose first "
         "uncovered word is out of distortion-limit reach, and they crowd "
         "the stacks until no complete derivation is left")


@dataclass
class Sizes:
    train_pairs: int = 1500
    model_pairs: int = 1000
    long_sentences: int = 12
    heldout: int = 24
    loads_per_model: int = 2
    dev: int = 15
    tune_iterations: int = 3
    nbest: int = 100
    setups: int = 3
    extraction_samples: int = 6
    lm_histories: int = 12


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: str
    sizes: Sizes = field(default_factory=Sizes)
    probe: Probe = None
    setup_times: list = field(default_factory=list)
    stage_times: list = field(default_factory=list)
    load_times: list = field(default_factory=list)
    sentence_times: list = field(default_factory=list)
    sentence_words: int = 0
    attempted: int = 0
    failed: int = 0
    bleu: float | None = None
    digest: str | None = None
    notes: list = field(default_factory=list)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def metrics(self) -> dict:
        if self.trace:
            values = layer_metrics(self.probe.spans)
            units = LAYER_UNITS
        else:
            values = {
                "setup_s": statistics.median(self.setup_times),
                "stage_s": statistics.median(self.stage_times),
                "load_s": statistics.median(self.load_times),
                "translate_words_per_s": self.sentence_words / math.fsum(self.sentence_times),
                "translate_sentence_p50_ms": 1000.0 * statistics.median(self.sentence_times),
                "bleu": 100.0 * self.bleu,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# -- pipeline steps ------------------------------------------------------------


def cli_main(argv: list[str]) -> None:
    """phraseforge.cli.main in this process."""
    from phraseforge import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    require(code == 0, f"phraseforge {argv[0]} exited with {code}")


def cli_child(argv: list[str]) -> None:
    """python -m phraseforge in a child process, which the call waits for.
    Training there keeps its memory out of this process's peak."""
    import phraseforge

    src = os.path.dirname(os.path.dirname(os.path.abspath(phraseforge.__file__)))
    done = subprocess.run([sys.executable, "-m", "phraseforge", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    require(done.returncode == 0,
            f"phraseforge {argv[0]} exited with {done.returncode}: {done.stderr.strip()[-500:]}")


def prepare_and_train(raw_stem: str, out: str, main=cli_main) -> str:
    """prepare + train through the CLI; returns the model directory."""
    langs = ["--source-lang", "src", "--target-lang", "tgt"]
    main(["prepare", "--corpus", raw_stem, *langs, "--out", out + "/corpus"])
    main(["train", "--corpus", out + "/corpus/train", *langs, "--out", out + "/model"])
    return out + "/model"


def load(run: Run, model_dir: str, times: int):
    """Load the model `times` times, each timed; keep the last."""
    from phraseforge import PhraseBasedTranslator

    model = None
    for _ in range(times):
        model = None  # one model in memory at a time, as in every load
        gc.collect()
        start = clock()
        with run.probe.span("translator.load"):
            model = PhraseBasedTranslator.load(os.path.join(model_dir, "run.ini"))
        run.load_times.append(clock() - start)
    run.probe.attach(model)
    return model


def model_files(model_dir: str) -> dict:
    return {
        "lm": os.path.join(model_dir, "lm.arpa"),
        "phrase_table": os.path.join(model_dir, "phrase-table.txt"),
        "reordering_table": os.path.join(model_dir, "reordering-table.txt"),
        "alignments": os.path.join(model_dir, "alignments.pharaoh"),
        "config": os.path.join(model_dir, "run.ini"),
    }


def files_digest(files: dict) -> str:
    """Digest of the model files; run.ini is left out, since it records
    the absolute path of the training corpus."""
    digest = hashlib.sha256()
    for key in ("lm", "phrase_table", "reordering_table", "alignments"):
        path = files[key]
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def translate(run: Run, model, sentences) -> list:
    """1-best decode each source sentence; a DecodeError counts as a
    failed operation and yields None."""
    from phraseforge import DecodeError

    results = []
    for source in sentences:
        run.attempted += 1
        start = clock()
        try:
            result = model.decoder_.decode(source)
        except DecodeError:
            result = None
        run.sentence_times.append(clock() - start)
        run.sentence_words += len(source)
        if result is None:
            run.failed += 1
        results.append(result)
    return results


def decode_round(run: Run, model, pairs, rescorer, weights) -> None:
    """Translate every source sentence of pairs and check the outputs."""
    results = translate(run, model, [source for source, _ in pairs])
    score_outputs(run, rescorer, pairs, results, weights)


def score_outputs(run: Run, rescorer, pairs, results, weights) -> None:
    """Rescore each result, check BLEU and record the output digest."""
    from phraseforge import bleu

    hypotheses = []
    for (source, _), result in zip(pairs, results):
        if result is not None:
            rescorer.check(source, result, weights)
        hypotheses.append(result.tokens if result is not None else ())
    references = [tuple(target) for _, target in pairs]
    value = bleu(hypotheses, references).bleu
    checks.check_bleu(value, hypotheses, references)
    digest = hashlib.sha256("\n".join(" ".join(h) for h in hypotheses).encode()).hexdigest()
    require(run.digest in (None, digest), "1-best output changed between rounds of one run")
    require(run.bleu in (None, value), "BLEU changed between rounds of one run")
    run.digest, run.bleu = digest, value


def rounds(run: Run, body) -> None:
    """Whole rounds until run.seconds have passed; at least one."""
    start = clock()
    k = 0
    while k == 0 or clock() - start < run.seconds:
        gc.collect()  # garbage from the last round's checks is not this round's cost
        with run.probe.span("round"):
            body(k)
        k += 1
    run.notes.append(f"rounds={k}")


def setup(run: Run, k: int, body):
    """Set-up number k, timed; returns body's result."""
    out = run.path(f"setup-{k}")
    os.makedirs(out)
    # A dropped model is held by reference cycles (its wrapped methods)
    # until a full collection; collect it here, not inside the timing.
    gc.collect()
    with run.probe.span("setup"):
        start = clock()
        result = body(out)
        run.setup_times.append(clock() - start)
    return result


def short_pairs(language, seed: int, tag: str, count: int):
    return [(tuple(s), tuple(t)) for s, t in
            gen.sentences(language, seed, tag, count, *SHORT_RANGE)]


# -- train -----------------------------------------------------------------------


def train_checks(run: Run, language, model_dir: str, corpus_dir: str) -> None:
    """Independent checks on one training pass's outputs."""
    sizes = run.sizes
    files = model_files(model_dir)
    model = run.probe.translators[-1]
    aligners = run.probe.aligners[-2:]
    for name, aligner in zip(("forward", "reverse"), aligners):
        checks.check_ttable_rows(aligner.ttable_.rows(), name)
        checks.check_loglik(aligner.loglik_per_iteration_, name)

    sources = checks.read_tokens(corpus_dir + "/train.src")
    targets = checks.read_tokens(corpus_dir + "/train.tgt")
    dictionary = dict(language.dictionary)
    dictionary["."] = (".",)
    frequent = checks.check_dictionary(aligners[0].ttable_.rows(), sources, dictionary)
    require(frequent > 0, "no frequent source words to check the aligner on")
    run.notes.append(f"dictionary_argmax={frequent}/{frequent}")

    arpa = checks.Arpa(files["lm"])
    rng = random.Random(f"samples-{run.seed}")
    histories = [("<s>",), ()]
    for _ in range(sizes.lm_histories):
        sentence = rng.choice(targets)
        i = rng.randrange(len(sentence))
        histories.append((("<s>",) + sentence)[max(0, i - 1):i + 1])
    histories.append(("never", "seen"))
    checks.check_lm(model.lm_.logprob, arpa, histories)
    # The fitted model is not needed past here; dropping it keeps the
    # checks from raising the run's peak memory above the program's own.
    del model, aligners
    run.probe.translators.clear()
    run.probe.aligners.clear()

    table = checks.read_phrase_table(files["phrase_table"])
    checks.check_phrase_table(table)
    checks.check_reordering(checks.read_reordering_table(files["reordering_table"]))
    links = checks.read_links(files["alignments"])
    require(len(links) == len(sources), "alignments.pharaoh has the wrong number of lines")
    boxes = 0
    for i in rng.sample(range(len(sources)), min(sizes.extraction_samples, len(sources))):
        boxes += checks.check_extraction(sources[i], targets[i], links[i], table)
    run.notes.append(f"brute_force_boxes={boxes}")


def run_train(run: Run) -> None:
    sizes = run.sizes
    language = gen.Language(LANGUAGE_SEED)
    heldout = short_pairs(language, FIXED_SEED, "heldout", sizes.heldout)

    def generate(out: str) -> str:
        pairs = gen.sentences(language, FIXED_SEED, "train", sizes.train_pairs, *TRAIN_RANGE)
        gen.write_raw(pairs, out + "/raw")
        return out + "/raw"

    raw_stem = [setup(run, k, generate) for k in range(sizes.setups)][-1]
    first: dict = {}

    def body(k: int) -> None:
        out = run.path(f"round-{k}")
        start = clock()
        with run.probe.span("stage"):
            model_dir = prepare_and_train(raw_stem, out)
        run.stage_times.append(clock() - start)
        run.attempted += 1
        digest = files_digest(model_files(model_dir))
        if not first:
            train_checks(run, language, model_dir, out + "/corpus")
            first["digest"], first["model_dir"] = digest, model_dir
        run.probe.translators.clear()
        run.probe.aligners.clear()
        require(digest == first["digest"], "training wrote different model files in one run")
        load(run, model_dir, 1)
        if k > 0:
            shutil.rmtree(out)

    rounds(run, body)
    # After the timed rounds, the model they all wrote is loaded again and
    # decodes the held-out set, as an evaluation after training would.
    files = model_files(first["model_dir"])
    rescorer = checks.Rescorer(files, [source for source, _ in heldout])
    weights = checks.read_weights(files["config"])
    with run.probe.span("load"):
        model = load(run, first["model_dir"], 1)
    for _ in range(HELDOUT_PASSES):
        with run.probe.span("round"):
            decode_round(run, model, heldout, rescorer, weights)


# -- translate-long and tune ---------------------------------------------------------


def trained_model(run: Run, language):
    """Each set-up generates the model corpus and prepares and trains it
    in a child process, so that this process's peak memory is that of
    loading, decoding and tuning; the model it wrote is then loaded,
    outside the set-up time. Returns the last model loaded and its files."""
    sizes = run.sizes

    def build(out: str) -> str:
        pairs = gen.sentences(language, FIXED_SEED, "model", sizes.model_pairs, *TRAIN_RANGE)
        gen.write_raw(pairs, out + "/raw")
        return prepare_and_train(out + "/raw", out, cli_child)

    model = None
    digests = set()
    for k in range(sizes.setups):
        model = None  # every load starts without a model in memory
        model_dir = setup(run, k, build)
        digests.add(files_digest(model_files(model_dir)))
        require(len(digests) == 1, "training wrote different model files in one run")
        with run.probe.span("load"):
            model = load(run, model_dir, sizes.loads_per_model)
    return model, model_files(model_dir)


def run_translate_long(run: Run) -> None:
    sizes = run.sizes
    language = gen.Language(LANGUAGE_SEED)
    long_pairs = [(tuple(s), tuple(t)) for s, t in gen.sentences(
        language, FIXED_SEED, "long", sizes.long_sentences, *LONG_RANGE)]
    model, files = trained_model(run, language)
    rescorer = checks.Rescorer(files, [source for source, _ in long_pairs])
    weights = checks.read_weights(files["config"])

    def body(k: int) -> None:
        start = clock()
        with run.probe.span("stage"):
            results = translate(run, model, [source for source, _ in long_pairs])
        run.stage_times.append(clock() - start)
        score_outputs(run, rescorer, long_pairs, results, weights)

    rounds(run, body)
    failed_per_round = run.failed * len(long_pairs) // run.attempted
    run.notes.append(f"decode_errors={failed_per_round}/{len(long_pairs)} per round ({FAULT})")


def run_tune(run: Run) -> None:
    from phraseforge import MertTuner

    sizes = run.sizes
    language = gen.Language(LANGUAGE_SEED)
    dev = short_pairs(language, FIXED_SEED, "dev", sizes.dev)
    heldout = short_pairs(language, FIXED_SEED, "heldout", sizes.heldout)
    model, files = trained_model(run, language)
    rescorer = checks.Rescorer(files, [source for source, _ in dev + heldout])
    initial = model.weights_
    tuned_weights: set = set()

    def body(k: int) -> None:
        run.probe.nbest_calls.clear()
        tuner = MertTuner(iterations=sizes.tune_iterations, nbest_size=sizes.nbest, seed=0)
        start = clock()
        with run.probe.span("stage"), run.probe.span("tuning.fit") as counts:
            tuner.fit(dev, model.decoder_, initial=initial)
        run.stage_times.append(clock() - start)
        counts["pool"] = len(tuner.pool_)
        counts["iterations"] = len(tuner.history_)
        run.attempted += 1
        tuned = tuner.weights_.as_vector()
        for source, weights, results in run.probe.nbest_calls:
            require(1 <= len(results) <= sizes.nbest, "n-best list of the wrong size")
            checks.check_nbest_order(results)
            for result in results:
                rescorer.check(source, result, weights)
        checks.check_tuning(tuner.history_, run.probe.nbest_calls, dev, tuned)
        if not tuned_weights:
            run.notes.append("tuned_weights=" + ",".join(f"{w:.3g}" for w in tuned))
        tuned_weights.add(tuned)
        require(len(tuned_weights) == 1, "tuning found different weights in one run")
        decode_round(run, model, heldout, rescorer, tuned)

    rounds(run, body)


WORKLOADS = {
    "train": run_train,
    "translate-long": run_translate_long,
    "tune": run_tune,
}


def execute(run: Run) -> dict:
    """Run one workload; returns the result object (raises CheckFailure)."""
    run.probe = Probe(run.trace)
    run.probe.install()
    try:
        WORKLOADS[run.workload](run)
    finally:
        run.probe.restore()
    return {
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics(),
    }
