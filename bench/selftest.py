"""Self-test of the benchmark, in well under a minute.

    python3 bench/selftest.py

Runs every workload end to end at a tiny size, traced and untraced, then
shows that each output check rejects a deliberately corrupted output.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402
from tracing import Probe  # noqa: E402

TINY = workloads.Sizes(
    train_pairs=300, model_pairs=300, long_sentences=3, heldout=4, dev=4, loads_per_model=1,
    tune_iterations=2, nbest=10, setups=2, extraction_samples=2, lm_histories=2,
)


def rejects(name: str, check, *args) -> None:
    try:
        check(*args)
    except CheckFailure as exc:
        print(f"  rejects {name}: {exc}")
        return
    raise SystemExit(f"FAILED: the check accepted {name}")


def benchmark_json() -> None:
    """BENCHMARK.json lists exactly the metrics, units and workloads the code has."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, units in (("end_to_end", workloads.END_TO_END_UNITS),
                       ("per_layer", workloads.LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            raise SystemExit(f"FAILED: BENCHMARK.json {key} {listed} != code {units}")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        raise SystemExit("FAILED: BENCHMARK.json workloads differ from the code's")
    print("  BENCHMARK.json matches the metrics and workloads the code reports")


def end_to_end(work: str) -> None:
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            run = workloads.Run(workload, 7, 0.0, trace, os.path.join(work, f"{workload}-{trace}"),
                                sizes=TINY)
            os.makedirs(run.work)
            result = workloads.execute(run)
            names = set(result["metrics"])
            expected = set(workloads.LAYER_UNITS if trace else workloads.END_TO_END_UNITS)
            if names != expected or result["attempted"] < 1:
                raise SystemExit(f"FAILED: {workload} trace={trace} reported {result}")
            print(f"  {workload} trace={int(trace)}: attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(run.notes)[:120])


def corrupted(work: str) -> None:
    from phraseforge import MertTuner, PhraseBasedTranslator

    language = gen.Language(7)
    gen.write_raw(gen.sentences(language, 7, "train", TINY.train_pairs, *workloads.TRAIN_RANGE),
                  work + "/raw")
    probe = Probe(trace=False)
    probe.install()
    try:
        model_dir = workloads.prepare_and_train(work + "/raw", work)
    finally:
        probe.restore()
    files = workloads.model_files(model_dir)
    forward = probe.aligners[0]

    rows = forward.ttable_.rows()
    word = sorted(rows)[1]
    rows[word] = {t: 2.0 * p for t, p in rows[word].items()}
    rejects("an un-normalized t-table row", checks.check_ttable_rows, rows, "forward")
    history = list(forward.loglik_per_iteration_)
    rejects("a falling EM log-likelihood", checks.check_loglik, history[::-1], "forward")

    sources = checks.read_tokens(work + "/corpus/train.src")
    dictionary = dict(language.dictionary)
    frequent = max(language.source_words, key=lambda w: sum(s.count(w) for s in sources))
    dictionary[frequent] = ("nothing",)
    rejects("a wrong dictionary argmax", checks.check_dictionary,
            forward.ttable_.rows(), sources, dictionary)

    arpa = checks.Arpa(files["lm"])
    lm = probe.translators[0].lm_
    rejects("an LM that disagrees with its ARPA file", checks.check_lm,
            lambda w, h: lm.logprob(w, h) + (1e-3 if w == "</s>" else 0.0), arpa, [("<s>",)])
    gram = next(g for g in sorted(arpa.entries) if len(g) == 1 and g[0] != "<unk>")
    arpa.entries[gram] = (arpa.entries[gram][0] + 0.01, arpa.entries[gram][1])
    rejects("an un-normalized LM", checks.check_lm, arpa.logprob, arpa, [()])

    table = checks.read_phrase_table(files["phrase_table"])
    src = sorted(table)[0]
    tgt = sorted(table[src])[0]
    scores = table[src][tgt]
    table[src][tgt] = (scores[0], scores[1], scores[2] * 0.9, scores[3])
    rejects("an un-normalized phi(t|s)", checks.check_phrase_table, table)
    reordering = checks.read_reordering_table(files["reordering_table"])
    key = sorted(reordering)[0]
    reordering[key] = (0.5,) + reordering[key][1:]
    rejects("an un-normalized reordering triple", checks.check_reordering, reordering)

    table = checks.read_phrase_table(files["phrase_table"])
    links = checks.read_links(files["alignments"])
    targets = checks.read_tokens(work + "/corpus/train.tgt")
    (s1, s2), (t1, t2) = next(checks.consistent_boxes(len(sources[0]), len(targets[0]), links[0]))
    del table[sources[0][s1:s2 + 1]][targets[0][t1:t2 + 1]]
    rejects("a phrase table missing a consistent pair", checks.check_extraction,
            sources[0], targets[0], links[0], table)

    model = PhraseBasedTranslator.load(files["config"])
    source = max(sources[:40], key=len)
    rescorer = checks.Rescorer(files, [source])
    weights = checks.read_weights(files["config"])
    result = model.decoder_.decode(source)
    rescorer.check(source, result, weights)
    features = list(result.features)
    features[0] += 1e-3
    rejects("a perturbed LM feature", rescorer.check, source,
            dataclasses.replace(result, features=tuple(features)), weights)
    rejects("a perturbed score", rescorer.check, source,
            dataclasses.replace(result, score=result.score + 1e-3), weights)
    rejects("a dropped derivation step", rescorer.check, source,
            dataclasses.replace(result, derivation=result.derivation[:-1]), weights)
    start, end, _ = result.derivation[0]
    steps = ((start, end, ("nothing",)),) + result.derivation[1:]
    rejects("a step that is no table entry", rescorer.check, source,
            dataclasses.replace(result, derivation=steps), weights)
    rejects("an output that is not the steps' concatenation", rescorer.check, source,
            dataclasses.replace(result, tokens=result.tokens[::-1]), weights)
    rescorer.distortion_limit = 0
    rejects("a jump beyond the distortion limit", rescorer.check, source,
            dataclasses.replace(result, derivation=result.derivation[::-1]), weights)

    nbest = model.decoder_.nbest(source, 5)
    checks.check_nbest_order(nbest)
    if len(nbest) > 1 and nbest[0].score != nbest[-1].score:
        rejects("an n-best list whose scores rise", checks.check_nbest_order, nbest[::-1])
    hypotheses = [result.tokens]
    value = checks.own_bleu(hypotheses, [targets[0]])
    rejects("a wrong BLEU", checks.check_bleu, value + 1e-3, hypotheses, [targets[0]])

    # Tuning last, since it leaves its weights on the decoder.
    dev = workloads.short_pairs(language, 7, "dev", 4)
    probe = Probe(trace=False)
    probe.attach(model)
    tuner = MertTuner(iterations=2, nbest_size=10, seed=0).fit(dev, model.decoder_)
    tuned = tuner.weights_.as_vector()
    history = list(tuner.history_)
    checks.check_tuning(history, probe.nbest_calls, dev, tuned)
    before, after = history[-1]
    rejects("a tuning history whose pool BLEU its weights do not reach", checks.check_tuning,
            history[:-1] + [(before, after + 1e-3)], probe.nbest_calls, dev, tuned)
    rejects("a tuning iteration that lowered pool BLEU", checks.check_tuning,
            history[:-1] + [(before, before - 1e-3)], probe.nbest_calls, dev, tuned)
    rejects("tuned weights that are not the tuner's", checks.check_tuning,
            history, probe.nbest_calls, dev, tuple(-w for w in tuned))


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        benchmark_json()
        print("workloads at a tiny size:")
        end_to_end(work)
        print("checks on corrupted outputs:")
        os.makedirs(work + "/corrupt")
        corrupted(work + "/corrupt")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
