"""The command line: subcommands, file juggling, exit codes."""

import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from phraseforge.align import read_pharaoh
from phraseforge.cli import main
from phraseforge.config import read_config
from phraseforge.decoder import FEATURE_NAMES, BeamDecoder, DecodeError, FeatureWeights
from phraseforge.lm import read_arpa
from phraseforge.phrases import PhraseTable, ReorderingTable
from phraseforge.translator import PhraseBasedTranslator


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def mapped_pairs(rng, n_pairs, vocab=5):
    """Disjoint-vocabulary word-for-word corpus: s<i> translates to t<i>."""
    pairs = []
    for _ in range(n_pairs):
        src = tuple(f"s{rng.randrange(vocab)}" for _ in range(rng.randint(1, 5)))
        pairs.append((src, tuple("t" + w[1:] for w in src)))
    return pairs


def write_pairs(stem, pairs):
    write_lines(stem + ".src", (" ".join(src) for src, _ in pairs))
    write_lines(stem + ".tgt", (" ".join(tgt) for _, tgt in pairs))


def run(capsys, argv, stdin=None, monkeypatch=None):
    """Invoke main() with drained capture; returns (exit code, out, err)."""
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One trained model shared by the translate/evaluate/tune tests."""
    root = tmp_path_factory.mktemp("cli-model")
    pairs = mapped_pairs(random.Random(13), 20)
    stem = str(root / "corpus")
    write_pairs(stem, pairs)
    out = str(root / "model")
    code = main(
        ["train", "--corpus", stem, "--source-lang", "src",
         "--target-lang", "tgt", "--out", out]
    )
    return SimpleNamespace(
        code=code,
        out=out,
        config=os.path.join(out, "run.ini"),
        stem=stem,
        pairs=pairs,
    )


# prepare


def raw_corpus(tmp_path, n=40):
    stem = str(tmp_path / "raw")
    write_lines(stem + ".src", (f"source line {i} goes here" for i in range(n)))
    write_lines(stem + ".tgt", (f"target line {i} lands there" for i in range(n)))
    return stem


def test_prepare_splits_and_writes_manifest(tmp_path, capsys):
    stem = raw_corpus(tmp_path)
    out = str(tmp_path / "prepared")
    code, stdout, _ = run(
        capsys,
        ["prepare", "--corpus", stem, "--source-lang", "src", "--target-lang",
         "tgt", "--out", out, "--train", "30", "--test", "6", "--tune", "4"],
    )
    assert code == 0
    assert stdout == "train=30 test=6 tune=4 (dropped 0 empty, 0 unclean)\n"
    for name, size in (("train", 30), ("test", 6), ("tune", 4)):
        for ext in ("src", "tgt"):
            path = os.path.join(out, f"{name}.{ext}")
            with open(path, encoding="utf-8") as fh:
                assert len(fh.readlines()) == size
    with open(os.path.join(out, "prepare-manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest == {
        "source_lang": "src",
        "target_lang": "tgt",
        "seed": 0,
        "max_len": 80,
        "max_ratio": 9.0,
        "input_pairs": 40,
        "dropped_empty": 0,
        "dropped_clean": 0,
        "train": 30,
        "test": 6,
        "tune": 4,
    }


def test_prepare_default_split_fractions(tmp_path, capsys):
    # 7.5% of 40 survivors rounds to 3 for each held-out part
    stem = raw_corpus(tmp_path)
    out = str(tmp_path / "prepared")
    code, stdout, _ = run(
        capsys,
        ["prepare", "--corpus", stem, "--source-lang", "src",
         "--target-lang", "tgt", "--out", out],
    )
    assert code == 0
    assert stdout.startswith("train=34 test=3 tune=3 ")


def test_prepare_is_deterministic(tmp_path, capsys):
    stem = raw_corpus(tmp_path)
    outs = [str(tmp_path / "one"), str(tmp_path / "two")]
    for out in outs:
        code, _, _ = run(
            capsys,
            ["prepare", "--corpus", stem, "--source-lang", "src",
             "--target-lang", "tgt", "--out", out, "--seed", "7"],
        )
        assert code == 0
    for name in os.listdir(outs[0]):
        with open(os.path.join(outs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            assert fh.read() == first, name


def test_prepare_drops_empty_and_unclean_pairs(tmp_path, capsys):
    stem = str(tmp_path / "raw")
    good = [(f"alpha beta {i}", f"gamma delta {i}") for i in range(5)]
    src = [s for s, _ in good] + ["", "kept text", "one two three four five six"]
    tgt = [t for _, t in good] + ["orphan", "   ", "uno dos tres cuatro cinco seis"]
    write_lines(stem + ".src", src)
    write_lines(stem + ".tgt", tgt)
    out = str(tmp_path / "prepared")
    code, stdout, _ = run(
        capsys,
        ["prepare", "--corpus", stem, "--source-lang", "src",
         "--target-lang", "tgt", "--out", out, "--max-len", "4"],
    )
    assert code == 0
    assert "(dropped 2 empty, 1 unclean)" in stdout
    with open(os.path.join(out, "prepare-manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["input_pairs"] == 8
    assert manifest["dropped_empty"] == 2
    assert manifest["dropped_clean"] == 1
    assert manifest["train"] + manifest["test"] + manifest["tune"] == 5


def test_prepare_line_count_mismatch_exits_2(tmp_path, capsys):
    stem = str(tmp_path / "raw")
    write_lines(stem + ".src", ["one line", "two lines"])
    write_lines(stem + ".tgt", ["only line"])
    code, _, stderr = run(
        capsys,
        ["prepare", "--corpus", stem, "--source-lang", "src",
         "--target-lang", "tgt", "--out", str(tmp_path / "o")],
    )
    assert code == 2
    assert stem + ".src" in stderr
    assert stem + ".tgt" in stderr


def test_prepare_missing_input_exits_2(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        ["prepare", "--corpus", str(tmp_path / "absent"), "--source-lang",
         "src", "--target-lang", "tgt", "--out", str(tmp_path / "o")],
    )
    assert code == 2


def test_prepare_undecodable_input_exits_2(tmp_path, capsys):
    stem = str(tmp_path / "raw")
    with open(stem + ".src", "wb") as fh:
        fh.write(b"\xff\xfe broken\n")
    write_lines(stem + ".tgt", ["fine"])
    code, _, _ = run(
        capsys,
        ["prepare", "--corpus", stem, "--source-lang", "src",
         "--target-lang", "tgt", "--out", str(tmp_path / "o")],
    )
    assert code == 2


# train


def test_train_writes_all_artifacts(trained):
    assert trained.code == 0
    names = os.listdir(trained.out)
    for name in ("lm.arpa", "phrase-table.txt", "reordering-table.txt",
                 "alignments.pharaoh", "run.ini"):
        assert name in names
    assert read_arpa(os.path.join(trained.out, "lm.arpa")).order == 3
    assert len(PhraseTable.read(os.path.join(trained.out, "phrase-table.txt"))) > 0
    assert len(ReorderingTable.read(os.path.join(trained.out, "reordering-table.txt"))) > 0
    assert len(read_pharaoh(os.path.join(trained.out, "alignments.pharaoh"))) == 20
    config = read_config(trained.config)
    assert config.weights == FeatureWeights()
    assert config.source_lang == "src"
    assert config.target_lang == "tgt"


def test_train_prints_the_config_path(tmp_path, capsys):
    stem = str(tmp_path / "tiny")
    write_pairs(stem, mapped_pairs(random.Random(2), 6))
    out = str(tmp_path / "model")
    code, stdout, _ = run(
        capsys,
        ["train", "--corpus", stem, "--source-lang", "src", "--target-lang",
         "tgt", "--out", out, "--order", "2", "--em-iters", "2"],
    )
    assert code == 0
    assert stdout == os.path.join(out, "run.ini") + "\n"


def test_train_flag_overrides_reach_the_config(tmp_path, capsys):
    stem = str(tmp_path / "tiny")
    write_pairs(stem, mapped_pairs(random.Random(2), 6))
    out = str(tmp_path / "model")
    code, _, _ = run(
        capsys,
        ["train", "--corpus", stem, "--source-lang", "src", "--target-lang",
         "tgt", "--out", out, "--order", "2", "--em-iters", "2",
         "--beam", "17", "--distortion-limit", "-1"],
    )
    assert code == 0
    config = read_config(os.path.join(out, "run.ini"))
    assert config.order == 2
    assert config.em_iterations == 2
    assert config.beam_size == 17
    assert config.distortion_limit is None
    assert read_arpa(os.path.join(out, "lm.arpa")).order == 2


def test_train_without_corpus_is_a_usage_error(tmp_path, capsys):
    code, _, stderr = run(capsys, ["train", "--out", str(tmp_path / "m")])
    assert code == 1
    assert stderr.startswith("usage error:")
    assert "--corpus" in stderr


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--order", "9", "order"),
        ("--em-iters", "0", "em_iterations"),
        ("--max-phrase-len", "0", "max_phrase_len"),
        ("--beam", "0", "beam_size"),
        ("--beam-threshold", "2", "beam_threshold"),
        ("--add-k", "-1", "add_k"),
    ],
)
def test_train_rejects_a_bad_setting_before_reading_the_corpus(tmp_path, capsys, flag, value, key):
    out = tmp_path / "model"
    code, stdout, stderr = run(
        capsys,
        ["train", "--corpus", str(tmp_path / "absent"), "--out", str(out), flag, value],
    )
    assert code == 1
    assert stderr.startswith("usage error:") and key in stderr
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("prepare", "--train", "-1"),
        ("prepare", "--test", "-1"),
        ("prepare", "--tune", "-1"),
        ("prepare", "--max-len", "0"),
        ("prepare", "--max-len", "ten"),
        ("prepare", "--max-ratio", "-1"),
        ("prepare", "--max-ratio", "nan"),
        ("tune", "--iterations", "0"),
        ("tune", "--nbest", "0"),
    ],
)
def test_a_count_flag_out_of_range_is_rejected_before_any_file_is_opened(
    tmp_path, capsys, command, flag, value
):
    absent = str(tmp_path / "absent")
    out = tmp_path / "out"
    argv = {
        "prepare": ["prepare", "--corpus", absent, "--source-lang", "src",
                    "--target-lang", "tgt", "--out", str(out)],
        "tune": ["tune", "--config", absent + ".ini", "--corpus", absent,
                 "--out", str(out / "run.ini")],
    }[command]
    code, stdout, stderr = run(capsys, argv + [flag, value])
    assert code == 1
    assert stderr.startswith("usage error:") and flag in stderr
    assert stdout == ""
    assert not out.exists()


# translate


def test_translate_rejects_a_bad_setting_before_reading_input(trained, capsys, monkeypatch):
    class Unreadable(io.StringIO):
        def __iter__(self):
            raise AssertionError("input read")

    monkeypatch.setattr(sys, "stdin", Unreadable())
    code, stdout, stderr = run(capsys, ["translate", "--config", trained.config, "--beam", "0"])
    assert code == 1
    assert stderr.startswith("usage error:") and "beam_size" in stderr
    assert stdout == ""


def test_translate_plain_lines(trained, capsys, monkeypatch):
    sources = [src for src, _ in trained.pairs[:3]]
    expected = [" ".join(tgt) for _, tgt in trained.pairs[:3]]
    code, stdout, _ = run(
        capsys,
        ["translate", "--config", trained.config],
        stdin="".join(" ".join(s) + "\n" for s in sources),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert stdout.splitlines() == expected


def test_translate_preserves_empty_lines(trained, capsys, monkeypatch):
    code, stdout, _ = run(
        capsys,
        ["translate", "--config", trained.config],
        stdin="\ns0\n\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert stdout.splitlines() == ["", "t0", ""]


def test_translate_accepts_unlimited_overrides(trained, capsys, monkeypatch):
    code, stdout, _ = run(
        capsys,
        ["translate", "--config", trained.config, "--beam", "-1",
         "--distortion-limit", "-1"],
        stdin="s0 s1\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert stdout == "t0 t1\n"


def test_translate_nbest_renders_every_feature(trained, capsys, monkeypatch):
    code, stdout, _ = run(
        capsys,
        ["translate", "--config", trained.config, "--nbest", "3"],
        stdin="s0 s1 s2\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = stdout.splitlines()
    assert 1 <= len(lines) <= 3
    middle = " ".join(rf"{re.escape(n)}: -?\d+\.\d{{6}}" for n in FEATURE_NAMES)
    pattern = re.compile(rf"^0 \|\|\| [^|]+ \|\|\| {middle} \|\|\| -?\d+\.\d{{6}}$")
    for line in lines:
        assert pattern.match(line), line
    scores = [float(line.rsplit("|||", 1)[1]) for line in lines]
    assert scores == sorted(scores, reverse=True)
    assert lines[0].split(" ||| ")[1] == "t0 t1 t2"


def test_translate_nbest_skips_empty_lines(trained, capsys, monkeypatch):
    code, stdout, _ = run(
        capsys,
        ["translate", "--config", trained.config, "--nbest", "2"],
        stdin="\ns0\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert stdout.splitlines()
    # the blank first line yields nothing; indices still count from the input
    for line in stdout.splitlines():
        assert line.startswith("1 ||| ")


def fail_on(monkeypatch, method, source):
    """Make BeamDecoder.<method> raise DecodeError for one source sentence."""
    real = getattr(BeamDecoder, method)

    def patched(self, tokens, *args):
        if tuple(tokens) == source:
            raise DecodeError("forced failure")
        return real(self, tokens, *args)

    monkeypatch.setattr(BeamDecoder, method, patched)


def test_translate_keeps_going_past_an_undecodable_line(trained, capsys, monkeypatch):
    fail_on(monkeypatch, "decode", ("s1",))
    code, stdout, stderr = run(
        capsys, ["translate", "--config", trained.config],
        stdin="s0\ns1\ns2 s0\n", monkeypatch=monkeypatch,
    )
    assert code == 2
    assert stdout == "t0\n\nt2 t0\n"
    assert "line 2" in stderr and "forced failure" in stderr


def test_translate_nbest_skips_an_undecodable_line(trained, capsys, monkeypatch):
    fail_on(monkeypatch, "nbest", ("s1",))
    code, stdout, stderr = run(
        capsys, ["translate", "--config", trained.config, "--nbest", "2"],
        stdin="s0\ns1\ns2\n", monkeypatch=monkeypatch,
    )
    assert code == 2
    indices = [line.split(" ||| ")[0] for line in stdout.splitlines()]
    assert indices and indices == sorted(indices)
    assert set(indices) == {"0", "2"}
    assert "line 2" in stderr


def test_translate_rejects_nonpositive_nbest(trained, capsys, monkeypatch):
    code, _, stderr = run(
        capsys,
        ["translate", "--config", trained.config, "--nbest", "0"],
        stdin="s0\n",
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert "--nbest" in stderr


def test_translate_missing_config_exits_2(tmp_path, capsys, monkeypatch):
    code, _, _ = run(
        capsys,
        ["translate", "--config", str(tmp_path / "absent.ini")],
        stdin="s0\n",
        monkeypatch=monkeypatch,
    )
    assert code == 2


# evaluate


@pytest.fixture()
def testset(tmp_path):
    sources = [("s0", "s1", "s2", "s3"), ("s1", "s2", "s3", "s4"),
               ("s2", "s0", "s4", "s1")]
    pairs = [(src, tuple("t" + w[1:] for w in src)) for src in sources]
    stem = str(tmp_path / "test")
    write_pairs(stem, pairs)
    return stem


def test_evaluate_reports_both_scores(trained, testset, capsys):
    code, stdout, _ = run(
        capsys, ["evaluate", "--config", trained.config, "--corpus", testset]
    )
    assert code == 0
    assert "BLEU = 100.00" in stdout
    assert re.search(r"^bleu: 1\.0000$", stdout, re.MULTILINE)
    assert "successful: 3" in stdout
    assert "error: 0.0%" in stdout


def test_evaluate_reads_a_success_file(trained, testset, tmp_path, capsys):
    flags = str(tmp_path / "flags")
    write_lines(flags, ["1", "0", "yes"])
    code, stdout, _ = run(
        capsys,
        ["evaluate", "--config", trained.config, "--corpus", testset,
         "--success-file", flags],
    )
    assert code == 0
    assert "sentences: 3  successful: 2  unsuccessful: 1  error: 33.3%" in stdout


@pytest.mark.parametrize("lines", [["maybe", "1", "0"], ["1", "0"]])
def test_evaluate_rejects_bad_success_files(trained, testset, tmp_path, capsys, lines):
    flags = str(tmp_path / "flags")
    write_lines(flags, lines)
    code, _, stderr = run(
        capsys,
        ["evaluate", "--config", trained.config, "--corpus", testset,
         "--success-file", flags],
    )
    assert code == 2
    assert "success flag" in stderr


def test_evaluate_reports_past_an_undecodable_sentence(trained, testset, tmp_path, capsys, monkeypatch):
    fail_on(monkeypatch, "decode", ("s1", "s2", "s3", "s4"))
    flags = str(tmp_path / "flags")
    write_lines(flags, ["1", "1", "1"])
    code, stdout, stderr = run(
        capsys,
        ["evaluate", "--config", trained.config, "--corpus", testset,
         "--success-file", flags],
    )
    assert code == 2
    assert "line 2" in stderr and "forced failure" in stderr
    rows = stdout.splitlines()
    assert rows[2].split() == ["2", "s1", "s2", "s3", "s4", "t1", "t2", "t3", "t4", "ERROR"]
    assert rows[1].endswith("ok") and rows[3].endswith("ok")
    assert "sentences: 3  successful: 2  unsuccessful: 1  error: 33.3%" in stdout


def test_evaluate_smooth_flag(trained, testset, capsys):
    code, stdout, _ = run(
        capsys,
        ["evaluate", "--config", trained.config, "--corpus", testset, "--smooth"],
    )
    assert code == 0
    assert "BLEU = " in stdout


# tune


def test_tune_rewrites_the_config_in_place(trained, tmp_path, capsys):
    model_dir = str(tmp_path / "model")
    shutil.copytree(trained.out, model_dir)
    config_path = os.path.join(model_dir, "run.ini")
    dev_stem = str(tmp_path / "dev")
    write_pairs(dev_stem, trained.pairs[:5])
    code, stdout, _ = run(
        capsys,
        ["tune", "--config", config_path, "--corpus", dev_stem,
         "--iterations", "1", "--nbest", "30", "--seed", "1"],
    )
    assert code == 0
    assert stdout == config_path + "\n"
    tuned = read_config(config_path)
    assert isinstance(tuned.weights, FeatureWeights)
    model = PhraseBasedTranslator.load(config_path)
    src, tgt = trained.pairs[0]
    assert model.translate(src) == tgt


def test_tune_out_path_pins_the_model_paths(trained, tmp_path, capsys):
    dev_stem = str(tmp_path / "dev")
    write_pairs(dev_stem, trained.pairs[:5])
    out_path = str(tmp_path / "elsewhere" / "tuned.ini")
    os.makedirs(os.path.dirname(out_path))
    code, stdout, _ = run(
        capsys,
        ["tune", "--config", trained.config, "--corpus", dev_stem,
         "--iterations", "1", "--nbest", "30", "--out", out_path],
    )
    assert code == 0
    assert stdout == out_path + "\n"
    tuned = read_config(out_path)
    assert tuned.resolve("lm") == os.path.join(trained.out, "lm.arpa")
    assert os.path.isfile(tuned.resolve("phrase_table"))
    model = PhraseBasedTranslator.load(out_path)
    src, tgt = trained.pairs[1]
    assert model.translate(src) == tgt


# exit codes and wiring


def test_version_prints_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code in (0, None)
    assert capsys.readouterr().out.strip() == "phraseforge 0.1.0"


def test_no_arguments_is_a_usage_error(capsys):
    code, _, stderr = run(capsys, [])
    assert code == 1
    assert stderr.startswith("usage error:")


def test_unknown_command_is_a_usage_error(capsys):
    code, _, stderr = run(capsys, ["frobnicate"])
    assert code == 1
    assert stderr.startswith("usage error:")


def test_internal_errors_exit_3(trained, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(PhraseBasedTranslator, "load", boom)
    code, _, stderr = run(
        capsys,
        ["translate", "--config", trained.config],
        stdin="s0\n",
        monkeypatch=monkeypatch,
    )
    assert code == 3
    assert "internal error" in stderr


def test_module_entry_point():
    import phraseforge

    src = os.path.dirname(os.path.dirname(os.path.abspath(phraseforge.__file__)))
    result = subprocess.run(
        [sys.executable, "-m", "phraseforge", "--version"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "phraseforge 0.1.0"
