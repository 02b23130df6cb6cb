"""Run configuration: parsing, validation, canonical serialization."""

import os

import pytest

from phraseforge.base import ConfigError
from phraseforge.config import RunConfig, read_config, write_config
from phraseforge.decoder import FEATURE_NAMES, FeatureWeights
from phraseforge.translator import PhraseBasedTranslator


def write_ini(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def test_empty_file_yields_defaults(tmp_path):
    config = read_config(write_ini(tmp_path, ""))
    assert config.order == 3
    assert config.smoothing == "witten-bell"
    assert config.add_k == 0.5
    assert config.em_iterations == 5
    assert config.max_phrase_len == 7
    assert (config.beam_size, config.beam_threshold) == (100, 1e-5)
    assert (config.distortion_limit, config.options_per_span) == (6, 20)
    assert (config.source_lang, config.target_lang) == ("src", "tgt")
    assert config.weights == FeatureWeights()
    assert config.train_stem is None and config.lm is None
    assert config.base_dir == str(tmp_path)


def test_write_read_write_is_byte_identical(tmp_path):
    (tmp_path / "lm.arpa").write_text("x", encoding="utf-8")
    (tmp_path / "pt.txt").write_text("x", encoding="utf-8")
    config = RunConfig(
        lm="lm.arpa",
        phrase_table="pt.txt",
        order=2,
        smoothing="add-k",
        add_k=0.25,
        beam_size=None,
        weights=FeatureWeights(lm=0.75),
        base_dir=str(tmp_path),
    )
    first = str(tmp_path / "first.ini")
    write_config(config, first)
    again = str(tmp_path / "again.ini")
    write_config(read_config(first), again)
    assert open(first, "rb").read() == open(again, "rb").read()


def test_written_file_is_canonically_ordered(tmp_path):
    path = str(tmp_path / "run.ini")
    write_config(RunConfig(), path)
    with open(path, "rb") as fh:
        assert fh.read() == (
            b"[paths]\n\n[params]\nsource_lang = src\ntarget_lang = tgt\norder = 3\n"
            b"smoothing = witten-bell\nadd_k = 0.5\nem_iterations = 5\nmax_phrase_len = 7\n"
            b"beam_size = 100\nbeam_threshold = 1e-05\ndistortion_limit = 6\n"
            b"options_per_span = 20\n\n[weights]\nlm = 0.5\nphrase_st = 0.2\nlex_st = 0.2\n"
            b"phrase_ts = 0.2\nlex_ts = 0.2\nreordering = 0.3\nword_penalty = -1.0\n"
            b"phrase_penalty = 0.2\ndistortion = 0.2\n"
        )


def test_none_round_trips_through_the_word_none(tmp_path):
    path = str(tmp_path / "run.ini")
    write_config(RunConfig(beam_size=None, distortion_limit=None), path)
    text = open(path, encoding="utf-8").read()
    assert "beam_size = none" in text
    config = read_config(path)
    assert config.beam_size is None
    assert config.distortion_limit is None


def test_comments_and_whitespace_are_ignored(tmp_path):
    config = read_config(
        write_ini(
            tmp_path,
            "# top comment\n"
            "[params]\n"
            "order = 2  # inline comment\n"
            "\n"
            "smoothing =   add-k\n",
        )
    )
    assert config.order == 2
    assert config.smoothing == "add-k"


def test_unknown_sections_and_keys_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        read_config(write_ini(tmp_path, "[extras]\nfoo = 1\n"))
    with pytest.raises(ConfigError, match=r"\[paths\] unknown key"):
        read_config(write_ini(tmp_path, "[paths]\nmodel = x\n"))
    with pytest.raises(ConfigError, match=r"\[params\] unknown key"):
        read_config(write_ini(tmp_path, "[params]\nfanout = 3\n"))


def test_weights_section_must_be_complete_and_exact(tmp_path):
    body = "[weights]\n" + "\n".join(
        f"{name} = 0.1" for name in FEATURE_NAMES if name != "lm"
    )
    with pytest.raises(ConfigError, match="missing lm"):
        read_config(write_ini(tmp_path, body + "\n"))
    body = "[weights]\n" + "\n".join(f"{name} = 0.1" for name in FEATURE_NAMES)
    with pytest.raises(ConfigError, match="unknown bonus"):
        read_config(write_ini(tmp_path, body + "\nbonus = 1.0\n"))


def test_weights_section_round_trips_values(tmp_path):
    body = "[weights]\n" + "\n".join(
        f"{name} = {0.1 * (i + 1)!r}" for i, name in enumerate(FEATURE_NAMES)
    )
    config = read_config(write_ini(tmp_path, body + "\n"))
    assert config.weights.as_vector() == tuple(0.1 * (i + 1) for i in range(9))


# [params] values that parse but are out of range: (key, value, message)
OUT_OF_RANGE = [
    ("smoothing", "kneser-ney", "smoothing must be"),
    ("order", 0, "order must be"),
    ("order", 6, "order must be"),
    ("add_k", -0.5, "add_k must be"),
    ("add_k", float("nan"), "add_k must be finite"),
    ("add_k", float("inf"), "add_k must be finite"),
    ("em_iterations", 0, "em_iterations must be"),
    ("max_phrase_len", 0, "max_phrase_len must be"),
    ("beam_size", 0, "beam_size must be"),
    ("beam_threshold", 1.5, "beam_threshold must be"),
    ("beam_threshold", float("nan"), "beam_threshold must be"),
    ("distortion_limit", -1, "distortion_limit must be"),
    ("options_per_span", 0, "options_per_span must be"),
]


@pytest.mark.parametrize(
    "body,message",
    [
        ("[params]\norder = three\n", "cannot parse"),
        ("[params]\nbeam_size = 1.5\n", "cannot parse"),
        ("[params]\nadd_k = much\n", "cannot parse"),
        *((f"[params]\n{key} = {value}\n", message) for key, value, message in OUT_OF_RANGE),
        ("[params]\nsource_lang =\n", "non-empty"),
        ("no section header\n", "File contains no section headers"),
    ],
)
def test_invalid_values_are_rejected(tmp_path, body, message):
    with pytest.raises(ConfigError, match=message):
        read_config(write_ini(tmp_path, body))


@pytest.mark.parametrize("key,value,message", OUT_OF_RANGE)
def test_translator_rejects_what_the_loader_rejects(tmp_path, key, value, message):
    path = write_ini(tmp_path, f"[params]\n{key} = {value}\n")
    with pytest.raises(ConfigError) as from_file:
        read_config(path)
    with pytest.raises(ConfigError, match=message) as from_constructor:
        PhraseBasedTranslator(**{key: value})
    assert str(from_file.value) == f"{path}: {from_constructor.value}"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_weights_are_rejected_by_name(tmp_path, value):
    body = "[weights]\n" + "".join(
        f"{name} = {value if name == 'lex_ts' else 0.5}\n" for name in FEATURE_NAMES
    )
    path = write_ini(tmp_path, body)
    with pytest.raises(ConfigError, match="weight lex_ts must be finite") as from_file:
        read_config(path)
    with pytest.raises(ConfigError) as from_constructor:
        PhraseBasedTranslator(weights=FeatureWeights(lex_ts=float(value)))
    assert str(from_file.value) == f"{path}: {from_constructor.value}"


def test_config_errors_carry_the_file_path(tmp_path):
    path = write_ini(tmp_path, "[params]\norder = 9\n")
    with pytest.raises(ConfigError, match="run.ini"):
        read_config(path)


def test_paths_resolve_relative_to_the_config_file(tmp_path):
    sub = tmp_path / "models"
    sub.mkdir()
    (tmp_path / "lm.arpa").write_text("x", encoding="utf-8")
    path = write_ini(sub, "[paths]\nlm = ../lm.arpa\n")
    config = read_config(path)
    assert config.resolve("lm") == os.path.normpath(str(tmp_path / "lm.arpa"))
    assert config.resolve("phrase_table") is None


def test_missing_referenced_files_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="no such file"):
        read_config(write_ini(tmp_path, "[paths]\nlm = missing.arpa\n"))


def test_train_stem_checks_both_language_sides(tmp_path):
    (tmp_path / "corpus.bn").write_text("x", encoding="utf-8")
    body = (
        "[paths]\ntrain_stem = corpus\n"
        "[params]\nsource_lang = bn\ntarget_lang = as\n"
    )
    with pytest.raises(ConfigError, match=r"corpus\.as"):
        read_config(write_ini(tmp_path, body))
    (tmp_path / "corpus.as").write_text("x", encoding="utf-8")
    config = read_config(write_ini(tmp_path, body))
    assert config.resolve("train_stem") == str(tmp_path / "corpus")


def test_resolve_rejects_non_path_keys():
    with pytest.raises(KeyError):
        RunConfig().resolve("order")
