"""Run configuration: one INI file tying together model paths,
hyperparameters, and feature weights.

Sections are [paths], [params], [weights]; `#` starts a comment. Paths
are kept verbatim and resolved relative to the config file's directory
on access, so a config next to its model files stays portable. The
writer emits a canonical key order, so write(read(x)) is byte-identical
for canonically ordered input, modulo comments.
"""

from __future__ import annotations

import configparser
import math
import os
import typing
from dataclasses import dataclass, field, fields

from .base import ConfigError
from .decoder import FEATURE_NAMES, FeatureWeights
from .lm import SMOOTHING_METHODS

PATH_KEYS = ("train_stem", "lm", "phrase_table", "reordering_table")


@dataclass
class RunConfig:
    train_stem: str | None = None
    lm: str | None = None
    phrase_table: str | None = None
    reordering_table: str | None = None
    source_lang: str = "src"
    target_lang: str = "tgt"
    order: int = 3
    smoothing: str = "witten-bell"
    add_k: float = 0.5
    em_iterations: int = 5
    max_phrase_len: int = 7
    beam_size: int | None = 100
    beam_threshold: float = 1e-5
    distortion_limit: int | None = 6
    options_per_span: int | None = 20
    weights: FeatureWeights = field(default_factory=FeatureWeights)
    base_dir: str = "."  # directory paths are relative to; not serialized

    def resolve(self, key: str) -> str | None:
        """Absolute path for one of the [paths] keys, or None if unset."""
        if key not in PATH_KEYS:
            raise KeyError(key)
        value = getattr(self, key)
        if value is None:
            return None
        return os.path.normpath(os.path.join(self.base_dir, value))


# [params] holds every field between the paths and the weights, in
# declaration order, each parsed as its annotated type.
_TYPES = typing.get_type_hints(RunConfig)
PARAM_KEYS = tuple(
    f.name for f in fields(RunConfig) if f.name not in (*PATH_KEYS, "weights", "base_dir")
)


def _parse_value(section: str, key: str, raw: str, kind, path: str):
    """raw as kind: str, int, float, or an optional type whose None is
    written `none`."""
    raw = raw.strip()
    optional = typing.get_args(kind)
    if optional:
        if raw.lower() == "none":
            return None
        kind = optional[0]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}", path=path) from None


def validate_config(config: RunConfig, path: str | None = None) -> None:
    """Raise ConfigError unless every [params] setting is in range and
    every weight is finite; path, if given, names the file the settings
    came from."""
    if not config.source_lang or not config.target_lang:
        raise ConfigError("source_lang and target_lang must be non-empty", path=path)
    if config.smoothing not in SMOOTHING_METHODS:
        raise ConfigError(
            f"smoothing must be one of {', '.join(SMOOTHING_METHODS)}, "
            f"got {config.smoothing!r}",
            path=path,
        )
    if not 1 <= config.order <= 5:
        raise ConfigError(f"order must be in 1..5, got {config.order}", path=path)
    if not 0.0 <= config.add_k < float("inf"):
        raise ConfigError(f"add_k must be finite and >= 0, got {config.add_k}", path=path)
    if config.em_iterations < 1:
        raise ConfigError(
            f"em_iterations must be >= 1, got {config.em_iterations}", path=path
        )
    if config.max_phrase_len < 1:
        raise ConfigError(
            f"max_phrase_len must be >= 1, got {config.max_phrase_len}", path=path
        )
    if config.beam_size is not None and config.beam_size < 1:
        raise ConfigError(f"beam_size must be >= 1, got {config.beam_size}", path=path)
    if not 0.0 <= config.beam_threshold <= 1.0:
        raise ConfigError(
            f"beam_threshold must be in [0, 1], got {config.beam_threshold}", path=path
        )
    if config.distortion_limit is not None and config.distortion_limit < 0:
        raise ConfigError(
            f"distortion_limit must be >= 0, got {config.distortion_limit}", path=path
        )
    if config.options_per_span is not None and config.options_per_span < 1:
        raise ConfigError(
            f"options_per_span must be >= 1, got {config.options_per_span}", path=path
        )
    for name, value in zip(FEATURE_NAMES, config.weights.as_vector()):
        if not math.isfinite(value):
            raise ConfigError(f"weight {name} must be finite, got {value}", path=path)


def _check_paths(config: RunConfig, path: str) -> None:
    for key in PATH_KEYS:
        resolved = config.resolve(key)
        if resolved is None:
            continue
        if key == "train_stem":
            for lang in (config.source_lang, config.target_lang):
                name = f"{resolved}.{lang}"
                if not os.path.isfile(name):
                    raise ConfigError(f"{key}: no such file: {name}", path=path)
        elif not os.path.isfile(resolved):
            raise ConfigError(f"{key}: no such file: {resolved}", path=path)


def read_config(path: str) -> RunConfig:
    """Parse and validate a run config; referenced files must exist."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc), path=path) from exc
    for section in parser.sections():
        if section not in ("paths", "params", "weights"):
            raise ConfigError(f"unknown section [{section}]", path=path)
    config = RunConfig(base_dir=os.path.dirname(os.path.abspath(path)))
    if parser.has_section("paths"):
        for key in parser.options("paths"):
            if key not in PATH_KEYS:
                raise ConfigError(f"[paths] unknown key {key!r}", path=path)
            setattr(config, key, parser.get("paths", key).strip())
    if parser.has_section("params"):
        for key in parser.options("params"):
            if key not in PARAM_KEYS:
                raise ConfigError(f"[params] unknown key {key!r}", path=path)
            raw = parser.get("params", key)
            setattr(config, key, _parse_value("params", key, raw, _TYPES[key], path))
    if parser.has_section("weights"):
        keys = parser.options("weights")
        if sorted(keys) != sorted(FEATURE_NAMES):
            missing = sorted(set(FEATURE_NAMES) - set(keys))
            extra = sorted(set(keys) - set(FEATURE_NAMES))
            detail = []
            if missing:
                detail.append(f"missing {', '.join(missing)}")
            if extra:
                detail.append(f"unknown {', '.join(extra)}")
            raise ConfigError(f"[weights] {'; '.join(detail)}", path=path)
        values = {
            key: _parse_value("weights", key, parser.get("weights", key), float, path)
            for key in keys
        }
        config.weights = FeatureWeights(**values)
    validate_config(config, path)
    _check_paths(config, path)
    return config


def _format(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config(config: RunConfig, path: str) -> None:
    """Write the canonical INI form (fixed section and key order)."""
    lines = ["[paths]"]
    for key in PATH_KEYS:
        value = getattr(config, key)
        if value is not None:
            lines.append(f"{key} = {value}")
    lines.append("")
    lines.append("[params]")
    for key in PARAM_KEYS:
        lines.append(f"{key} = {_format(getattr(config, key))}")
    lines.append("")
    lines.append("[weights]")
    for name, value in zip(FEATURE_NAMES, config.weights.as_vector()):
        lines.append(f"{name} = {_format(value)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
