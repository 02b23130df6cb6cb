"""Shared plumbing: parameter handling, errors, input validation."""

from __future__ import annotations

import inspect
from typing import Iterable


class NotFittedError(ValueError, AttributeError):
    """Raised when a model is queried before fit()."""


class DataError(ValueError):
    """Invalid or inconsistent input data."""


class CorpusError(DataError):
    """Corpus-level problem: empty lines, ragged parallel files, bad splits."""


class ConfigError(DataError):
    """Run configuration is missing keys or references paths that do not exist."""

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(message if path is None else f"{path}: {message}")


class ParseError(DataError):
    """A model or table file could not be parsed."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:" if line is None else f"{path}:{line}: "
        elif line is not None:
            where = f"line {line}: "
        super().__init__(where + message)


class BaseEstimator:
    """Minimal sklearn-style parameter container.

    Constructor arguments are hyperparameters; fitted state lives in
    trailing-underscore attributes created by fit().
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            p.name
            for p in sig.parameters.values()
            if p.name != "self" and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_is_fitted(estimator, *attributes: str) -> None:
    missing = [a for a in attributes if getattr(estimator, a, None) is None]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet "
            f"(missing {', '.join(missing)}); call fit() first"
        )


def check_sentence(tokens: Iterable[str]) -> tuple[str, ...]:
    """Validate a tokenized sentence: non-empty, no empty or blank tokens."""
    out = tuple(tokens)
    if not out:
        raise CorpusError("empty sentence")
    for tok in out:
        if not isinstance(tok, str):
            raise CorpusError(f"token is not a string: {tok!r}")
        if not tok or any(ch.isspace() for ch in tok):
            raise CorpusError(f"token is empty or contains whitespace: {tok!r}")
    return out
