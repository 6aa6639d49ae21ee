"""Shared plumbing: error types and input-validation helpers used across the
package.

The estimator classes in this package follow the scikit-learn calling
convention (hyperparameters are constructor arguments; ``fit`` returns
``self``; attributes learned by ``fit`` end in an underscore) without
depending on scikit-learn itself.
"""

from __future__ import annotations

from typing import Any


class CoclickError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CoclickError):
    """A configuration value is unusable (bad vocabulary size, ratios, ...)."""


class LabelingError(CoclickError):
    """Gold-token selection was asked to label a pair with no click signal."""


class DatasetError(CoclickError):
    """A dataset or score file violates its documented format or invariants."""


class TrainingDiverged(CoclickError):
    """Training produced a non-finite loss."""


class NotFittedError(CoclickError):
    """An estimator method that requires ``fit`` was called before it."""


def check_fitted(estimator: Any, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``attribute`` exists on the estimator."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() before this method"
        )


def json_pair_key(record: dict) -> tuple[str, str]:
    """A loaded record's (seed_id, similar_id); TypeError unless both are strings."""
    key = (record["seed_id"], record["similar_id"])
    if not all(isinstance(part, str) for part in key):
        raise TypeError(f"seed_id and similar_id must be strings, got {key!r}")
    return key


def json_number(value: Any, what: str) -> float:
    """``value`` as a float; TypeError unless it is a JSON number, which a bool is not.

    An integer too large for a float raises OverflowError; NaN and infinities
    pass through for the caller to judge.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def check_ratios(ratios: tuple[float, ...]) -> None:
    if any(r < 0 for r in ratios):
        raise ConfigError(f"split ratios must be non-negative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
