"""Shared plumbing: error types, input-validation helpers and the one reader
of pair-keyed JSON Lines files, used across the package.

The estimator classes in this package follow the scikit-learn calling
convention (hyperparameters are constructor arguments; ``fit`` returns
``self``; attributes learned by ``fit`` end in an underscore) without
depending on scikit-learn itself.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Iterable, TypeVar

PairKey = tuple[str, str]
T = TypeVar("T")


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


def json_pair_key(record: dict) -> PairKey:
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


def undecodable_line(exc: UnicodeDecodeError, lines_read: int) -> int:
    """The number of the line holding the byte a text file failed to decode.

    ``lines_read`` is how many lines the file had yielded when ``exc`` was
    raised.
    """
    # A text file decodes a chunk ahead of the line being read; the
    # chunk's newlines before the bad byte place it.
    return lines_read + 1 + exc.object[: exc.start].count(b"\n")


def _object_without_repeats(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A decoded JSON object; ValueError if it names a key twice, where a plain decode keeps the last."""
    record = dict(pairs)
    if len(record) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} is repeated")
            seen.add(key)
    return record


# One decoder for every record: json.loads with a hook builds a decoder per call.
_decode_record = json.JSONDecoder(object_pairs_hook=_object_without_repeats).decode


def read_pair_records(
    fh: Iterable[str], what: str, parse: Callable[[Any], tuple[PairKey, T]], path: str | None = None
) -> dict[PairKey, T]:
    """Read a JSON Lines file of pair-keyed records into a dict, in file order.

    Blank lines are skipped. Each other line is decoded and handed to
    ``parse``, which returns the record's (seed_id, similar_id) key and value
    and raises KeyError, TypeError, ValueError or OverflowError for a bad
    record. A line that is not UTF-8, not JSON, nested too deep to decode or
    holding an object with a repeated key, a bad record and a pair already
    read each raise :class:`DatasetError` naming the ``what`` record's line,
    or ``path:line`` when ``path`` is given.
    """

    def where(lineno: int) -> str:
        return f"{path}:{lineno}" if path else f"line {lineno}"

    records: dict[PairKey, T] = {}
    first_lines: dict[PairKey, int] = {}
    lineno = 0
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            key, value = parse(_decode_record(line))
            if key in records:
                raise DatasetError(
                    f"duplicate {what} pair {key} at {where(lineno)}, first at {where(first_lines[key])}"
                )
            records[key] = value
            first_lines[key] = lineno
    except UnicodeDecodeError as exc:
        raise DatasetError(f"bad {what} record at {where(undecodable_line(exc, lineno))}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DatasetError(f"bad {what} record at {where(lineno)}: {exc}") from exc
    return records


def check_ratios(ratios: tuple[float, ...]) -> None:
    if len(ratios) != 3:
        raise ConfigError(f"split ratios must be 3 numbers (train, dev, test), got {ratios}")
    if not all(math.isfinite(r) and r >= 0 for r in ratios):
        raise ConfigError(f"split ratios must be finite and non-negative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
