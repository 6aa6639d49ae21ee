"""Shared plumbing: error types, the estimator parameter protocol, and
input-validation helpers used across the package.

The estimator classes in this package follow the scikit-learn calling
convention (``fit`` returns ``self``; hyperparameters are constructor
arguments exposed via ``get_params``/``set_params``) without depending on
scikit-learn itself, so they can sit inside larger pipelines that expect
that protocol.
"""

from __future__ import annotations

import inspect
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


class ParamMixin:
    """Minimal sklearn-style parameter introspection.

    Constructor keyword arguments are the hyperparameters; attributes set
    during ``fit`` carry a trailing underscore by convention.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "ParamMixin":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"unknown parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_fitted(estimator: Any, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``attribute`` exists on the estimator."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() before this method"
        )


def check_ratios(ratios: tuple[float, ...]) -> None:
    if any(r < 0 for r in ratios):
        raise ConfigError(f"split ratios must be non-negative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
