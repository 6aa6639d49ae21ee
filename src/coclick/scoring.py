"""Numeric primitives shared by the dataset labeler and the explainer backends:
smoothed inverse document frequency and max-scaled softmax selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .base import ConfigError


@dataclass
class IdfTable:
    """Smoothed inverse document frequency over a token corpus.

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), which stays positive even
    for tokens present in every document and is defined at df = 0.
    """

    doc_count: int = 0
    doc_freq: dict[str, int] = field(default_factory=dict)

    def idf(self, token: str) -> float:
        df = self.doc_freq.get(token.lower(), 0)
        n = self.doc_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def compute_idf(documents: Iterable[Sequence[str]]) -> IdfTable:
    """Build an :class:`IdfTable` from token lists (presence counted per document)."""
    table = IdfTable()
    for doc in documents:
        table.doc_count += 1
        for token in set(t.lower() for t in doc):
            table.doc_freq[token] = table.doc_freq.get(token, 0) + 1
    return table


def max_scaled_softmax(values: Sequence[float]) -> list[float]:
    """Softmax over values scaled into [-1, 1] by their largest magnitude.

    Raw click counts can be in the thousands, which saturates exp; dividing
    by the max magnitude preserves the ranking while keeping scores
    comparable across items. All-zero input yields the uniform distribution.
    """
    scale = max((abs(v) for v in values), default=0.0)
    if scale > 0:
        scaled = [v / scale for v in values]
    else:
        scaled = [0.0 for _ in values]
    exps = [math.exp(s) for s in scaled]
    total = math.fsum(exps)
    return [e / total for e in exps]


def check_unit_interval(**values: float) -> None:
    """Raise ConfigError naming the first of ``values`` that is not a finite number in [0, 1].

    Guards the ``p`` and ``cap_fraction`` of :func:`threshold_cap_select`.
    """
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:  # false for NaN too
            raise ConfigError(f"{name} must be a finite number in [0, 1], got {value}")


def threshold_cap_select(scores: Mapping[str, float], p: float, cap_fraction: float) -> set[str]:
    """Select the tokens whose max-scaled softmax score reaches ``p``.

    ``scores`` holds one raw score per unique token, in title order. When
    more than floor(cap_fraction * n) tokens pass, only that many survive,
    ranked by softmax score, then raw score, then earlier position.
    """
    tokens = list(scores)
    values = list(scores.values())
    if not values:
        return set()
    probs = max_scaled_softmax(values)
    passed = [i for i, prob in enumerate(probs) if prob >= p]
    cap = int(cap_fraction * len(values))
    if len(passed) > cap:
        # A stable sort, so the earlier position wins a full tie.
        passed.sort(key=lambda i: (-probs[i], -values[i]))
        passed = passed[:cap]
    return {tokens[i] for i in passed}


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm."""
    dot = 0.0
    nu = 0.0
    nv = 0.0
    for a, b in zip(u, v):
        dot += a * b
        nu += a * a
        nv += b * b
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / math.sqrt(nu * nv)
