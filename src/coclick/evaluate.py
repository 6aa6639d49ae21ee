"""Recall/precision/F1 at token and title granularity, plus stratified views.

Token-level treats a prediction as a set of unique lowercase tokens;
title-level expands both gold and prediction to title positions first, so
duplicated tokens count once per occurrence. Aggregation is macro by
default (mean of per-instance recall and precision, F1 of the means) with a
pooled-count micro option; sums use ``math.fsum`` so results do not depend
on instance order.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .base import CoclickError, json_number, json_pair_key, read_pair_records
from .dataset import PairExample
from .logs import PairKey
from .text import positions_of

log = logging.getLogger(__name__)


@dataclass
class EvalMetrics:
    """Aggregated metrics; rates are stored in [0, 1] and reported x100."""

    recall: float
    precision: float
    f1: float
    avg_pred_len: float
    n_instances: int


@dataclass(frozen=True)
class InstanceCounts:
    """Raw overlap counts for one instance, at either granularity."""

    tp: int
    n_gold: int
    n_pred: int


def f1_score(recall: float, precision: float) -> float:
    if recall + precision == 0.0:
        return 0.0
    return 2.0 * recall * precision / (recall + precision)


def count_instances(
    examples: Sequence[PairExample],
    predictions: dict[PairKey, set[str]],
    granularity: str = "token",
) -> list[InstanceCounts | None]:
    """One overlap count per example, in dataset order, at ``granularity``.

    An example without a prediction entry gets None, as does (defensively)
    one with empty gold and a non-empty prediction. Nothing is logged:
    :func:`_warn_skips` tallies the None entries.
    """
    if granularity not in ("token", "title"):
        raise ValueError(f"granularity must be 'token' or 'title', got {granularity!r}")
    counts: list[InstanceCounts | None] = []
    for ex in examples:
        pred = predictions.get(ex.pair_key)
        if pred is None:
            counts.append(None)
            continue
        if granularity == "token":
            gold = set(ex.gold_tokens)
            pred = set(pred)
        else:
            gold = positions_of(ex.similar_title_tokens, ex.gold_tokens)
            pred = positions_of(ex.similar_title_tokens, pred)
        if not gold and pred:
            counts.append(None)
            continue
        counts.append(InstanceCounts(tp=len(gold & pred), n_gold=len(gold), n_pred=len(pred)))
    return counts


def _warn_skips(
    examples: Sequence[PairExample], predictions: dict[PairKey, set[str]], counted: Iterable[list]
) -> None:
    """Log the uncovered examples once, then each distinct nonzero tally of the
    other None entries (empty gold) among the :func:`count_instances` lists."""
    uncovered = sum(1 for ex in examples if predictions.get(ex.pair_key) is None)
    if uncovered:
        log.warning("evaluation skipped %d instances without predictions", uncovered)
    for empty_gold in dict.fromkeys(counts.count(None) - uncovered for counts in counted):
        if empty_gold:
            log.warning("evaluation excluded %d instances with empty gold and non-empty predictions", empty_gold)


def summarize(counts: Iterable[InstanceCounts | None], micro: bool = False) -> EvalMetrics:
    """Aggregate the non-None entries of ``counts``, macro or pooled-count micro.

    Per instance, empty gold (with an empty prediction) scores (1, 1) and an
    empty prediction against non-empty gold scores (0, 0).
    """
    scored = [c for c in counts if c is not None]
    if not scored:
        raise CoclickError("no instances left to evaluate")
    n = len(scored)
    if micro:
        tp = sum(c.tp for c in scored)
        n_gold = sum(c.n_gold for c in scored)
        n_pred = sum(c.n_pred for c in scored)
        recall = tp / n_gold if n_gold else 1.0
        precision = tp / n_pred if n_pred else (1.0 if tp == n_gold == 0 else 0.0)
    else:
        rates = [
            (c.tp / c.n_gold, c.tp / c.n_pred if c.n_pred else 0.0) if c.n_gold else (1.0, 1.0)
            for c in scored
        ]
        recall = math.fsum(r for r, _ in rates) / n
        precision = math.fsum(p for _, p in rates) / n
    avg_len = math.fsum(c.n_pred for c in scored) / n
    return EvalMetrics(recall, precision, f1_score(recall, precision), avg_len, n)


def evaluate_predictions(
    examples: Sequence[PairExample],
    predictions: dict[PairKey, set[str]],
    granularity: str = "token",
    micro: bool = False,
) -> EvalMetrics:
    """Score a prediction map against dataset gold at the given granularity."""
    counts = count_instances(examples, predictions, granularity)
    _warn_skips(examples, predictions, [counts])
    return summarize(counts, micro)


@dataclass
class Stratum:
    """A named subset of the evaluation set."""

    name: str
    pair_keys: list[PairKey]


def stratify_by_clicks(examples: Sequence[PairExample]) -> list[Stratum]:
    """Strata by combined coclick count: top 0.1% plus thirds of the sorted list.

    The top 0.1% stratum (at least one instance) overlaps the top third; the
    thirds partition everything. Ties break by pair id.
    """
    ordered = sorted(examples, key=lambda ex: (-ex.combined_clicks, ex.pair_key))
    n = len(ordered)
    if n == 0:
        return []
    top_n = max(1, int(0.001 * n))
    b1 = math.ceil(n / 3)
    b2 = math.ceil(2 * n / 3)
    return [
        Stratum("top_0.1pct", [e.pair_key for e in ordered[:top_n]]),
        Stratum("top_third", [e.pair_key for e in ordered[:b1]]),
        Stratum("middle_third", [e.pair_key for e in ordered[b1:b2]]),
        Stratum("bottom_third", [e.pair_key for e in ordered[b2:]]),
    ]


def stratify_by_similarity(
    examples: Sequence[PairExample], pair_scores: dict[PairKey, float]
) -> tuple[list[Stratum], int]:
    """Quintiles by externally supplied pair similarity, most similar first.

    Instances without a score are excluded and tallied. Ties break by pair id.
    """
    scored = []
    excluded = 0
    for ex in examples:
        score = pair_scores.get(ex.pair_key)
        if score is None or not math.isfinite(score):
            excluded += 1
            continue
        scored.append((score, ex.pair_key))
    if excluded:
        log.warning("similarity stratification excluded %d unscored instances", excluded)
    scored.sort(key=lambda item: (-item[0], item[1]))
    n = len(scored)
    strata = []
    for i in range(5):
        lo = math.ceil(i * n / 5)
        hi = math.ceil((i + 1) * n / 5)
        strata.append(Stratum(f"similarity_q{i + 1}", [key for _, key in scored[lo:hi]]))
    return strata, excluded


def load_pair_scores(fh: IO[str]) -> dict[PairKey, float]:
    """Read a pair-score file (JSON Lines: seed_id, similar_id, score).

    :func:`read_pair_records` rejects a bad or repeated pair. A record is bad
    when an id is not a string or the score is not a JSON number. NaN and
    infinite scores load as they are; :func:`stratify_by_similarity`
    excludes and tallies them.
    """
    return read_pair_records(
        fh, "pair-score", lambda record: (json_pair_key(record), json_number(record["score"], "score"))
    )


@dataclass
class MetricsRow:
    """One line of the metrics report."""

    model: str
    granularity: str
    stratum: str
    metrics: EvalMetrics


def metrics_rows(
    model: str,
    examples: Sequence[PairExample],
    predictions: dict[PairKey, set[str]],
    granularities: Iterable[str] = ("token", "title"),
    strata: Sequence[Stratum] | None = None,
    micro: bool = False,
) -> list[MetricsRow]:
    """Rows for one model: overall plus any strata, at each granularity.

    Each example is counted once per granularity, and each skip tally is
    logged once. A stratum with no dataset member gets no row, nor, with a
    warning, one with no scored instance.
    """
    index = {ex.pair_key: i for i, ex in enumerate(examples)}
    counted = [(g, count_instances(examples, predictions, g)) for g in granularities]
    _warn_skips(examples, predictions, [counts for _, counts in counted])
    rows = []
    for granularity, counts in counted:
        rows.append(MetricsRow(model, granularity, "all", summarize(counts, micro)))
        for stratum in strata or []:
            members = [counts[index[k]] for k in stratum.pair_keys if k in index]
            if any(c is not None for c in members):
                rows.append(MetricsRow(model, granularity, stratum.name, summarize(members, micro)))
            elif members:
                log.warning(
                    "no %s %s row for stratum %s: it has no scored instance", model, granularity, stratum.name
                )
    return rows


def write_metrics_csv(rows: Sequence[MetricsRow], fh: IO[str]) -> None:
    """Report CSV: model,granularity,stratum,R,P,F1,L,N with rates x100, quoted by CSV rules."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["model", "granularity", "stratum", "R", "P", "F1", "L", "N"])
    for row in rows:
        m = row.metrics
        writer.writerow([
            row.model, row.granularity, row.stratum,
            f"{m.recall * 100:.2f}", f"{m.precision * 100:.2f}", f"{m.f1 * 100:.2f}",
            f"{m.avg_pred_len:.2f}", m.n_instances,
        ])
