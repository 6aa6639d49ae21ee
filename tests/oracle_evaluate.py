"""Reference evaluation: the per-stratum re-scoring rules, kept verbatim.

``coclick.evaluate`` counts each instance once per granularity
(``count_instances``) and aggregates any subset of those counts
(``summarize``). The code it replaces counted through ``_counts`` and
``_rates``, macro-averaged in ``aggregate``, and re-scored every stratum from
its examples in ``metrics_rows``. The metrics CSV is part of the
reproducibility contract, so these functions are its reference: any change
to a rate, an exclusion, the micro pooling or a float sum shows up as a
differing ``EvalMetrics``.
"""

from __future__ import annotations

import logging
import math
from typing import Iterable, Sequence

from coclick.base import CoclickError
from coclick.dataset import PairExample
from coclick.evaluate import EvalMetrics, InstanceCounts, MetricsRow, Stratum, f1_score
from coclick.logs import PairKey
from coclick.text import positions_of

log = logging.getLogger(__name__)


def _counts(gold: set, pred: set) -> InstanceCounts:
    return InstanceCounts(tp=len(gold & pred), n_gold=len(gold), n_pred=len(pred))


def _rates(c: InstanceCounts) -> tuple[float, float] | None:
    if c.n_gold == 0:
        if c.n_pred == 0:
            return (1.0, 1.0)
        return None
    recall = c.tp / c.n_gold
    precision = c.tp / c.n_pred if c.n_pred > 0 else 0.0
    return (recall, precision)


def aggregate(
    instance_rates: Sequence[tuple[float, float]], pred_sizes: Sequence[int]
) -> EvalMetrics:
    """Macro-average per-instance rates; F1 is taken of the mean rates."""
    if not instance_rates:
        raise CoclickError("cannot aggregate an empty instance list")
    n = len(instance_rates)
    recall = math.fsum(r for r, _ in instance_rates) / n
    precision = math.fsum(p for _, p in instance_rates) / n
    avg_len = math.fsum(pred_sizes) / n if pred_sizes else 0.0
    return EvalMetrics(recall, precision, f1_score(recall, precision), avg_len, n)


def evaluate_predictions(
    examples: Sequence[PairExample],
    predictions: dict[PairKey, set[str]],
    granularity: str = "token",
    micro: bool = False,
) -> EvalMetrics:
    """Score a prediction map against dataset gold at the given granularity.

    Examples without a prediction entry are skipped with a warning tally, as
    are (defensively) instances with empty gold and a non-empty prediction.
    """
    if granularity not in ("token", "title"):
        raise ValueError(f"granularity must be 'token' or 'title', got {granularity!r}")
    counts: list[InstanceCounts] = []
    skipped_uncovered = 0
    skipped_empty_gold = 0
    for ex in examples:
        pred = predictions.get(ex.pair_key)
        if pred is None:
            skipped_uncovered += 1
            continue
        if granularity == "token":
            c = _counts(set(ex.gold_tokens), set(pred))
        else:
            c = _counts(
                positions_of(ex.similar_title_tokens, ex.gold_tokens),
                positions_of(ex.similar_title_tokens, pred),
            )
        if c.n_gold == 0 and c.n_pred > 0:
            skipped_empty_gold += 1
            continue
        counts.append(c)
    if skipped_uncovered:
        log.warning("evaluation skipped %d instances without predictions", skipped_uncovered)
    if skipped_empty_gold:
        log.warning(
            "evaluation excluded %d instances with empty gold and non-empty predictions",
            skipped_empty_gold,
        )
    if not counts:
        raise CoclickError("no instances left to evaluate")
    if micro:
        tp = sum(c.tp for c in counts)
        n_gold = sum(c.n_gold for c in counts)
        n_pred = sum(c.n_pred for c in counts)
        recall = tp / n_gold if n_gold else 1.0
        precision = tp / n_pred if n_pred else (1.0 if tp == n_gold == 0 else 0.0)
        avg_len = math.fsum(c.n_pred for c in counts) / len(counts)
        return EvalMetrics(recall, precision, f1_score(recall, precision), avg_len, len(counts))
    rates = [_rates(c) for c in counts]
    return aggregate(rates, [c.n_pred for c in counts])


def metrics_rows(
    model: str,
    examples: Sequence[PairExample],
    predictions: dict[PairKey, set[str]],
    granularities: Iterable[str] = ("token", "title"),
    strata: Sequence[Stratum] | None = None,
    micro: bool = False,
) -> list[MetricsRow]:
    """Rows for one model: overall plus any strata, at each granularity."""
    by_key = {ex.pair_key: ex for ex in examples}
    rows = []
    for granularity in granularities:
        rows.append(
            MetricsRow(
                model,
                granularity,
                "all",
                evaluate_predictions(examples, predictions, granularity, micro),
            )
        )
        for stratum in strata or []:
            members = [by_key[k] for k in stratum.pair_keys if k in by_key]
            if not members:
                continue
            rows.append(
                MetricsRow(
                    model,
                    granularity,
                    stratum.name,
                    evaluate_predictions(members, predictions, granularity, micro),
                )
            )
    return rows
