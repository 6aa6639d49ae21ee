"""Reference token selection: the position-based rules, kept verbatim.

``coclick.explain`` and ``coclick.scoring`` select from one score per unique
title token, held in a mapping in title order. The rules they replace built
one ``TokenScore`` per title position, folded them back to one candidate per
token, selected positions and mapped those back to tokens. The gold labels and
every scored backend's predictions are part of the reproducibility contract,
so these functions are their reference: any change to the threshold, the cap,
the top-K ranking or a tie-break shows up as a differing token set.
"""

from dataclasses import dataclass
from typing import Sequence

from coclick.scoring import IdfTable, max_scaled_softmax


@dataclass(frozen=True)
class TokenScore:
    """Relevance score for one similar-title token position."""

    token: str
    word_index: int
    score: float


def threshold_cap_select(
    values: Sequence[float], positions: Sequence[int], p: float, cap_fraction: float
) -> list[int]:
    """Select candidate indices whose max-scaled softmax score reaches ``p``.

    ``values`` and ``positions`` describe one candidate per unique token:
    its raw score and its first occurrence position. When more than
    floor(cap_fraction * n) candidates pass, only that many survive, ranked
    by score, then raw value, then earlier position.

    Returns indices into the candidate sequence, in candidate order.
    """
    n = len(values)
    if n == 0:
        return []
    scores = max_scaled_softmax(values)
    passed = [i for i in range(n) if scores[i] >= p]
    cap = int(cap_fraction * n)
    if len(passed) > cap:
        passed.sort(key=lambda i: (-scores[i], -values[i], positions[i]))
        passed = passed[:cap]
    return sorted(passed)


def _unique_candidates(scores: Sequence[TokenScore]) -> list[TokenScore]:
    """One candidate per lowercase token: best score, earliest position on ties."""
    best: dict[str, TokenScore] = {}
    for ts in sorted(scores, key=lambda s: s.word_index):
        cur = best.get(ts.token)
        if cur is None or ts.score > cur.score:
            best[ts.token] = ts
    return list(best.values())


def select_top_k(
    scores: Sequence[TokenScore], k: int, idf: IdfTable | None = None
) -> set[int]:
    """Positions of the k best-scoring unique tokens.

    Ties break by higher idf (when a table is given), then earlier position.
    """
    candidates = _unique_candidates(scores)
    candidates.sort(
        key=lambda ts: (
            -ts.score,
            -idf.idf(ts.token) if idf is not None else 0.0,
            ts.word_index,
        )
    )
    return {ts.word_index for ts in candidates[: max(0, k)]}


def select_softmax_threshold(
    scores: Sequence[TokenScore], p: float, cap_fraction: float = 0.40
) -> set[int]:
    """Positions of unique tokens whose max-scaled softmax score reaches ``p``.

    Shares the threshold-and-cap rule used for gold-token selection, applied
    to arbitrary real-valued backend scores.
    """
    candidates = _unique_candidates(scores)
    values = [ts.score for ts in candidates]
    positions = [ts.word_index for ts in candidates]
    selected = threshold_cap_select(values, positions, p, cap_fraction)
    return {candidates[i].word_index for i in selected}


def select_gold_tokens(counts, p=0.30, cap_fraction=0.40):
    """The old ``coclick.dataset.select_gold_tokens`` body, after its zero-click check."""
    tokens = list(counts.counts)
    values = [float(counts.counts[t]) for t in tokens]
    positions = list(range(len(tokens)))
    selected = threshold_cap_select(values, positions, p, cap_fraction)
    return {tokens[i] for i in selected}


def external_token_scores(entries, title_tokens):
    """The old ``ExternalScores.score_tokens`` body for one covered pair."""
    first_pos: dict[str, int] = {}
    for i, tok in enumerate(title_tokens):
        first_pos.setdefault(tok, i)
    result = []
    for token, score in entries:
        if token not in first_pos:
            raise ValueError(token)
        result.append(TokenScore(token, first_pos[token], score))
    return result
