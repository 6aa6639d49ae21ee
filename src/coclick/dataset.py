"""Build labeled (seed, similar) title-highlighting examples from pair aggregates.

For each coclicked pair, query click counts are folded onto the unique
tokens of the similar article title; a max-scaled softmax over those counts
plus a threshold picks the gold tokens. Noisy long-tail pairs are dropped by
three filters (combined clicks, title length, nonzero-count tokens), and the
survivors are split train/dev/test by seed-article group so near-duplicates
never straddle a split.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import InitVar, dataclass, field
from typing import IO, Iterable, Sequence

from .base import LabelingError, check_ratios, read_pair_records
from .logs import Article, PairAggregate, PairKey
from .scoring import threshold_cap_select
from .text import word_tokenize

DROP_MIN_CLICKS = "min_clicks"
DROP_MIN_TITLE_LEN = "min_title_len"
DROP_MIN_NONZERO = "min_nonzero"
DROP_EMPTY_GOLD = "empty_gold"
DROP_MISSING_ARTICLE = "missing_article"

SPLIT_RATIOS: tuple[float, float, float] = (0.8, 0.1, 0.1)  # train, dev, test

# The string fields of a dataset row.
TEXT_FIELDS = ("seed_id", "similar_id", "seed_title", "seed_abstract", "similar_title")


@dataclass
class TokenClickCounts:
    """Coclick count per unique lowercase similar-title token, in title order."""

    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def nonzero(self) -> int:
        return sum(1 for c in self.counts.values() if c > 0)


def lower_tokens(text: str) -> list[str]:
    """The lowercase word tokens of ``text``, in order."""
    return [t.text.lower() for t in word_tokenize(text)]


class TokenMemo(dict):
    """Text -> :func:`lower_tokens`, computed on the first lookup of each text.

    One stage call owns one memo and drops it when it returns, so each
    distinct text is tokenized once per call and nothing outlives the call.
    Callers must not mutate the lists it hands out.
    """

    def __missing__(self, text: str) -> list[str]:
        tokens = self[text] = lower_tokens(text)
        return tokens


@dataclass
class PairExample:
    """One labeled dataset row.

    Titles and the abstract are stored raw. The three token views are their
    lowercase word tokens, computed on construction, so every consumer sees
    one tokenization; a title position is an index into
    ``similar_title_tokens``. A shared :class:`TokenMemo` passed as ``memo``
    tokenizes each distinct text once across many examples; every view is
    still a list of its own.
    """

    seed_id: str
    similar_id: str
    seed_title: str
    seed_abstract: str
    similar_title: str
    gold_tokens: set[str]
    token_counts: TokenClickCounts
    combined_clicks: int

    seed_title_tokens: list[str] = field(init=False, repr=False)
    seed_abstract_tokens: list[str] = field(init=False, repr=False)
    similar_title_tokens: list[str] = field(init=False, repr=False)
    memo: InitVar[TokenMemo | None] = None

    def __post_init__(self, memo: TokenMemo | None) -> None:
        if memo is None:
            memo = TokenMemo()
        self.seed_title_tokens = list(memo[self.seed_title])
        self.seed_abstract_tokens = list(memo[self.seed_abstract])
        self.similar_title_tokens = list(memo[self.similar_title])

    @property
    def pair_key(self) -> PairKey:
        return (self.seed_id, self.similar_id)


@dataclass
class BuildConfig:
    """Labeling and filtering knobs for dataset construction."""

    gold_threshold: float = 0.30
    cap_fraction: float = 0.40
    min_clicks: int = 20
    min_title_len: int = 7
    min_nonzero: int = 3


def count_title_token_clicks(
    aggregate: PairAggregate,
    similar_title_tokens: Sequence[str],
    memo: TokenMemo | None = None,
) -> TokenClickCounts:
    """Sum, per unique title token, the clicks of queries containing that token.

    ``similar_title_tokens`` are lowercase; query strings are word-tokenized
    with the shared tokenizer and lowercased too, so matching ignores case.
    Title tokens appearing in no query get count 0. Query tokens are looked
    up through ``memo`` when one is given.
    """
    counts = TokenClickCounts(dict.fromkeys(similar_title_tokens, 0))
    if not counts.counts:
        return counts
    if memo is None:
        memo = TokenMemo()
    for query, clicks in aggregate.query_counts.items():
        for qtok in set(memo[query]):
            if qtok in counts.counts:
                counts.counts[qtok] += clicks
    return counts


def select_gold_tokens(
    counts: TokenClickCounts, p: float = 0.30, cap_fraction: float = 0.40
) -> set[str]:
    """Pick gold tokens: max-scaled softmax over per-token counts, threshold ``p``.

    Every unique title token participates in the softmax, zero-count ones
    included. When more than floor(cap_fraction * n) tokens pass the
    threshold, the top floor(cap_fraction * n) survive (by score, then raw
    count, then earlier title position).
    """
    if counts.total == 0:
        raise LabelingError("cannot label a pair with zero token clicks")
    return threshold_cap_select({t: float(c) for t, c in counts.counts.items()}, p, cap_fraction)


def filter_pair(
    combined_clicks: int,
    similar_title_tokens: Sequence[str],
    counts: TokenClickCounts,
    min_clicks: int = 20,
    min_title_len: int = 7,
    min_nonzero: int = 3,
) -> str | None:
    """Return a drop reason, or None when the candidate pair is kept."""
    if combined_clicks < min_clicks:
        return DROP_MIN_CLICKS
    if len(similar_title_tokens) < min_title_len:
        return DROP_MIN_TITLE_LEN
    if counts.nonzero() < min_nonzero:
        return DROP_MIN_NONZERO
    return None


def build_examples(
    aggregates: dict[PairKey, PairAggregate],
    articles: dict[str, Article],
    config: BuildConfig | None = None,
) -> tuple[list[PairExample], dict[str, int]]:
    """Label and filter every aggregate; returns kept examples + drop tallies.

    Output is sorted by (seed_id, similar_id), so the written dataset does
    not depend on the order of ``aggregates``. Each distinct title and query
    of a pair with at least ``min_clicks`` clicks is tokenized once per call;
    the pairs below it are dropped before any tokenizing.
    """
    if config is None:
        config = BuildConfig()
    examples: list[PairExample] = []
    drops: dict[str, int] = {}
    memo = TokenMemo()

    def drop(reason: str) -> None:
        drops[reason] = drops.get(reason, 0) + 1

    for key in sorted(aggregates):
        agg = aggregates[key]
        seed = articles.get(agg.seed_id)
        similar = articles.get(agg.similar_id)
        if seed is None or similar is None:
            drop(DROP_MISSING_ARTICLE)
            continue
        # filter_pair checks min_clicks first as well; checking it here spares
        # the pairs it drops (most of a log's) their tokenizing and counting.
        combined = agg.combined_clicks
        if combined < config.min_clicks:
            drop(DROP_MIN_CLICKS)
            continue
        title_tokens = memo[similar.title]
        counts = count_title_token_clicks(agg, title_tokens, memo)
        reason = filter_pair(
            combined,
            title_tokens,
            counts,
            config.min_clicks,
            config.min_title_len,
            config.min_nonzero,
        )
        if reason is not None:
            drop(reason)
            continue
        try:
            gold = select_gold_tokens(counts, config.gold_threshold, config.cap_fraction)
        except LabelingError:
            drop(DROP_EMPTY_GOLD)
            continue
        if not gold:
            drop(DROP_EMPTY_GOLD)
            continue
        examples.append(
            PairExample(
                seed_id=agg.seed_id,
                similar_id=agg.similar_id,
                seed_title=seed.title,
                seed_abstract=seed.abstract,
                similar_title=similar.title,
                gold_tokens=gold,
                token_counts=counts,
                combined_clicks=combined,
                memo=memo,
            )
        )
    return examples, drops


def split_dataset(
    examples: Sequence[PairExample],
    ratios: tuple[float, float, float] = SPLIT_RATIOS,
    rng_seed: int = 0,
) -> dict[str, list[PairExample]]:
    """Partition examples into train/dev/test by seed-article group.

    Groups are ordered by a salted hash of their seed id and assigned to
    splits by cumulative quota, so the partition is deterministic for a
    given seed and every example sharing a seed article lands in one split.
    """
    check_ratios(ratios)
    groups: dict[str, list[PairExample]] = {}
    for ex in examples:
        groups.setdefault(ex.seed_id, []).append(ex)

    def group_key(seed_id: str) -> tuple[str, str]:
        digest = hashlib.sha256(f"{rng_seed}:{seed_id}".encode("utf-8")).hexdigest()
        return (digest, seed_id)

    ordered = sorted(groups, key=group_key)
    total = len(examples)
    b1 = ratios[0] * total
    b2 = (ratios[0] + ratios[1]) * total
    splits: dict[str, list[PairExample]] = {"train": [], "dev": [], "test": []}
    assigned = 0
    for seed_id in ordered:
        group = groups[seed_id]
        if assigned < b1:
            name = "train"
        elif assigned < b2:
            name = "dev"
        else:
            name = "test"
        splits[name].extend(group)
        assigned += len(group)
    for part in splits.values():
        part.sort(key=lambda ex: ex.pair_key)
    return splits


def write_dataset(examples: Iterable[PairExample], fh: IO[str]) -> None:
    """Write examples as JSON Lines with a fixed key order."""
    for ex in examples:
        record = {
            "seed_id": ex.seed_id,
            "similar_id": ex.similar_id,
            "seed_title": ex.seed_title,
            "seed_abstract": ex.seed_abstract,
            "similar_title": ex.similar_title,
            "token_counts": ex.token_counts.counts,
            "combined_clicks": ex.combined_clicks,
            "gold_tokens": sorted(ex.gold_tokens),
        }
        fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_dataset(fh: IO[str]) -> list[PairExample]:
    """Read a dataset file written by :func:`write_dataset`, in file order.

    :func:`read_pair_records` rejects a bad or repeated pair. A row is bad
    when an id or text is not a string, ``gold_tokens`` is not a list of
    strings, a count is not an integer of at least 0, or a gold or counted
    token is not in the similar title. Each distinct text is tokenized once
    per call.
    """
    memo = TokenMemo()
    return list(read_pair_records(fh, "dataset", lambda record: _parse_example(record, memo)).values())


def _parse_example(record: dict, memo: TokenMemo) -> tuple[PairKey, PairExample]:
    texts = {name: record[name] for name in TEXT_FIELDS}
    for name, text in texts.items():
        if not isinstance(text, str):
            raise TypeError(f"{name} must be a string, got {text!r}")
    gold, counts = record["gold_tokens"], record["token_counts"]
    combined = record["combined_clicks"]
    if not isinstance(gold, list) or not all(isinstance(t, str) for t in gold):
        raise TypeError(f"gold_tokens must be a list of strings, got {gold!r}")
    if not isinstance(counts, dict):
        raise TypeError(f"token_counts must be an object, got {counts!r}")
    for token, count in counts.items():
        # bool is a subclass of int, but true is no count
        if type(count) is not int or count < 0:
            raise ValueError(f"count {count!r} for token {token!r} is not an integer >= 0")
    if type(combined) is not int or combined < 0:
        raise ValueError(f"combined_clicks {combined!r} is not an integer >= 0")
    ex = PairExample(
        **texts,
        gold_tokens=set(gold),
        token_counts=TokenClickCounts(counts),
        combined_clicks=combined,
        memo=memo,
    )
    title_tokens = set(ex.similar_title_tokens)
    if not ex.gold_tokens <= title_tokens:
        raise ValueError(f"gold tokens {sorted(ex.gold_tokens - title_tokens)} not in title")
    if not counts.keys() <= title_tokens:
        raise ValueError("token_counts keys outside title")
    return ex.pair_key, ex
