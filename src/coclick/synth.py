"""Synthetic corpus and query-log generator with planted ground truth.

Articles come in topic clusters. Each cluster owns a small pool of topic
tokens: the first two ("core") appear in every member's title and abstract;
the rest are carried by a member with some probability, always in its
abstract but only sometimes in its title. Queries are sampled subsets of the
target article's topic tokens, and sessions click the target first plus
same-cluster articles with high probability, so aggregated click counts
provably concentrate on topic tokens.

The planted gold for a pair is the shared topic tokens that are present in
the similar article's title, which is exactly what the click-count labeler
should recover; abstract-only topic tokens on the seed side are what give a
context-aware model an edge over seed-title-only scorers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .base import ConfigError
from .explain import load_stopwords
from .logs import Article, SessionEvent
from .text import word_tokenize


@dataclass
class SynthConfig:
    """Generator knobs; defaults give mid-length titles and power-law clicks."""

    n_articles: int = 400
    cluster_size: int = 4
    topics_per_cluster: int = 4
    extra_topic_prob: float = 0.5
    extra_in_title_prob: float = 0.5
    filler_vocab: int = 500
    filler_zipf: float = 1.3
    stopword_vocab: int = 25
    title_len: tuple[int, int, int] = (7, 25, 19)  # (min, max, mode)
    abstract_len: tuple[int, int] = (30, 50)
    article_zipf: float = 1.1
    same_cluster_bias: float = 0.9
    sessions: int = 10000
    clicks_dist: tuple[float, float, float] = (0.3, 0.5, 0.2)  # 1, 2, 3 clicks
    query_size_weights: tuple[float, ...] = (0.1, 0.45, 0.45, 0.0)  # 1..4 tokens
    rng_seed: int = 0

    def validate(self) -> None:
        if self.title_len[0] < 7:
            raise ConfigError("minimum title length must be at least 7 tokens")
        if not (self.title_len[0] <= self.title_len[2] <= self.title_len[1]):
            raise ConfigError(f"title_len mode must lie inside the range, got {self.title_len}")
        if self.article_zipf <= 1.0:
            raise ConfigError("article_zipf exponent must exceed 1")
        if self.topics_per_cluster < 2:
            raise ConfigError("clusters need at least 2 topic tokens")
        if self.cluster_size < 2:
            raise ConfigError("clusters need at least 2 articles to coclick")
        clicks = self.clicks_dist
        if len(clicks) != 3 or not _valid_weights(clicks) or sum(clicks) <= 0:
            raise ConfigError(
                "clicks_dist needs 3 finite, non-negative weights with a positive sum, "
                f"got {clicks}"
            )
        if not _valid_weights(self.query_size_weights):
            raise ConfigError(
                "query_size_weights must be finite and non-negative (all zero means uniform), "
                f"got {self.query_size_weights}"
            )


def _valid_weights(weights: tuple[float, ...]) -> bool:
    """Finite, non-negative entries whose sum is finite too."""
    return all(math.isfinite(w) and w >= 0 for w in weights) and math.isfinite(sum(weights))


@dataclass
class SynthCorpus:
    """Generated articles plus the planted topic structure."""

    articles: list[Article]
    topics: dict[str, tuple[str, ...]] = field(default_factory=dict)
    cluster_of: dict[str, int] = field(default_factory=dict)
    title_tokens: dict[str, set[str]] = field(default_factory=dict)

    def planted_gold(self, seed_id: str, similar_id: str) -> set[str]:
        """Shared topic tokens present in the similar article's title."""
        shared = set(self.topics[seed_id]) & set(self.topics[similar_id])
        return shared & self.title_tokens[similar_id]


def _topic_token(cluster: int, slot: int) -> str:
    return f"topic{cluster:03d}{chr(ord('a') + slot)}"


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(n, p=p)`` builds on every call.

    ``int(cdf.searchsorted(rng.random(), side="right"))`` then draws the same
    index from the same bits as ``rng.choice(len(p), p=p)``, without the
    per-call checks and setup.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def generate_corpus(config: SynthConfig) -> SynthCorpus:
    """Deterministically generate clustered articles with planted topics."""
    config.validate()
    rng = np.random.default_rng(config.rng_seed)
    stopword_pool = sorted(load_stopwords())[: config.stopword_vocab]
    filler_pool = [f"word{i:04d}" for i in range(config.filler_vocab)]
    filler_weights = _zipf_weights(config.filler_vocab, config.filler_zipf)

    corpus = SynthCorpus(articles=[])
    n_clusters = (config.n_articles + config.cluster_size - 1) // config.cluster_size
    for idx in range(config.n_articles):
        cluster = idx // config.cluster_size
        pool = [_topic_token(cluster, s) for s in range(config.topics_per_cluster)]
        topics = list(pool[:2])
        for extra in pool[2:]:
            if rng.random() < config.extra_topic_prob:
                topics.append(extra)
        title_topics = list(pool[:2])
        for extra in topics[2:]:
            if rng.random() < config.extra_in_title_prob:
                title_topics.append(extra)

        lo, hi, mode = config.title_len
        length = int(round(rng.triangular(lo, mode, hi)))
        length = min(hi, max(lo, length))
        n_stop = min(2, length - len(title_topics))
        n_fill = length - len(title_topics) - n_stop
        words = list(title_topics)
        words += list(rng.choice(stopword_pool, size=n_stop, replace=False))
        words += list(rng.choice(filler_pool, size=n_fill, replace=True, p=filler_weights))
        order = rng.permutation(len(words))
        title_words = [words[i] for i in order]
        title_words[0] = title_words[0].capitalize()
        title = " ".join(title_words)

        abs_len = int(rng.integers(config.abstract_len[0], config.abstract_len[1] + 1))
        abs_words = list(topics)
        n_abs_stop = min(4, abs_len - len(abs_words))
        abs_words += list(rng.choice(stopword_pool, size=n_abs_stop, replace=True))
        n_abs_fill = max(0, abs_len - len(abs_words))
        abs_words += list(
            rng.choice(filler_pool, size=n_abs_fill, replace=True, p=filler_weights)
        )
        abs_order = rng.permutation(len(abs_words))
        abstract = " ".join(abs_words[i] for i in abs_order)

        article_id = f"A{idx:05d}"
        corpus.articles.append(Article(article_id, title, abstract))
        corpus.topics[article_id] = tuple(topics)
        corpus.cluster_of[article_id] = cluster
        corpus.title_tokens[article_id] = {t.lower for t in word_tokenize(title)}

    assert len({corpus.cluster_of[a.article_id] for a in corpus.articles}) == n_clusters
    return corpus


def generate_sessions(corpus: SynthCorpus, config: SynthConfig) -> list[SessionEvent]:
    """Generate click sessions: a popularity-weighted target plus coclicks.

    The target article is always the rank-1 click, so it is the seed of every
    coclick pair the session produces; queries are subsets of its topic
    tokens, 1 to 4 tokens long.

    The draw stream is part of the reproducibility contract: each session
    consumes the generator exactly as per-call ``rng.choice`` did
    (``tests/oracle_sessions.py`` keeps that loop), so the event log for a
    given config and seed never changes. The weighted draws go through CDFs
    built once, and the uniform pick of a further click uses
    ``rng.integers``; the query-token subset stays a ``rng.choice`` call.
    """
    config.validate()
    if not corpus.articles:
        raise ConfigError("cannot generate sessions over an empty corpus")
    rng = np.random.default_rng(config.rng_seed + 1)
    ids = [a.article_id for a in corpus.articles]
    by_cluster: dict[int, list[str]] = {}
    for aid in ids:
        by_cluster.setdefault(corpus.cluster_of[aid], []).append(aid)

    click_counts = np.array(config.clicks_dist, dtype=np.float64)
    click_counts /= click_counts.sum()
    click_cdf = _choice_cdf(click_counts)
    popularity_cdf = _choice_cdf(_zipf_weights(len(ids), config.article_zipf))
    size_cdfs: dict[int, np.ndarray] = {}
    for n_topics in {len(corpus.topics[aid]) for aid in ids}:
        size_weights = np.array(config.query_size_weights[:n_topics], dtype=np.float64)
        if size_weights.sum() <= 0:
            size_weights = np.ones(min(4, n_topics))
        size_weights /= size_weights.sum()
        size_cdfs[n_topics] = _choice_cdf(size_weights)
    mates_of = {
        aid: [a for a in by_cluster[corpus.cluster_of[aid]] if a != aid] for aid in ids
    }

    events: list[SessionEvent] = []
    for s in range(config.sessions):
        session_id = f"s{s:07d}"
        target = ids[int(popularity_cdf.searchsorted(rng.random(), side="right"))]
        topics = corpus.topics[target]
        q_size = int(size_cdfs[len(topics)].searchsorted(rng.random(), side="right")) + 1
        chosen = rng.choice(len(topics), size=q_size, replace=False)
        query = " ".join(topics[i] for i in chosen)

        n_clicks = int(click_cdf.searchsorted(rng.random(), side="right")) + 1
        clicked = [target]
        for _ in range(n_clicks - 1):
            pool = mates_of[target] if rng.random() < config.same_cluster_bias else ids
            choices = [a for a in pool if a not in clicked]
            if not choices:
                choices = [a for a in ids if a not in clicked]
            if not choices:
                break
            clicked.append(choices[int(rng.integers(0, len(choices)))])

        for rank, article_id in enumerate(clicked, start=1):
            events.append(
                SessionEvent(session_id, query, rank, article_id, s * 10 + rank)
            )
    return events


def write_truth(corpus: SynthCorpus, fh: IO[str]) -> None:
    """Dump the planted topic structure (JSON Lines, one article per line)."""
    for article in corpus.articles:
        aid = article.article_id
        record = {
            "article_id": aid,
            "cluster": corpus.cluster_of[aid],
            "topics": list(corpus.topics[aid]),
            "title_topics": sorted(
                set(corpus.topics[aid]) & corpus.title_tokens[aid]
            ),
        }
        fh.write(json.dumps(record) + "\n")
