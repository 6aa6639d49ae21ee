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

import bisect
import json
import math
from array import array
from collections.abc import Iterator
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
        if not _ints(self.title_len, 3):
            raise ConfigError(f"title_len must be 3 ints (min, max, mode), got {self.title_len}")
        if not (_ints(self.abstract_len, 2) and 1 <= self.abstract_len[0] <= self.abstract_len[1]):
            raise ConfigError(
                f"abstract_len must be 2 ints (min, max) with 1 <= min <= max, got {self.abstract_len}"
            )
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
        # generate_sessions replicates Generator.choice's Floyd path, which
        # NumPy leaves for a tail shuffle above 10,000, and integers' 32-bit
        # Lemire path, which ends at 2**32.
        if self.topics_per_cluster > 10_000:
            raise ConfigError(
                f"topics_per_cluster must be at most 10000, got {self.topics_per_cluster}"
            )
        if self.n_articles >= 2**32 - 1:
            raise ConfigError(f"n_articles must be below 2**32 - 1, got {self.n_articles}")
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


def _ints(values: tuple[int, ...], n: int) -> bool:
    """Exactly ``n`` entries, each an int."""
    return len(values) == n and all(isinstance(v, int) for v in values)


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


def _choice_cdf(p: np.ndarray) -> list[float]:
    """The CDF ``Generator.choice(n, p=p)`` builds on every call, as a list.

    ``bisect.bisect_right(cdf, u)`` for a uniform ``u`` then picks the index
    ``cdf.searchsorted(u, side="right")`` gives inside ``Generator.choice``,
    so with ``u`` from ``_RawDraws.random`` it draws the same index from the
    same bits as ``rng.choice(len(p), p=p)``.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class _RawDraws:
    """Four ``numpy.random.Generator`` routines over raw PCG64 words.

    ``random()``, ``integers(n)`` and ``choice(n, k)`` return what
    ``rng.random()``, ``rng.integers(0, n)`` and
    ``rng.choice(n, size=k, replace=False)`` return on a ``Generator`` in the
    same state, for ``1 <= n < 2**32`` and ``k <= n <= 10_000`` respectively
    (``SynthConfig.validate`` keeps sessions inside both). They follow
    NumPy's implementation: a double is the top 53 bits of one word; a
    32-bit draw takes a word's low half and keeps its high half for the next
    32-bit draw (PCG64's ``next_uint32``); a bounded draw is Lemire's
    multiply-and-reject on 32-bit draws; and a sample without replacement is
    Floyd's algorithm followed by a Fisher-Yates shuffle (``_shuffle_int``).
    The words come from ``bit_generator.random_raw`` in small blocks, a
    stream NEP 19 keeps stable across releases, so no draw costs a
    ``Generator`` call. The bit generator runs ahead by up to a block, so it
    is not to be used after.
    """

    _BLOCK = 256  # words per ``random_raw`` call; larger blocks raise peak RSS

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        self._next_word = self._words(bit_generator).__next__
        self._high: int | None = None

    @classmethod
    def _words(cls, bit_generator: np.random.BitGenerator):
        while True:
            yield from bit_generator.random_raw(cls._BLOCK).tolist()

    def random(self) -> float:
        return (self._next_word() >> 11) * 2.0**-53

    def _uint32(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        word = self._next_word()
        self._high = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        """A uniform int in ``[0, n)``; ``n == 1`` consumes no bits."""
        if n == 1:
            return 0
        m = self._uint32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (0x100000000 - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._uint32() * n
        return m >> 32

    def choice(self, n: int, k: int) -> list[int]:
        """``k`` distinct ints from ``[0, n)``, in ``Generator.choice`` order."""
        picked: list[int] = []
        seen: set[int] = set()
        for j in range(n - k, n):
            value = self.integers(j + 1)
            if value in seen:
                value = j
            seen.add(value)
            picked.append(value)
        for i in range(k - 1, 0, -1):
            j = self.integers(i + 1)
            picked[i], picked[j] = picked[j], picked[i]
        return picked


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


class SessionLog:
    """The click log :func:`generate_sessions` draws, held as small-int arrays.

    Per session it keeps the query's index into ``queries`` and the number
    of clicks (at most 3); per click, the clicked article's position in
    ``ids``. ``len()`` is the number of clicks. Iterating yields the
    ``SessionEvent`` rows in draw order, building each one on the way, so the
    log costs 4 bytes per click and 5 per session rather than a tuple and
    its strings per click.
    """

    def __init__(self, ids: list[str]) -> None:
        self.ids = ids
        self.queries: list[str] = []
        self.session_query = array("I")
        self.session_clicks = array("B")
        self.click_article = array("I")

    def __len__(self) -> int:
        return len(self.click_article)

    def __iter__(self) -> Iterator[SessionEvent]:
        ids, queries = self.ids, self.queries
        articles = iter(self.click_article)
        for s, (q, n_clicks) in enumerate(zip(self.session_query, self.session_clicks)):
            session_id, query = f"s{s:07d}", queries[q]
            for rank in range(1, n_clicks + 1):
                yield SessionEvent(session_id, query, rank, ids[next(articles)], s * 10 + rank)


def generate_sessions(corpus: SynthCorpus, config: SynthConfig) -> SessionLog:
    """Generate click sessions: a popularity-weighted target plus coclicks.

    The target article is always the rank-1 click, so it is the seed of every
    coclick pair the session produces; queries are subsets of its topic
    tokens, 1 to 4 tokens long.

    The draw stream is part of the reproducibility contract: each session
    consumes the PCG64 bit stream exactly as the per-call ``rng.choice`` loop
    did (``tests/oracle_sessions.py`` keeps that loop), so the event log for
    a given config and seed never changes. Every draw goes through
    ``_RawDraws`` on raw words of ``default_rng(seed + 1)``: the weighted
    picks bisect CDFs built once (``Generator.choice(n, p=p)``), a further
    click's uniform pick is ``integers`` (``Generator.integers(0, n)``) and
    the query-token subset is ``choice`` (``Generator.choice(n, size=k,
    replace=False)``).

    The sessions come back as a :class:`SessionLog`, which holds the draws
    as small ints and builds the ``SessionEvent`` rows only when iterated.
    """
    config.validate()
    if not corpus.articles:
        raise ConfigError("cannot generate sessions over an empty corpus")
    draws = _RawDraws(np.random.default_rng(config.rng_seed + 1).bit_generator)
    ids = [a.article_id for a in corpus.articles]
    position = {aid: i for i, aid in enumerate(ids)}
    by_cluster: dict[int, list[str]] = {}
    for aid in ids:
        by_cluster.setdefault(corpus.cluster_of[aid], []).append(aid)

    click_counts = np.array(config.clicks_dist, dtype=np.float64)
    click_counts /= click_counts.sum()
    click_cdf = _choice_cdf(click_counts)
    popularity_cdf = _choice_cdf(_zipf_weights(len(ids), config.article_zipf))
    size_cdfs: dict[int, list[float]] = {}
    for n_topics in {len(corpus.topics[aid]) for aid in ids}:
        size_weights = np.array(config.query_size_weights[:n_topics], dtype=np.float64)
        if size_weights.sum() <= 0:
            size_weights = np.ones(min(4, n_topics))
        size_weights /= size_weights.sum()
        size_cdfs[n_topics] = _choice_cdf(size_weights)
    mates_of = {
        aid: [a for a in by_cluster[corpus.cluster_of[aid]] if a != aid] for aid in ids
    }

    bisect_right, random = bisect.bisect_right, draws.random
    log = SessionLog(ids)
    query_index: dict[str, int] = {}
    for s in range(config.sessions):
        target = ids[bisect_right(popularity_cdf, random())]
        topics = corpus.topics[target]
        q_size = bisect_right(size_cdfs[len(topics)], random()) + 1
        query = " ".join(topics[i] for i in draws.choice(len(topics), q_size))

        n_clicks = bisect_right(click_cdf, random()) + 1
        clicked = [target]
        for _ in range(n_clicks - 1):
            if random() < config.same_cluster_bias:
                choices = [a for a in mates_of[target] if a not in clicked]
                if choices:
                    clicked.append(choices[draws.integers(len(choices))])
                    continue
            if len(clicked) == len(ids):
                break
            # The k-th unclicked article of ids: k steps past each clicked position at or below it.
            k = draws.integers(len(ids) - len(clicked))
            for p in sorted(position[a] for a in clicked):
                if p <= k:
                    k += 1
            clicked.append(ids[k])

        log.session_query.append(query_index.setdefault(query, len(query_index)))
        log.session_clicks.append(len(clicked))
        log.click_article.extend(position[a] for a in clicked)
    log.queries = list(query_index)
    return log


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
