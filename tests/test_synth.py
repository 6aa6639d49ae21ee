"""Generator tests: determinism, planted structure, power-law clicks, round trips."""

import hashlib
import io
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from oracle_sessions import oracle_sessions

from coclick.base import ConfigError
from coclick.dataset import load_dataset
from coclick.logs import ParseStats, parse_log, read_metadata, write_events, write_metadata
from coclick.pipeline import benchmark_config
from coclick.synth import SynthConfig, _RawDraws, generate_corpus, generate_sessions
from coclick.text import word_tokenize


def small_config(**overrides):
    fields = dict(n_articles=60, cluster_size=4, sessions=2000, rng_seed=5)
    fields.update(overrides)
    return SynthConfig(**fields)


class TestGenerateCorpus:
    def test_deterministic_per_seed(self):
        a = generate_corpus(small_config())
        b = generate_corpus(small_config())
        assert a.articles == b.articles
        assert a.topics == b.topics

    def test_different_seed_differs(self):
        a = generate_corpus(small_config())
        b = generate_corpus(small_config(rng_seed=6))
        assert a.articles != b.articles

    def test_same_cluster_articles_share_two_topics(self):
        corpus = generate_corpus(small_config())
        by_cluster = {}
        for aid, cluster in corpus.cluster_of.items():
            by_cluster.setdefault(cluster, []).append(aid)
        for members in by_cluster.values():
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    shared = set(corpus.topics[a]) & set(corpus.topics[b])
                    assert len(shared) >= 2

    def test_topics_per_article_within_two_to_four(self):
        corpus = generate_corpus(small_config(topics_per_cluster=4))
        for topics in corpus.topics.values():
            assert 2 <= len(topics) <= 4

    def test_titles_respect_length_bounds(self):
        config = small_config(title_len=(8, 14, 10))
        corpus = generate_corpus(config)
        for article in corpus.articles:
            n = len(word_tokenize(article.title))
            assert 8 <= n <= 14

    def test_core_topics_in_title_and_abstract(self):
        corpus = generate_corpus(small_config())
        for article in corpus.articles:
            core = corpus.topics[article.article_id][:2]
            abstract_tokens = {t.lower for t in word_tokenize(article.abstract)}
            for topic in core:
                assert topic in corpus.title_tokens[article.article_id]
                assert topic in abstract_tokens

    def test_every_topic_in_abstract(self):
        corpus = generate_corpus(small_config())
        for article in corpus.articles:
            abstract_tokens = {t.lower for t in word_tokenize(article.abstract)}
            assert set(corpus.topics[article.article_id]) <= abstract_tokens

    def test_planted_gold_contains_cluster_core(self):
        corpus = generate_corpus(small_config())
        ids = [a.article_id for a in corpus.articles]
        a, b = ids[0], ids[1]
        assert corpus.cluster_of[a] == corpus.cluster_of[b]
        assert len(corpus.planted_gold(a, b)) >= 2

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            generate_corpus(small_config(title_len=(5, 12, 9)))
        with pytest.raises(ConfigError):
            generate_corpus(small_config(article_zipf=0.9))
        with pytest.raises(ConfigError):
            generate_corpus(small_config(topics_per_cluster=1))

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(title_len=(9, 13)), "title_len"),
            (dict(title_len=(9, 13, 11, 12)), "title_len"),
            (dict(title_len=(9.0, 13, 11)), "title_len"),
            (dict(abstract_len=(30,)), "abstract_len"),
            (dict(abstract_len=(30, 50, 40)), "abstract_len"),
            (dict(abstract_len=(40, 30)), "abstract_len"),
            (dict(abstract_len=(0, 30)), "abstract_len"),
            (dict(abstract_len=(30, 50.5)), "abstract_len"),
        ],
    )
    def test_length_of_wrong_shape_is_config_error(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            generate_corpus(small_config(**overrides))
        with pytest.raises(ConfigError, match=field):
            generate_sessions(generate_corpus(small_config()), small_config(**overrides))


class TestGenerateSessions:
    def test_deterministic_per_seed(self):
        corpus = generate_corpus(small_config())
        a = list(generate_sessions(corpus, small_config()))
        b = list(generate_sessions(corpus, small_config()))
        assert a == b

    def test_log_length_is_its_click_count(self):
        config = small_config()
        log = generate_sessions(generate_corpus(config), config)
        assert len(log) == sum(1 for _ in log) > config.sessions

    def test_log_yields_equal_events_on_every_iteration(self):
        config = small_config()
        log = generate_sessions(generate_corpus(config), config)
        assert list(log) == list(log)

    def test_query_tokens_come_from_target_topics(self):
        config = small_config()
        corpus = generate_corpus(config)
        events = generate_sessions(corpus, config)
        by_session = {}
        for e in events:
            by_session.setdefault(e.session_id, []).append(e)
        for clicks in by_session.values():
            target = min(clicks, key=lambda e: e.rank)
            assert target.rank == 1
            topics = set(corpus.topics[target.article_id])
            for qtok in clicks[0].query.split():
                assert qtok in topics
            assert 1 <= len(clicks[0].query.split()) <= 4

    def test_sessions_click_one_to_three_results(self):
        config = small_config()
        corpus = generate_corpus(config)
        events = generate_sessions(corpus, config)
        sizes = Counter(e.session_id for e in events)
        assert set(sizes.values()) <= {1, 2, 3}

    def test_popular_articles_dominate_long_tail(self):
        config = small_config(n_articles=100, sessions=10000, article_zipf=1.1)
        corpus = generate_corpus(config)
        events = generate_sessions(corpus, config)
        clicks = Counter(e.article_id for e in events if e.rank == 1)
        top = clicks[corpus.articles[0].article_id]
        tail = [clicks.get(a.article_id, 0) for a in corpus.articles[50:]]
        assert top >= 10 * (sum(tail) / len(tail))

    def test_click_histogram_monotone_over_rank_deciles(self):
        config = small_config(n_articles=100, sessions=10000)
        corpus = generate_corpus(config)
        events = generate_sessions(corpus, config)
        clicks = Counter(e.article_id for e in events if e.rank == 1)
        per_rank = [clicks.get(a.article_id, 0) for a in corpus.articles]
        deciles = [sum(per_rank[i : i + 10]) for i in range(0, 100, 10)]
        assert all(a >= b for a, b in zip(deciles, deciles[1:]))
        assert deciles[0] > deciles[-1]

    def test_events_round_trip_through_tsv(self):
        config = small_config(sessions=300)
        corpus = generate_corpus(config)
        events = list(generate_sessions(corpus, config))
        buf = io.StringIO()
        write_events(events, buf)
        buf.seek(0)
        stats = ParseStats()
        parsed = list(parse_log(buf, stats))
        assert stats.malformed == 0
        assert parsed == events

    def test_metadata_round_trip(self):
        corpus = generate_corpus(small_config())
        buf = io.StringIO()
        write_metadata(corpus.articles, buf)
        buf.seek(0)
        loaded = read_metadata(buf)
        assert list(loaded.values()) == corpus.articles


class TestSessionDrawStream:
    """The event log is part of the reproducibility contract: pin its draw stream."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            # three clicks from a 2-article cluster: the mates run out
            dict(cluster_size=2, clicks_dist=(0, 0, 1)),
            # every article clicked: the session stops early
            dict(n_articles=2, cluster_size=2, clicks_dist=(0, 0, 1)),
            dict(topics_per_cluster=6),
            # all-zero query-size weights fall back to uniform over 1..min(4, topics)
            dict(query_size_weights=(0, 0)),
            dict(topics_per_cluster=6, query_size_weights=(0, 0)),
            # zero weight on the 2-topic prefix only: uniform for 2-topic targets
            dict(topics_per_cluster=3, query_size_weights=(0, 0, 1)),
            dict(extra_topic_prob=0.5, same_cluster_bias=0.2),
        ],
        ids=[
            "default", "cluster-exhausted", "all-clicked", "six-topics", "zero-size-weights",
            "six-topics-zero-weights", "zero-prefix-weights", "mixed-topics-low-bias",
        ],
    )
    def test_matches_per_call_choice_oracle(self, overrides):
        config = small_config(sessions=600, **overrides)
        corpus = generate_corpus(config)
        assert list(generate_sessions(corpus, config)) == oracle_sessions(corpus, config)

    def test_event_log_hash_is_pinned(self):
        config = small_config()
        events = generate_sessions(generate_corpus(config), config)
        buf = io.StringIO()
        write_events(events, buf)
        assert len(events) == 3784
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == (
            "9eff0eccf57710da8d75ff3decacea8cdd3c46b78e6479a4470d35769189b586"
        )


class TestSessionLogMemory:
    def test_desk_log_holds_under_5_mb(self, benchmark_corpus):
        # A list of SessionEvent tuples for the desk log holds about 28 MB.
        config = benchmark_config(42).synth
        tracemalloc.start()
        try:
            log = generate_sessions(benchmark_corpus, config)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log) == 160_991
        assert live < 5 * 2**20
        assert peak < 5 * 2**20


class TestRawDraws:
    """``_RawDraws`` against the ``Generator`` calls it replicates, draw by draw."""

    # 2**31 + 1 rejects about half its 32-bit draws, driving Lemire's rejection
    # loop; 2**32 - 2 is the largest bound on the 32-bit path.
    BOUNDS = (1, 2, 3, 250, 2**31 + 1, 2**32 - 2)

    @pytest.mark.parametrize("seed", range(12))
    def test_interleaved_calls_match_generator(self, seed):
        plan = random.Random(seed)
        rng = np.random.default_rng(seed)
        draws = _RawDraws(np.random.default_rng(seed).bit_generator)
        for _ in range(400):
            kind = plan.randrange(3)
            if kind == 0:
                assert draws.random() == rng.random()
            elif kind == 1:
                n = plan.choice(self.BOUNDS)
                assert draws.integers(n) == rng.integers(0, n)
            else:
                n = plan.choice((1, 2, 3, 4, 6, 31, plan.randint(1, 10_000), 10_000))
                k = plan.choice((1, n, plan.randint(1, n)))
                assert draws.choice(n, k) == rng.choice(n, size=k, replace=False).tolist()


class TestReplicatedPathBounds:
    def test_topic_pool_above_floyd_path_is_config_error(self):
        small_config(topics_per_cluster=10_000).validate()
        with pytest.raises(ConfigError, match="topics_per_cluster"):
            small_config(topics_per_cluster=10_001).validate()

    def test_article_count_past_32_bit_lemire_is_config_error(self):
        small_config(n_articles=2**32 - 2).validate()
        with pytest.raises(ConfigError, match="n_articles"):
            small_config(n_articles=2**32 - 1).validate()


class TestWeightValidation:
    @pytest.mark.parametrize(
        "clicks_dist",
        [(-1, 1, 1), (0, 0, 0), (float("nan"), 1, 1), (float("inf"), 1, 1),
         (1e308, 1e308, 0), (0.5, 0.5), (0.25, 0.25, 0.25, 0.25)],
    )
    def test_bad_clicks_dist_is_config_error(self, clicks_dist):
        with pytest.raises(ConfigError, match="clicks_dist"):
            small_config(clicks_dist=clicks_dist).validate()

    @pytest.mark.parametrize(
        "weights",
        [(-1, 1, 1, 1), (float("nan"), 1), (1, float("inf")), (1e308, 1e308)],
    )
    def test_bad_query_size_weights_is_config_error(self, weights):
        with pytest.raises(ConfigError, match="query_size_weights"):
            small_config(query_size_weights=weights).validate()

    @pytest.mark.parametrize(
        "overrides",
        [dict(clicks_dist=(0, 0, 1)), dict(query_size_weights=(0, 0, 0, 0)),
         dict(query_size_weights=())],
    )
    def test_zero_entries_and_zero_size_sum_are_valid(self, overrides):
        small_config(**overrides).validate()

    def test_generators_validate_weights(self):
        with pytest.raises(ConfigError):
            generate_corpus(small_config(clicks_dist=(0, 0, 0)))
        corpus = generate_corpus(small_config())
        with pytest.raises(ConfigError):
            generate_sessions(corpus, small_config(query_size_weights=(-1, 1)))


class TestPowerLawShrinkage:
    def test_dataset_volume_shrinks_as_min_clicks_rises(self, benchmark_result):
        from coclick.dataset import BuildConfig, build_examples
        from coclick.logs import read_aggregates, read_metadata

        with open(benchmark_result.paths["aggregates"], encoding="utf-8") as fh:
            aggregates = read_aggregates(fh)
        with open(benchmark_result.paths["articles"], encoding="utf-8") as fh:
            articles = read_metadata(fh)
        sizes = []
        for min_clicks in (20, 50, 100):
            config = BuildConfig(gold_threshold=0.11, min_clicks=min_clicks)
            examples, _ = build_examples(aggregates, articles, config)
            sizes.append(len(examples))
        assert sizes[0] > sizes[1] > sizes[2]


class TestPlantedGoldRecovery:
    def test_top_decile_jaccard_against_builder_gold(self, benchmark_result, benchmark_corpus):
        with open(benchmark_result.paths["test"], encoding="utf-8") as fh:
            examples = load_dataset(fh)
        with open(benchmark_result.paths["train"], encoding="utf-8") as fh:
            examples += load_dataset(fh)
        examples.sort(key=lambda e: -e.combined_clicks)
        decile = examples[: max(1, len(examples) // 10)]
        scores = []
        for ex in decile:
            planted = benchmark_corpus.planted_gold(ex.seed_id, ex.similar_id)
            union = planted | ex.gold_tokens
            scores.append(len(planted & ex.gold_tokens) / len(union) if union else 1.0)
        assert sum(scores) / len(scores) >= 0.8
