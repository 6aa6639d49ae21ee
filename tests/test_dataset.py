"""Dataset builder tests: counting, gold selection, filters, splits, idf, IO."""

import io
import json
import math
import random
from collections import Counter

import pytest

import coclick.dataset
from coclick.base import DatasetError, LabelingError
from coclick.dataset import (
    BuildConfig,
    PairExample,
    TokenClickCounts,
    build_examples,
    count_title_token_clicks,
    filter_pair,
    load_dataset,
    lower_tokens,
    select_gold_tokens,
    split_dataset,
    write_dataset,
)
from coclick.evaluate import metrics_rows, stratify_by_clicks
from coclick.explain import predict_dataset
from coclick.logs import Article, PairAggregate, aggregate_sharded, read_metadata
from coclick.pipeline import default_backends
from coclick.report import corpus_stats, render_case
from coclick.scoring import compute_idf, max_scaled_softmax
from coclick.tagger import TokenTagger

from oracle_builder import oracle_build


def make_example(**overrides):
    fields = dict(
        seed_id="S1",
        similar_id="T1",
        seed_title="alpha beta theta iota kappa lam mu",
        seed_abstract="alpha beta filler words here",
        similar_title="alpha beta gamma delta eps zeta eta",
        gold_tokens={"alpha", "beta"},
        token_counts=TokenClickCounts({"alpha": 20, "beta": 12, "gamma": 8, "delta": 0, "eps": 0, "zeta": 0, "eta": 0}),
        combined_clicks=25,
    )
    fields.update(overrides)
    return PairExample(**fields)


def dataset_line(**overrides):
    """One dataset JSON line (title "a b c", gold "a"), with fields overridden."""
    record = {
        "seed_id": "S", "similar_id": "T", "seed_title": "x", "seed_abstract": "",
        "similar_title": "a b c", "token_counts": {"a": 3, "b": 0, "c": 0},
        "combined_clicks": 5, "gold_tokens": ["a"],
    }
    record.update(overrides)
    return json.dumps(record) + "\n"


# The texts of a row that have a token view ``<text>_tokens``.
VIEWS = ("seed_title", "seed_abstract", "similar_title")


class TestCountTitleTokenClicks:
    def test_hand_summed_counts(self):
        agg = PairAggregate("S", "T", {"covid-19 vaccine": 8, "vaccine": 4})
        tokens = lower_tokens("Covid-19 vaccine safety")
        counts = count_title_token_clicks(agg, tokens)
        assert counts.counts == {"covid-19": 8, "vaccine": 12, "safety": 0}

    def test_disjoint_query_gives_zeros(self):
        agg = PairAggregate("S", "T", {"unrelated terms": 9})
        counts = count_title_token_clicks(agg, lower_tokens("alpha beta gamma"))
        assert counts.counts == {"alpha": 0, "beta": 0, "gamma": 0}
        assert counts.total == 0

    def test_duplicate_title_token_single_key(self):
        agg = PairAggregate("S", "T", {"dose": 5})
        counts = count_title_token_clicks(agg, lower_tokens("dose response dose"))
        assert counts.counts == {"dose": 5, "response": 0}

    def test_query_token_matched_once_per_query(self):
        # "dose dose" contains the token twice but contributes its count once
        agg = PairAggregate("S", "T", {"dose dose": 3})
        counts = count_title_token_clicks(agg, lower_tokens("dose curve"))
        assert counts.counts["dose"] == 3


class TestSelectGoldTokens:
    def test_hand_computed_softmax_example(self):
        # scaled counts [1.0, 0.5, 0.0]; softmax recomputed here from scratch
        exps = [math.exp(1.0), math.exp(0.5), math.exp(0.0)]
        total = sum(exps)
        scores = [e / total for e in exps]
        assert abs(scores[0] - 0.5065) < 2e-4
        assert abs(scores[1] - 0.3072) < 2e-4
        assert abs(scores[2] - 0.1863) < 2e-4
        counts = TokenClickCounts({"covid": 8, "vaccine": 4, "the": 0})
        # cap disabled: with 3 unique tokens a 0.4 cap would floor to 1
        assert select_gold_tokens(counts, p=0.30, cap_fraction=1.0) == {"covid", "vaccine"}

    def test_uniform_counts_all_pass_then_cap(self):
        counts = TokenClickCounts({f"t{i}": 7 for i in range(10)})
        gold = select_gold_tokens(counts, p=0.05, cap_fraction=0.40)
        # all 10 pass at p <= 1/10; cap keeps floor(0.4 * 10) = 4, earliest first
        assert gold == {"t0", "t1", "t2", "t3"}

    def test_cap_keeps_top_four_of_ten(self):
        counts = TokenClickCounts(
            {**{f"hi{i}": 100 for i in range(7)}, **{f"lo{i}": 0 for i in range(3)}}
        )
        scores = max_scaled_softmax([100.0] * 7 + [0.0] * 3)
        assert sum(s >= 0.12 for s in scores) == 7
        gold = select_gold_tokens(counts, p=0.12, cap_fraction=0.40)
        assert len(gold) == 4
        assert gold == {"hi0", "hi1", "hi2", "hi3"}

    def test_zero_total_is_labeling_error(self):
        with pytest.raises(LabelingError):
            select_gold_tokens(TokenClickCounts({"a": 0, "b": 0}))

    def test_scores_sum_to_one(self):
        rng = random.Random(23)
        for _ in range(200):
            values = [float(rng.randint(0, 5000)) for _ in range(rng.randint(1, 30))]
            assert abs(sum(max_scaled_softmax(values)) - 1.0) < 1e-9

    def test_gold_scores_dominate_or_capped(self):
        rng = random.Random(29)
        for _ in range(200):
            n = rng.randint(3, 20)
            counts = TokenClickCounts({f"t{i}": rng.randint(0, 900) for i in range(n)})
            if counts.total == 0:
                continue
            p = rng.uniform(0.02, 0.4)
            gold = select_gold_tokens(counts, p=p)
            scores = dict(zip(counts.counts, max_scaled_softmax(list(map(float, counts.counts.values())))))
            capped = len(gold) == int(0.4 * n)
            if not gold or capped:
                continue
            min_gold = min(scores[t] for t in gold)
            max_other = max((scores[t] for t in counts.counts if t not in gold), default=0.0)
            assert min_gold >= max_other


class TestFilterPair:
    def test_nineteen_clicks_dropped(self):
        ex = make_example(combined_clicks=19)
        assert filter_pair(19, ex.similar_title_tokens, ex.token_counts) == "min_clicks"

    def test_six_token_title_dropped(self):
        tokens = lower_tokens("one two three four five six")
        counts = TokenClickCounts({t: 1 for t in tokens})
        assert filter_pair(50, tokens, counts) == "min_title_len"

    def test_two_nonzero_tokens_dropped(self):
        tokens = lower_tokens("a b c d e f g")
        counts = TokenClickCounts({"a": 5, "b": 3, "c": 0, "d": 0, "e": 0, "f": 0, "g": 0})
        assert filter_pair(50, tokens, counts) == "min_nonzero"

    def test_passing_candidate_kept(self):
        ex = make_example()
        assert filter_pair(25, ex.similar_title_tokens, ex.token_counts) is None

    def test_fuzzed_kept_rows_satisfy_all_bounds(self):
        rng = random.Random(31)
        for _ in range(1000):
            n = rng.randint(1, 15)
            tokens = lower_tokens(" ".join(f"w{i}" for i in range(n)))
            counts = TokenClickCounts({t: rng.randint(0, 4) for t in tokens})
            clicks = rng.randint(0, 60)
            reason = filter_pair(clicks, tokens, counts)
            if reason is None:
                assert clicks >= 20
                assert len(tokens) >= 7
                assert counts.nonzero() >= 3


class TestComputeIdf:
    def test_hand_computed_value(self):
        table = compute_idf([["a", "b"], ["b", "c"], ["c", "d"]])
        # N=3, df(a)=1: ln(1 + 2.5/1.5)
        assert abs(table.idf("a") - 0.9808292530117259) < 1e-9

    def test_token_in_every_document_stays_positive(self):
        table = compute_idf([["x"], ["x"], ["x"]])
        assert table.idf("x") == pytest.approx(math.log(1 + 0.5 / 3.5))
        assert table.idf("x") > 0

    def test_unseen_token(self):
        table = compute_idf([["x"], ["y"], ["z"]])
        assert table.idf("unseen") == pytest.approx(math.log(1 + 3.5 / 0.5))


class TestSplitDataset:
    def _examples(self, n, seeds=None):
        out = []
        for i in range(n):
            seed = seeds[i] if seeds else f"S{i}"
            out.append(make_example(seed_id=seed, similar_id=f"T{i}"))
        return out

    def test_exact_sizes_with_singleton_groups(self):
        splits = split_dataset(self._examples(100), (0.8, 0.1, 0.1), rng_seed=4)
        assert {k: len(v) for k, v in splits.items()} == {"train": 80, "dev": 10, "test": 10}

    def test_deterministic_for_same_seed(self):
        examples = self._examples(60)
        a = split_dataset(examples, (0.8, 0.1, 0.1), rng_seed=7)
        b = split_dataset(examples, (0.8, 0.1, 0.1), rng_seed=7)
        for name in ("train", "dev", "test"):
            assert [e.pair_key for e in a[name]] == [e.pair_key for e in b[name]]

    def test_different_seed_changes_assignment(self):
        examples = self._examples(60)
        a = split_dataset(examples, (0.8, 0.1, 0.1), rng_seed=1)
        b = split_dataset(examples, (0.8, 0.1, 0.1), rng_seed=2)
        assert any(
            [e.pair_key for e in a[name]] != [e.pair_key for e in b[name]]
            for name in ("train", "dev", "test")
        )

    def test_partition_is_disjoint_and_exhaustive(self):
        examples = self._examples(57)
        splits = split_dataset(examples, (0.6, 0.2, 0.2), rng_seed=3)
        keys = [e.pair_key for part in splits.values() for e in part]
        assert sorted(keys) == sorted(e.pair_key for e in examples)

    def test_no_seed_leakage_across_splits(self):
        rng = random.Random(41)
        seeds = [f"S{rng.randint(0, 20)}" for _ in range(120)]
        splits = split_dataset(self._examples(120, seeds), (0.8, 0.1, 0.1), rng_seed=11)
        seen = {}
        for name, part in splits.items():
            for ex in part:
                assert seen.setdefault(ex.seed_id, name) == name


def synthetic_log_and_articles():
    """A small hand-built world: one strong pair, one under-clicked pair, noise."""
    articles = {
        "P1": ("alpha beta theta iota kappa lam mu", "some filler abstract about alpha"),
        "P2": ("alpha beta gamma delta eps zeta eta", "follow-up work on beta"),
        "P3": ("noise title lacking enough clicks here yes", ""),
        "P4": ("another noise title with weak signal too", ""),
    }
    lines = []
    ts = 0

    def click(session, query, rank, article):
        nonlocal ts
        ts += 1
        lines.append(f"{session}\t{ts}\t{query}\t{rank}\t{article}")

    queries = ["alpha beta"] * 12 + ["alpha gamma"] * 8 + ["zeta"] * 5
    for i, q in enumerate(queries):
        click(f"good{i}", q, 1, "P1")
        click(f"good{i}", q, 2, "P2")
    for i in range(5):
        click(f"weak{i}", "noise title", 1, "P3")
        click(f"weak{i}", "noise title", 2, "P4")
    click("solo", "alpha", 1, "P1")  # single click, no coclick
    lines.append("malformed row")
    click("ghost", "alpha beta", 1, "P1")
    click("ghost", "alpha beta", 2, "P9")  # P9 has no metadata
    return lines, articles


class TestBuilderAgainstOracle:
    def test_hand_built_log_field_identical(self):
        lines, raw_articles = synthetic_log_and_articles()
        config = BuildConfig(gold_threshold=0.15, min_clicks=20, min_title_len=7, min_nonzero=3)

        expected = oracle_build(
            lines, raw_articles, p=0.15, cap_fraction=0.40,
            min_clicks=20, min_title_len=7, min_nonzero=3,
        )
        got = self._run_builder(lines, raw_articles, config)
        assert got == expected
        # sanity: exactly the strong pair survives, labeled by hand-checkable margins
        assert len(got) == 1
        assert got[0]["seed_id"] == "P1"
        assert got[0]["gold_tokens"] == ["alpha", "beta"]
        assert got[0]["combined_clicks"] == 25
        assert got[0]["token_counts"] == {
            "alpha": 20, "beta": 12, "gamma": 8, "delta": 0, "eps": 0, "zeta": 5, "eta": 0,
        }

    def test_fuzzed_logs_field_identical(self):
        rng = random.Random(61)
        vocab = [f"tok{i}" for i in range(12)]
        for trial in range(15):
            articles = {}
            for i in range(6):
                title = " ".join(rng.choices(vocab, k=rng.randint(5, 9)))
                articles[f"P{i}"] = (title, "")
            lines = []
            ts = 0
            for s in range(rng.randint(5, 40)):
                query = " ".join(rng.sample(vocab, rng.randint(1, 3)))
                n_clicks = rng.randint(1, 3)
                ranks = rng.sample(range(1, 7), n_clicks)
                for r in ranks:
                    ts += 1
                    lines.append(f"s{s}\t{ts}\t{query}\t{r}\tP{rng.randint(0, 5)}")
            config = BuildConfig(
                gold_threshold=0.2, cap_fraction=0.40,
                min_clicks=2, min_title_len=5, min_nonzero=1,
            )
            expected = oracle_build(
                lines, articles, p=0.2, cap_fraction=0.40,
                min_clicks=2, min_title_len=5, min_nonzero=1,
            )
            got = self._run_builder(lines, articles, config)
            assert got == expected, f"trial {trial} diverged"

    @staticmethod
    def _run_builder(lines, raw_articles, config):
        aggregates = aggregate_sharded(lines)
        articles = {
            pid: Article(pid, title, abstract)
            for pid, (title, abstract) in raw_articles.items()
        }
        examples, _ = build_examples(aggregates, articles, config)
        buf = io.StringIO()
        write_dataset(examples, buf)
        import json

        return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestDatasetIO:
    def test_round_trip(self):
        examples = [make_example()]
        buf = io.StringIO()
        write_dataset(examples, buf)
        buf.seek(0)
        loaded = load_dataset(buf)
        assert len(loaded) == 1
        assert loaded[0].gold_tokens == {"alpha", "beta"}
        assert loaded[0].combined_clicks == 25
        assert loaded[0].similar_title_tokens == [
            "alpha", "beta", "gamma", "delta", "eps", "zeta", "eta",
        ]

    def test_gold_outside_title_rejected(self):
        row = (
            '{"seed_id": "S", "similar_id": "T", "seed_title": "x", "seed_abstract": "",'
            ' "similar_title": "a b c", "token_counts": {"a": 1}, "combined_clicks": 5,'
            ' "gold_tokens": ["zzz"]}'
        )
        with pytest.raises(DatasetError, match="zzz"):
            load_dataset(io.StringIO(row))

    def test_malformed_json_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset(io.StringIO("{not json"))

    def test_repeated_pair_fatal_naming_both_lines(self):
        text = dataset_line() + dataset_line(similar_id="U") + dataset_line(seed_title="other")
        with pytest.raises(DatasetError, match=r"duplicate .* line 3, first at line 1"):
            load_dataset(io.StringIO(text))

    def test_zero_token_counts_load(self):
        loaded = load_dataset(io.StringIO(dataset_line()))
        assert loaded[0].token_counts.counts == {"a": 3, "b": 0, "c": 0}

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"token_counts": {"a": 2.7}}, "2.7"),
            ({"token_counts": {"a": True}}, "True"),
            ({"token_counts": {"a": -5}}, "-5"),
            ({"token_counts": ["a"]}, "token_counts"),
            ({"combined_clicks": 3.9}, "combined_clicks"),
            ({"combined_clicks": -1}, "combined_clicks"),
            ({"seed_id": 7}, "seed_id"),
            ({"similar_title": None}, "similar_title"),
            ({"gold_tokens": "a"}, "gold_tokens"),
            ({"gold_tokens": ["a", 1]}, "gold_tokens"),
        ],
    )
    def test_bad_field_rejected_with_line_number(self, override, message):
        text = dataset_line() + dataset_line(similar_id="U", **override)
        with pytest.raises(DatasetError, match="line 2") as exc:
            load_dataset(io.StringIO(text))
        assert message in str(exc.value)


class TestEdgeCases:
    def test_bad_split_ratios_rejected(self):
        from coclick.base import ConfigError

        with pytest.raises(ConfigError):
            split_dataset([make_example()], (0.5, 0.3, 0.1), rng_seed=0)
        with pytest.raises(ConfigError):
            split_dataset([make_example()], (1.2, -0.1, -0.1), rng_seed=0)

    @pytest.mark.parametrize("ratios", [(1.0,), (0.5, 0.5), (0.5, 0.5, 0.0, 0.0), (math.nan, 0.5, 0.5)])
    def test_split_ratios_of_wrong_length_or_not_finite_rejected(self, ratios):
        from coclick.base import ConfigError

        with pytest.raises(ConfigError, match="split ratios"):
            split_dataset([make_example()], ratios, rng_seed=0)

    def test_counts_key_outside_title_rejected(self):
        row = (
            '{"seed_id": "S", "similar_id": "T", "seed_title": "x", "seed_abstract": "",'
            ' "similar_title": "a b c", "token_counts": {"zzz": 1}, "combined_clicks": 5,'
            ' "gold_tokens": ["a"]}'
        )
        with pytest.raises(DatasetError, match="token_counts"):
            load_dataset(io.StringIO(row))


@pytest.fixture
def tokenized(monkeypatch):
    """Count ``word_tokenize`` calls per text, through the name the dataset module calls."""
    calls = Counter()
    real = coclick.dataset.word_tokenize

    def counting(text):
        calls[text] += 1
        return real(text)

    monkeypatch.setattr(coclick.dataset, "word_tokenize", counting)
    return calls


class TestTokenizeOnce:
    def test_build_tokenizes_each_distinct_title_and_query_once(self, tokenized):
        titles = {
            "P1": "alpha beta gamma delta eps zeta eta",
            "P2": "alpha beta theta iota kappa lam mu",
            "P3": "beta gamma nu xi omicron pi rho",
        }
        articles = {pid: Article(pid, title, f"about {pid}") for pid, title in titles.items()}
        shared = {"alpha beta": 15, "Alpha gamma": 10}
        aggregates = {
            ("P1", "P2"): PairAggregate("P1", "P2", dict(shared)),
            ("P3", "P2"): PairAggregate("P3", "P2", {**shared, "beta": 4}),
            ("P2", "P1"): PairAggregate("P2", "P1", {**shared, "beta": 4}),
            ("P2", "P3"): PairAggregate("P2", "P3", {"beta": 1}),
        }
        examples, _ = build_examples(
            aggregates, articles, BuildConfig(gold_threshold=0.15, min_clicks=1, min_nonzero=1)
        )
        assert len(examples) >= 3
        queries = {q for agg in aggregates.values() for q in agg.query_counts}
        assert set(titles.values()) | queries <= set(tokenized)
        assert max(tokenized.values()) == 1

    def test_missing_article_outranks_min_clicks(self, tokenized):
        articles = {"P1": Article("P1", "alpha beta gamma delta eps zeta eta")}
        aggregates = {("P1", "P9"): PairAggregate("P1", "P9", {"alpha": 1})}
        examples, drops = build_examples(aggregates, articles, BuildConfig(min_clicks=20))
        assert examples == []
        assert drops == {"missing_article": 1}

    def test_pair_below_min_clicks_is_dropped_untokenized(self, tokenized):
        articles = {
            "P1": Article("P1", "alpha beta gamma delta eps zeta eta"),
            "P2": Article("P2", "alpha beta theta iota kappa lam mu"),
        }
        aggregates = {("P1", "P2"): PairAggregate("P1", "P2", {"alpha beta": 12, "theta": 7})}
        examples, drops = build_examples(aggregates, articles, BuildConfig(min_clicks=20))
        assert examples == []
        assert drops == {"min_clicks": 1}
        assert not tokenized

    def test_load_tokenizes_each_distinct_text_once_per_call(self, tokenized):
        seed = {"seed_id": "S", "seed_title": "x y", "seed_abstract": "a b c"}
        text = (
            dataset_line(**seed, similar_id="T")
            + dataset_line(**seed, similar_id="U")
            + dataset_line(**seed, similar_id="V", similar_title="c b a")
        )
        assert len(load_dataset(io.StringIO(text))) == 3
        assert tokenized == Counter({"x y": 1, "a b c": 1, "c b a": 1})
        load_dataset(io.StringIO(text))
        assert tokenized == Counter({"x y": 2, "a b c": 2, "c b a": 2})

    def test_rows_sharing_a_seed_share_one_token_list(self):
        seed = {"seed_id": "S", "seed_title": "X y", "seed_abstract": "A b-C"}
        text = dataset_line(**seed, similar_id="T") + dataset_line(**seed, similar_id="U")
        first, second = load_dataset(io.StringIO(text))
        assert first.seed_title_tokens is second.seed_title_tokens
        assert first.seed_abstract_tokens is second.seed_abstract_tokens
        assert first.similar_title_tokens is second.similar_title_tokens
        for ex in (first, second):
            for view in VIEWS:
                assert getattr(ex, f"{view}_tokens") == lower_tokens(getattr(ex, view))

    def test_rows_share_one_string_per_distinct_text_and_token(self):
        seed = {"seed_id": "S1", "seed_title": "Dose response", "seed_abstract": "Dose timing in adults"}
        lines = [
            dataset_line(
                **seed, similar_id="T1", similar_title="Vaccine dose response",
                token_counts={"vaccine": 3, "dose": 1, "response": 0}, gold_tokens=["vaccine"],
            ),
            dataset_line(
                **seed, similar_id="T2", similar_title="Vaccine timing in adults",
                token_counts={"vaccine": 2, "timing": 0, "in": 0, "adults": 0}, gold_tokens=["vaccine"],
            ),
        ]
        first, second = load_dataset(io.StringIO("".join(lines)))
        assert first.seed_id is second.seed_id
        assert first.seed_title is second.seed_title
        assert first.seed_abstract is second.seed_abstract
        assert next(iter(first.gold_tokens)) is next(iter(second.gold_tokens))
        for ex in (first, second):
            title = {token: token for token in ex.similar_title_tokens}
            assert all(token is title[token] for token in ex.gold_tokens)
            assert all(token is title[token] for token in ex.token_counts.counts)
        out = io.StringIO()
        write_dataset([first, second], out)
        assert out.getvalue() == "".join(lines)


def test_no_stage_mutates_a_shared_token_view(benchmark_result):
    """Rows that hold the same text share its token list, so every stage must only read the views."""
    paths = benchmark_result.paths
    splits = {}
    for name in ("train", "dev", "test"):
        with open(paths[name], encoding="utf-8") as fh:
            splits[name] = load_dataset(fh)
    with open(paths["articles"], encoding="utf-8") as fh:
        articles = read_metadata(fh)
    examples = [ex for rows in splits.values() for ex in rows]
    assert any(a.seed_title_tokens is b.seed_title_tokens for a, b in zip(examples, examples[1:]))
    snapshot = [[lower_tokens(getattr(ex, view)) for view in VIEWS] for ex in examples]

    tagger = TokenTagger(total_steps=40, eval_every=20).fit(splits["train"], splits["dev"])
    strata = stratify_by_clicks(examples)
    for backend in default_backends(articles, tagger):
        predictions, _ = predict_dataset(backend, examples)
        metrics_rows(backend.name, examples, predictions, strata=strata)
        for ex in examples:
            render_case(ex, {backend.name: predictions.get(ex.pair_key, set())})
    corpus_stats(examples)

    assert [[getattr(ex, f"{view}_tokens") for view in VIEWS] for ex in examples] == snapshot
