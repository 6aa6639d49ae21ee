"""Metric definitions, aggregation, and stratification tests."""

import io
import random

import pytest

from coclick.base import CoclickError, DatasetError
from coclick.dataset import PairExample, TokenClickCounts, lower_tokens
from coclick.evaluate import (
    aggregate,
    evaluate_predictions,
    f1_score,
    load_pair_scores,
    metrics_rows,
    stratify_by_clicks,
    stratify_by_similarity,
    title_metrics,
    token_metrics,
    write_metrics_csv,
)


def make_example(similar_title="alpha beta gamma", gold=("alpha",), clicks=30, pair=("S1", "T1")):
    tokens = lower_tokens(similar_title)
    return PairExample(
        seed_id=pair[0],
        similar_id=pair[1],
        seed_title="seed title",
        seed_abstract="",
        similar_title=similar_title,
        gold_tokens=set(gold),
        token_counts=TokenClickCounts({t: 1 for t in tokens}),
        combined_clicks=clicks,
    )


class TestTokenMetrics:
    def test_set_arithmetic(self):
        r, p = token_metrics({"a", "b", "c"}, {"b", "c", "d"})
        assert r == pytest.approx(2 / 3)
        assert p == pytest.approx(2 / 3)
        assert f1_score(r, p) == pytest.approx(2 / 3)

    def test_predicting_all_title_tokens_gives_full_recall(self):
        title = {"a", "b", "c", "d", "e"}
        r, _ = token_metrics({"a", "c"}, title)
        assert r == 1.0

    def test_exact_prediction(self):
        assert token_metrics({"x"}, {"x"}) == (1.0, 1.0)

    def test_empty_pred_nonempty_gold(self):
        assert token_metrics({"x"}, set()) == (0.0, 0.0)

    def test_empty_gold_empty_pred(self):
        assert token_metrics(set(), set()) == (1.0, 1.0)

    def test_empty_gold_nonempty_pred_excluded(self):
        assert token_metrics(set(), {"x"}) is None


class TestTitleMetrics:
    def test_duplicate_positions_counted(self):
        tokens = lower_tokens("dose response dose curve")
        r, p = title_metrics(tokens, {"dose", "curve"}, {"dose"})
        assert r == pytest.approx(2 / 3)
        assert p == 1.0

    def test_equal_to_token_metrics_without_duplicates(self):
        rng = random.Random(19)
        vocab = [f"w{i}" for i in range(30)]
        for _ in range(300):
            words = rng.sample(vocab, rng.randint(1, 10))
            tokens = lower_tokens(" ".join(words))
            gold = {w for w in words if rng.random() < 0.4}
            pred = {w for w in words if rng.random() < 0.4}
            assert title_metrics(tokens, gold, pred) == token_metrics(gold, pred)

    def test_pred_token_absent_contributes_nothing(self):
        tokens = lower_tokens("a b c")
        r, p = title_metrics(tokens, {"a"}, {"a", "zzz"})
        assert (r, p) == (1.0, 1.0)


class TestAggregate:
    def test_mean_of_two(self):
        m = aggregate([(1.0, 1.0), (0.0, 0.0)], [2, 0])
        assert (m.recall, m.precision) == (0.5, 0.5)
        assert m.avg_pred_len == 1.0

    def test_single_instance_identity(self):
        m = aggregate([(0.25, 0.75)], [3])
        assert (m.recall, m.precision, m.n_instances) == (0.25, 0.75, 1)

    def test_permutation_invariant(self):
        rng = random.Random(43)
        rates = [(rng.random(), rng.random()) for _ in range(500)]
        sizes = [rng.randint(0, 9) for _ in range(500)]
        base = aggregate(rates, sizes)
        for _ in range(5):
            order = list(range(500))
            rng.shuffle(order)
            m = aggregate([rates[i] for i in order], [sizes[i] for i in order])
            assert m == base

    def test_f1_is_harmonic_mean_of_reported_rates(self):
        rng = random.Random(47)
        for _ in range(200):
            rates = [(rng.random(), rng.random()) for _ in range(rng.randint(1, 40))]
            m = aggregate(rates, [1] * len(rates))
            if m.recall + m.precision > 0:
                expected = 2 * m.recall * m.precision / (m.recall + m.precision)
                assert abs(m.f1 - expected) < 1e-12

    def test_empty_list_is_error(self):
        with pytest.raises(CoclickError):
            aggregate([], [])


class TestEvaluatePredictions:
    def test_macro_over_dataset(self):
        examples = [
            make_example("a b c", gold=("a", "b"), pair=("S1", "T1")),
            make_example("d e f", gold=("d",), pair=("S2", "T2")),
        ]
        preds = {("S1", "T1"): {"a"}, ("S2", "T2"): {"d", "e"}}
        m = evaluate_predictions(examples, preds, "token")
        assert m.recall == pytest.approx((0.5 + 1.0) / 2)
        assert m.precision == pytest.approx((1.0 + 0.5) / 2)
        assert m.avg_pred_len == pytest.approx(1.5)

    def test_micro_pools_counts(self):
        examples = [
            make_example("a b c", gold=("a", "b"), pair=("S1", "T1")),
            make_example("d e f", gold=("d",), pair=("S2", "T2")),
        ]
        preds = {("S1", "T1"): {"a"}, ("S2", "T2"): {"d", "e"}}
        m = evaluate_predictions(examples, preds, "token", micro=True)
        assert m.recall == pytest.approx(2 / 3)
        assert m.precision == pytest.approx(2 / 3)

    def test_uncovered_instances_skipped(self):
        examples = [make_example(pair=("S1", "T1")), make_example(pair=("S2", "T2"))]
        m = evaluate_predictions(examples, {("S1", "T1"): {"alpha"}}, "token")
        assert m.n_instances == 1

    def test_title_granularity_counts_duplicates(self):
        ex = make_example("dose response dose curve", gold=("dose", "curve"))
        preds = {ex.pair_key: {"dose"}}
        m = evaluate_predictions([ex], preds, "title")
        assert m.recall == pytest.approx(2 / 3)
        assert m.precision == 1.0


class TestClickStrata:
    def _examples(self, n):
        return [
            make_example(clicks=1000 - i, pair=(f"S{i:05d}", f"T{i:05d}"))
            for i in range(n)
        ]

    def test_sizes_on_3000(self):
        strata = stratify_by_clicks(self._examples(3000))
        sizes = {s.name: len(s.pair_keys) for s in strata}
        assert sizes == {
            "top_0.1pct": 3,
            "top_third": 1000,
            "middle_third": 1000,
            "bottom_third": 1000,
        }

    def test_thirds_partition(self):
        examples = self._examples(100)
        strata = {s.name: s for s in stratify_by_clicks(examples)}
        thirds = (
            strata["top_third"].pair_keys
            + strata["middle_third"].pair_keys
            + strata["bottom_third"].pair_keys
        )
        assert sorted(thirds) == sorted(e.pair_key for e in examples)
        assert len(set(thirds)) == len(thirds)

    def test_equal_clicks_ordered_by_pair_id(self):
        examples = [make_example(clicks=5, pair=(f"S{i}", "T")) for i in range(9)]
        strata = {s.name: s for s in stratify_by_clicks(examples)}
        assert strata["top_third"].pair_keys == [("S0", "T"), ("S1", "T"), ("S2", "T")]

    def test_top_stratum_minimum_one(self):
        strata = {s.name: s for s in stratify_by_clicks(self._examples(10))}
        assert len(strata["top_0.1pct"].pair_keys) == 1


class TestSimilarityStrata:
    def test_quintiles_of_100(self):
        examples = [make_example(pair=(f"S{i:03d}", "T")) for i in range(100)]
        scores = {e.pair_key: i / 100 for i, e in enumerate(examples)}
        strata, excluded = stratify_by_similarity(examples, scores)
        assert excluded == 0
        assert [len(s.pair_keys) for s in strata] == [20, 20, 20, 20, 20]
        union = [k for s in strata for k in s.pair_keys]
        assert sorted(union) == sorted(e.pair_key for e in examples)

    def test_identical_scores_id_ordered(self):
        examples = [make_example(pair=(f"S{i}", "T")) for i in range(10)]
        scores = {e.pair_key: 0.5 for e in examples}
        strata, _ = stratify_by_similarity(examples, scores)
        assert strata[0].pair_keys == [("S0", "T"), ("S1", "T")]

    def test_missing_scores_excluded_with_tally(self):
        examples = [make_example(pair=(f"S{i}", "T")) for i in range(10)]
        scores = {e.pair_key: 1.0 for e in examples[:7]}
        strata, excluded = stratify_by_similarity(examples, scores)
        assert excluded == 3
        assert sum(len(s.pair_keys) for s in strata) == 7

    def test_load_pair_scores(self):
        fh = io.StringIO('{"seed_id": "S", "similar_id": "T", "score": 0.25}\n')
        assert load_pair_scores(fh) == {("S", "T"): 0.25}

    @pytest.mark.parametrize(
        "record",
        [
            '{"seed_id": "S", "similar_id": "U", "score": true}',
            '{"seed_id": "S", "similar_id": "U", "score": "0.5"}',
            '{"seed_id": 1, "similar_id": 2, "score": 0.5}',
            '{"seed_id": "S", "similar_id": "U", "score": 1' + "0" * 400 + "}",
        ],
        ids=["bool_score", "string_score", "integer_ids", "score_too_large_for_a_float"],
    )
    def test_bad_record_fatal_with_line_number(self, record):
        good = '{"seed_id": "S", "similar_id": "T", "score": 0.25}'
        with pytest.raises(DatasetError, match="line 2"):
            load_pair_scores(io.StringIO(good + "\n" + record + "\n"))

    def test_repeated_pair_fatal_naming_both_lines(self):
        # A second score for a pair used to replace the first without a word.
        fh = io.StringIO(
            '{"seed_id": "S", "similar_id": "T", "score": 0.1}\n'
            "\n"
            '{"seed_id": "S", "similar_id": "T", "score": 0.9}\n'
        )
        with pytest.raises(DatasetError, match=r"line 3, first at line 1"):
            load_pair_scores(fh)

    def test_non_finite_scores_load_and_are_excluded(self):
        fh = io.StringIO(
            '{"seed_id": "S0", "similar_id": "T", "score": NaN}\n'
            '{"seed_id": "S1", "similar_id": "T", "score": Infinity}\n'
            '{"seed_id": "S2", "similar_id": "T", "score": 3}\n'
        )
        scores = load_pair_scores(fh)
        assert scores[("S1", "T")] == float("inf") and scores[("S2", "T")] == 3.0
        examples = [make_example(pair=(f"S{i}", "T")) for i in range(3)]
        strata, excluded = stratify_by_similarity(examples, scores)
        assert excluded == 2
        assert [k for s in strata for k in s.pair_keys] == [("S2", "T")]


class TestMetricsReport:
    def test_csv_shape(self):
        examples = [make_example(pair=(f"S{i}", "T"), clicks=10 + i) for i in range(6)]
        preds = {e.pair_key: {"alpha"} for e in examples}
        rows = metrics_rows("demo", examples, preds, strata=stratify_by_clicks(examples))
        buf = io.StringIO()
        write_metrics_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "model,granularity,stratum,R,P,F1,L,N"
        # 2 granularities x (all + 4 strata)
        assert len(lines) == 1 + 2 * 5
        assert lines[1].startswith("demo,token,all,100.00,")


class TestEvaluateEdges:
    def test_no_covered_instances_is_error(self):
        examples = [make_example(pair=("S1", "T1"))]
        with pytest.raises(CoclickError):
            evaluate_predictions(examples, {}, "token")

    def test_bad_granularity_rejected(self):
        with pytest.raises(ValueError):
            evaluate_predictions([make_example()], {}, "paragraph")
