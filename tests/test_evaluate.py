"""Metric definitions, aggregation, and stratification tests."""

import io
import logging
import random

import pytest

import coclick.evaluate
import oracle_evaluate
from coclick.base import CoclickError, DatasetError
from coclick.dataset import PairExample, TokenClickCounts, lower_tokens
from coclick.evaluate import (
    InstanceCounts,
    count_instances,
    evaluate_predictions,
    f1_score,
    load_pair_scores,
    metrics_rows,
    stratify_by_clicks,
    stratify_by_similarity,
    summarize,
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


def instance_rates(gold, pred, title="a b c d e", granularity="token"):
    """(recall, precision) of one example, or None when it is excluded."""
    ex = make_example(title, gold=gold)
    (counts,) = count_instances([ex], {ex.pair_key: set(pred)}, granularity)
    if counts is None:
        return None
    m = summarize([counts])
    return (m.recall, m.precision)


def random_counts(rng, n):
    """``n`` counts as ``count_instances`` makes them: empty gold only with an empty prediction."""
    counts = []
    for _ in range(n):
        n_gold = rng.randint(0, 9)
        n_pred = rng.randint(0, 9) if n_gold else 0
        counts.append(InstanceCounts(rng.randint(0, min(n_gold, n_pred)), n_gold, n_pred))
    return counts


class TestTokenMetrics:
    def test_set_arithmetic(self):
        ex = make_example("a b c d", gold=("a", "b", "c"))
        assert count_instances([ex], {ex.pair_key: {"b", "c", "d"}}) == [InstanceCounts(2, 3, 3)]
        r, p = instance_rates({"a", "b", "c"}, {"b", "c", "d"})
        assert r == pytest.approx(2 / 3)
        assert p == pytest.approx(2 / 3)
        assert f1_score(r, p) == pytest.approx(2 / 3)

    def test_predicting_all_title_tokens_gives_full_recall(self):
        title = {"a", "b", "c", "d", "e"}
        r, _ = instance_rates({"a", "c"}, title)
        assert r == 1.0

    def test_exact_prediction(self):
        assert instance_rates({"x"}, {"x"}) == (1.0, 1.0)

    def test_empty_pred_nonempty_gold(self):
        assert instance_rates({"x"}, set()) == (0.0, 0.0)

    def test_empty_gold_empty_pred(self):
        assert instance_rates(set(), set()) == (1.0, 1.0)

    def test_empty_gold_nonempty_pred_excluded(self):
        assert instance_rates(set(), {"x"}) is None

    def test_one_entry_per_example_in_dataset_order(self):
        examples = [make_example(pair=(f"S{i}", "T")) for i in range(4)]
        preds = {examples[1].pair_key: {"alpha"}, examples[3].pair_key: {"beta"}}
        assert count_instances(examples, preds) == [
            None, InstanceCounts(1, 1, 1), None, InstanceCounts(0, 1, 1),
        ]


class TestTitleMetrics:
    def test_duplicate_positions_counted(self):
        r, p = instance_rates({"dose", "curve"}, {"dose"}, "dose response dose curve", "title")
        assert r == pytest.approx(2 / 3)
        assert p == 1.0

    def test_equal_to_token_metrics_without_duplicates(self):
        rng = random.Random(19)
        vocab = [f"w{i}" for i in range(30)]
        examples, preds = [], {}
        for i in range(300):
            words = rng.sample(vocab, rng.randint(1, 10))
            gold = {w for w in words if rng.random() < 0.4}
            ex = make_example(" ".join(words), gold=gold, pair=(f"S{i}", "T"))
            examples.append(ex)
            preds[ex.pair_key] = {w for w in words if rng.random() < 0.4}
        token = count_instances(examples, preds, "token")
        assert count_instances(examples, preds, "title") == token
        assert None in token  # empty gold with a prediction is excluded at both granularities
        assert summarize(count_instances(examples, preds, "title")) == summarize(token)

    def test_pred_token_absent_contributes_nothing(self):
        assert instance_rates({"a"}, {"a", "zzz"}, "a b c", "title") == (1.0, 1.0)


class TestAggregate:
    def test_mean_of_two(self):
        m = summarize([InstanceCounts(2, 2, 2), InstanceCounts(0, 1, 0)])
        assert (m.recall, m.precision) == (0.5, 0.5)
        assert m.avg_pred_len == 1.0

    def test_single_instance_identity(self):
        m = summarize([InstanceCounts(3, 12, 4)])
        assert (m.recall, m.precision, m.n_instances) == (0.25, 0.75, 1)

    def test_none_entries_skipped(self):
        counts = random_counts(random.Random(41), 50)
        assert summarize([None, *counts[:25], None, *counts[25:]]) == summarize(counts)

    def test_permutation_invariant(self):
        rng = random.Random(43)
        counts = random_counts(rng, 500)
        for micro in (False, True):
            base = summarize(counts, micro)
            for _ in range(5):
                assert summarize(rng.sample(counts, len(counts)), micro) == base

    def test_f1_is_harmonic_mean_of_reported_rates(self):
        rng = random.Random(47)
        for _ in range(200):
            m = summarize(random_counts(rng, rng.randint(1, 40)), rng.random() < 0.5)
            if m.recall + m.precision > 0:
                expected = 2 * m.recall * m.precision / (m.recall + m.precision)
                assert abs(m.f1 - expected) < 1e-12

    def test_empty_list_is_error(self):
        for counts in ([], [None, None]):
            with pytest.raises(CoclickError):
                summarize(counts)


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

    def test_each_instance_counted_once_per_granularity(self, monkeypatch):
        calls = []
        real = coclick.evaluate.count_instances
        monkeypatch.setattr(
            coclick.evaluate, "count_instances", lambda *args: calls.append(args[2]) or real(*args)
        )
        examples = [make_example(pair=(f"S{i}", "T"), clicks=10 + i) for i in range(6)]
        preds = {e.pair_key: {"alpha"} for e in examples}
        rows = metrics_rows("demo", examples, preds, strata=stratify_by_clicks(examples))
        assert len(rows) == 10 and calls == ["token", "title"]

    def test_each_skip_tally_logged_once_per_call(self, caplog):
        examples = [make_example(pair=(f"S{i}", "T"), clicks=10 + i) for i in range(4)]
        preds = {e.pair_key: {"alpha"} for e in examples[1:]}  # one uncovered pair

        def skip_lines():
            return [r.getMessage() for r in caplog.records if r.getMessage().startswith("evaluation ")]

        with caplog.at_level(logging.WARNING, logger="coclick"):
            metrics_rows("demo", examples, preds, strata=stratify_by_clicks(examples))
            assert skip_lines() == ["evaluation skipped 1 instances without predictions"]
            caplog.clear()
            evaluate_predictions(examples, preds, "title")
            assert skip_lines() == ["evaluation skipped 1 instances without predictions"]
            # Empty gold with a prediction outside the title: excluded at token
            # granularity only, so the two granularities' tallies differ.
            caplog.clear()
            extra = make_example(gold=(), pair=("S9", "T"))
            metrics_rows("demo", examples + [extra], {**preds, extra.pair_key: {"zzz"}})
            assert skip_lines() == [
                "evaluation skipped 1 instances without predictions",
                "evaluation excluded 1 instances with empty gold and non-empty predictions",
            ]

    def test_stratum_without_scored_instance_gets_no_row(self, caplog):
        examples = [make_example(pair=(f"S{i}", "T"), clicks=30 + i) for i in range(9)]
        preds = {e.pair_key: {"alpha"} for e in examples[:-1]}  # the top-click pair is uncovered
        with caplog.at_level(logging.WARNING, logger="coclick"):
            rows = metrics_rows("demo", examples, preds, strata=stratify_by_clicks(examples))
        grains, strata = ("token", "title"), ("all", "top_third", "middle_third", "bottom_third")
        assert [(r.granularity, r.stratum) for r in rows] == [(g, s) for g in grains for s in strata]
        named = [r.getMessage() for r in caplog.records if "top_0.1pct" in r.getMessage()]
        assert named == [f"no demo {g} row for stratum top_0.1pct: it has no scored instance" for g in grains]
        with pytest.raises(CoclickError):
            metrics_rows("demo", examples, {}, strata=stratify_by_clicks(examples))


class TestEvaluateEdges:
    def test_no_covered_instances_is_error(self):
        examples = [make_example(pair=("S1", "T1"))]
        with pytest.raises(CoclickError):
            evaluate_predictions(examples, {}, "token")

    def test_bad_granularity_rejected(self):
        with pytest.raises(ValueError):
            evaluate_predictions([make_example()], {}, "paragraph")


def fuzz_case(rng):
    """A small dataset with repeated title tokens, predicted tokens outside
    the title, uncovered pairs, empty-gold pairs and partial pair scores."""
    vocab = [f"w{i}" for i in range(10)]
    examples, predictions, scores = [], {}, {}
    for i in range(rng.randint(1, 30)):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        unique = sorted(set(words))
        gold = set() if rng.random() < 0.15 else {w for w in unique if rng.random() < 0.4}
        clicks = rng.randint(20, 40)
        ex = make_example(" ".join(words), gold=gold, clicks=clicks, pair=(f"S{i:02d}", "T"))
        examples.append(ex)
        if rng.random() < 0.2:
            continue
        pred = {w for w in unique if rng.random() < 0.4}
        if rng.random() < 0.3:
            pred.add(f"x{rng.randint(0, 2)}")
        predictions[ex.pair_key] = pred
        if rng.random() < 0.8:
            scores[ex.pair_key] = rng.choice([rng.random(), 0.5, float("nan")])
    return examples, predictions, scores


def rows_or_none(metrics_rows_fn, *args):
    try:
        return metrics_rows_fn("m", *args)
    except CoclickError:
        return None


def reference_rows_without_unscored_strata(examples, predictions, granularities, strata, micro):
    """The reference's rows with each stratum scored on its own, leaving out
    a stratum it raises on; None when the ``all`` row has no scored instance."""
    reference = oracle_evaluate.metrics_rows
    rows = []
    for g in granularities:
        overall = rows_or_none(reference, examples, predictions, [g], None, micro)
        if overall is None:
            return None
        rows += overall
        for stratum in strata or []:
            both = rows_or_none(reference, examples, predictions, [g], [stratum], micro)
            rows += (both or overall)[1:]
    return rows


class TestOracleFuzz:
    def test_metrics_rows_match_the_reference(self):
        """Every row equals the per-stratum re-scoring of ``oracle_evaluate``.

        Where the reference raises because a stratum has no scored instance,
        the rows equal its rows for the other strata.
        """
        rng = random.Random(2024)
        exact = skipped = 0
        for _ in range(300):
            examples, predictions, scores = fuzz_case(rng)
            similarity, _ = stratify_by_similarity(examples, scores)
            for strata in (None, stratify_by_clicks(examples), similarity):
                for granularities in (("token",), ("title",), ("token", "title")):
                    for micro in (False, True):
                        args = (examples, predictions, granularities, strata, micro)
                        got = rows_or_none(metrics_rows, *args)
                        want = rows_or_none(oracle_evaluate.metrics_rows, *args)
                        if want is not None:
                            exact += 1
                        else:
                            want = reference_rows_without_unscored_strata(*args)
                            skipped += want is not None
                        assert got == want
        assert exact > 1000 and skipped > 50
