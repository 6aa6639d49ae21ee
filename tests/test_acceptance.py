"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import csv
import io
import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np

from coclick.dataset import (
    BuildConfig,
    TokenClickCounts,
    build_examples,
    filter_pair,
    load_dataset,
    lower_tokens,
    write_dataset,
)
from coclick.evaluate import (
    count_instances,
    evaluate_predictions,
    stratify_by_clicks,
    stratify_by_similarity,
    summarize,
)
from coclick.explain import Bm25, HighlightAll, predict_dataset
from coclick.logs import Article, aggregate_sharded
from coclick.pipeline import benchmark_config, run_pipeline
from coclick.scoring import IdfTable, compute_idf
from coclick.tagger import TokenTagger, loss_and_grad

from oracle_builder import oracle_build
from test_dataset import synthetic_log_and_articles
from test_evaluate import random_counts
from test_tagger import ablation_examples, make_example, separable_examples


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({name}): PASS")


def load_split(result, name):
    with open(result.paths[name], encoding="utf-8") as fh:
        return load_dataset(fh)


def test_criterion_1_highlight_all_law(benchmark_result):
    with criterion(1, "HighlightAll law"):
        examples = load_split(benchmark_result, "test")
        started = time.monotonic()
        predictions, _ = predict_dataset(HighlightAll(), examples)
        metrics = evaluate_predictions(examples, predictions, "token")
        elapsed = time.monotonic() - started
        assert metrics.recall * 100 == 100.0  # exact
        expected_precision = math.fsum(
            len(ex.gold_tokens) / len(list(dict.fromkeys(ex.similar_title_tokens))) for ex in examples
        ) / len(examples)
        assert abs(metrics.precision - expected_precision) < 1e-9
        assert elapsed < 1.0


def test_criterion_2_bm25_oracle():
    with criterion(2, "BM25 oracle"):
        corpus = [
            ["covid", "vaccine", "trial", "safety"],
            ["flu", "shot", "efficacy", "study", "results", "data"],
            ["heart", "disease", "risk", "factors", "blood", "pressure", "obesity", "diet"],
        ]
        backend = Bm25().fit(corpus)
        assert backend.avgdl_ == 6.0
        score = backend.score_tokens(make_example(" ".join(corpus[0]), "covid"))["covid"]
        assert abs(score - 1.0146509513914406) < 1e-9

        backend.idf_ = IdfTable(doc_count=200, doc_freq={"t": 5})
        backend.avgdl_ = 100.0
        sweep = []
        for tf in range(1, 101):
            doc = ["t"] * tf + [f"x{i}" for i in range(100 - tf)]
            sweep.append(backend.score_tokens(make_example(" ".join(doc), "t"))["t"])
        assert all(b > a for a, b in zip(sweep, sweep[1:]))


def test_criterion_3_builder_equivalence():
    with criterion(3, "builder equivalence vs brute-force oracle"):
        lines, raw_articles = synthetic_log_and_articles()
        assert sum(1 for l in lines if l.strip()) <= 100
        started = time.monotonic()
        expected = oracle_build(
            lines, raw_articles, p=0.15, cap_fraction=0.40,
            min_clicks=20, min_title_len=7, min_nonzero=3,
        )
        aggregates = aggregate_sharded(lines)
        articles = {
            pid: Article(pid, title, abstract)
            for pid, (title, abstract) in raw_articles.items()
        }
        examples, _ = build_examples(
            aggregates, articles, BuildConfig(gold_threshold=0.15)
        )
        buf = io.StringIO()
        write_dataset(examples, buf)
        got = [json.loads(line) for line in buf.getvalue().splitlines()]
        elapsed = time.monotonic() - started
        assert got == expected
        assert len(got) >= 1
        assert elapsed < 5.0


def test_criterion_4_filter_fuzz():
    with criterion(4, "filter fuzz on 10,000 candidates"):
        rng = random.Random(4242)
        kept = 0
        for _ in range(10_000):
            n = rng.randint(1, 20)
            tokens = lower_tokens(" ".join(f"w{i}" for i in range(n)))
            counts = TokenClickCounts({t: rng.randint(0, 5) for t in tokens})
            clicks = rng.randint(0, 80)
            if filter_pair(clicks, tokens, counts) is None:
                kept += 1
                assert clicks >= 20
                assert len(tokens) >= 7
                assert counts.nonzero() >= 3
        assert kept > 0


def test_criterion_5_gradient_check():
    with criterion(5, "gradient vs central finite differences"):
        rng = random.Random(777)
        np_rng = np.random.default_rng(777)
        eps = 1e-5
        worst = 0.0
        for _ in range(20):
            examples = separable_examples(3, rng)
            idf = compute_idf([ex.similar_title_tokens for ex in examples])
            from coclick.tagger import extract_features, stack_labels

            x = np.concatenate([extract_features(ex, idf, set()) for ex in examples])
            y = np.concatenate([stack_labels([ex]) for ex in examples])
            w = np_rng.normal(0, 1, x.shape[1])
            _, grad = loss_and_grad(w, x, y)
            for i in range(len(w)):
                up = w.copy()
                up[i] += eps
                down = w.copy()
                down[i] -= eps
                numeric = (loss_and_grad(up, x, y)[0] - loss_and_grad(down, x, y)[0]) / (2 * eps)
                worst = max(worst, abs(numeric - grad[i]) / max(abs(numeric), abs(grad[i]), 1e-4))
        assert worst < 1e-4


def test_criterion_6_model_ordering(benchmark_result):
    with criterion(6, "end-to-end model ordering on the default benchmark"):
        f1 = {
            row.model: row.metrics.f1
            for row in benchmark_result.metrics
            if row.granularity == "token" and row.stratum == "all"
        }
        assert set(f1) == {"all", "overlap", "bm25", "tagger"}
        assert f1["tagger"] >= 0.90
        assert f1["tagger"] - f1["bm25"] >= 0.05
        assert f1["bm25"] > f1["overlap"]
        for model in ("tagger", "bm25", "overlap"):
            assert f1[model] > f1["all"]
        assert benchmark_result.elapsed_seconds < 120.0


def test_criterion_7_segment_analog_ablation():
    with criterion(7, "split seed features beat merged by >= 3 points"):
        rng = random.Random(4343)
        train = ablation_examples(400, rng)
        dev = ablation_examples(80, rng)
        test = ablation_examples(120, rng)
        f1 = {}
        for merged in (False, True):
            tagger = TokenTagger(
                total_steps=600, batch_size=32, eval_every=100, rng_seed=11,
                merge_seed_features=merged,
            )
            tagger.fit(train, dev)
            preds = {ex.pair_key: tagger.predict_tokens(ex) for ex in test}
            f1[merged] = evaluate_predictions(test, preds, "token").f1
        assert f1[False] - f1[True] >= 0.03


def test_criterion_8_metric_identities():
    with criterion(8, "metric identities"):
        rng = random.Random(888)
        vocab = [f"w{i}" for i in range(40)]
        examples, predictions = [], {}
        for i in range(1000):
            words = rng.sample(vocab, rng.randint(1, 12))  # no duplicates
            gold = {w for w in words if rng.random() < 0.35}
            examples.append(make_example("seed", " ".join(words), gold=gold, pair=(f"S{i}", "T")))
            predictions[examples[-1].pair_key] = {w for w in words if rng.random() < 0.35}
        assert count_instances(examples, predictions, "title") == count_instances(examples, predictions, "token")

        counts = random_counts(rng, 300)
        metrics = summarize(counts)
        if metrics.recall + metrics.precision > 0:
            harmonic = 2 * metrics.recall * metrics.precision / (metrics.recall + metrics.precision)
            assert abs(metrics.f1 - harmonic) < 1e-12

        order = list(range(300))
        for _ in range(5):
            rng.shuffle(order)
            shuffled = summarize([counts[i] for i in order])
            assert shuffled == metrics


def test_criterion_9_stratification(benchmark_result):
    with criterion(9, "stratification partitions and report shape"):
        examples = load_split(benchmark_result, "test")
        strata = {s.name: s for s in stratify_by_clicks(examples)}
        thirds = (
            strata["top_third"].pair_keys
            + strata["middle_third"].pair_keys
            + strata["bottom_third"].pair_keys
        )
        assert sorted(thirds) == sorted(ex.pair_key for ex in examples)
        assert len(set(thirds)) == len(thirds)
        assert set(strata["top_0.1pct"].pair_keys) <= set(strata["top_third"].pair_keys)

        rng = random.Random(9)
        scores = {ex.pair_key: rng.random() for ex in examples}
        quintiles, excluded = stratify_by_similarity(examples, scores)
        assert excluded == 0
        union = [k for s in quintiles for k in s.pair_keys]
        assert sorted(union) == sorted(ex.pair_key for ex in examples)

        with open(benchmark_result.paths["metrics"], encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["model", "granularity", "stratum", "R", "P", "F1", "L", "N"]
        seen = {(r["model"], r["granularity"], r["stratum"]) for r in rows}
        for model in ("all", "overlap", "bm25", "tagger"):
            for granularity in ("token", "title"):
                for stratum in ("all", "top_0.1pct", "top_third", "middle_third", "bottom_third"):
                    assert (model, granularity, stratum) in seen


def test_criterion_10_determinism(benchmark_result, tmp_path):
    with criterion(10, "byte-identical pipeline rerun"):
        rerun = run_pipeline(tmp_path / "rerun", benchmark_config(42))
        for name in ("train", "dev", "test", "train_log", "metrics"):
            first = benchmark_result.paths[name].read_bytes()
            second = rerun.paths[name].read_bytes()
            assert first == second, f"artifact {name} differs between identical runs"
