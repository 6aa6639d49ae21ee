"""Tagger tests: input truncation, model math, training, prediction, checkpoints."""

import io
import json
import math
import random

import numpy as np
import pytest

from coclick.base import DatasetError, TrainingDiverged
from coclick.dataset import PairExample, TokenClickCounts
from coclick.tagger import (
    FEATURES_MERGED,
    FEATURES_SPLIT,
    HYPERPARAMETERS,
    TokenTagger,
    extract_features,
    forward,
    loss_and_grad,
    lr_at,
    title_labels,
)
from coclick.scoring import compute_idf
from coclick.text import word_tokenize


def make_example(seed_title, similar_title, seed_abstract="", gold=(), pair=("S1", "T1")):
    tokens = word_tokenize(similar_title)
    return PairExample(
        seed_id=pair[0],
        similar_id=pair[1],
        seed_title=seed_title,
        seed_abstract=seed_abstract,
        similar_title=similar_title,
        gold_tokens=set(gold),
        token_counts=TokenClickCounts({t.lower: 1 for t in tokens}),
        combined_clicks=30,
    )


def version_1_checkpoint(text):
    """Rewrite a checkpoint in the version-1 layout, which had two more features."""
    record = json.loads(text)
    names = record["feature_names"]
    at = names.index("idf") + 1
    record["version"] = 1
    record["feature_names"] = names[:at] + ["max_cosine", "sum_cosine"] + names[at:]
    record["weights"] = record["weights"][:at] + [0.0, 0.0] + record["weights"][at:]
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def separable_examples(n, rng, vocab_size=60):
    """Gold tokens are exactly those shared with the seed title; cleanly learnable."""
    vocab = [f"v{i:03d}" for i in range(vocab_size)]
    examples = []
    for i in range(n):
        shared = rng.sample(vocab, 2)
        seed_only = rng.sample([v for v in vocab if v not in shared], 3)
        sim_only = rng.sample([v for v in vocab if v not in shared + seed_only], 3)
        seed_title = " ".join(shared + seed_only)
        similar_title = " ".join(rng.sample(shared + sim_only, 5))
        examples.append(
            make_example(
                seed_title,
                similar_title,
                seed_abstract=" ".join(shared),
                gold=set(shared),
                pair=(f"S{i:04d}", f"T{i:04d}"),
            )
        )
    return examples


def ablation_examples(n, rng, vocab_size=400):
    """Gold = tokens in the seed title but not its abstract.

    Each similar title mixes title-only, title+abstract, abstract-only, and
    unseen tokens, so only a model that can tell the two seed fields apart
    can separate gold from the rest.
    """
    vocab = [f"w{i:04d}" for i in range(vocab_size)]
    examples = []
    for i in range(n):
        a, b, c, d = (rng.sample(vocab, 8)[j * 2 : j * 2 + 2] for j in range(4))
        seed_title = " ".join(a + b)
        seed_abstract = " ".join(b + c)
        similar_title = " ".join(rng.sample(a + b + c + d, 8))
        examples.append(
            make_example(
                seed_title,
                similar_title,
                seed_abstract=seed_abstract,
                gold=set(a),
                pair=(f"S{i:04d}", f"T{i:04d}"),
            )
        )
    return examples


class TestTaggerInput:
    SEED = (FEATURES_SPLIT.index("in_seed_title"), FEATURES_SPLIT.index("in_seed_abstract"))

    def _seed_columns(self, ex, max_len):
        x = extract_features(ex, compute_idf([["x"]]), set(), max_len=max_len)
        return [tuple(row) for row in x[:, self.SEED]]

    def test_oversized_abstract_truncated_title_intact(self):
        abstract = " ".join(f"a{i}" for i in range(50))
        ex = make_example("s1 s2", "a4 a5 s2", seed_abstract=abstract, gold={"s2"})
        # 12 - 2 markers - 3 similar-title tokens leaves 7: the seed title and a0..a4
        assert self._seed_columns(ex, max_len=12) == [(0, 1), (0, 0), (1, 0)]
        assert self._seed_columns(ex, max_len=512) == [(0, 1), (0, 1), (1, 0)]

    def test_seed_title_truncated_only_after_abstract_gone(self):
        ex = make_example("s1 s2 s3 s4 s5", "s3 s4", seed_abstract="a1 s4")
        assert self._seed_columns(ex, max_len=7) == [(1, 0), (0, 0)]
        assert self._seed_columns(ex, max_len=8) == [(1, 0), (1, 0)]
        assert self._seed_columns(ex, max_len=512) == [(1, 0), (1, 1)]

    def test_similar_title_too_long_rejected(self):
        ex = make_example("t1", "t1 t2 t3 t4 t5")
        assert self._seed_columns(ex, max_len=8) == [(1, 0)] + [(0, 0)] * 4
        assert self._seed_columns(ex, max_len=7) == [(0, 0)] * 5
        with pytest.raises(DatasetError):
            extract_features(ex, compute_idf([["x"]]), set(), max_len=6)

    def test_duplicate_gold_token_labels_both_positions(self):
        ex = make_example("s", "dose response dose", gold={"dose"})
        assert title_labels(ex).tolist() == [1.0, 0.0, 1.0]


class TestModelMath:
    def _batch(self, rng, n_examples=4):
        examples = separable_examples(n_examples, rng)
        idf = compute_idf([[t.lower for t in ex.similar_title_tokens] for ex in examples])
        x = np.concatenate([extract_features(ex, idf, set()) for ex in examples])
        y = np.concatenate([title_labels(ex) for ex in examples])
        return x, y

    def test_zero_weights_give_half_probability(self):
        x, _ = self._batch(random.Random(3))
        probs = forward(np.zeros(x.shape[1]), x)
        assert np.allclose(probs, 0.5)

    def test_probability_monotone_in_logit(self):
        x = np.linspace(-30, 30, 101).reshape(-1, 1)
        probs = forward(np.array([1.0]), x)
        assert np.all(np.diff(probs) > 0)
        assert probs[0] < 1e-12 and probs[-1] > 1 - 1e-12

    def test_forward_deterministic(self):
        rng = random.Random(5)
        x, _ = self._batch(rng)
        w = np.arange(x.shape[1], dtype=float) * 0.1
        assert np.array_equal(forward(w, x), forward(w, x))

    def test_zero_weights_loss_is_ln2(self):
        x, y = self._batch(random.Random(7))
        loss, _ = loss_and_grad(np.zeros(x.shape[1]), x, y)
        assert abs(loss - math.log(2)) < 1e-12

    def test_large_margin_weights_drive_loss_down(self):
        rng = random.Random(11)
        examples = separable_examples(8, rng)
        idf = compute_idf([[t.lower for t in ex.similar_title_tokens] for ex in examples])
        x = np.concatenate([extract_features(ex, idf, set()) for ex in examples])
        y = np.concatenate([title_labels(ex) for ex in examples])
        # gold iff in_seed_title: +20 on that feature, -10 bias
        w = np.zeros(x.shape[1])
        w[FEATURES_SPLIT.index("in_seed_title")] = 20.0
        w[FEATURES_SPLIT.index("bias")] = -10.0
        loss, _ = loss_and_grad(w, x, y)
        assert loss < 1e-3

    def test_gradient_matches_central_differences(self):
        rng = random.Random(13)
        np_rng = np.random.default_rng(13)
        eps = 1e-5
        worst = 0.0
        for _ in range(20):
            x, y = self._batch(rng, n_examples=3)
            w = np_rng.normal(0, 1, x.shape[1])
            _, grad = loss_and_grad(w, x, y)
            for i in range(len(w)):
                up = w.copy()
                up[i] += eps
                down = w.copy()
                down[i] -= eps
                numeric = (loss_and_grad(up, x, y)[0] - loss_and_grad(down, x, y)[0]) / (2 * eps)
                rel = abs(numeric - grad[i]) / max(abs(numeric), abs(grad[i]), 1e-4)
                worst = max(worst, rel)
        assert worst < 1e-4


class TestSchedule:
    def test_endpoints(self):
        assert lr_at(0, 1e-3, 100, 1000) == 0.0
        assert lr_at(100, 1e-3, 100, 1000) == pytest.approx(1e-3)
        assert lr_at(1000, 1e-3, 100, 1000) == pytest.approx(0.0, abs=1e-12)

    def test_warmup_is_linear(self):
        assert lr_at(50, 1e-3, 100, 1000) == pytest.approx(5e-4)

    def test_cosine_midpoint(self):
        assert lr_at(550, 1e-3, 100, 1000) == pytest.approx(5e-4)


class TestTraining:
    def test_separable_set_reaches_high_dev_f1(self):
        rng = random.Random(17)
        train = separable_examples(300, rng)
        dev = separable_examples(60, rng)
        tagger = TokenTagger(total_steps=600, batch_size=32, eval_every=100, rng_seed=1)
        tagger.fit(train, dev)
        from coclick.evaluate import evaluate_predictions

        preds = {ex.pair_key: tagger.predict(ex) for ex in dev}
        metrics = evaluate_predictions(dev, preds, "token")
        assert metrics.f1 >= 0.95

    def test_same_seed_identical_weights(self):
        rng = random.Random(19)
        train = separable_examples(100, rng)
        dev = separable_examples(20, rng)
        a = TokenTagger(total_steps=150, batch_size=16, rng_seed=5).fit(train, dev)
        b = TokenTagger(total_steps=150, batch_size=16, rng_seed=5).fit(train, dev)
        assert np.array_equal(a.weights_, b.weights_)
        assert a.step_ == b.step_

    def test_loss_decreases_early(self):
        rng = random.Random(23)
        train = separable_examples(200, rng)
        tagger = TokenTagger(total_steps=50, batch_size=64, eval_every=10, warmup_steps=5, rng_seed=2)
        tagger.fit(train)
        losses = [row[2] for row in tagger.history_]
        assert losses[-1] < losses[0]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_aborts(self):
        # a non-finite learning rate turns the weights non-finite after one step
        rng = random.Random(29)
        train = separable_examples(40, rng)
        tagger = TokenTagger(lr=float("inf"), total_steps=50, batch_size=8, rng_seed=3)
        with pytest.raises(TrainingDiverged):
            tagger.fit(train)

    def test_metrics_log_format(self):
        rng = random.Random(31)
        train = separable_examples(60, rng)
        dev = separable_examples(12, rng)
        buf = io.StringIO()
        TokenTagger(total_steps=40, batch_size=16, eval_every=20, rng_seed=4).fit(
            train, dev, metrics_log=buf
        )
        lines = buf.getvalue().splitlines()
        assert lines[0] == "step,lr,train_loss,dev_f1"
        assert len(lines) == 1 + 2  # eval at steps 20 and 40


class TestPredict:
    def _trained(self, rng_seed=37):
        rng = random.Random(rng_seed)
        train = separable_examples(250, rng)
        dev = separable_examples(50, rng)
        tagger = TokenTagger(total_steps=500, batch_size=32, eval_every=100, rng_seed=6)
        return tagger.fit(train, dev), separable_examples(30, rng)

    def test_all_low_probabilities_empty_prediction(self):
        tagger, test = self._trained()
        tagger_low = TokenTagger()
        tagger_low.weights_ = np.zeros(len(FEATURES_SPLIT))
        tagger_low.weights_[-1] = -10.0  # bias
        tagger_low.idf_ = tagger.idf_
        tagger_low.stopwords_ = tagger.stopwords_
        assert tagger_low.predict(test[0]) == set()

    def test_title_level_expansion_of_duplicates(self):
        tagger = TokenTagger()
        tagger.weights_ = np.zeros(len(FEATURES_SPLIT))
        tagger.weights_[FEATURES_SPLIT.index("in_seed_title")] = 20.0
        tagger.weights_[FEATURES_SPLIT.index("bias")] = -10.0
        tagger.idf_ = compute_idf([["dose"]])
        tagger.stopwords_ = set()
        ex = make_example("dose stuff", "dose response dose", gold={"dose"})
        assert tagger.predict(ex) == {"dose"}
        assert tagger.predict_positions(ex) == {0, 2}

    def test_threshold_sweep_shrinks_predictions(self):
        tagger, test = self._trained()
        for ex in test[:10]:
            previous = None
            for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
                tagger.decision_threshold = threshold
                pred = tagger.predict(ex)
                if previous is not None:
                    assert pred <= previous
                previous = pred
        tagger.decision_threshold = 0.5

    def test_predictions_subset_of_title(self):
        tagger, test = self._trained()
        for ex in test:
            title = {t.lower for t in ex.similar_title_tokens}
            assert tagger.predict(ex) <= title


class TestCheckpoint:
    def test_save_load_round_trip(self):
        rng = random.Random(41)
        train = separable_examples(120, rng)
        dev = separable_examples(25, rng)
        tagger = TokenTagger(total_steps=200, batch_size=16, eval_every=50, rng_seed=8)
        tagger.fit(train, dev)
        buf = io.StringIO()
        tagger.save(buf)
        buf.seek(0)
        loaded = TokenTagger.load(buf, idf=tagger.idf_, stopwords=tagger.stopwords_)
        assert np.array_equal(loaded.weights_, tagger.weights_)
        assert loaded.step_ == tagger.step_
        for ex in separable_examples(20, rng):
            assert loaded.predict(ex) == tagger.predict(ex)

    def test_bad_version_rejected(self):
        with pytest.raises(DatasetError):
            TokenTagger.load(io.StringIO('{"version": 99}'))

    def test_version_1_checkpoint_rejected(self):
        tagger = TokenTagger(total_steps=20, batch_size=8, rng_seed=8).fit(
            separable_examples(20, random.Random(47))
        )
        buf = io.StringIO()
        tagger.save(buf)
        with pytest.raises(DatasetError, match="version 1"):
            TokenTagger.load(io.StringIO(version_1_checkpoint(buf.getvalue())))

    def test_config_round_trips_every_hyperparameter(self):
        tagger = TokenTagger(
            lr=0.02, beta1=0.8, beta2=0.99, total_steps=30, batch_size=4, rng_seed=2,
            eval_every=10, decision_threshold=0.4, merge_seed_features=True, max_len=64,
        ).fit(separable_examples(12, random.Random(59)))
        buf = io.StringIO()
        tagger.save(buf)
        assert set(json.loads(buf.getvalue())["config"]) == set(HYPERPARAMETERS)
        buf.seek(0)
        loaded = TokenTagger.load(buf)
        assert loaded.warmup_steps == 100  # saved resolved, not as None
        for name in set(HYPERPARAMETERS) - {"warmup_steps"}:
            assert getattr(loaded, name) == getattr(tagger, name), name


class TestFeatureSplitAblation:
    def test_split_features_beat_merged_by_three_points(self):
        rng = random.Random(43)
        train = ablation_examples(400, rng)
        dev = ablation_examples(80, rng)
        test = ablation_examples(120, rng)
        from coclick.evaluate import evaluate_predictions

        scores = {}
        for merged in (False, True):
            tagger = TokenTagger(
                total_steps=600,
                batch_size=32,
                eval_every=100,
                rng_seed=9,
                merge_seed_features=merged,
            )
            tagger.fit(train, dev)
            assert tagger.feature_names_ == (FEATURES_MERGED if merged else FEATURES_SPLIT)
            preds = {ex.pair_key: tagger.predict(ex) for ex in test}
            scores[merged] = evaluate_predictions(test, preds, "token").f1
        assert scores[False] > scores[True] + 0.03


class TestLoadedWithoutContext:
    def test_predict_without_idf_raises(self):
        rng = random.Random(53)
        train = separable_examples(60, rng)
        tagger = TokenTagger(total_steps=60, batch_size=16, rng_seed=12).fit(train)
        buf = io.StringIO()
        tagger.save(buf)
        buf.seek(0)
        bare = TokenTagger.load(buf)  # no idf/stopword context attached
        with pytest.raises(DatasetError):
            bare.predict(train[0])
