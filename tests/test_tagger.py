"""Tagger tests: input truncation, model math, training, prediction, checkpoints."""

import io
import json
import math
import random

import numpy as np
import pytest

import coclick.explain
import coclick.tagger
import oracle_tagger
from coclick.base import ConfigError, DatasetError, TrainingDiverged
from coclick.dataset import PairExample, TokenClickCounts, lower_tokens
from coclick.explain import predict_dataset
from coclick.tagger import (
    FEATURES_MERGED,
    FEATURES_SPLIT,
    HYPERPARAMETERS,
    TokenTagger,
    extract_features,
    forward,
    loss_and_grad,
    lr_at,
    stack_features,
    stack_labels,
)
from coclick.scoring import compute_idf
from coclick.text import positions_of


def make_example(seed_title, similar_title, seed_abstract="", gold=(), pair=("S1", "T1")):
    tokens = lower_tokens(similar_title)
    return PairExample(
        seed_id=pair[0],
        similar_id=pair[1],
        seed_title=seed_title,
        seed_abstract=seed_abstract,
        similar_title=similar_title,
        gold_tokens=set(gold),
        token_counts=TokenClickCounts({t: 1 for t in tokens}),
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
        assert stack_labels([ex]).tolist() == [1.0, 0.0, 1.0]


class TestModelMath:
    def _batch(self, rng, n_examples=4):
        examples = separable_examples(n_examples, rng)
        idf = compute_idf([ex.similar_title_tokens for ex in examples])
        x = np.concatenate([extract_features(ex, idf, set()) for ex in examples])
        y = np.concatenate([stack_labels([ex]) for ex in examples])
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
        idf = compute_idf([ex.similar_title_tokens for ex in examples])
        x = np.concatenate([extract_features(ex, idf, set()) for ex in examples])
        y = np.concatenate([stack_labels([ex]) for ex in examples])
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

        preds = {ex.pair_key: tagger.predict_tokens(ex) for ex in dev}
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

    @pytest.mark.parametrize("field", ["batch_size", "eval_every"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_knob_below_one_is_config_error(self, field, value):
        train = separable_examples(20, random.Random(37))
        tagger = TokenTagger(total_steps=10, rng_seed=6, **{field: value})
        with pytest.raises(ConfigError, match=f"{field} must be at least 1, got {value}"):
            tagger.fit(train)
        assert tagger.weights_ is None

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
        assert tagger_low.predict_tokens(test[0]) == set()

    def test_title_level_expansion_of_duplicates(self):
        tagger = TokenTagger()
        tagger.weights_ = np.zeros(len(FEATURES_SPLIT))
        tagger.weights_[FEATURES_SPLIT.index("in_seed_title")] = 20.0
        tagger.weights_[FEATURES_SPLIT.index("bias")] = -10.0
        tagger.idf_ = compute_idf([["dose"]])
        tagger.stopwords_ = set()
        ex = make_example("dose stuff", "dose response dose", gold={"dose"})
        assert tagger.predict_tokens(ex) == {"dose"}
        assert positions_of(ex.similar_title_tokens, tagger.predict_tokens(ex)) == {0, 2}

    def test_threshold_sweep_shrinks_predictions(self):
        tagger, test = self._trained()
        for ex in test[:10]:
            previous = None
            for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
                tagger.decision_threshold = threshold
                pred = tagger.predict_tokens(ex)
                if previous is not None:
                    assert pred <= previous
                previous = pred
        tagger.decision_threshold = 0.5

    def test_predictions_subset_of_title(self):
        tagger, test = self._trained()
        for ex in test:
            title = set(ex.similar_title_tokens)
            assert tagger.predict_tokens(ex) <= title


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
            assert loaded.predict_tokens(ex) == tagger.predict_tokens(ex)

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

    @pytest.mark.parametrize(
        "key", ["config", "feature_names", "weights", "step", *HYPERPARAMETERS]
    )
    def test_missing_key_rejected_by_name(self, key):
        tagger = TokenTagger(total_steps=20, batch_size=8, rng_seed=8).fit(
            separable_examples(20, random.Random(47))
        )
        buf = io.StringIO()
        tagger.save(buf)
        record = json.loads(buf.getvalue())
        if key in record:
            del record[key]
        else:
            del record["config"][key]
        with pytest.raises(DatasetError, match=repr(key)):
            TokenTagger.load(io.StringIO(json.dumps(record)))

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[2]",
            '{"version": 2, "config": [], "feature_names": [], "weights": [], "step": 0}',
            pytest.param("[" * 100_000, id="deep_nesting"),
        ],
    )
    def test_garbled_checkpoint_rejected(self, text):
        with pytest.raises(DatasetError):
            TokenTagger.load(io.StringIO(text))

    def test_infinite_step_rejected(self):
        tagger = TokenTagger(total_steps=20, batch_size=8, rng_seed=8).fit(
            separable_examples(20, random.Random(47))
        )
        buf = io.StringIO()
        tagger.save(buf)
        record = {**json.loads(buf.getvalue()), "step": float("inf")}
        with pytest.raises(DatasetError, match="bad checkpoint"):
            TokenTagger.load(io.StringIO(json.dumps(record)))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"step": 7.9}, "step 7.9 is not an integer"),
            ({"step": True}, "step True is not an integer"),
            ({"weights": "nan"}, "weight is not finite"),
            ({"weights": "-inf"}, "weight is not finite"),
        ],
    )
    def test_non_integer_step_or_non_finite_weight_rejected(self, change, message):
        tagger = TokenTagger(total_steps=20, batch_size=8, rng_seed=8).fit(
            separable_examples(20, random.Random(47))
        )
        buf = io.StringIO()
        tagger.save(buf)
        record = json.loads(buf.getvalue())
        if "weights" in change:
            record["weights"][-1] = float(change["weights"])
        else:
            record.update(change)
        with pytest.raises(DatasetError, match=message):
            TokenTagger.load(io.StringIO(json.dumps(record)))

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
            preds = {ex.pair_key: tagger.predict_tokens(ex) for ex in test}
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
            bare.predict_tokens(train[0])


def fuzz_examples(rng, n, vocab, min_len=1, max_len=8, tag="E"):
    """Random pairs: repeated title tokens, seed sides of any length, random gold."""
    examples = []
    for i in range(n):
        title = [rng.choice(vocab) for _ in range(rng.randint(min_len, max_len))]
        seed_title = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        abstract = [rng.choice(vocab) for _ in range(rng.randint(0, 16))]
        gold = {t for t in title if rng.random() < 0.4}
        examples.append(
            make_example(
                " ".join(seed_title),
                " ".join(title),
                seed_abstract=" ".join(abstract),
                gold=gold,
                pair=(f"S{tag}{i % 5}", f"T{tag}{i}"),
            )
        )
    return examples


class TestMatchesPerExampleOracle:
    """The stacked path gives the per-example path's bytes: features, training
    log, history, weights, checkpoint step and predictions."""

    VOCAB = [f"w{i:02d}" for i in range(24)] + ["the", "of", "and"]

    def test_stacked_features_equal_per_example_features(self):
        rng = random.Random(41)
        idf = compute_idf([[rng.choice(self.VOCAB) for _ in range(6)] for _ in range(30)])
        seams = coclick.tagger._FEATURE_BLOCK * 2 + 3  # the matrix is filled in blocks
        for n in [seams] + [rng.randint(0, 12) for _ in range(40)]:
            examples = fuzz_examples(rng, n, self.VOCAB)
            merge, max_len = rng.random() < 0.5, rng.choice([10, 12, 16, 512])
            stopwords = set(rng.sample(self.VOCAB, 5))
            x, bounds = stack_features(examples, idf, stopwords, merge, max_len)
            old = [oracle_tagger.extract_features(ex, idf, stopwords, merge, max_len) for ex in examples]
            dim = len(FEATURES_MERGED if merge else FEATURES_SPLIT)
            assert x.tobytes() == np.concatenate([np.empty((0, dim))] + old).tobytes()
            assert bounds.tolist() == [0, *np.cumsum([len(f) for f in old]).tolist()]
            for ex, want in zip(examples, old):
                got = extract_features(ex, idf, stopwords, merge, max_len)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            labels = [oracle_tagger.title_labels(ex) for ex in examples]
            assert stack_labels(examples).tobytes() == np.concatenate([np.empty(0)] + labels).tobytes()

    def test_fit_and_predict_fuzz(self):
        rng = random.Random(43)
        for case in range(30):
            train = fuzz_examples(rng, rng.randint(1, 40), self.VOCAB, tag=f"{case}r")
            # A 1-row matrix takes another BLAS path than a row of a stacked
            # one, which can change the last bit of its probability; dev F1
            # is compared to the per-example path, so dev titles have 2+ tokens.
            dev = fuzz_examples(rng, rng.randint(1, 12), self.VOCAB, min_len=2, tag=f"{case}d")
            dev = rng.choice([None, [], dev])
            test = fuzz_examples(rng, rng.randint(1, 20), self.VOCAB, tag=f"{case}t")
            settings = dict(
                lr=rng.choice([5e-3, 5e-2, 0.3]),
                warmup_steps=rng.choice([None, 0, 4]),
                total_steps=rng.randint(1, 60),
                batch_size=rng.choice([1, 3, 8, 64]),
                rng_seed=rng.randrange(100),
                eval_every=rng.randint(1, 20),
                decision_threshold=rng.choice([0.3, 0.5, 0.7]),
                merge_seed_features=rng.random() < 0.5,
                max_len=rng.choice([10, 12, 16, 512]),
                stopwords=set(rng.sample(self.VOCAB, 5)),
            )
            if rng.random() < 0.5:
                settings["idf"] = compute_idf([ex.similar_title_tokens for ex in train + test])
            new_log, old_log = io.StringIO(), io.StringIO()
            new = TokenTagger(**settings).fit(train, dev, metrics_log=new_log)
            old = oracle_tagger.OracleTagger(**settings).fit(train, dev, metrics_log=old_log)
            assert new_log.getvalue() == old_log.getvalue()
            assert repr(new.history_) == repr(old.history_)  # repr: a nan dev F1 equals itself
            assert new.weights_.tobytes() == old.weights_.tobytes()
            assert new.step_ == old.step_
            # Predictions of 1-token titles are compared as token sets only (see above).
            preds, skipped = predict_dataset(new, test)
            assert skipped == 0
            assert list(preds.items()) == [(ex.pair_key, old.predict_tokens(ex)) for ex in test]
            for ex in test:
                if len(ex.similar_title_tokens) > 1:
                    features = extract_features(ex, new.idf_, new.stopwords_, new.merge_seed_features, new.max_len)
                    assert forward(new.weights_, features).tobytes() == old.predict_proba(ex).tobytes()

    def test_oversize_similar_title_raises_the_same_error(self):
        ok = make_example("s1 s2", "t1 t2 t3", gold={"t1"}, pair=("S0", "T0"))
        big = make_example("s1", " ".join(f"t{i}" for i in range(9)), pair=("SB", "TB"))

        def message(run):
            with pytest.raises(DatasetError) as err:
                run()
            return str(err.value)

        for cls in (TokenTagger, oracle_tagger.OracleTagger):
            assert "(SB, TB)" in message(lambda: cls(max_len=10, total_steps=2).fit([ok, big]))
        for run in (
            lambda cls: cls(max_len=10, total_steps=2).fit([ok, big]),
            lambda cls: cls(max_len=10, total_steps=2).fit([ok], [ok, big]),
            lambda cls: cls(max_len=10, total_steps=2).fit([ok]).predict_tokens(big),
            lambda cls: predict_dataset(cls(max_len=10, total_steps=2).fit([ok]), [ok, big]),
        ):
            assert message(lambda: run(TokenTagger)) == message(lambda: run(oracle_tagger.OracleTagger))


class TestBatchedPrediction:
    @pytest.fixture(scope="class")
    def tagger(self):
        rng = random.Random(47)
        return TokenTagger(total_steps=80, batch_size=16, eval_every=40, rng_seed=6).fit(
            separable_examples(60, rng), separable_examples(12, rng)
        )

    @pytest.mark.parametrize("n", [0, 1, coclick.explain._PREDICT_BLOCK + 1])
    def test_matches_per_example_prediction_in_dataset_order(self, tagger, n):
        examples = separable_examples(n, random.Random(53))
        preds, skipped = predict_dataset(tagger, examples)
        assert skipped == 0
        assert list(preds.items()) == [(ex.pair_key, tagger.predict_tokens(ex)) for ex in examples]

    def test_one_forward_per_block_and_per_dev_eval(self, tagger, monkeypatch):
        calls = []
        real = coclick.tagger.forward
        monkeypatch.setattr(coclick.tagger, "forward", lambda w, x: calls.append(len(x)) or real(w, x))
        examples = separable_examples(coclick.explain._PREDICT_BLOCK + 1, random.Random(59))
        predict_dataset(tagger, examples)
        assert len(calls) == 2
        calls.clear()
        rng = random.Random(61)
        dev = separable_examples(12, rng)
        TokenTagger(total_steps=30, batch_size=8, eval_every=10).fit(separable_examples(20, rng), dev)
        dev_rows = sum(len(ex.similar_title_tokens) for ex in dev)
        # loss_and_grad runs forward once per step; each of the 3 evals runs it once on all dev rows
        assert len(calls) == 30 + 3 and calls.count(dev_rows) == 3
