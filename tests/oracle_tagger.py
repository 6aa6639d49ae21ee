"""Reference tagger: per-example featurization, training and prediction, kept verbatim.

``coclick.tagger`` featurizes each split once into one stacked matrix with
row bounds, draws each training batch's rows from it by index, scores the
dev split with one ``forward`` per evaluation and predicts in blocks. The
code it replaces built one feature matrix per example, concatenated a
batch's matrices on every step and ran ``forward`` once per example. The
training log, the chosen checkpoint and every prediction are part of the
reproducibility contract, so these functions are their reference: a stacked
matrix whose bytes, row order or bounds differ from the per-example ones
shows up as a differing log line, weight or token set.
"""

from __future__ import annotations

import math
from typing import IO, Sequence

import numpy as np

from coclick.base import DatasetError, TrainingDiverged, check_fitted
from coclick.dataset import PairExample
from coclick.evaluate import evaluate_predictions
from coclick.explain import Explainer
from coclick.scoring import IdfTable
from coclick.tagger import TokenTagger, feature_names, forward, loss_and_grad, lr_at


def extract_features(
    example: PairExample,
    idf: IdfTable,
    stopwords: set[str],
    merge_seed_features: bool = False,
    max_len: int = 512,
) -> np.ndarray:
    """Feature matrix, one row per similar-title token.

    Seed-membership features see only the seed side that fits the model
    input of ``max_len`` tokens: a start marker, the seed title and abstract,
    a separator and the similar title. The seed abstract is cut from the
    right first, then the seed title; the similar title is never cut, and an
    example whose similar title alone cannot fit is rejected.
    """
    budget = max_len - 2 - len(example.similar_title_tokens)
    if budget < 0:
        raise DatasetError(
            f"similar title of pair ({example.seed_id}, {example.similar_id}) has "
            f"{len(example.similar_title_tokens)} tokens and cannot fit max_len={max_len}"
        )
    seed_title = example.seed_title_tokens[:budget]
    budget -= len(seed_title)
    title_set = set(seed_title)
    abstract_set = set(example.seed_abstract_tokens[:budget])

    n = len(example.similar_title_tokens)
    rows = []
    for i, word in enumerate(example.similar_title_tokens):
        in_title = 1.0 if word in title_set else 0.0
        in_abstract = 1.0 if word in abstract_set else 0.0
        rel_pos = i / max(1, n - 1)
        common = [
            idf.idf(word),
            rel_pos,
            float(len(word)),
            1.0 if word in stopwords else 0.0,
            1.0,
        ]
        if merge_seed_features:
            rows.append([max(in_title, in_abstract), *common])
        else:
            rows.append([in_title, in_abstract, *common])
    return np.array(rows, dtype=np.float64).reshape(n, len(feature_names(merge_seed_features)))


def title_labels(example: PairExample) -> np.ndarray:
    """Per-position gold labels for the similar title."""
    return np.array(
        [1.0 if t in example.gold_tokens else 0.0 for t in example.similar_title_tokens],
        dtype=np.float64,
    )


class OracleTagger(TokenTagger):
    """``TokenTagger`` with the per-example training and prediction path."""

    # predict_dataset then predicts one example at a time, as it used to.
    predict_block = Explainer.predict_block

    def _features(self, example: PairExample, idf: IdfTable, stopwords: set[str]) -> np.ndarray:
        return extract_features(example, idf, stopwords, self.merge_seed_features, self.max_len)

    def fit(
        self,
        train_examples: Sequence[PairExample],
        dev_examples: Sequence[PairExample] | None = None,
        metrics_log: IO[str] | None = None,
    ) -> "TokenTagger":
        if not train_examples:
            raise DatasetError("cannot train on an empty dataset")
        idf, stopwords = self._context(train_examples)
        self.idf_ = idf
        self.stopwords_ = stopwords
        self.feature_names_ = feature_names(self.merge_seed_features)

        feats = [self._features(ex, idf, stopwords) for ex in train_examples]
        labels = [title_labels(ex) for ex in train_examples]
        dev_feats = None
        if dev_examples:
            dev_feats = [self._features(ex, idf, stopwords) for ex in dev_examples]

        dim = len(self.feature_names_)
        weights = np.zeros(dim)
        m = np.zeros(dim)
        v = np.zeros(dim)
        eps = 1e-8
        warmup = self._resolved_warmup()
        rng = np.random.default_rng(self.rng_seed)

        if metrics_log is not None:
            metrics_log.write("step,lr,train_loss,dev_f1\n")
        self.history_ = []
        best_f1 = -1.0
        best_weights = weights.copy()
        best_step = 0
        order: list[int] = []
        cursor = 0
        loss_sum = 0.0
        loss_count = 0

        for step in range(self.total_steps):
            if cursor + self.batch_size > len(order):
                order = list(rng.permutation(len(train_examples)))
                cursor = 0
            batch_idx = order[cursor : cursor + self.batch_size]
            cursor += self.batch_size
            batch_x = np.concatenate([feats[i] for i in batch_idx], axis=0)
            batch_y = np.concatenate([labels[i] for i in batch_idx], axis=0)

            loss, grad = loss_and_grad(weights, batch_x, batch_y)
            if not math.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at step {step}")
            lr = lr_at(step, self.lr, warmup, self.total_steps)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            t = step + 1
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            weights = weights - lr * m_hat / (np.sqrt(v_hat) + eps)
            loss_sum += loss
            loss_count += 1

            at_eval = (t % self.eval_every == 0) or (t == self.total_steps)
            if at_eval:
                mean_loss = loss_sum / loss_count
                loss_sum = 0.0
                loss_count = 0
                dev_f1 = float("nan")
                if dev_examples:
                    dev_f1 = self._dev_f1(weights, dev_examples, dev_feats)
                    if dev_f1 > best_f1:
                        best_f1 = dev_f1
                        best_weights = weights.copy()
                        best_step = t
                self.history_.append((t, lr, mean_loss, dev_f1))
                if metrics_log is not None:
                    metrics_log.write(f"{t},{lr:.10g},{mean_loss:.10g},{dev_f1:.10g}\n")

        if dev_examples:
            self.weights_ = best_weights
            self.step_ = best_step
        else:
            self.weights_ = weights
            self.step_ = self.total_steps
        return self

    def _dev_f1(
        self,
        weights: np.ndarray,
        dev_examples: Sequence[PairExample],
        dev_feats: list[np.ndarray],
    ) -> float:
        preds = {}
        for ex, x in zip(dev_examples, dev_feats):
            probs = forward(weights, x)
            preds[ex.pair_key] = self._tokens_from_probs(ex, probs)
        metrics = evaluate_predictions(dev_examples, preds, granularity="token")
        return metrics.f1

    def _tokens_from_probs(self, example: PairExample, probs: np.ndarray) -> set[str]:
        threshold = self.decision_threshold
        return {tok for tok, p in zip(example.similar_title_tokens, probs) if p >= threshold}

    def predict_proba(self, example: PairExample) -> np.ndarray:
        check_fitted(self, "weights_")
        idf, stopwords = getattr(self, "idf_", None), getattr(self, "stopwords_", None)
        if idf is None or stopwords is None:
            idf, stopwords = self._context()
            self.idf_, self.stopwords_ = idf, stopwords
        return forward(self.weights_, self._features(example, idf, stopwords))

    def predict_tokens(self, example: PairExample) -> set[str]:
        """Unique lowercase similar-title tokens scored at or above the threshold."""
        return self._tokens_from_probs(example, self.predict_proba(example))

