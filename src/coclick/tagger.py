"""Trainable per-token tagger over (seed title, seed abstract, similar title).

The model scores each similar-title token with a sigmoid linear model over
engineered features. Keeping the seed-title and seed-abstract match signals
as two separate features is what lets the model weigh "central to the seed
article" differently from "merely mentioned", and is the lever measured by
the split-vs-merged ablation.

Training is Adam with linear warmup into a cosine decay, batched over
examples, with the loss computed over similar-title tokens only; the
seed-side tokens are structurally label-0 and carry no per-token signal a
linear model could use. The best checkpoint by dev token-level F1 wins.

Each split is featurized once into one matrix with row bounds per example.
A batch takes its examples' rows by index, so it holds the same bytes as
their matrices laid end to end, and the training log does not depend on
how the features are stored.
"""

from __future__ import annotations

import json
import math
from typing import IO, Sequence

import numpy as np

from .base import DatasetError, TrainingDiverged, check_fitted
from .dataset import PairExample
from .evaluate import evaluate_predictions
from .explain import Explainer, load_stopwords
from .scoring import IdfTable, compute_idf

FEATURES_SPLIT = (
    "in_seed_title",
    "in_seed_abstract",
    "idf",
    "relative_position",
    "token_length",
    "is_stopword",
    "bias",
)
FEATURES_MERGED = (
    "in_seed_any",
    "idf",
    "relative_position",
    "token_length",
    "is_stopword",
    "bias",
)

CHECKPOINT_VERSION = 2

# Examples per block when stack_features fills a split's matrix, so that its
# temporaries stay small next to the matrix and do not raise a fit's peak memory.
_FEATURE_BLOCK = 512

# Constructor arguments a checkpoint stores and restores; ``warmup_steps`` is
# saved resolved, so a loaded tagger does not depend on the default rule.
HYPERPARAMETERS = (
    "lr",
    "beta1",
    "beta2",
    "warmup_steps",
    "total_steps",
    "batch_size",
    "rng_seed",
    "eval_every",
    "decision_threshold",
    "merge_seed_features",
    "max_len",
)


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
    return stack_features([example], idf, stopwords, merge_seed_features, max_len)[0]


def stack_features(
    examples: Sequence[PairExample],
    idf: IdfTable,
    stopwords: set[str],
    merge_seed_features: bool = False,
    max_len: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`extract_features` rows of every example, stacked in order.

    Returns the matrix and ``len(examples) + 1`` row bounds: example ``i``
    owns rows ``bounds[i]:bounds[i + 1]``. Each distinct token's idf is
    looked up once.
    """
    bounds = np.zeros(len(examples) + 1, dtype=np.intp)
    bounds[1:] = np.cumsum([len(ex.similar_title_tokens) for ex in examples], dtype=np.intp)
    x = np.empty((bounds[-1], len(feature_names(merge_seed_features))), dtype=np.float64)
    x[:, -1] = 1.0
    col = 1 if merge_seed_features else 2  # the idf column
    # idf, length and stopword flag of each distinct token
    per_word: dict[str, tuple[float, float, float]] = {}
    for first in range(0, len(examples), _FEATURE_BLOCK):
        block = examples[first : first + _FEATURE_BLOCK]
        tokens: list[str] = []
        in_title: list[bool] = []
        in_abstract: list[bool] = []
        for ex in block:
            title = ex.similar_title_tokens
            budget = max_len - 2 - len(title)
            if budget < 0:
                raise DatasetError(
                    f"similar title of pair ({ex.seed_id}, {ex.similar_id}) has "
                    f"{len(title)} tokens and cannot fit max_len={max_len}"
                )
            seed_title = ex.seed_title_tokens[:budget]
            title_set = set(seed_title)
            abstract_set = set(ex.seed_abstract_tokens[: budget - len(seed_title)])
            tokens += title
            in_title += [word in title_set for word in title]
            in_abstract += [word in abstract_set for word in title]
        for word in tokens:
            if word not in per_word:
                per_word[word] = (idf.idf(word), float(len(word)), 1.0 if word in stopwords else 0.0)
        word_columns = np.array([per_word[word] for word in tokens], dtype=np.float64).reshape(-1, 3)
        block_bounds = bounds[first : first + len(block) + 1]
        lengths = np.diff(block_bounds)
        position = np.arange(len(tokens)) - np.repeat(block_bounds[:-1] - block_bounds[0], lengths)

        rows = x[block_bounds[0] : block_bounds[-1]]
        if merge_seed_features:
            rows[:, 0] = np.logical_or(in_title, in_abstract)
        else:
            rows[:, 0] = in_title
            rows[:, 1] = in_abstract
        rows[:, col] = word_columns[:, 0]
        rows[:, col + 1] = position / np.repeat(np.maximum(1, lengths - 1), lengths)
        rows[:, col + 2 : col + 4] = word_columns[:, 1:]
    return x, bounds


def feature_names(merge_seed_features: bool = False) -> tuple[str, ...]:
    return FEATURES_MERGED if merge_seed_features else FEATURES_SPLIT


def title_labels(example: PairExample) -> np.ndarray:
    """Per-position gold labels for the similar title."""
    return stack_labels([example])


def stack_labels(examples: Sequence[PairExample]) -> np.ndarray:
    """The :func:`title_labels` of every example, stacked in order."""
    return np.array(
        [t in ex.gold_tokens for ex in examples for t in ex.similar_title_tokens], dtype=np.float64
    )


def forward(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Per-token probability sigmoid(X @ w)."""
    z = features @ weights
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_grad(
    weights: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over the batch's similar-title tokens, with gradient."""
    z = features @ weights
    # log(1 + e^z) - y*z, computed stably.
    loss = float(np.mean(np.logaddexp(0.0, z) - labels * z))
    grad = features.T @ (forward(weights, features) - labels) / len(labels)
    return loss, grad


def _rows_of(bounds: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """The stacked rows of the examples in ``batch``, example by example."""
    starts = bounds[batch]
    lengths = bounds[batch + 1] - starts
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return offsets + np.arange(len(offsets))


def lr_at(step: int, peak_lr: float, warmup_steps: int, total_steps: int) -> float:
    """Linear warmup from 0 to ``peak_lr``, then cosine decay to 0 at ``total_steps``."""
    if warmup_steps > 0 and step < warmup_steps:
        return peak_lr * step / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class TokenTagger(Explainer):
    """Sigmoid linear tagger over per-token features, trained with Adam.

    Each similar-title token gets the 7 ``FEATURES_SPLIT`` columns, or the
    6 ``FEATURES_MERGED`` ones with ``merge_seed_features``: seed-title and
    seed-abstract membership (one merged column), idf, relative position,
    token length, stopword flag and a bias.

    The constructor arguments named in ``HYPERPARAMETERS`` are what a
    checkpoint stores. ``idf`` and ``stopwords`` are corpus context; when
    not given, ``fit`` derives idf from the training articles and loads the
    packaged stopword list.
    """

    name = "tagger"

    def __init__(
        self,
        lr: float = 5e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        warmup_steps: int | None = None,
        total_steps: int = 2000,
        batch_size: int = 64,
        rng_seed: int = 0,
        eval_every: int = 100,
        decision_threshold: float = 0.5,
        merge_seed_features: bool = False,
        max_len: int = 512,
        idf: IdfTable | None = None,
        stopwords: set[str] | None = None,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.batch_size = batch_size
        self.rng_seed = rng_seed
        self.eval_every = eval_every
        self.decision_threshold = decision_threshold
        self.merge_seed_features = merge_seed_features
        self.max_len = max_len
        self.idf = idf
        self.stopwords = stopwords

        self.weights_: np.ndarray | None = None
        self.step_: int = 0
        self.history_: list[tuple[int, float, float, float]] = []

    def _resolved_warmup(self) -> int:
        if self.warmup_steps is not None:
            return self.warmup_steps
        return max(100, self.total_steps // 10)

    def _context(self, train_examples: Sequence[PairExample] | None = None):
        stopwords = self.stopwords if self.stopwords is not None else load_stopwords()
        idf = self.idf
        if idf is None:
            if train_examples is None:
                raise DatasetError("TokenTagger needs an idf table or training examples")
            docs: dict[str, list[str]] = {}
            for ex in train_examples:
                docs.setdefault(ex.seed_id, ex.seed_title_tokens + ex.seed_abstract_tokens)
                docs.setdefault(ex.similar_id, ex.similar_title_tokens)
            idf = compute_idf(docs[key] for key in sorted(docs))
        return idf, stopwords

    def _stack(
        self, examples: Sequence[PairExample], idf: IdfTable, stopwords: set[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        return stack_features(examples, idf, stopwords, self.merge_seed_features, self.max_len)

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

        train_x, train_bounds = self._stack(train_examples, idf, stopwords)
        train_y = stack_labels(train_examples)
        if dev_examples:
            dev_x, dev_bounds = self._stack(dev_examples, idf, stopwords)

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
        order = np.empty(0, dtype=np.intp)
        cursor = 0
        loss_sum = 0.0
        loss_count = 0

        for step in range(self.total_steps):
            if cursor + self.batch_size > len(order):
                order = rng.permutation(len(train_examples))
                cursor = 0
            rows = _rows_of(train_bounds, order[cursor : cursor + self.batch_size])
            cursor += self.batch_size
            batch_x = train_x[rows]
            batch_y = train_y[rows]

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
                    dev_f1 = self._dev_f1(weights, dev_examples, dev_x, dev_bounds)
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
        dev_x: np.ndarray,
        dev_bounds: np.ndarray,
    ) -> float:
        tokens = self._tokens_from_probs(dev_examples, forward(weights, dev_x), dev_bounds)
        preds = {ex.pair_key: toks for ex, toks in zip(dev_examples, tokens)}
        return evaluate_predictions(dev_examples, preds, granularity="token").f1

    def _tokens_from_probs(
        self, examples: Sequence[PairExample], probs: np.ndarray, bounds: np.ndarray
    ) -> list[set[str]]:
        """Each example's tokens scored at or above the threshold, from stacked probabilities."""
        threshold = self.decision_threshold
        probs, bounds = probs.tolist(), bounds.tolist()
        return [
            {tok for tok, p in zip(ex.similar_title_tokens, probs[start:end]) if p >= threshold}
            for ex, start, end in zip(examples, bounds, bounds[1:])
        ]

    def _stacked_proba(self, examples: Sequence[PairExample]) -> tuple[np.ndarray, np.ndarray]:
        check_fitted(self, "weights_")
        idf, stopwords = getattr(self, "idf_", None), getattr(self, "stopwords_", None)
        if idf is None or stopwords is None:
            idf, stopwords = self._context()
            self.idf_, self.stopwords_ = idf, stopwords
        x, bounds = self._stack(examples, idf, stopwords)
        return forward(self.weights_, x), bounds

    def predict_proba(self, example: PairExample) -> np.ndarray:
        return self._stacked_proba([example])[0]

    def predict_block(self, examples: Sequence[PairExample]) -> list[set[str]]:
        """Featurize ``examples`` into one matrix and score it with one ``forward``."""
        return self._tokens_from_probs(examples, *self._stacked_proba(examples))

    def predict_tokens(self, example: PairExample) -> set[str]:
        """Unique lowercase similar-title tokens scored at or above the threshold."""
        return self.predict_block([example])[0]

    def save(self, fh: IO[str]) -> None:
        check_fitted(self, "weights_")
        config = {name: getattr(self, name) for name in HYPERPARAMETERS}
        config["warmup_steps"] = self._resolved_warmup()
        record = {
            "version": CHECKPOINT_VERSION,
            "feature_names": list(self.feature_names_),
            "weights": [float(w) for w in self.weights_],
            "config": config,
            "step": self.step_,
        }
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    @classmethod
    def load(
        cls,
        fh: IO[str],
        idf: IdfTable | None = None,
        stopwords: set[str] | None = None,
    ) -> "TokenTagger":
        """Restore a tagger saved by :meth:`save`.

        A checkpoint that is not JSON, has another version, lacks or garbles
        a key, holds a weight that is not finite or a step that is not an
        integer raises :class:`DatasetError` naming the problem.
        """
        try:
            record = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DatasetError(f"checkpoint is not JSON: {exc}") from exc
        version = record.get("version") if isinstance(record, dict) else None
        if version != CHECKPOINT_VERSION:
            raise DatasetError(f"unsupported checkpoint version {version!r}")
        try:
            config = record["config"]
            tagger = cls(
                **{name: config[name] for name in HYPERPARAMETERS}, idf=idf, stopwords=stopwords
            )
            tagger.feature_names_ = tuple(record["feature_names"])
            tagger.weights_ = np.array(record["weights"], dtype=np.float64)
            step = record["step"]
        except KeyError as exc:
            raise DatasetError(f"checkpoint has no key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise DatasetError(f"bad checkpoint: {exc}") from exc
        expected = feature_names(tagger.merge_seed_features)
        if tagger.feature_names_ != expected:
            raise DatasetError("checkpoint feature names do not match this build")
        if tagger.weights_.shape != (len(expected),):
            raise DatasetError("checkpoint weight vector has the wrong dimension")
        if not np.isfinite(tagger.weights_).all():
            raise DatasetError("bad checkpoint: a weight is not finite")
        # bool is a subclass of int, but true is no step
        if type(step) is not int:
            raise DatasetError(f"bad checkpoint: step {step!r} is not an integer")
        tagger.step_ = step
        if idf is not None:
            tagger.idf_ = idf
        if stopwords is not None:
            tagger.stopwords_ = stopwords
        return tagger
