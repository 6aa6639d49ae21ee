"""Non-learned explainer backends and token-selection rules.

Each backend turns a (seed, similar) pair into a set of similar-title tokens
to highlight. Scored backends (BM25, embedding relevance, externally produced
scores) score each unique title token and run one of two selection rules:
top-K, or the max-scaled softmax threshold with a per-title cap that also
picks the gold tokens. Rule-based backends (highlight everything, seed-title
overlap) select directly.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .base import (
    ConfigError,
    DatasetError,
    check_fitted,
    json_number,
    json_pair_key,
    read_pair_records,
    undecodable_line,
)
from .dataset import PairExample
from .logs import PairKey
from .scoring import IdfTable, compute_idf, cosine, threshold_cap_select

log = logging.getLogger(__name__)

# Examples per predict_block call in predict_dataset: bounds the stacked
# matrix a batched backend builds at once.
_PREDICT_BLOCK = 512


def load_stopwords(path=None) -> set[str]:
    """Load the stopword list; defaults to the 120-word list shipped with the package."""
    if path is None:
        text = resources.files("coclick").joinpath("data/stopwords.txt").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                # read() decodes the whole file at once, so no line was read before it.
                raise DatasetError(f"stopword line {undecodable_line(exc, 0)}: {exc}") from exc
    return {line.strip().lower() for line in text.splitlines() if line.strip()}


@dataclass
class EmbeddingTable:
    """Token -> vector map loaded from word-vector text format."""

    dim: int
    vectors: dict[str, list[float]]

    def get(self, token: str) -> list[float] | None:
        return self.vectors.get(token.lower())


def load_embeddings(fh: IO[str]) -> EmbeddingTable:
    """Read vectors in the ``count dim`` header text format.

    The file is machine-written, so a bad header, a wrong component count, a
    component that is not a finite number and a line that is not UTF-8 are
    fatal, with the line number.
    """
    lineno = 0
    try:
        header = fh.readline().split()
        lineno = 1
        if len(header) != 2 or not all(field.isdecimal() for field in header) or int(header[1]) < 1:
            raise DatasetError(
                f"embedding line 1: expected a 'count dim' header, got {' '.join(header)!r}"
            )
        dim = int(header[1])
        vectors: dict[str, list[float]] = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise DatasetError(
                    f"embedding line {lineno}: expected {dim} components, got {len(parts) - 1}"
                )
            try:
                values = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise DatasetError(f"embedding line {lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in values):
                raise DatasetError(f"embedding line {lineno}: non-finite component")
            vectors[parts[0].lower()] = values
    except UnicodeDecodeError as exc:
        raise DatasetError(f"embedding line {undecodable_line(exc, lineno)}: {exc}") from exc
    return EmbeddingTable(dim=dim, vectors=vectors)


def embedding_token_relevance(
    token: str, seed_title_tokens: Sequence[str], table: EmbeddingTable
) -> float:
    """Sum of cosine similarities between ``token`` and every seed-title token.

    Out-of-vocabulary operands contribute 0 to the sum.
    """
    vec = table.get(token)
    if vec is None:
        return 0.0
    total = 0.0
    for seed_tok in seed_title_tokens:
        seed_vec = table.get(seed_tok)
        if seed_vec is not None:
            total += cosine(vec, seed_vec)
    return total


def select_top_k(scores: Mapping[str, float], k: int, idf: IdfTable | None = None) -> set[str]:
    """The k best-scoring tokens of ``scores``, which is in title order.

    Ties break by higher idf (when a table is given), then earlier position.
    """
    ranked = sorted(scores, key=lambda t: (-scores[t], -idf.idf(t) if idf is not None else 0.0))
    return set(ranked[: max(0, k)])


def _external_entry(token, score) -> tuple[str, float]:
    """One loaded score entry; TypeError unless ``token`` is a string and ``score``
    a JSON number, ValueError unless that number is finite."""
    if not isinstance(token, str):
        raise TypeError(f"token must be a string, got {token!r}")
    value = json_number(score, f"score for {token!r}")
    if not math.isfinite(value):
        raise ValueError(f"score for {token!r} is {value}")
    return token.lower(), value


def _parse_external_scores(record: dict) -> tuple[PairKey, list[tuple[str, float]]]:
    return json_pair_key(record), [_external_entry(s["token"], s["score"]) for s in record["scores"]]


def load_external_scores(fh: IO[str]) -> dict[PairKey, list[tuple[str, float]]]:
    """Read externally produced per-token scores (JSON Lines, one pair per line).

    :func:`read_pair_records` rejects a bad or repeated pair. A record is bad
    when an id or token is not a string or a score is not a finite JSON
    number.
    """
    return read_pair_records(fh, "external score", _parse_external_scores)


def _parse_prediction(record: dict) -> tuple[PairKey, set[str]]:
    tokens = record["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise TypeError(f"tokens must be a list of strings, got {tokens!r}")
    return json_pair_key(record), set(tokens)


def load_predictions(path: str | Path) -> dict[PairKey, set[str]]:
    """Read a predictions file; :func:`read_pair_records` rejects a bad or repeated
    pair at ``path:line``. A record is bad when an id is not a string or
    ``tokens`` is not a list of strings."""
    with open(path, encoding="utf-8") as fh:
        return read_pair_records(fh, "prediction", _parse_prediction, str(path))


class Explainer:
    """Common interface: optional ``fit`` on corpus documents, then per-example
    prediction of the similar-title tokens to highlight."""

    name = "explainer"

    def fit(self, documents: Iterable[Sequence[str]] | None = None) -> "Explainer":
        return self

    def predict_tokens(self, example: PairExample) -> set[str] | None:
        """Unique lowercase tokens to highlight; None when the example is not covered."""
        raise NotImplementedError

    def predict_block(self, examples: Sequence[PairExample]) -> list[set[str] | None]:
        """``predict_tokens`` of each example, in order; overridden by backends
        that predict many examples at once more cheaply."""
        return [self.predict_tokens(ex) for ex in examples]


class HighlightAll(Explainer):
    """Select every unique title token; the recall-1.0 floor baseline."""

    name = "all"

    def predict_tokens(self, example: PairExample) -> set[str]:
        return set(example.similar_title_tokens)


class Overlapper(Explainer):
    """Select title tokens shared with the seed title, minus stopwords.

    Once ``fit`` has computed an idf table, tokens whose idf falls below
    ``idf_floor`` are excluded too. Without ``stopwords``, the packaged list
    is read once, at construction.
    """

    name = "overlap"

    def __init__(self, stopwords: set[str] | None = None, idf_floor: float = 0.0):
        self.stopwords = stopwords if stopwords is not None else load_stopwords()
        self.idf_floor = idf_floor
        self.idf_: IdfTable | None = None

    def fit(self, documents: Iterable[Sequence[str]] | None = None) -> "Overlapper":
        if documents is not None:
            self.idf_ = compute_idf(documents)
        return self

    def predict_tokens(self, example: PairExample) -> set[str]:
        seed = set(example.seed_title_tokens)
        idf = self.idf_
        return {
            tok
            for tok in example.similar_title_tokens
            if tok in seed
            and tok not in self.stopwords
            and (idf is None or idf.idf(tok) >= self.idf_floor)
        }


SELECTORS = ("topk", "softmax")


class ScoredExplainer(Explainer):
    """Base for backends that score each unique title token then apply a selection rule.

    ``score_tokens`` returns one score per unique lowercase title token, in
    title order, or None for an uncovered pair. ``selector`` is ``"topk"``
    (the ``k`` best tokens, ties to higher idf when the backend has an
    ``idf_`` table, then to the earlier token) or ``"softmax"`` (the
    labeler's rule: max-scaled softmax at threshold ``p``, capped at
    ``cap_fraction`` of the scored tokens). Subclasses take these four as
    keyword arguments and pass them on.
    """

    def __init__(
        self, selector: str = "topk", k: int = 3, p: float = 0.30, cap_fraction: float = 0.40
    ):
        if selector not in SELECTORS:
            raise ConfigError(f"unknown selector {selector!r}; expected one of {SELECTORS}")
        self.selector = selector
        self.k = k
        self.p = p
        self.cap_fraction = cap_fraction

    def score_tokens(self, example: PairExample) -> dict[str, float] | None:
        raise NotImplementedError

    def predict_tokens(self, example: PairExample) -> set[str] | None:
        scores = self.score_tokens(example)
        if scores is None:
            return None
        if self.selector == "topk":
            return select_top_k(scores, self.k, getattr(self, "idf_", None))
        return threshold_cap_select(scores, self.p, self.cap_fraction)


class Bm25(ScoredExplainer):
    """Score each title token against the seed document with saturating tf-idf.

    The seed document is the seed title; ``use_abstract`` extends it with the
    abstract for ablations. ``fit`` computes idf and the average document
    length over the supplied corpus.
    """

    name = "bm25"

    def __init__(self, k1: float = 0.5, b: float = 0.3, use_abstract: bool = False, **selection):
        super().__init__(**selection)
        self.k1 = k1
        self.b = b
        self.use_abstract = use_abstract
        self.idf_: IdfTable | None = None
        self.avgdl_: float | None = None

    def fit(self, documents: Iterable[Sequence[str]] | None = None) -> "Bm25":
        docs = [list(d) for d in (documents or [])]
        if not docs:
            raise DatasetError("Bm25.fit requires at least one document")
        self.idf_ = compute_idf(docs)
        self.avgdl_ = sum(len(d) for d in docs) / len(docs)
        return self

    def score_tokens(self, example: PairExample) -> dict[str, float]:
        check_fitted(self, "idf_")
        seed_doc = example.seed_title_tokens
        if self.use_abstract:
            seed_doc = seed_doc + example.seed_abstract_tokens
        # The token views are lowercase, so exact counts are the case-folded ones.
        tf = Counter(seed_doc)
        idf, k1, b = self.idf_, self.k1, self.b
        length_norm = k1 * (1.0 - b + b * len(seed_doc) / self.avgdl_)
        scores = {}
        for tok in dict.fromkeys(example.similar_title_tokens):
            n = tf[tok]
            scores[tok] = idf.idf(tok) * n * (k1 + 1.0) / (n + length_norm) if n else 0.0
        return scores


class EmbeddingRelevance(ScoredExplainer):
    """Score each title token by summed cosine similarity to the seed title."""

    name = "embed"

    def __init__(self, table: EmbeddingTable, **selection):
        super().__init__(**selection)
        self.table = table

    def score_tokens(self, example: PairExample) -> dict[str, float]:
        seed = example.seed_title_tokens
        return {
            tok: embedding_token_relevance(tok, seed, self.table)
            for tok in dict.fromkeys(example.similar_title_tokens)
        }


class ExternalScores(ScoredExplainer):
    """Serve scores produced outside this package (neural encoders, LLMs).

    Pairs missing from the file are reported as uncovered so the evaluation
    harness can skip and tally them. A token scored more than once keeps its
    highest score. Generative producers default to a wider top-K than
    ranking models.
    """

    name = "external"

    def __init__(
        self,
        scores: dict[PairKey, list[tuple[str, float]]],
        generative: bool = False,
        k: int | None = None,
        **selection,
    ):
        super().__init__(k=k if k is not None else (4 if generative else 3), **selection)
        self.scores = scores

    def score_tokens(self, example: PairExample) -> dict[str, float] | None:
        entries = self.scores.get(example.pair_key)
        if entries is None:
            return None
        title = dict.fromkeys(example.similar_title_tokens)
        best: dict[str, float] = {}
        for token, score in entries:
            if token not in title:
                raise DatasetError(
                    f"external score token {token!r} is not in the title of pair "
                    f"({example.seed_id}, {example.similar_id})"
                )
            if token not in best or score > best[token]:
                best[token] = score
        return {tok: best[tok] for tok in title if tok in best}


def predict_dataset(
    explainer: Explainer, examples: Sequence[PairExample]
) -> tuple[dict[PairKey, set[str]], int]:
    """Run a backend over a dataset; returns predictions keyed by pair, in dataset
    order, and the skip tally. The backend predicts blocks of examples."""
    predictions: dict[PairKey, set[str]] = {}
    skipped = 0
    for start in range(0, len(examples), _PREDICT_BLOCK):
        block = examples[start : start + _PREDICT_BLOCK]
        for ex, tokens in zip(block, explainer.predict_block(block)):
            if tokens is None:
                skipped += 1
                continue
            predictions[ex.pair_key] = tokens
    if skipped:
        log.warning("%s: skipped %d uncovered examples", explainer.name, skipped)
    return predictions, skipped
