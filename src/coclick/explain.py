"""Non-learned explainer backends and token-selection rules.

Each backend turns a (seed, similar) pair into a set of similar-title tokens
to highlight. Scored backends (BM25, embedding relevance, externally produced
scores) rank tokens and run one of two selection rules: top-K, or max-scaled
softmax with a threshold and a per-title cap. Rule-based backends (highlight
everything, seed-title overlap) select directly.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from importlib import resources
from typing import IO, Iterable, Sequence

from .base import DatasetError, check_fitted
from .dataset import PairExample
from .logs import PairKey
from .scoring import IdfTable, compute_idf, cosine, threshold_cap_select
from .text import WordToken, positions_of, unique_lower

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TokenScore:
    """Relevance score for one similar-title token position."""

    token: str
    word_index: int
    score: float


def load_stopwords(path=None) -> set[str]:
    """Load the stopword list; defaults to the 120-word list shipped with the package."""
    if path is None:
        text = resources.files("coclick").joinpath("data/stopwords.txt").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return {line.strip().lower() for line in text.splitlines() if line.strip()}


def overlapper(
    seed_title_tokens: Sequence[WordToken],
    title_tokens: Sequence[WordToken],
    stopwords: set[str],
    idf: IdfTable | None = None,
    idf_floor: float = 0.0,
) -> set[int]:
    """Select title positions whose token also appears in the seed title.

    Stopwords are excluded, as are tokens whose idf falls below ``idf_floor``
    when a table is supplied.
    """
    seed_set = {t.lower for t in seed_title_tokens}
    selected = set()
    for tok in title_tokens:
        if tok.lower not in seed_set or tok.lower in stopwords:
            continue
        if idf is not None and idf.idf(tok.lower) < idf_floor:
            continue
        selected.add(tok.word_index)
    return selected


def bm25_token_score(
    token: str,
    seed_doc_tokens: Sequence[str],
    idf: IdfTable,
    avgdl: float,
    k1: float = 0.5,
    b: float = 0.3,
) -> float:
    """Standard saturating tf-idf score of ``token`` against the seed document."""
    token = token.lower()
    tf = sum(1 for t in seed_doc_tokens if t.lower() == token)
    if tf == 0:
        return 0.0
    dl = len(seed_doc_tokens)
    return idf.idf(token) * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))


@dataclass
class EmbeddingTable:
    """Token -> vector map loaded from word-vector text format."""

    dim: int
    vectors: dict[str, list[float]]

    def get(self, token: str) -> list[float] | None:
        return self.vectors.get(token.lower())


def load_embeddings(fh: IO[str]) -> EmbeddingTable:
    """Read vectors in the ``count dim`` header text format; dimension errors are fatal."""
    header = fh.readline().split()
    if len(header) != 2:
        raise DatasetError("embedding file must start with a 'count dim' header")
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
        values = [float(x) for x in parts[1:]]
        if any(math.isnan(v) for v in values):
            raise DatasetError(f"embedding line {lineno}: NaN component")
        vectors[parts[0].lower()] = values
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


def _unique_candidates(scores: Sequence[TokenScore]) -> list[TokenScore]:
    """One candidate per lowercase token: best score, earliest position on ties."""
    best: dict[str, TokenScore] = {}
    for ts in sorted(scores, key=lambda s: s.word_index):
        cur = best.get(ts.token)
        if cur is None or ts.score > cur.score:
            best[ts.token] = ts
    return list(best.values())


def select_top_k(
    scores: Sequence[TokenScore], k: int, idf: IdfTable | None = None
) -> set[int]:
    """Positions of the k best-scoring unique tokens.

    Ties break by higher idf (when a table is given), then earlier position.
    """
    candidates = _unique_candidates(scores)
    candidates.sort(
        key=lambda ts: (
            -ts.score,
            -idf.idf(ts.token) if idf is not None else 0.0,
            ts.word_index,
        )
    )
    return {ts.word_index for ts in candidates[: max(0, k)]}


def select_softmax_threshold(
    scores: Sequence[TokenScore], p: float, cap_fraction: float = 0.40
) -> set[int]:
    """Positions of unique tokens whose max-scaled softmax score reaches ``p``.

    Shares the threshold-and-cap rule used for gold-token selection, applied
    to arbitrary real-valued backend scores.
    """
    candidates = _unique_candidates(scores)
    values = [ts.score for ts in candidates]
    positions = [ts.word_index for ts in candidates]
    selected = threshold_cap_select(values, positions, p, cap_fraction)
    return {candidates[i].word_index for i in selected}


def load_external_scores(fh: IO[str]) -> dict[PairKey, list[tuple[str, float]]]:
    """Read externally produced per-token scores (JSON Lines, one pair per line).

    These files are machine-written, so malformed lines and non-finite scores
    are fatal. A repeated pair overwrites the earlier line, with a warning.
    """
    scores: dict[PairKey, list[tuple[str, float]]] = {}
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            key = (record["seed_id"], record["similar_id"])
            entries = [(s["token"].lower(), float(s["score"])) for s in record["scores"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"bad external score record at line {lineno}: {exc}") from exc
        for token, score in entries:
            if not math.isfinite(score):
                raise DatasetError(f"external score for {token!r} at line {lineno} is {score}")
        if key in scores:
            log.warning("duplicate external scores for pair %s at line %d; last wins", key, lineno)
        scores[key] = entries
    return scores


class Explainer:
    """Common interface: optional ``fit`` on corpus documents, then per-example
    prediction of the similar-title tokens to highlight."""

    name = "explainer"

    def fit(self, documents: Iterable[Sequence[str]] | None = None) -> "Explainer":
        return self

    def predict_tokens(self, example: PairExample) -> set[str] | None:
        """Unique lowercase tokens to highlight; None when the example is not covered."""
        raise NotImplementedError

    def predict_positions(self, example: PairExample) -> set[int] | None:
        """Title-level view: every position whose token was predicted."""
        tokens = self.predict_tokens(example)
        if tokens is None:
            return None
        return positions_of(example.similar_title_tokens, tokens)


class HighlightAll(Explainer):
    """Select every unique title token; the recall-1.0 floor baseline."""

    name = "all"

    def predict_tokens(self, example: PairExample) -> set[str]:
        return set(unique_lower(example.similar_title_tokens))


class Overlapper(Explainer):
    """Select title tokens shared with the seed title, minus stopwords."""

    name = "overlap"

    def __init__(self, stopwords: set[str] | None = None, idf_floor: float = 0.0):
        self.stopwords = stopwords
        self.idf_floor = idf_floor
        self.idf_: IdfTable | None = None

    def fit(self, documents: Iterable[Sequence[str]] | None = None) -> "Overlapper":
        if documents is not None:
            self.idf_ = compute_idf(documents)
        return self

    def predict_tokens(self, example: PairExample) -> set[str]:
        stopwords = self.stopwords if self.stopwords is not None else load_stopwords()
        positions = overlapper(
            example.seed_title_tokens,
            example.similar_title_tokens,
            stopwords,
            self.idf_,
            self.idf_floor,
        )
        return {example.similar_title_tokens[i].lower for i in positions}


class ScoredExplainer(Explainer):
    """Base for backends that score each title token then apply a selection rule."""

    selector = "topk"
    k = 3
    p = 0.30
    cap_fraction = 0.40

    def score_tokens(self, example: PairExample) -> list[TokenScore] | None:
        raise NotImplementedError

    def _idf_for_ties(self) -> IdfTable | None:
        return getattr(self, "idf_", None)

    def predict_tokens(self, example: PairExample) -> set[str] | None:
        scores = self.score_tokens(example)
        if scores is None:
            return None
        if self.selector == "topk":
            positions = select_top_k(scores, self.k, self._idf_for_ties())
        elif self.selector == "softmax":
            positions = select_softmax_threshold(scores, self.p, self.cap_fraction)
        else:
            raise ValueError(f"unknown selector {self.selector!r}")
        return {example.similar_title_tokens[i].lower for i in positions}


class Bm25(ScoredExplainer):
    """Score each title token against the seed document with saturating tf-idf.

    The seed document is the seed title; ``use_abstract`` extends it with the
    abstract for ablations. ``fit`` computes idf and the average document
    length over the supplied corpus.
    """

    name = "bm25"

    def __init__(
        self,
        k1: float = 0.5,
        b: float = 0.3,
        use_abstract: bool = False,
        selector: str = "topk",
        k: int = 3,
        p: float = 0.30,
        cap_fraction: float = 0.40,
    ):
        self.k1 = k1
        self.b = b
        self.use_abstract = use_abstract
        self.selector = selector
        self.k = k
        self.p = p
        self.cap_fraction = cap_fraction
        self.idf_: IdfTable | None = None
        self.avgdl_: float | None = None

    def fit(self, documents: Iterable[Sequence[str]] | None = None) -> "Bm25":
        docs = [list(d) for d in (documents or [])]
        if not docs:
            raise DatasetError("Bm25.fit requires at least one document")
        self.idf_ = compute_idf(docs)
        self.avgdl_ = sum(len(d) for d in docs) / len(docs)
        return self

    def _seed_doc(self, example: PairExample) -> list[str]:
        tokens = [t.lower for t in example.seed_title_tokens]
        if self.use_abstract:
            tokens += [t.lower for t in example.seed_abstract_tokens]
        return tokens

    def score_tokens(self, example: PairExample) -> list[TokenScore]:
        check_fitted(self, "idf_")
        seed_doc = self._seed_doc(example)
        return [
            TokenScore(
                tok.lower,
                tok.word_index,
                bm25_token_score(tok.lower, seed_doc, self.idf_, self.avgdl_, self.k1, self.b),
            )
            for tok in example.similar_title_tokens
        ]


class EmbeddingRelevance(ScoredExplainer):
    """Score each title token by summed cosine similarity to the seed title."""

    name = "embed"

    def __init__(
        self,
        table: EmbeddingTable,
        selector: str = "topk",
        k: int = 3,
        p: float = 0.30,
        cap_fraction: float = 0.40,
    ):
        self.table = table
        self.selector = selector
        self.k = k
        self.p = p
        self.cap_fraction = cap_fraction

    def score_tokens(self, example: PairExample) -> list[TokenScore]:
        seed = [t.lower for t in example.seed_title_tokens]
        return [
            TokenScore(
                tok.lower,
                tok.word_index,
                embedding_token_relevance(tok.lower, seed, self.table),
            )
            for tok in example.similar_title_tokens
        ]


class ExternalScores(ScoredExplainer):
    """Serve scores produced outside this package (neural encoders, LLMs).

    Pairs missing from the file are reported as uncovered so the evaluation
    harness can skip and tally them. Generative producers default to a wider
    top-K than ranking models.
    """

    name = "external"

    def __init__(
        self,
        scores: dict[PairKey, list[tuple[str, float]]],
        generative: bool = False,
        selector: str = "topk",
        k: int | None = None,
        p: float = 0.30,
        cap_fraction: float = 0.40,
    ):
        self.scores = scores
        self.generative = generative
        self.selector = selector
        self.k = k if k is not None else (4 if generative else 3)
        self.p = p
        self.cap_fraction = cap_fraction

    def score_tokens(self, example: PairExample) -> list[TokenScore] | None:
        entries = self.scores.get(example.pair_key)
        if entries is None:
            return None
        first_pos: dict[str, int] = {}
        for tok in example.similar_title_tokens:
            first_pos.setdefault(tok.lower, tok.word_index)
        result = []
        for token, score in entries:
            if token not in first_pos:
                raise DatasetError(
                    f"external score token {token!r} is not in the title of pair "
                    f"({example.seed_id}, {example.similar_id})"
                )
            result.append(TokenScore(token, first_pos[token], score))
        return result


def predict_dataset(
    explainer: Explainer, examples: Sequence[PairExample]
) -> tuple[dict[PairKey, set[str]], int]:
    """Run a backend over a dataset; returns predictions keyed by pair + skip tally."""
    predictions: dict[PairKey, set[str]] = {}
    skipped = 0
    for ex in examples:
        tokens = explainer.predict_tokens(ex)
        if tokens is None:
            skipped += 1
            continue
        predictions[ex.pair_key] = tokens
    if skipped:
        log.warning("%s: skipped %d uncovered examples", explainer.name, skipped)
    return predictions, skipped
