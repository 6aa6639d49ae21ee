"""coclick: mine search-session coclicks into labeled title-highlighting
datasets, train and run token-level explainers, and evaluate them."""

from .base import (
    CoclickError,
    ConfigError,
    DatasetError,
    LabelingError,
    NotFittedError,
    TrainingDiverged,
)
from .dataset import (
    BuildConfig,
    PairExample,
    TokenClickCounts,
    build_examples,
    count_title_token_clicks,
    filter_pair,
    load_dataset,
    select_gold_tokens,
    split_dataset,
    write_dataset,
)
from .evaluate import (
    EvalMetrics,
    Stratum,
    evaluate_predictions,
    stratify_by_clicks,
    stratify_by_similarity,
)
from .explain import (
    Bm25,
    EmbeddingRelevance,
    EmbeddingTable,
    Explainer,
    ExternalScores,
    HighlightAll,
    Overlapper,
    embedding_token_relevance,
    load_external_scores,
    load_stopwords,
    predict_dataset,
    select_top_k,
)
from .logs import (
    PairAggregate,
    SessionEvent,
    parse_log,
)
from .pipeline import PipelineConfig, benchmark_config, run_pipeline
from .scoring import IdfTable, compute_idf
from .synth import SessionLog, SynthConfig, generate_corpus, generate_sessions
from .tagger import TokenTagger, forward, loss_and_grad
from .text import word_tokenize

__version__ = "0.1.0"
