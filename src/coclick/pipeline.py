"""The pipeline stages, one function each, and their end-to-end wiring.

``run_synth``, ``run_ingest``, ``run_build``, ``run_train``, ``run_explain``
and ``run_eval`` read and write the stage files; the ``coclick`` subcommands
call them with paths from flags, and ``run_pipeline`` chains them through one
work directory.

Also defines the default desk-scale benchmark configuration: a calibrated
synthetic world small enough to run in well under two minutes while keeping
the click-count labeler's softmax margins wide enough for clean gold sets.
"""

from __future__ import annotations

import json
import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .base import ConfigError, check_ratios
from .dataset import (
    SPLIT_RATIOS,
    BuildConfig,
    build_examples,
    load_dataset,
    lower_tokens,
    split_dataset,
    write_dataset,
)
from .evaluate import (
    MetricsRow,
    load_pair_scores,
    metrics_rows,
    stratify_by_clicks,
    stratify_by_similarity,
    write_metrics_csv,
)
from .explain import Bm25, Explainer, HighlightAll, Overlapper, load_predictions, predict_dataset
from .logs import (
    ParseStats,
    SessionReappeared,
    aggregate_sharded,
    read_aggregates,
    read_metadata,
    sorted_by_session,
    write_aggregates,
    write_events,
    write_metadata,
)
from .scoring import compute_idf
from .synth import SynthConfig, generate_corpus, generate_sessions, write_truth
from .tagger import TokenTagger
from .logs import parse_log  # noqa: F401  (unused here; perfbench/tracing.py wraps this lookup site)
from .text import word_tokenize  # noqa: F401  (unused here; perfbench/tracing.py wraps this lookup site)

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    """One bundle of stage configurations sharing a seed."""

    seed: int = 0
    synth: SynthConfig = field(default_factory=SynthConfig)
    build: BuildConfig = field(default_factory=BuildConfig)
    split_ratios: tuple[float, float, float] = SPLIT_RATIOS
    tagger_total_steps: int = 1500
    tagger_lr: float = 5e-3
    tagger_batch_size: int = 64
    tagger_eval_every: int = 100
    # Read by no stage (ingest aggregates in one serial pass); perfbench records it.
    threads: int = 1


def benchmark_config(seed: int = 42) -> PipelineConfig:
    """The default synthetic benchmark: ~5k coclicked pairs at seed 42.

    Titles are kept in the 9-13 token band and the gold threshold at 0.11 so
    softmax scores of queried topic tokens sit clearly above zero-count
    tokens across the whole length range.
    """
    synth = SynthConfig(
        n_articles=250,
        cluster_size=4,
        topics_per_cluster=3,
        extra_topic_prob=1.0,
        extra_in_title_prob=0.5,
        filler_vocab=500,
        filler_zipf=1.3,
        stopword_vocab=25,
        title_len=(9, 13, 11),
        abstract_len=(30, 50),
        article_zipf=1.1,
        same_cluster_bias=0.95,
        sessions=70000,
        clicks_dist=(0.1, 0.5, 0.4),
        rng_seed=seed,
    )
    build = BuildConfig(gold_threshold=0.11, cap_fraction=0.40)
    return PipelineConfig(seed=seed, synth=synth, build=build)


@dataclass
class PipelineResult:
    workdir: Path
    paths: dict[str, Path]
    n_pairs: int
    drops: dict[str, int]
    split_sizes: dict[str, int]
    metrics: list[MetricsRow]
    elapsed_seconds: float


def corpus_documents(articles: dict) -> list[list[str]]:
    """Per-article token documents (title + abstract) used for idf/avgdl."""
    return [
        lower_tokens(articles[key].title) + lower_tokens(articles[key].abstract) for key in sorted(articles)
    ]


def title_documents(articles: dict) -> list[list[str]]:
    """Per-article title token documents; the default BM25/idf corpus."""
    return [lower_tokens(articles[key].title) for key in sorted(articles)]


def default_backends(articles: dict, tagger: TokenTagger | None = None) -> list[Explainer]:
    """The standard comparison set; BM25 is fitted on the article titles."""
    backends: list[Explainer] = [
        HighlightAll(),
        Overlapper(),
        Bm25().fit(title_documents(articles)),
    ]
    if tagger is not None:
        backends.append(tagger)
    return backends


def run_synth(out_dir: str | Path, config: SynthConfig) -> tuple[int, int]:
    """Write ``raw_log.tsv``, ``articles.tsv`` and ``truth.jsonl`` into ``out_dir``.

    Returns the event and article counts, not the events, so that later
    stages do not hold the event list.
    """
    corpus = generate_corpus(config)
    events = generate_sessions(corpus, config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "raw_log.tsv", "w", encoding="utf-8") as fh:
        write_events(events, fh)
    with open(out_dir / "articles.tsv", "w", encoding="utf-8") as fh:
        write_metadata(corpus.articles, fh)
    with open(out_dir / "truth.jsonl", "w", encoding="utf-8") as fh:
        write_truth(corpus, fh)
    return len(events), len(corpus.articles)


def run_ingest(log_path: str | Path, out_path: str | Path) -> tuple[ParseStats, int]:
    """Stream the raw log into pair aggregates; returns the parse tallies and pair count.

    The log is opened once and counted by :func:`aggregate_sharded`, which
    holds one session's clicks and one hash per session. If its sessions are
    not contiguous (or two ids share a hash), one warning is logged and the
    log is read again, sorted by session in memory; a log that cannot seek,
    such as a pipe, is sorted so at once. Every path writes the same aggregates.
    """
    stats = ParseStats()
    with open(log_path, encoding="utf-8") as fh:
        try:
            aggregates = aggregate_sharded(fh if fh.seekable() else sorted_by_session(fh), stats)
        except SessionReappeared:
            log.warning(
                "%s: the log's sessions are not contiguous; reading the log again and sorting it "
                "by session in memory (sort -s -t$'\\t' -k1,1 groups each session's lines)",
                log_path,
            )
            aggregates = None
        # Re-read outside the handler: the signal's traceback holds the first
        # pass's aggregates and session hashes until the handler ends.
        if aggregates is None:
            fh.seek(0)
            stats = ParseStats()
            aggregates = aggregate_sharded(sorted_by_session(fh), stats)
    with open(out_path, "w", encoding="utf-8") as fh:
        write_aggregates(aggregates, fh)
    return stats, len(aggregates)


@dataclass
class BuildSummary:
    """What ``run_build`` read, dropped and wrote."""

    n_pairs: int
    drops: dict[str, int]
    split_paths: dict[str, str]
    split_sizes: dict[str, int]


def run_build(
    aggregates_path: str | Path,
    articles_path: str | Path,
    out_prefix: str | Path,
    config: BuildConfig,
    ratios: tuple[float, float, float],
    seed: int,
) -> BuildSummary:
    """Label and filter the aggregates, then write ``<out_prefix>.<split>.jsonl``."""
    check_ratios(ratios)  # before the inputs are read, not after the labeling
    with open(aggregates_path, encoding="utf-8") as fh:
        aggregates = read_aggregates(fh)
    with open(articles_path, encoding="utf-8") as fh:
        articles = read_metadata(fh)
    examples, drops = build_examples(aggregates, articles, config)
    splits = split_dataset(examples, ratios, seed)
    paths = {name: f"{out_prefix}.{name}.jsonl" for name in splits}
    for name, part in splits.items():
        with open(paths[name], "w", encoding="utf-8") as fh:
            write_dataset(part, fh)
    return BuildSummary(
        n_pairs=len(aggregates),
        drops=drops,
        split_paths=paths,
        split_sizes={name: len(part) for name, part in splits.items()},
    )


def run_train(
    train_path: str | Path,
    dev_path: str | Path | None,
    articles_path: str | Path,
    out_path: str | Path,
    metrics_log_path: str | Path | None,
    tagger: TokenTagger,
) -> tuple[int, int]:
    """Fit ``tagger`` (hyperparameters set, idf taken from the article titles) and save it.

    Returns the number of train and dev examples; with no dev examples the
    last step's weights are kept.
    """
    with open(train_path, encoding="utf-8") as fh:
        train = load_dataset(fh)
    dev = []
    if dev_path:
        with open(dev_path, encoding="utf-8") as fh:
            dev = load_dataset(fh)
    with open(articles_path, encoding="utf-8") as fh:
        articles = read_metadata(fh)
    tagger.idf = compute_idf(title_documents(articles))
    with (open(metrics_log_path, "w", encoding="utf-8") if metrics_log_path else nullcontext()) as log:
        tagger.fit(train, dev, metrics_log=log)
    with open(out_path, "w", encoding="utf-8") as fh:
        tagger.save(fh)
    return len(train), len(dev)


def run_explain(
    dataset_path: str | Path, outputs: list[tuple[Explainer, str | Path]]
) -> tuple[int, list[int]]:
    """For each ``(backend, out_path)`` of ``outputs``, write the backend's
    tokens for each example of the dataset to ``out_path``.

    The dataset is loaded once. An example a backend does not cover gets no
    line. Returns the number of examples and, per output, of predictions
    written.
    """
    with open(dataset_path, encoding="utf-8") as fh:
        examples = load_dataset(fh)
    written = []
    for backend, out_path in outputs:
        predictions, _ = predict_dataset(backend, examples)
        with open(out_path, "w", encoding="utf-8") as fh:
            # predict_dataset keys its map in dataset order
            for (seed_id, similar_id), tokens in predictions.items():
                record = {"seed_id": seed_id, "similar_id": similar_id, "tokens": sorted(tokens)}
                fh.write(json.dumps(record) + "\n")
        written.append(len(predictions))
    return len(examples), written


def run_eval(
    dataset_path: str | Path,
    preds: list[tuple[str, str | Path]],
    out_path: str | Path,
    strata: str = "none",
    pair_scores_path: str | Path | None = None,
    granularities: tuple[str, ...] = ("token", "title"),
    micro: bool = False,
) -> list[MetricsRow]:
    """Score each ``(name, predictions path)`` of ``preds`` against the dataset
    and write the metrics CSV to ``out_path``; returns its rows.

    ``strata`` is ``"none"``, ``"clicks"`` or ``"similarity"``; similarity
    quintiles read their scores from ``pair_scores_path``.
    """
    if strata not in ("none", "clicks", "similarity"):
        raise ConfigError(f"strata must be 'none', 'clicks' or 'similarity', got {strata!r}")
    if strata == "similarity" and pair_scores_path is None:
        raise ConfigError("similarity strata require pair_scores_path")
    with open(dataset_path, encoding="utf-8") as fh:
        examples = load_dataset(fh)
    groups = None
    if strata == "clicks":
        groups = stratify_by_clicks(examples)
    elif strata == "similarity":
        with open(pair_scores_path, encoding="utf-8") as fh:
            groups, _ = stratify_by_similarity(examples, load_pair_scores(fh))
    rows = []
    for name, path in preds:
        rows.extend(metrics_rows(name, examples, load_predictions(path), granularities, groups, micro))
    with open(out_path, "w", encoding="utf-8") as fh:
        write_metrics_csv(rows, fh)
    return rows


def run_pipeline(workdir: str | Path, config: PipelineConfig | None = None) -> PipelineResult:
    """Run every stage into ``workdir`` and return paths plus the metrics table."""
    if config is None:
        config = benchmark_config()
    started = time.monotonic()
    workdir = Path(workdir)
    paths = {
        "raw_log": workdir / "raw_log.tsv",
        "articles": workdir / "articles.tsv",
        "truth": workdir / "truth.jsonl",
        "aggregates": workdir / "aggregates.jsonl",
        "train": workdir / "dataset.train.jsonl",
        "dev": workdir / "dataset.dev.jsonl",
        "test": workdir / "dataset.test.jsonl",
        "checkpoint": workdir / "tagger.json",
        "train_log": workdir / "training_metrics.csv",
        "metrics": workdir / "metrics.csv",
    }

    run_synth(workdir, config.synth)
    run_ingest(paths["raw_log"], paths["aggregates"])
    build = run_build(
        paths["aggregates"], paths["articles"], workdir / "dataset",
        config.build, config.split_ratios, config.seed,
    )
    tagger = TokenTagger(
        lr=config.tagger_lr,
        total_steps=config.tagger_total_steps,
        batch_size=config.tagger_batch_size,
        eval_every=config.tagger_eval_every,
        rng_seed=config.seed,
    )
    run_train(paths["train"], paths["dev"], paths["articles"], paths["checkpoint"], paths["train_log"], tagger)

    # explain + eval on the held-out test split
    with open(paths["articles"], encoding="utf-8") as fh:
        articles = read_metadata(fh)
    outputs = []
    for backend in default_backends(articles, tagger):
        path = paths[f"pred.{backend.name}"] = workdir / f"pred.{backend.name}.jsonl"
        outputs.append((backend, path))
    run_explain(paths["test"], outputs)
    preds = [(backend.name, path) for backend, path in outputs]
    rows = run_eval(paths["test"], preds, paths["metrics"], "clicks")

    return PipelineResult(
        workdir=workdir,
        paths=paths,
        n_pairs=build.n_pairs,
        drops=build.drops,
        split_sizes=build.split_sizes,
        metrics=rows,
        elapsed_seconds=time.monotonic() - started,
    )
