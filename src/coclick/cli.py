"""Command-line front door: synth -> ingest -> build -> train -> explain -> eval -> report.

Each stage reads and writes only its documented file formats, so stages can
be re-run, swapped, or fed externally produced files. A plain key=value
--config file supplies defaults; explicit flags win. Exit codes: 0 ok,
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .base import CoclickError, ConfigError
from .dataset import BuildConfig, load_dataset
from .explain import (
    SELECTORS,
    Bm25,
    EmbeddingRelevance,
    ExternalScores,
    HighlightAll,
    Overlapper,
    load_embeddings,
    load_external_scores,
    load_predictions,
    load_stopwords,
)
from .logs import DROP_REASONS, read_metadata
from .pipeline import (
    corpus_documents,
    run_build,
    run_eval,
    run_explain,
    run_ingest,
    run_synth,
    run_train,
    title_documents,
)
from .report import (
    corpus_stats,
    emit_ab_study,
    read_csv,
    render_case,
    tally_preferences,
    write_csv,
)
from .scoring import compute_idf
from .synth import SynthConfig
from .tagger import TokenTagger
from .text import positions_of

# Not called here: perfbench/tracing.py wraps these stage functions on
# coclick.cli as well as on coclick.pipeline, and fails if one is missing.
from .dataset import build_examples, split_dataset, write_dataset  # noqa: F401
from .evaluate import metrics_rows  # noqa: F401
from .explain import predict_dataset  # noqa: F401
from .logs import aggregate_sharded, parse_log, read_aggregates, write_aggregates  # noqa: F401


class UsageError(CoclickError):
    """Bad flag combination; exits with the usage status."""


def _triple(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _int_triple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _pred_pair(text: str) -> tuple[str, str]:
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=FILE, got {text!r}")
    return name, path


def build_parser() -> argparse.ArgumentParser:
    # No parser accepts a prefix of a long flag: main() finds --config only by
    # its full spelling, so an abbreviated one would be parsed and never read.
    parser = argparse.ArgumentParser(
        prog="coclick",
        description="coclick-log mining, explainer training, and evaluation",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p):
        p.add_argument("--config", help="key=value defaults file; explicit flags win")
        p.add_argument("--seed", type=int, default=0, help="rng seed threaded end to end")
        p.add_argument(
            "--threads", type=int, default=os.cpu_count() or 1,
            help="accepted for compatibility; aggregation is one serial pass whatever its value",
        )

    p = add_parser("synth", help="generate a synthetic corpus and click log")
    common(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-articles", type=int, default=400)
    p.add_argument("--cluster-size", type=int, default=4)
    p.add_argument("--topics-per-cluster", type=int, default=4)
    p.add_argument("--extra-topic-prob", type=float, default=0.5)
    p.add_argument("--extra-in-title-prob", type=float, default=0.5)
    p.add_argument("--filler-vocab", type=int, default=500)
    p.add_argument("--filler-zipf", type=float, default=1.3)
    p.add_argument("--stopword-vocab", type=int, default=25)
    p.add_argument("--title-len", type=_int_triple, default=(7, 25, 19), metavar="MIN,MAX,MODE")
    p.add_argument("--abstract-len", type=_int_triple, default=(30, 50), metavar="MIN,MAX")
    p.add_argument("--zipf", type=float, default=1.1, help="article popularity exponent")
    p.add_argument("--same-cluster-bias", type=float, default=0.9)
    p.add_argument("--sessions", type=int, default=10000)
    p.add_argument("--clicks-dist", type=_triple, default=(0.3, 0.5, 0.2), metavar="P1,P2,P3")
    p.add_argument("--query-sizes", type=_triple, default=(0.1, 0.45, 0.45, 0.0), metavar="P1,P2,P3,P4")
    p.set_defaults(func=cmd_synth)

    p = add_parser("ingest", help="parse a raw log into pair aggregates")
    common(p)
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = add_parser("build", help="label and filter aggregates into a dataset")
    common(p)
    p.add_argument("--aggregates", required=True)
    p.add_argument("--articles", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--p", type=float, default=0.30, help="gold softmax threshold")
    p.add_argument("--cap", type=float, default=0.40, help="cap fraction of unique tokens")
    p.add_argument("--min-clicks", type=int, default=20)
    p.add_argument("--min-title-len", type=int, default=7)
    p.add_argument("--min-nonzero", type=int, default=3)
    p.add_argument("--ratios", type=_triple, default=(0.8, 0.1, 0.1), metavar="TRAIN,DEV,TEST")
    p.set_defaults(func=cmd_build)

    p = add_parser("train", help="train the token tagger")
    common(p)
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--dev", dest="dev_path")
    p.add_argument("--articles", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--metrics-log", help="CSV training log path")
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.999)
    p.add_argument("--warmup-steps", type=int)
    p.add_argument("--total-steps", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--eval-every", type=int, default=100)
    p.add_argument("--decision-threshold", type=float, default=0.5)
    p.add_argument("--max-len", type=int, default=512)
    p.add_argument("--merge-seed-features", action="store_true")
    p.set_defaults(func=cmd_train)

    p = add_parser("explain", help="run a backend over a dataset")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="predictions JSONL path")
    p.add_argument(
        "--backend",
        required=True,
        choices=["all", "overlap", "bm25", "embed", "external", "tagger"],
    )
    p.add_argument("--select", choices=SELECTORS, default="topk")
    p.add_argument(
        "--k", type=int, help="top-K size (default 3; 4 for --backend external --generative)"
    )
    p.add_argument("--p", type=float, default=0.30, help="softmax selection threshold")
    p.add_argument("--cap", type=float, default=0.40)
    p.add_argument("--articles", help="metadata TSV for idf/avgdl")
    p.add_argument("--stopwords", help="override the packaged stopword list")
    p.add_argument("--idf-floor", type=float, default=0.0)
    p.add_argument("--bm25-use-abstract", action="store_true")
    p.add_argument("--embeddings", help="word-vector text file for --backend embed")
    p.add_argument("--scores", help="external score JSONL for --backend external")
    p.add_argument("--generative", action="store_true", help="external scores from a generative model")
    p.add_argument("--checkpoint", help="tagger checkpoint for --backend tagger")
    p.set_defaults(func=cmd_explain)

    p = add_parser("eval", help="score prediction files against a dataset")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--pred", type=_pred_pair, action="append", required=True, metavar="NAME=FILE")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--granularity", choices=["token", "title", "both"], default="both")
    p.add_argument("--micro", action="store_true", help="pooled counts instead of macro averages")
    p.add_argument("--strata", choices=["none", "clicks", "similarity"], default="none")
    p.add_argument("--pair-scores", help="similarity scores JSONL for --strata similarity")
    p.set_defaults(func=cmd_eval)

    p = add_parser("report", help="case studies, A/B sheets, corpus stats")
    common(p)
    p.add_argument("--kind", choices=["cases", "ab", "stats", "tally"], required=True)
    p.add_argument("--dataset")
    p.add_argument("--pred", type=_pred_pair, action="append", metavar="NAME=FILE")
    p.add_argument("--format", choices=["plain", "markdown", "html"], default="markdown")
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--out")
    p.add_argument("--pred-a", type=_pred_pair, metavar="NAME=FILE")
    p.add_argument("--pred-b", type=_pred_pair, metavar="NAME=FILE")
    p.add_argument("--sheet", help="A/B sheet CSV output")
    p.add_argument("--key", help="A/B answer key CSV output")
    p.add_argument("--choices", help="marked A/B sheet CSV for --kind tally")
    p.set_defaults(func=cmd_report)

    return parser


def _config_flags(path: str) -> list[str]:
    """Turn a key=value file into argv flags (prepended, so real flags win)."""
    flags: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"config line is not key=value: {raw.strip()!r}")
            flag = "--" + key.strip().replace("_", "-")
            value = value.strip()
            if value.lower() == "true":
                flags.append(flag)
            elif value.lower() == "false":
                pass  # boolean flags default to false
            else:
                flags.extend([flag, value])
    return flags


def _config_path(args: list[str]) -> str | None:
    """The file of the first ``--config FILE`` or ``--config=FILE`` in ``args``.

    A trailing ``--config`` without a value is left for argparse to reject.
    """
    for i, arg in enumerate(args):
        if arg.startswith("--config="):
            return arg.partition("=")[2]
        if arg == "--config" and i + 1 < len(args):
            return args[i + 1]
    return None


def cmd_synth(args) -> int:
    config = SynthConfig(
        n_articles=args.n_articles,
        cluster_size=args.cluster_size,
        topics_per_cluster=args.topics_per_cluster,
        extra_topic_prob=args.extra_topic_prob,
        extra_in_title_prob=args.extra_in_title_prob,
        filler_vocab=args.filler_vocab,
        filler_zipf=args.filler_zipf,
        stopword_vocab=args.stopword_vocab,
        title_len=tuple(args.title_len),
        abstract_len=tuple(args.abstract_len),
        article_zipf=args.zipf,
        same_cluster_bias=args.same_cluster_bias,
        sessions=args.sessions,
        clicks_dist=tuple(args.clicks_dist),
        query_size_weights=tuple(args.query_sizes),
        rng_seed=args.seed,
    )
    n_events, n_articles = run_synth(args.out_dir, config)
    print(f"wrote {n_events} events for {n_articles} articles to {Path(args.out_dir)}")
    return 0


def cmd_ingest(args) -> int:
    stats, n_pairs = run_ingest(args.log, args.out)
    print(
        f"parsed {stats.parsed} events ({stats.malformed} malformed lines skipped), "
        f"{n_pairs} coclicked pairs -> {args.out}"
    )
    print("malformed lines by reason: " + ", ".join(f"{r} {getattr(stats, r)}" for r in DROP_REASONS))
    return 0


def cmd_build(args) -> int:
    config = BuildConfig(
        gold_threshold=args.p,
        cap_fraction=args.cap,
        min_clicks=args.min_clicks,
        min_title_len=args.min_title_len,
        min_nonzero=args.min_nonzero,
    )
    summary = run_build(args.aggregates, args.articles, args.out_prefix, config, tuple(args.ratios), args.seed)
    for name, path in summary.split_paths.items():
        print(f"{name}: {summary.split_sizes[name]} examples -> {path}")
    kept = sum(summary.split_sizes.values())
    print(f"kept {kept} of {summary.n_pairs} pairs; drops: {json.dumps(summary.drops, sort_keys=True)}")
    return 0


def cmd_train(args) -> int:
    tagger = TokenTagger(
        lr=args.lr,
        beta1=args.beta1,
        beta2=args.beta2,
        warmup_steps=args.warmup_steps,
        total_steps=args.total_steps,
        batch_size=args.batch_size,
        rng_seed=args.seed,
        eval_every=args.eval_every,
        decision_threshold=args.decision_threshold,
        merge_seed_features=args.merge_seed_features,
        max_len=args.max_len,
    )
    n_train, n_dev = run_train(
        args.train_path, args.dev_path, args.articles, args.out, args.metrics_log, tagger
    )
    best = f", best dev F1 at step {tagger.step_}" if n_dev else ""
    print(f"trained on {n_train} examples{best} -> {args.out}")
    return 0


def _build_backend(args):
    stopwords = load_stopwords(args.stopwords)
    articles = None
    if args.articles:
        with open(args.articles, encoding="utf-8") as fh:
            articles = read_metadata(fh)

    def require_articles(backend_name):
        if articles is None:
            raise UsageError(f"--backend {backend_name} requires --articles")

    selection = dict(selector=args.select, p=args.p, cap_fraction=args.cap)
    if args.k is not None:
        selection["k"] = args.k

    if args.backend == "all":
        return HighlightAll()
    if args.backend == "overlap":
        require_articles("overlap")
        overlap = Overlapper(stopwords=stopwords, idf_floor=args.idf_floor)
        # Smoothed idf is always above 0, so only a positive floor needs the table.
        return overlap.fit(title_documents(articles)) if args.idf_floor > 0 else overlap
    if args.backend == "bm25":
        require_articles("bm25")
        docs = corpus_documents(articles) if args.bm25_use_abstract else title_documents(articles)
        return Bm25(use_abstract=args.bm25_use_abstract, **selection).fit(docs)
    if args.backend == "embed":
        if not args.embeddings:
            raise UsageError("--backend embed requires --embeddings")
        with open(args.embeddings, encoding="utf-8") as fh:
            table = load_embeddings(fh)
        return EmbeddingRelevance(table, **selection)
    if args.backend == "external":
        if not args.scores:
            raise UsageError("--backend external requires --scores")
        with open(args.scores, encoding="utf-8") as fh:
            scores = load_external_scores(fh)
        return ExternalScores(scores, generative=args.generative, **selection)
    if args.backend == "tagger":
        if not args.checkpoint:
            raise UsageError("--backend tagger requires --checkpoint")
        require_articles("tagger")
        with open(args.checkpoint, encoding="utf-8") as fh:
            return TokenTagger.load(
                fh, idf=compute_idf(title_documents(articles)), stopwords=stopwords
            )
    raise UsageError(f"unknown backend {args.backend!r}")


def cmd_explain(args) -> int:
    backend = _build_backend(args)
    n_examples, (n_predicted,) = run_explain(args.dataset, [(backend, args.out)])
    skipped = n_examples - n_predicted
    note = f" ({skipped} uncovered skipped)" if skipped else ""
    print(f"{backend.name}: predicted {n_predicted} of {n_examples} examples{note} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.strata == "similarity" and not args.pair_scores:
        raise UsageError("--strata similarity requires --pair-scores")
    granularities = ("token", "title") if args.granularity == "both" else (args.granularity,)
    rows = run_eval(args.dataset, args.pred, args.out, args.strata, args.pair_scores, granularities, args.micro)
    convention = "micro (pooled counts)" if args.micro else "macro (mean of per-instance rates)"
    print(f"wrote {len(rows)} metric rows [{convention}] -> {args.out}")
    return 0


def cmd_report(args) -> int:
    if args.kind == "cases":
        if not (args.dataset and args.pred):
            raise UsageError("--kind cases requires --dataset and --pred")
        with open(args.dataset, encoding="utf-8") as fh:
            examples = load_dataset(fh)
        model_preds = {name: load_predictions(path) for name, path in args.pred}
        blocks = []
        for ex in examples[: args.limit]:
            per_backend = {}
            for name, preds in model_preds.items():
                tokens = preds.get(ex.pair_key, set())
                per_backend[name] = positions_of(ex.similar_title_tokens, tokens)
            blocks.append(render_case(ex, per_backend, fmt=args.format))
        text = "\n".join(blocks)
    elif args.kind == "ab":
        if not (args.dataset and args.pred_a and args.pred_b and args.sheet and args.key):
            raise UsageError("--kind ab requires --dataset, --pred-a, --pred-b, --sheet, --key")
        with open(args.dataset, encoding="utf-8") as fh:
            examples = load_dataset(fh)
        name_a, path_a = args.pred_a
        name_b, path_b = args.pred_b
        study = emit_ab_study(
            examples, name_a, load_predictions(path_a), name_b, load_predictions(path_b), args.seed
        )
        with open(args.sheet, "w", encoding="utf-8") as fh:
            write_csv(study.sheet_rows, fh)
        with open(args.key, "w", encoding="utf-8") as fh:
            write_csv(study.key_rows, fh)
        print(f"wrote blinded sheet -> {args.sheet}, key -> {args.key}")
        return 0
    elif args.kind == "stats":
        if not args.dataset:
            raise UsageError("--kind stats requires --dataset")
        with open(args.dataset, encoding="utf-8") as fh:
            examples = load_dataset(fh)
        text = json.dumps(corpus_stats(examples), indent=2, sort_keys=True)
    elif args.kind == "tally":
        if not (args.choices and args.key):
            raise UsageError("--kind tally requires --choices and --key")
        with open(args.choices, encoding="utf-8") as fh:
            choices = read_csv(fh)
        with open(args.key, encoding="utf-8") as fh:
            key_rows = read_csv(fh)
        tallies = tally_preferences(choices, key_rows)
        text = json.dumps(tallies, indent=2, sort_keys=True)
    else:
        raise UsageError(f"unknown report kind {args.kind!r}")

    # cases, stats and tally go to --out, or to stdout without it
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-"):
        rest = argv[1:]
        config_path = _config_path(rest)
        if config_path is not None:
            try:
                argv = [argv[0]] + _config_flags(config_path) + rest
            except (ConfigError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CoclickError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
