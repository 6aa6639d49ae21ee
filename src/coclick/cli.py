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
from dataclasses import fields
from pathlib import Path

from .base import CoclickError, ConfigError, undecodable_line
from .dataset import SPLIT_RATIOS, BuildConfig, load_dataset
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
from .tagger import HYPERPARAMETERS, TokenTagger
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

    def knob(p, *flags, **kwargs):
        # A stage knob has no parser default: a flag left out keeps the default
        # of the object it configures, and its dest names that object's field.
        p.add_argument(*flags, default=argparse.SUPPRESS, **kwargs)

    p = add_parser("synth", help="generate a synthetic corpus and click log")
    common(p)
    p.add_argument("--out-dir", required=True)
    knob(p, "--n-articles", type=int)
    knob(p, "--cluster-size", type=int)
    knob(p, "--topics-per-cluster", type=int)
    knob(p, "--extra-topic-prob", type=float)
    knob(p, "--extra-in-title-prob", type=float)
    knob(p, "--filler-vocab", type=int)
    knob(p, "--filler-zipf", type=float)
    knob(p, "--stopword-vocab", type=int)
    knob(p, "--title-len", type=_int_triple, metavar="MIN,MAX,MODE")
    knob(p, "--abstract-len", type=_int_triple, metavar="MIN,MAX")
    knob(p, "--zipf", type=float, dest="article_zipf", metavar="ZIPF", help="article popularity exponent")
    knob(p, "--same-cluster-bias", type=float)
    knob(p, "--sessions", type=int)
    knob(p, "--clicks-dist", type=_triple, metavar="P1,P2,P3")
    knob(p, "--query-sizes", type=_triple, dest="query_size_weights", metavar="P1,P2,P3,P4")
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
    knob(p, "--p", type=float, dest="gold_threshold", metavar="P", help="gold softmax threshold")
    knob(p, "--cap", type=float, dest="cap_fraction", metavar="CAP", help="cap fraction of unique tokens")
    knob(p, "--min-clicks", type=int)
    knob(p, "--min-title-len", type=int)
    knob(p, "--min-nonzero", type=int)
    p.add_argument("--ratios", type=_triple, default=SPLIT_RATIOS, metavar="TRAIN,DEV,TEST")
    p.set_defaults(func=cmd_build)

    p = add_parser("train", help="train the token tagger")
    common(p)
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--dev", dest="dev_path")
    p.add_argument("--articles", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--metrics-log", help="CSV training log path")
    knob(p, "--lr", type=float)
    knob(p, "--beta1", type=float)
    knob(p, "--beta2", type=float)
    knob(p, "--warmup-steps", type=int)
    knob(p, "--total-steps", type=int)
    knob(p, "--batch-size", type=int)
    knob(p, "--eval-every", type=int)
    knob(p, "--decision-threshold", type=float)
    knob(p, "--max-len", type=int)
    knob(p, "--merge-seed-features", action="store_true")
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
    knob(p, "--select", choices=SELECTORS, dest="selector")
    knob(p, "--k", type=int, help="top-K size (default 3; 4 for --backend external --generative)")
    knob(p, "--p", type=float, help="softmax selection threshold")
    knob(p, "--cap", type=float, dest="cap_fraction", metavar="CAP")
    p.add_argument("--articles", help="metadata TSV for idf/avgdl")
    p.add_argument("--stopwords", help="override the packaged stopword list")
    knob(p, "--idf-floor", type=float)
    knob(p, "--bm25-use-abstract", action="store_true", dest="use_abstract")
    p.add_argument("--embeddings", help="word-vector text file for --backend embed")
    p.add_argument("--scores", help="external score JSONL for --backend external")
    knob(p, "--generative", action="store_true", help="external scores from a generative model")
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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            # read() decodes the whole file at once, so no line was read before it.
            raise ConfigError(f"config line {undecodable_line(exc, 0)} is not UTF-8: {exc}") from exc
    for raw in text.split("\n"):
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


def _given(args, names) -> dict:
    """The knobs among ``names`` that a flag or --config set, by name."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def cmd_synth(args) -> int:
    config = SynthConfig(rng_seed=args.seed, **_given(args, [f.name for f in fields(SynthConfig)]))
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
    config = BuildConfig(**_given(args, [f.name for f in fields(BuildConfig)]))
    summary = run_build(args.aggregates, args.articles, args.out_prefix, config, tuple(args.ratios), args.seed)
    for name, path in summary.split_paths.items():
        print(f"{name}: {summary.split_sizes[name]} examples -> {path}")
    kept = sum(summary.split_sizes.values())
    print(f"kept {kept} of {summary.n_pairs} pairs; drops: {json.dumps(summary.drops, sort_keys=True)}")
    return 0


def cmd_train(args) -> int:
    tagger = TokenTagger(rng_seed=args.seed, **_given(args, HYPERPARAMETERS))
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

    selection = _given(args, ("selector", "k", "p", "cap_fraction"))

    if args.backend == "all":
        return HighlightAll()
    if args.backend == "overlap":
        require_articles("overlap")
        overlap = Overlapper(stopwords=stopwords, **_given(args, ("idf_floor",)))
        # Smoothed idf is always above 0, so only a positive floor needs the table.
        return overlap.fit(title_documents(articles)) if overlap.idf_floor > 0 else overlap
    if args.backend == "bm25":
        require_articles("bm25")
        bm25 = Bm25(**_given(args, ("use_abstract",)), **selection)
        return bm25.fit(corpus_documents(articles) if bm25.use_abstract else title_documents(articles))
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
        return ExternalScores(scores, **_given(args, ("generative",)), **selection)
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
