"""The three benchmark workloads, driven through coclick's public functions.

Each workload puts a different coclick module at the top of the profile:

- ``desk``: the full pipeline on ``benchmark_config(seed)``; synth dominates.
- ``ingest_large``: ``coclick ingest`` + ``coclick build`` on a raw log about
  3.6 times desk's; logs and the dataset build dominate.
- ``explain_bulk``: load, train, predict with every backend and evaluate on
  ~4.8k labeled pairs; dataset load, tagger, explain and evaluate dominate.

Set-up first writes the inputs in a child process (``inputs.py``), then
calls the workload's ``setup``, which prepares what this process needs from
them; both are untimed and run several times so their cost is a median. A
workload then has ``timed`` (one measured iteration, repeated for the run's
seconds; it returns its wall time and, for each rate, the work done and the
seconds spent on it) and ``finish`` (quality metrics and output checks,
untimed). Calls go through module attributes (``coclick.cli.main``,
``coclick.dataset.load_dataset``) so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import coclick.cli
import coclick.dataset
import coclick.evaluate
import coclick.explain
import coclick.pipeline
import coclick.scoring
import coclick.tagger

import inputs

SPLITS = ("train", "dev", "test")
# Artifacts of the desk pipeline that criterion 10 requires to be byte-identical.
DESK_ARTIFACTS = ("train", "dev", "test", "train_log", "metrics")
HASHES_FILE = Path(__file__).resolve().parent / "baseline" / "desk_hashes.json"


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Finish:
    """Untimed results of a workload: quality metrics, checks, record fields."""

    metrics: dict[str, float]
    checks: list[Check]
    record: dict


def token_f1(rows, model: str) -> float:
    """Macro token F1 x100 of ``model`` on the ``all`` stratum."""
    for row in rows:
        if row.model == model and row.granularity == "token" and row.stratum == "all":
            return row.metrics.f1 * 100.0
    raise KeyError(model)


def criterion_6(rows) -> list[Check]:
    """The model-ordering gate of acceptance criterion 6, unchanged."""
    f1 = {r.model: r.metrics.f1 for r in rows if r.granularity == "token" and r.stratum == "all"}
    if set(f1) != {"all", "overlap", "bm25", "tagger"}:
        return [Check("criterion6.models", False, f"models {sorted(f1)}")]
    detail = json.dumps({k: round(v, 4) for k, v in f1.items()})
    return [
        Check("criterion6.tagger_at_least_0.90", f1["tagger"] >= 0.90, detail),
        Check("criterion6.tagger_beats_bm25_by_0.05", f1["tagger"] - f1["bm25"] >= 0.05, detail),
        Check("criterion6.bm25_beats_overlap", f1["bm25"] > f1["overlap"], detail),
        Check(
            "criterion6.all_lowest",
            all(f1[m] > f1["all"] for m in ("tagger", "bm25", "overlap")),
            detail,
        ),
    ]


def tagger_settings(seed: int) -> dict:
    """The ``benchmark_config`` tagger settings, as ``TokenTagger`` arguments."""
    config = coclick.pipeline.benchmark_config(seed)
    return dict(
        lr=config.tagger_lr,
        total_steps=config.tagger_total_steps,
        batch_size=config.tagger_batch_size,
        eval_every=config.tagger_eval_every,
        rng_seed=seed,
    )


def load_split(path: Path):
    with open(path, encoding="utf-8") as fh:
        return coclick.dataset.load_dataset(fh)


class Desk:
    """``run_pipeline`` on ``benchmark_config(seed)``: synth, ingest, build, train, explain, eval."""

    name = "desk"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.size = "tiny" if tiny else "full"
        self.config = inputs.desk_config(seed, tiny)
        self.iterations: list[coclick.pipeline.PipelineResult] = []
        self.hashes: list[dict[str, str]] = []

    def setup(self, inputs_dir: Path, meta: dict) -> None:
        """Warm up with a tiny pipeline run (lazy loads, caches)."""
        coclick.pipeline.run_pipeline(inputs_dir / "warmup", inputs.desk_config(self.seed, True))

    def timed(self, workdir: Path) -> dict[str, float]:
        out = workdir / f"run{len(self.iterations)}"
        started = time.perf_counter()
        result = coclick.pipeline.run_pipeline(out, self.config)
        wall = time.perf_counter() - started
        with open(result.paths["raw_log"], "rb") as fh:
            lines = sum(1 for _ in fh)
        self.iterations.append(result)
        self.hashes.append({k: inputs.sha256_file(result.paths[k]) for k in DESK_ARTIFACTS})
        self.lines = lines
        return {"wall_s": wall, "events": lines, "events_s": wall, "examples": result.n_pairs, "examples_s": wall}

    def finish(self) -> Finish:
        last = self.iterations[-1]
        checks = criterion_6(last.metrics)
        checks.append(
            Check(
                "criterion10.artifacts_identical_across_iterations",
                all(h == self.hashes[0] for h in self.hashes),
                f"{len(self.hashes)} iterations",
            )
        )
        recorded = {}
        if HASHES_FILE.exists():
            recorded = json.loads(HASHES_FILE.read_text()).get(self.size, {}).get(str(self.seed), {})
        if recorded:
            checks.append(
                Check("criterion10.artifacts_match_recorded", recorded == self.hashes[0])
            )

        topics, title_topics = {}, {}
        with open(last.paths["truth"], encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                topics[record["article_id"]] = set(record["topics"])
                title_topics[record["article_id"]] = set(record["title_topics"])
        rows = []
        for name in SPLITS:
            rows += inputs.dataset_gold(last.paths[name])

        def planted(seed_id: str, similar_id: str) -> set[str]:
            return topics[seed_id] & title_topics[similar_id]

        metrics = {
            "tagger_token_f1": token_f1(last.metrics, "tagger"),
            "label_planted_f1": inputs.planted_f1(planted, rows),
        }
        record = {
            "artifact_sha256": self.hashes[0],
            "hashes_recorded_for_seed": bool(recorded),
            "raw_log_lines": self.lines,
            "pairs": last.n_pairs,
            "split_sizes": last.split_sizes,
            "drops": last.drops,
            "pipeline_threads": self.config.threads,
        }
        for result in self.iterations:
            shutil.rmtree(result.workdir, ignore_errors=True)
        return Finish(metrics, checks, record)


class IngestLarge:
    """``coclick ingest`` then ``coclick build`` on a raw log ~3.6x desk, with ~1% malformed lines."""

    name = "ingest_large"
    PARSED = re.compile(r"parsed (\d+) events \((\d+) malformed lines skipped\)")

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.outputs: list[dict] = []

    def setup(self, inputs_dir: Path, meta: dict) -> None:
        self.inputs = inputs_dir
        self.corpus = inputs.load_corpus(inputs_dir)
        self.raw = inputs.RawLog(**meta["raw_log"])

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = coclick.cli.main(argv)
        sys.stderr.write(captured.getvalue())
        return code, captured.getvalue()

    def timed(self, workdir: Path) -> dict[str, float]:
        out = workdir / f"run{len(self.outputs)}"
        out.mkdir(parents=True)
        aggregates = out / "aggregates.jsonl"
        started = time.perf_counter()
        ingest_code, ingest_out = self._cli(
            ["ingest", "--log", str(self.inputs / "raw_log.tsv"), "--out", str(aggregates)]
        )
        ingested = time.perf_counter()
        build_code, _ = self._cli(
            [
                "build",
                "--aggregates", str(aggregates),
                "--articles", str(self.inputs / "articles.tsv"),
                "--out-prefix", str(out / "dataset"),
                "--p", "0.11",
                "--seed", str(self.seed),
            ]
        )
        done = time.perf_counter()
        with open(aggregates, "rb") as fh:
            pairs = sum(1 for _ in fh)
        self.outputs.append(
            {"dir": out, "codes": (ingest_code, build_code), "ingest_out": ingest_out, "pairs": pairs}
        )
        return {
            "wall_s": done - started,
            "events": self.raw.lines,
            "events_s": ingested - started,
            "examples": pairs,
            "examples_s": done - started,
        }

    def finish(self) -> Finish:
        checks = []
        for i, out in enumerate(self.outputs):
            checks.append(Check(f"iteration{i}.cli_exit_codes", out["codes"] == (0, 0), str(out["codes"])))
        last = self.outputs[-1]
        match = self.PARSED.search(last["ingest_out"])
        parsed, malformed = (int(match[1]), int(match[2])) if match else (-1, -1)
        checks.append(
            Check("ingest.parsed_lines", parsed == self.raw.valid_lines, f"{parsed} vs {self.raw.valid_lines}")
        )
        expected_bad = sum(self.raw.malformed.values())
        checks.append(
            Check("ingest.malformed_lines", malformed == expected_bad, f"{malformed} vs {expected_bad}")
        )
        with open(last["dir"] / "aggregates.jsonl", encoding="utf-8") as fh:
            clicks = sum(json.loads(line)["combined_clicks"] for line in fh)
        checks.append(
            Check("ingest.coclicks_summed", clicks == self.raw.coclicks, f"{clicks} vs {self.raw.coclicks}")
        )
        digests = [[inputs.sha256_file(out["dir"] / f"dataset.{n}.jsonl") for n in SPLITS] for out in self.outputs]
        checks.append(Check("build.splits_identical_across_iterations", all(d == digests[0] for d in digests)))

        paths = {n: last["dir"] / f"dataset.{n}.jsonl" for n in SPLITS}
        rows = [row for n in paths for row in inputs.dataset_gold(paths[n])]
        metrics = {
            "label_planted_f1": inputs.planted_f1(self.corpus.planted_gold, rows),
            "tagger_token_f1": self._tagger_f1(paths),
        }
        parser = coclick.cli.build_parser()
        shards = parser.parse_args(["ingest", "--log", "-", "--out", "-"]).threads
        record = {
            "raw_log": {
                "lines": self.raw.lines,
                "valid_lines": self.raw.valid_lines,
                "malformed": self.raw.malformed,
                "sessions": self.raw.sessions,
                "coclicks": self.raw.coclicks,
            },
            "pairs": last["pairs"],
            "examples": len(rows),
            "ingest_shards": shards,
        }
        for out in self.outputs:
            shutil.rmtree(out["dir"], ignore_errors=True)
        return Finish(metrics, checks, record)

    def _tagger_f1(self, paths: dict[str, Path]) -> float:
        """Token F1 x100 on test of a tagger trained on the labels this build wrote."""
        splits = {name: load_split(path) for name, path in paths.items()}
        articles = {a.article_id: a for a in self.corpus.articles}
        tagger = coclick.tagger.TokenTagger(
            **tagger_settings(self.seed),
            idf=coclick.scoring.compute_idf(coclick.pipeline.title_documents(articles)),
        )
        tagger.fit(splits["train"], splits["dev"])
        predictions, _ = coclick.explain.predict_dataset(tagger, splits["test"])
        return coclick.evaluate.evaluate_predictions(splits["test"], predictions).f1 * 100.0


class ExplainBulk:
    """Load ~4.8k labeled pairs, train the tagger, predict with every backend, evaluate on test.

    The world has 1600 articles (4800 same-cluster pairs), so one iteration
    takes about three seconds and a 30-s run holds about ten, whose median is
    steadier under host load than that of the three a 12k-pair world allows.
    """

    name = "explain_bulk"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.rows: list[list] = []

    def setup(self, inputs_dir: Path, meta: dict) -> None:
        self.corpus = inputs.load_corpus(inputs_dir)
        self.articles = {a.article_id: a for a in self.corpus.articles}
        self.paths = {n: inputs_dir / f"dataset.{n}.jsonl" for n in SPLITS}

    def timed(self, workdir: Path) -> dict[str, float]:
        self.last = None
        started = time.perf_counter()
        splits = {name: load_split(path) for name, path in self.paths.items()}
        tagger = coclick.tagger.TokenTagger(
            **tagger_settings(self.seed),
            idf=coclick.scoring.compute_idf(coclick.pipeline.title_documents(self.articles)),
        )
        tagger.fit(splits["train"], splits["dev"])
        everything = splits["train"] + splits["dev"] + splits["test"]
        predict_s = 0.0
        predictions, skipped = {}, {}
        for backend in coclick.pipeline.default_backends(self.articles, tagger):
            t0 = time.perf_counter()
            predictions[backend.name], skipped[backend.name] = coclick.explain.predict_dataset(
                backend, everything
            )
            predict_s += time.perf_counter() - t0
        strata = coclick.evaluate.stratify_by_clicks(splits["test"])
        rows = []
        for name, preds in predictions.items():
            rows += coclick.evaluate.metrics_rows(name, splits["test"], preds, strata=strata)
        done = time.perf_counter()
        self.rows.append(rows)
        self.last = (everything, predictions, skipped)
        return {
            "wall_s": done - started,
            "events": len(everything),
            "events_s": done - started,
            "examples": len(everything) * len(predictions),
            "examples_s": predict_s,
        }

    def finish(self) -> Finish:
        everything, predictions, skipped = self.last
        checks = [
            Check(f"explain.{name}.no_skips", n == 0, str(n)) for name, n in sorted(skipped.items())
        ]
        recall = coclick.evaluate.evaluate_predictions(everything, predictions["all"], "token").recall
        checks.append(Check("criterion1.highlight_all_recall_exactly_1", recall == 1.0, repr(recall)))
        tables = [[(r.model, r.granularity, r.stratum, r.metrics) for r in rows] for rows in self.rows]
        checks.append(Check("metrics_identical_across_iterations", all(t == tables[0] for t in tables)))
        loaded = [(ex.seed_id, ex.similar_id, ex.gold_tokens) for ex in everything]
        metrics = {
            "tagger_token_f1": token_f1(self.rows[-1], "tagger"),
            "label_planted_f1": inputs.planted_f1(self.corpus.planted_gold, loaded),
        }
        record = {
            "examples": len(everything),
            "split_sizes": {name: len(inputs.dataset_gold(p)) for name, p in self.paths.items()},
            "predictions": {name: len(p) for name, p in predictions.items()},
        }
        return Finish(metrics, checks, record)


WORKLOADS = {w.name: w for w in (Desk, IngestLarge, ExplainBulk)}
