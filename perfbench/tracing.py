"""In-memory tracing of calls into coclick, installed only for a traced run.

Functions are wrapped where their callers look them up (for example
``coclick.pipeline.generate_sessions``), so the package itself is unchanged.
Stage-level calls become spans (name, start, end, parent); per-item calls
such as ``word_tokenize`` are too frequent to keep one record each and are
folded into one aggregate per name. Both keep their self time: the duration
minus the time covered by traced calls made inside them.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import coclick.cli
import coclick.dataset
import coclick.evaluate
import coclick.explain
import coclick.pipeline
import coclick.scoring
import coclick.synth
import coclick.tagger

BACKENDS = ("all", "overlap", "bm25", "tagger")
DROP_REASONS = ("min_clicks", "min_title_len", "min_nonzero", "empty_gold", "missing_article")
LAYERS = ("synth", "logs", "text", "dataset", "scoring", "tagger", "explain", "evaluate", "cli", "pipeline")


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    self_s: float = 0.0
    self_cpu_s: float = 0.0
    rss_delta_mb: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    self_cpu_s: float = 0.0
    samples_us: list[float] = field(default_factory=list)


class _Frame:
    __slots__ = ("t0", "c0", "child_s", "child_cpu_s", "span")

    def __init__(self, span: int | None):
        self.span = span
        self.child_s = 0.0
        self.child_cpu_s = 0.0
        self.t0 = time.perf_counter()
        self.c0 = time.process_time()


class Tracer:
    """Spans and per-name aggregates of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        self._stack: list[_Frame] = []

    def _push(self, span: int | None) -> _Frame:
        frame = _Frame(span)
        self._stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> tuple[float, float, float, float]:
        """Pop ``frame``; returns (end, duration, self time, self CPU time)."""
        t1, c1 = time.perf_counter(), time.process_time()
        if self._stack.pop() is not frame:
            raise RuntimeError("traced calls must nest")
        wall, cpu = t1 - frame.t0, c1 - frame.c0
        if self._stack:
            self._stack[-1].child_s += wall
            self._stack[-1].child_cpu_s += cpu
        return t1, wall, wall - frame.child_s, cpu - frame.child_cpu_s

    @contextmanager
    def span(self, name: str):
        """Record one span; the caller may add counters to the yielded record."""
        parent = next((f.span for f in reversed(self._stack) if f.span is not None), None)
        record = Span(name, parent, start=0.0, rss_delta_mb=-_max_rss_mb())
        self.spans.append(record)
        frame = self._push(len(self.spans) - 1)
        record.start = frame.t0
        try:
            yield record
        finally:
            record.end, _, record.self_s, record.self_cpu_s = self._pop(frame)
            record.rss_delta_mb += _max_rss_mb()

    def spanned(self, name: str, fn, counts=None):
        """``fn`` wrapped in a span; ``counts(span, args, kwargs, result)`` adds counters."""

        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    counts(record, args, kwargs, result)
            return result

        return wrapper

    def spanned_generator(self, name: str, fn, counts=None):
        """A generator function wrapped in a span from first item to exhaustion.

        Only valid where the consumer makes no other traced call while the
        generator is suspended, as ``list(parse_log(...))`` does.
        """

        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                yield from fn(*args, **kwargs)
                if counts is not None:
                    counts(record, args, kwargs, None)

        return wrapper

    def counted(self, name: str, fn, keep_samples: bool = False):
        """``fn`` folded into one aggregate per ``name``: calls, total and self time."""
        agg = self.aggregates.setdefault(name, Aggregate())

        def wrapper(*args, **kwargs):
            frame = self._push(None)
            try:
                return fn(*args, **kwargs)
            finally:
                _, total, self_s, self_cpu = self._pop(frame)
                agg.calls += 1
                agg.total_s += total
                agg.self_s += self_s
                agg.self_cpu_s += self_cpu
                if keep_samples:
                    agg.samples_us.append(total * 1e6)

        return wrapper

    def dump(self, path: Path) -> None:
        """Write every span and aggregate as JSON (latency samples summarised by count)."""
        aggregates = {
            name: {k: v for k, v in asdict(agg).items() if k != "samples_us"}
            for name, agg in self.aggregates.items()
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], "aggregates": aggregates}, fh)


@contextmanager
def installed(tracer: Tracer):
    """Wrap coclick's stage functions at their lookup sites; restore them on exit."""
    originals: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapper) -> None:
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def each(attr: str, owners, make) -> None:
        for owner in owners:
            patch(owner, attr, make(getattr(owner, attr)))

    def parse_counts(span, args, kwargs, _):
        stats = args[1] if len(args) > 1 else kwargs.get("stats")
        if stats is not None:
            span.counts["parsed"] = stats.parsed
            span.counts["malformed"] = stats.malformed

    def build_counts(span, args, kwargs, result):
        examples, drops = result
        span.counts["pairs_in"] = len(args[0])
        span.counts["kept"] = len(examples)
        for reason, n in drops.items():
            span.counts[f"drop.{reason}"] = n

    def fit_counts(span, args, kwargs, result):
        span.counts["steps"] = result.total_steps
        span.counts["best_step"] = result.step_

    def predict_dataset(fn):
        def wrapper(explainer, examples):
            name = f"explain.{explainer.name}.predict"
            per_example = tracer.counted(f"explain.{explainer.name}.example", explainer.predict_tokens, True)
            explainer.predict_tokens = per_example
            try:
                with tracer.span(name) as record:
                    predictions, skipped = fn(explainer, examples)
                    record.counts["skipped"] = skipped
                    record.counts["examples"] = len(examples)
            finally:
                del explainer.predict_tokens
            return predictions, skipped

        return wrapper

    pipeline, cli, dataset = coclick.pipeline, coclick.cli, coclick.dataset
    stage_owners = (pipeline, cli)
    try:
        patch(pipeline, "run_pipeline", tracer.spanned("pipeline.run", pipeline.run_pipeline))
        patch(cli, "cmd_ingest", tracer.spanned("cli.ingest", cli.cmd_ingest))
        patch(cli, "cmd_build", tracer.spanned("cli.build", cli.cmd_build))
        each("generate_corpus", (pipeline,), lambda f: tracer.spanned("synth.generate_corpus", f))
        each(
            "generate_sessions",
            (pipeline,),
            lambda f: tracer.spanned(
                "synth.generate_sessions",
                f,
                lambda s, a, k, r: s.counts.update(events=len(r), sessions=a[1].sessions),
            ),
        )
        each("parse_log", stage_owners, lambda f: tracer.spanned_generator("logs.parse", f, parse_counts))
        each(
            "aggregate_sharded",
            stage_owners,
            lambda f: tracer.spanned("logs.aggregate", f, lambda s, a, k, r: s.counts.update(pairs=len(r))),
        )
        each("write_aggregates", stage_owners, lambda f: tracer.spanned("logs.write_aggregates", f))
        each("read_aggregates", stage_owners, lambda f: tracer.spanned("logs.read_aggregates", f))
        each("build_examples", stage_owners, lambda f: tracer.spanned("dataset.build", f, build_counts))
        each("split_dataset", stage_owners, lambda f: tracer.spanned("dataset.split", f))
        each("write_dataset", stage_owners, lambda f: tracer.spanned("dataset.write", f))
        each(
            "load_dataset",
            (pipeline, cli, dataset),
            lambda f: tracer.spanned("dataset.load", f, lambda s, a, k, r: s.counts.update(examples=len(r))),
        )
        each(
            "compute_idf",
            (pipeline, cli, coclick.explain, coclick.scoring, coclick.tagger),
            lambda f: tracer.spanned("scoring.compute_idf", f),
        )
        each(
            "word_tokenize",
            (pipeline, dataset, coclick.synth),
            lambda f: tracer.counted("text.word_tokenize", f),
        )
        each("extract_features", (coclick.tagger,), lambda f: tracer.counted("tagger.extract_features", f))
        patch(
            coclick.tagger.TokenTagger,
            "fit",
            tracer.spanned("tagger.fit", coclick.tagger.TokenTagger.fit, fit_counts),
        )
        each("predict_dataset", (pipeline, cli, coclick.explain), predict_dataset)
        each(
            "metrics_rows",
            (pipeline, cli, coclick.evaluate),
            lambda f: tracer.spanned("evaluate.metrics_rows", f, lambda s, a, k, r: s.counts.update(rows=len(r))),
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced run; layers that did not run read 0."""
    spans = tracer.spans
    aggs = tracer.aggregates

    def total(name: str) -> float:
        return sum(s.end - s.start for s in spans if s.name == name)

    def count(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def agg(name: str) -> Aggregate:
        return aggs.get(name, Aggregate())

    def self_time(name: str) -> float:
        return sum(s.self_s for s in spans if s.name == name)

    m: dict[str, float] = {}
    sessions_s = total("synth.generate_sessions")
    m["synth.generate_corpus_s"] = total("synth.generate_corpus")
    m["synth.generate_sessions_s"] = sessions_s
    m["synth.sessions_per_s"] = count("synth.generate_sessions", "sessions") / sessions_s if sessions_s else 0.0
    m["synth.events"] = count("synth.generate_sessions", "events")

    parsed = count("logs.parse", "parsed")
    m["logs.parse_s"] = total("logs.parse")
    m["logs.lines_parsed"] = parsed
    m["logs.lines_malformed"] = count("logs.parse", "malformed")
    m["logs.aggregate_s"] = total("logs.aggregate")
    m["logs.pairs"] = count("logs.aggregate", "pairs")
    m["logs.us_per_event"] = (m["logs.parse_s"] + m["logs.aggregate_s"]) / parsed * 1e6 if parsed else 0.0
    m["logs.write_aggregates_s"] = total("logs.write_aggregates")
    m["logs.read_aggregates_s"] = total("logs.read_aggregates")
    m["logs.peak_rss_delta_mb"] = sum(s.rss_delta_mb for s in spans if s.name.startswith("logs."))

    tokenize = agg("text.word_tokenize")
    m["text.word_tokenize_calls"] = tokenize.calls
    m["text.word_tokenize_s"] = tokenize.total_s

    loaded = count("dataset.load", "examples")
    m["dataset.build_s"] = total("dataset.build")
    m["dataset.pairs_in"] = count("dataset.build", "pairs_in")
    m["dataset.examples_kept"] = count("dataset.build", "kept")
    for reason in DROP_REASONS:
        m[f"dataset.drop.{reason}"] = count("dataset.build", f"drop.{reason}")
    m["dataset.split_s"] = total("dataset.split")
    m["dataset.write_s"] = total("dataset.write")
    m["dataset.load_s"] = total("dataset.load")
    m["dataset.load_us_per_example"] = m["dataset.load_s"] / loaded * 1e6 if loaded else 0.0
    m["dataset.peak_rss_delta_mb"] = sum(s.rss_delta_mb for s in spans if s.name.startswith("dataset."))

    m["scoring.compute_idf_calls"] = sum(1 for s in spans if s.name == "scoring.compute_idf")
    m["scoring.compute_idf_s"] = total("scoring.compute_idf")

    features = agg("tagger.extract_features")
    m["tagger.fit_s"] = total("tagger.fit")
    m["tagger.steps"] = count("tagger.fit", "steps")
    m["tagger.extract_features_calls"] = features.calls
    m["tagger.extract_features_s"] = features.total_s
    m["tagger.best_step"] = count("tagger.fit", "best_step")

    for backend in BACKENDS:
        samples = agg(f"explain.{backend}.example").samples_us
        m[f"explain.{backend}.predict_s"] = total(f"explain.{backend}.predict")
        m[f"explain.{backend}.p50_us"] = _percentile(samples, 50)
        m[f"explain.{backend}.p99_us"] = _percentile(samples, 99)
    m["explain.skipped"] = sum(s.counts.get("skipped", 0) for s in spans if s.name.startswith("explain."))

    m["evaluate.metrics_rows_s"] = total("evaluate.metrics_rows")
    m["evaluate.rows"] = count("evaluate.metrics_rows", "rows")

    m["cli.ingest_s"] = self_time("cli.ingest")
    m["cli.build_s"] = self_time("cli.build")
    m["pipeline.run_self_s"] = self_time("pipeline.run")

    # Self wall and CPU time per layer; the share is of the traced run's wall time.
    for layer in LAYERS:
        prefix = layer + "."
        self_s = sum(s.self_s for s in spans if s.name.startswith(prefix))
        self_s += sum(a.self_s for n, a in aggs.items() if n.startswith(prefix))
        cpu_s = sum(s.self_cpu_s for s in spans if s.name.startswith(prefix))
        cpu_s += sum(a.self_cpu_s for n, a in aggs.items() if n.startswith(prefix))
        m[f"{layer}.cpu_s"] = cpu_s
        m[f"{layer}.share"] = self_s / traced_wall_s if traced_wall_s else 0.0
    return m
