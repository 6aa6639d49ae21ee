"""End-to-end CLI tests: every subcommand, file formats, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coclick
import coclick.cli
import coclick.pipeline
from coclick.cli import main
from coclick.dataset import BuildConfig
from coclick.pipeline import PipelineConfig, run_pipeline
from coclick.synth import SynthConfig

SYNTH_FLAGS = [
    "--n-articles", "40",
    "--cluster-size", "4",
    "--topics-per-cluster", "3",
    "--extra-topic-prob", "1.0",
    "--title-len", "9,13,11",
    "--sessions", "8000",
    "--same-cluster-bias", "0.95",
    "--clicks-dist", "0.1,0.5,0.4",
    "--seed", "0",
]


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_cli(*argv):
    """Run ``coclick`` in a child process, so an uncaught error shows as a traceback."""
    return subprocess.run(
        [sys.executable, "-m", "coclick.cli", *map(str, argv)],
        env={**os.environ, "PYTHONPATH": str(Path(coclick.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )


def fixture_config():
    """The ``run_pipeline`` config that matches the ``workdir`` fixture's flags."""
    synth = SynthConfig(
        n_articles=40,
        cluster_size=4,
        topics_per_cluster=3,
        extra_topic_prob=1.0,
        title_len=(9, 13, 11),
        sessions=8000,
        same_cluster_bias=0.95,
        clicks_dist=(0.1, 0.5, 0.4),
        rng_seed=0,
    )
    return PipelineConfig(seed=0, synth=synth, build=BuildConfig(gold_threshold=0.11), tagger_total_steps=300)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run the whole CLI chain once into a shared directory."""
    work = tmp_path_factory.mktemp("cliwork")
    assert main(["synth", "--out-dir", str(work)] + SYNTH_FLAGS) == 0
    assert main([
        "ingest", "--log", str(work / "raw_log.tsv"), "--out", str(work / "agg.jsonl"),
    ]) == 0
    assert main([
        "build",
        "--aggregates", str(work / "agg.jsonl"),
        "--articles", str(work / "articles.tsv"),
        "--out-prefix", str(work / "data"),
        "--p", "0.11",
        "--seed", "0",
    ]) == 0
    assert main([
        "train",
        "--train", str(work / "data.train.jsonl"),
        "--dev", str(work / "data.dev.jsonl"),
        "--articles", str(work / "articles.tsv"),
        "--out", str(work / "tagger.json"),
        "--metrics-log", str(work / "train_log.csv"),
        "--total-steps", "300",
        "--eval-every", "100",
        "--seed", "0",
    ]) == 0
    for backend, extra in [
        ("all", []),
        ("overlap", ["--articles", str(work / "articles.tsv")]),
        ("bm25", ["--articles", str(work / "articles.tsv")]),
        ("tagger", ["--articles", str(work / "articles.tsv"), "--checkpoint", str(work / "tagger.json")]),
    ]:
        assert main([
            "explain",
            "--dataset", str(work / "data.test.jsonl"),
            "--backend", backend,
            "--out", str(work / f"pred.{backend}.jsonl"),
        ] + extra) == 0
    assert main([
        "eval",
        "--dataset", str(work / "data.test.jsonl"),
        "--pred", f"all={work / 'pred.all.jsonl'}",
        "--pred", f"bm25={work / 'pred.bm25.jsonl'}",
        "--pred", f"tagger={work / 'pred.tagger.jsonl'}",
        "--strata", "clicks",
        "--out", str(work / "metrics.csv"),
    ]) == 0
    return work


class TestPipelineArtifacts:
    def test_raw_log_is_five_column_tsv(self, workdir):
        line = (workdir / "raw_log.tsv").read_text("utf-8").splitlines()[0]
        assert len(line.split("\t")) == 5

    def test_aggregates_are_jsonl(self, workdir):
        for line in (workdir / "agg.jsonl").read_text("utf-8").splitlines()[:5]:
            record = json.loads(line)
            assert set(record) == {"seed_id", "similar_id", "query_counts", "combined_clicks"}

    def test_dataset_splits_exist_and_parse(self, workdir):
        from coclick.dataset import load_dataset

        sizes = {}
        for split in ("train", "dev", "test"):
            with open(workdir / f"data.{split}.jsonl", encoding="utf-8") as fh:
                sizes[split] = len(load_dataset(fh))
        assert sizes["train"] > sizes["dev"] > 0
        assert sizes["test"] > 0

    def test_checkpoint_schema(self, workdir):
        record = json.loads((workdir / "tagger.json").read_text("utf-8"))
        assert set(record) == {"version", "feature_names", "weights", "config", "step"}
        assert len(record["weights"]) == len(record["feature_names"])

    def test_training_log_columns(self, workdir):
        lines = (workdir / "train_log.csv").read_text("utf-8").splitlines()
        assert lines[0] == "step,lr,train_loss,dev_f1"
        assert len(lines) == 1 + 3  # eval every 100 of 300 steps

    def test_metrics_csv_shape(self, workdir):
        rows = read_rows(workdir / "metrics.csv")
        assert rows[0].keys() == {"model", "granularity", "stratum", "R", "P", "F1", "L", "N"}
        models = {r["model"] for r in rows}
        assert models == {"all", "bm25", "tagger"}
        strata = {r["stratum"] for r in rows}
        assert strata == {"all", "top_0.1pct", "top_third", "middle_third", "bottom_third"}

    def test_highlight_all_has_full_recall_in_csv(self, workdir):
        rows = read_rows(workdir / "metrics.csv")
        for row in rows:
            if row["model"] == "all" and row["granularity"] == "token":
                assert row["R"] == "100.00"


class TestReportSubcommand:
    def test_cases_markdown(self, workdir, tmp_path):
        out = tmp_path / "cases.md"
        assert main([
            "report", "--kind", "cases",
            "--dataset", str(workdir / "data.test.jsonl"),
            "--pred", f"bm25={workdir / 'pred.bm25.jsonl'}",
            "--pred", f"tagger={workdir / 'pred.tagger.jsonl'}",
            "--limit", "3",
            "--out", str(out),
        ]) == 0
        text = out.read_text("utf-8")
        assert text.count("pair: ") == 3
        assert "gold: " in text and "tagger: " in text and "**" in text

    def test_ab_sheet_key_and_tally(self, workdir, tmp_path):
        sheet = tmp_path / "sheet.csv"
        key = tmp_path / "key.csv"
        assert main([
            "report", "--kind", "ab",
            "--dataset", str(workdir / "data.test.jsonl"),
            "--pred-a", f"tagger={workdir / 'pred.tagger.jsonl'}",
            "--pred-b", f"bm25={workdir / 'pred.bm25.jsonl'}",
            "--sheet", str(sheet), "--key", str(key),
            "--seed", "3",
        ]) == 0
        sheet_rows = read_rows(sheet)
        assert list(sheet_rows[0]) == [
            "instance_id", "seed_title", "title_left_highlighted", "title_right_highlighted",
        ]
        assert "tagger" not in sheet.read_text("utf-8")
        choices = tmp_path / "choices.csv"
        with open(choices, "w", encoding="utf-8") as fh:
            fh.write("instance_id,choice\n")
            for row in sheet_rows:
                fh.write(f"{row['instance_id']},left\n")
        out = tmp_path / "tally.json"
        assert main([
            "report", "--kind", "tally",
            "--choices", str(choices), "--key", str(key),
            "--out", str(out),
        ]) == 0
        tallies = json.loads(out.read_text("utf-8"))
        assert tallies.get("tagger", 0) + tallies.get("bm25", 0) == len(sheet_rows)

    def test_stats(self, workdir, tmp_path):
        out = tmp_path / "stats.json"
        assert main([
            "report", "--kind", "stats",
            "--dataset", str(workdir / "data.train.jsonl"),
            "--out", str(out),
        ]) == 0
        stats = json.loads(out.read_text("utf-8"))
        assert stats["sizes_at_thresholds"]["20"] >= stats["sizes_at_thresholds"]["50"]
        assert stats["title_length_mean"] > 0


class TestOtherBackends:
    def test_embed_backend(self, workdir, tmp_path):
        from coclick.dataset import load_dataset

        with open(workdir / "data.test.jsonl", encoding="utf-8") as fh:
            examples = load_dataset(fh)
        vocab = sorted({t.lower for ex in examples for t in ex.similar_title_tokens})[:20]
        emb = tmp_path / "vectors.txt"
        with open(emb, "w", encoding="utf-8") as fh:
            fh.write(f"{len(vocab)} 3\n")
            for i, tok in enumerate(vocab):
                fh.write(f"{tok} {i % 3} {(i + 1) % 3} 1\n")
        out = tmp_path / "pred.embed.jsonl"
        assert main([
            "explain", "--dataset", str(workdir / "data.test.jsonl"),
            "--backend", "embed", "--embeddings", str(emb),
            "--out", str(out),
        ]) == 0
        assert out.read_text("utf-8").count("\n") == len(examples)

    def test_external_backend_with_generative_k(self, workdir, tmp_path):
        from coclick.dataset import load_dataset

        with open(workdir / "data.test.jsonl", encoding="utf-8") as fh:
            examples = load_dataset(fh)
        scores = tmp_path / "scores.jsonl"
        with open(scores, "w", encoding="utf-8") as fh:
            for ex in examples[:-1]:  # leave one uncovered to exercise the skip tally
                entries = [{"token": tok, "score": 2.0} for tok in sorted(ex.gold_tokens)]
                fh.write(json.dumps({
                    "seed_id": ex.seed_id, "similar_id": ex.similar_id, "scores": entries,
                }) + "\n")
        out = tmp_path / "pred.external.jsonl"
        assert main([
            "explain", "--dataset", str(workdir / "data.test.jsonl"),
            "--backend", "external", "--scores", str(scores), "--generative",
            "--out", str(out),
        ]) == 0
        preds = [json.loads(line) for line in out.read_text("utf-8").splitlines()]
        assert len(preds) == len(examples) - 1

    def test_generative_flag_leaves_bm25_top_k_alone(self, workdir, tmp_path):
        out = tmp_path / "pred.bm25.generative.jsonl"
        assert main([
            "explain", "--dataset", str(workdir / "data.test.jsonl"),
            "--backend", "bm25", "--articles", str(workdir / "articles.tsv"),
            "--generative",
            "--out", str(out),
        ]) == 0
        assert out.read_bytes() == (workdir / "pred.bm25.jsonl").read_bytes()

    def test_bm25_softmax_selection(self, workdir, tmp_path):
        out = tmp_path / "pred.softmax.jsonl"
        assert main([
            "explain", "--dataset", str(workdir / "data.test.jsonl"),
            "--backend", "bm25", "--articles", str(workdir / "articles.tsv"),
            "--select", "softmax", "--p", "0.12",
            "--out", str(out),
        ]) == 0
        assert out.stat().st_size > 0


class TestEvalVariants:
    def test_similarity_strata(self, workdir, tmp_path):
        from coclick.dataset import load_dataset

        with open(workdir / "data.test.jsonl", encoding="utf-8") as fh:
            examples = load_dataset(fh)
        pair_scores = tmp_path / "pair_scores.jsonl"
        with open(pair_scores, "w", encoding="utf-8") as fh:
            for i, ex in enumerate(examples):
                fh.write(json.dumps({
                    "seed_id": ex.seed_id, "similar_id": ex.similar_id, "score": i / 10,
                }) + "\n")
        out = tmp_path / "sim_metrics.csv"
        assert main([
            "eval", "--dataset", str(workdir / "data.test.jsonl"),
            "--pred", f"bm25={workdir / 'pred.bm25.jsonl'}",
            "--strata", "similarity", "--pair-scores", str(pair_scores),
            "--out", str(out),
        ]) == 0
        strata = {r["stratum"] for r in read_rows(out)}
        assert strata == {"all"} | {f"similarity_q{i}" for i in range(1, 6)}

    def test_similarity_strata_without_scores_is_usage_error(self, workdir, tmp_path):
        code = main([
            "eval", "--dataset", str(workdir / "data.test.jsonl"),
            "--pred", f"bm25={workdir / 'pred.bm25.jsonl'}",
            "--strata", "similarity",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_micro_flag(self, workdir, tmp_path):
        out = tmp_path / "micro.csv"
        assert main([
            "eval", "--dataset", str(workdir / "data.test.jsonl"),
            "--pred", f"tagger={workdir / 'pred.tagger.jsonl'}",
            "--granularity", "token", "--micro",
            "--out", str(out),
        ]) == 0
        rows = read_rows(out)
        assert rows[0]["granularity"] == "token"


class TestExitCodes:
    def test_eval_without_dataset_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--pred", "m=x.jsonl", "--out", "m.csv"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out-dir", "x", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        code = main(["ingest", "--log", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "nope.tsv" in capsys.readouterr().err

    def test_bad_aggregate_count_fails_build_without_traceback(self, workdir, tmp_path):
        agg = tmp_path / "agg.jsonl"
        agg.write_text(
            '{"seed_id": "A", "similar_id": "B", "query_counts": {"q": 2}, "combined_clicks": 2}\n'
            '{"seed_id": "A", "similar_id": "C", "query_counts": {"q": 1.7}, "combined_clicks": 1}\n',
            encoding="utf-8",
        )
        proc = run_cli(
            "build",
            "--aggregates", agg,
            "--articles", workdir / "articles.tsv",
            "--out-prefix", tmp_path / "data",
        )
        assert proc.returncode == 1
        assert "line 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_list_prediction_tokens_fail_eval_without_traceback(self, workdir, tmp_path):
        preds = tmp_path / "pred.jsonl"
        preds.write_text(
            '{"seed_id": "A", "similar_id": "B", "tokens": ["dose"]}\n'
            '{"seed_id": "A", "similar_id": "C", "tokens": "dose"}\n',
            encoding="utf-8",
        )
        proc = run_cli(
            "eval",
            "--dataset", workdir / "data.test.jsonl",
            "--pred", f"m={preds}",
            "--out", tmp_path / "m.csv",
        )
        assert proc.returncode == 1
        assert f"{preds}:2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_version_1_checkpoint_fails_explain_without_traceback(self, workdir, tmp_path):
        record = json.loads((workdir / "tagger.json").read_text("utf-8"))
        record["version"] = 1
        checkpoint = tmp_path / "tagger.v1.json"
        checkpoint.write_text(json.dumps(record), encoding="utf-8")
        proc = run_cli(
            "explain",
            "--dataset", workdir / "data.test.jsonl",
            "--backend", "tagger",
            "--articles", workdir / "articles.tsv",
            "--checkpoint", checkpoint,
            "--out", tmp_path / "p.jsonl",
        )
        assert proc.returncode == 1
        assert "unsupported checkpoint version 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_backend_without_companion_flag_is_usage_error(self, workdir, tmp_path, capsys):
        code = main([
            "explain", "--dataset", str(workdir / "data.test.jsonl"),
            "--backend", "bm25", "--out", str(tmp_path / "p.jsonl"),
        ])
        assert code == 2
        assert "requires --articles" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, workdir, tmp_path):
        config = tmp_path / "build.cfg"
        config.write_text("p=0.11\nmin_clicks=20\n", encoding="utf-8")
        prefix_a = tmp_path / "a"
        assert main([
            "build",
            "--aggregates", str(workdir / "agg.jsonl"),
            "--articles", str(workdir / "articles.tsv"),
            "--out-prefix", str(prefix_a),
            "--config", str(config),
            "--seed", "0",
        ]) == 0
        # identical to passing the flags explicitly
        assert Path(f"{prefix_a}.train.jsonl").read_bytes() == (workdir / "data.train.jsonl").read_bytes()

        # an explicit flag overrides the config value
        prefix_b = tmp_path / "b"
        assert main([
            "build",
            "--aggregates", str(workdir / "agg.jsonl"),
            "--articles", str(workdir / "articles.tsv"),
            "--out-prefix", str(prefix_b),
            "--config", str(config),
            "--min-clicks", "100000",
            "--seed", "0",
        ]) == 0
        assert Path(f"{prefix_b}.train.jsonl").read_text("utf-8") == ""


class TestDeterminism:
    def test_rerun_build_is_byte_identical(self, workdir, tmp_path):
        prefix = tmp_path / "re"
        assert main([
            "build",
            "--aggregates", str(workdir / "agg.jsonl"),
            "--articles", str(workdir / "articles.tsv"),
            "--out-prefix", str(prefix),
            "--p", "0.11",
            "--seed", "0",
        ]) == 0
        for split in ("train", "dev", "test"):
            assert (
                Path(f"{prefix}.{split}.jsonl").read_bytes()
                == (workdir / f"data.{split}.jsonl").read_bytes()
            )

    def test_ingest_thread_count_does_not_change_output(self, workdir, tmp_path):
        out = tmp_path / "agg3.jsonl"
        assert main([
            "ingest", "--log", str(workdir / "raw_log.tsv"),
            "--out", str(out), "--threads", "3",
        ]) == 0
        assert out.read_bytes() == (workdir / "agg.jsonl").read_bytes()

    def test_ingest_counts_crlf_log_with_every_malformed_kind(self, tmp_path, capsys):
        log = tmp_path / "raw.tsv"
        log.write_bytes(
            b"s1\t1\tQ  One\t1\tP1\r\n"
            b"s1\t2\tQ  One\t2\tP2\r\n"
            b"s1\t3\tq one\t1\r\n"  # field count
            b"s2\t4\tq two\tx\tP1\r\n"  # rank not an integer
            b"s2\t5\tq two\t0\tP1\n"  # rank below 1
            b"s2\t6\t \t1\tP1\r\n"  # empty query
            b"\r\n"
            b"s3\t7\tq two\t1\tP3\n"
            b"s3\t8\tq two\t2\tP1\r\n"
        )
        out = tmp_path / "agg.jsonl"
        assert main(["ingest", "--log", str(log), "--out", str(out)]) == 0
        assert "parsed 4 events (4 malformed lines skipped), 2 coclicked pairs" in capsys.readouterr().out
        records = [json.loads(line) for line in out.read_text("utf-8").splitlines()]
        assert [(r["seed_id"], r["similar_id"], r["query_counts"]) for r in records] == [
            ("P1", "P2", {"q one": 1}),
            ("P3", "P1", {"q two": 1}),
        ]

    def test_rerun_explain_is_byte_identical(self, workdir, tmp_path):
        out = tmp_path / "pred.again.jsonl"
        assert main([
            "explain", "--dataset", str(workdir / "data.test.jsonl"),
            "--backend", "tagger",
            "--articles", str(workdir / "articles.tsv"),
            "--checkpoint", str(workdir / "tagger.json"),
            "--out", str(out),
        ]) == 0
        assert out.read_bytes() == (workdir / "pred.tagger.jsonl").read_bytes()


class TestEmptyInputs:
    def test_train_on_empty_dataset_fails_cleanly(self, workdir, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main([
            "train", "--train", str(empty),
            "--articles", str(workdir / "articles.tsv"),
            "--out", str(tmp_path / "ckpt.json"),
        ])
        assert code == 1
        assert "empty" in capsys.readouterr().err


class TestFrontDoorsAgree:
    def test_run_pipeline_writes_the_cli_bytes(self, workdir, tmp_path):
        result = run_pipeline(tmp_path, fixture_config())
        cli_names = {
            "raw_log": "raw_log.tsv",
            "articles": "articles.tsv",
            "truth": "truth.jsonl",
            "aggregates": "agg.jsonl",
            "train": "data.train.jsonl",
            "dev": "data.dev.jsonl",
            "test": "data.test.jsonl",
            "train_log": "train_log.csv",
            "checkpoint": "tagger.json",
        }
        for key, name in cli_names.items():
            assert result.paths[key].read_bytes() == (workdir / name).read_bytes(), key


class TestTracerLookupSites:
    """perfbench/tracing.py wraps stage functions where the CLI and the pipeline look them up."""

    @pytest.fixture
    def tracing(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import tracing

        return tracing

    @staticmethod
    def children(spans, name):
        parent = next(i for i, s in enumerate(spans) if s.name == name)
        return [s.name for s in spans if s.parent == parent]

    def test_cli_ingest_and_build_spans(self, tracing, workdir, tmp_path):
        wrapped = {
            coclick.cli: ("cmd_ingest", "cmd_build", "parse_log", "aggregate_sharded", "build_examples"),
            coclick.pipeline: ("parse_log", "aggregate_sharded", "read_aggregates", "build_examples"),
        }
        originals = {(mod, n): getattr(mod, n) for mod, names in wrapped.items() for n in names}
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            assert main([
                "ingest", "--log", str(workdir / "raw_log.tsv"), "--out", str(tmp_path / "agg.jsonl"),
            ]) == 0
            assert main([
                "build",
                "--aggregates", str(tmp_path / "agg.jsonl"),
                "--articles", str(workdir / "articles.tsv"),
                "--out-prefix", str(tmp_path / "data"),
                "--p", "0.11",
            ]) == 0
        spans = tracer.spans
        assert self.children(spans, "cli.ingest") == ["logs.aggregate", "logs.write_aggregates"]
        assert self.children(spans, "logs.aggregate") == ["logs.parse"]
        assert self.children(spans, "cli.build") == [
            "logs.read_aggregates", "dataset.build", "dataset.split",
            "dataset.write", "dataset.write", "dataset.write",
        ]
        assert all(getattr(mod, n) is fn for (mod, n), fn in originals.items())

    def test_run_pipeline_spans(self, tracing, tmp_path):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            coclick.pipeline.run_pipeline(tmp_path, fixture_config())
        names = {s.name for s in tracer.spans}
        assert {"synth.generate_sessions", "logs.parse", "dataset.build", "tagger.fit"} <= names
