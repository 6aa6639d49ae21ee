"""End-to-end CLI tests: every subcommand, file formats, exit codes, determinism."""

import argparse
import csv
import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import coclick
import coclick.cli
import coclick.pipeline
from coclick.base import ConfigError, DatasetError
from coclick.cli import main
from coclick.dataset import BuildConfig, write_dataset
from coclick.explain import (
    Bm25,
    EmbeddingRelevance,
    ExternalScores,
    Overlapper,
    load_embeddings,
    load_external_scores,
)
from coclick.pipeline import BuildSummary, PipelineConfig, run_eval, run_pipeline
from coclick.synth import SynthConfig
from coclick.tagger import HYPERPARAMETERS, TokenTagger
from test_evaluate import make_example

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


# The backends of ``default_backends`` with a tagger, in ``run_pipeline``'s order.
BACKENDS = ["all", "overlap", "bm25", "tagger"]


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
        vocab = sorted({t for ex in examples for t in ex.similar_title_tokens})[:20]
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
                # distinct scores, so top-3 and top-4 differ on every title
                tokens = list(dict.fromkeys(ex.similar_title_tokens))
                entries = [{"token": tok, "score": float(len(tokens) - i)} for i, tok in enumerate(tokens)]
                fh.write(json.dumps({
                    "seed_id": ex.seed_id, "similar_id": ex.similar_id, "scores": entries,
                }) + "\n")

        def explain(name, *flags):
            out = tmp_path / f"pred.{name}.jsonl"
            assert main([
                "explain", "--dataset", str(workdir / "data.test.jsonl"),
                "--backend", "external", "--scores", str(scores), *flags,
                "--out", str(out),
            ]) == 0
            return out.read_text("utf-8")

        generative = explain("generative", "--generative")
        preds = [json.loads(line) for line in generative.splitlines()]
        assert len(preds) == len(examples) - 1
        assert all(len(p["tokens"]) == 4 for p in preds)
        assert generative == explain("k4", "--k", "4")
        assert generative != explain("k3", "--k", "3")

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

    def test_default_overlap_fits_no_idf_table(self, workdir):
        from coclick.dataset import load_dataset
        from coclick.explain import Overlapper, load_stopwords
        from coclick.logs import read_metadata
        from coclick.pipeline import title_documents

        args = coclick.cli.build_parser().parse_args([
            "explain", "--dataset", str(workdir / "data.test.jsonl"), "--backend", "overlap",
            "--articles", str(workdir / "articles.tsv"), "--out", "unused",
        ])
        backend = coclick.cli._build_backend(args)
        assert backend.idf_ is None
        with open(workdir / "articles.tsv", encoding="utf-8") as fh:
            fitted = Overlapper(stopwords=load_stopwords()).fit(title_documents(read_metadata(fh)))
        with open(workdir / "data.test.jsonl", encoding="utf-8") as fh:
            examples = load_dataset(fh)
        assert [backend.predict_tokens(ex) for ex in examples] == [fitted.predict_tokens(ex) for ex in examples]


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

    def test_uncovered_top_click_pair_drops_only_its_stratum(self, tmp_path):
        # An uncovered top-click pair used to make the click strata abort the whole eval.
        dataset, preds, out = tmp_path / "d.jsonl", tmp_path / "p.jsonl", tmp_path / "m.csv"
        examples = [make_example(clicks=30 + i, pair=(f"S{i}", "T")) for i in range(9)]
        with open(dataset, "w", encoding="utf-8") as fh:
            write_dataset(examples, fh)
        preds.write_text("".join(
            json.dumps({"seed_id": ex.seed_id, "similar_id": ex.similar_id, "tokens": ["alpha"]}) + "\n"
            for ex in examples[:-1]
        ), encoding="utf-8")
        assert main(["eval", "--dataset", str(dataset), "--pred", f"m={preds}", "--strata", "clicks",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 8
        assert {r["stratum"] for r in rows} == {"all", "top_third", "middle_third", "bottom_third"}

    @pytest.mark.parametrize(
        "strata, pair_scores",
        [("similarity", None), ("click", None), ("quintiles", "scores.jsonl")],
    )
    def test_run_eval_rejects_bad_strata_before_reading(self, tmp_path, strata, pair_scores):
        with pytest.raises(ConfigError, match="strat"):
            run_eval(tmp_path / "missing.jsonl", [("m", tmp_path / "missing.pred")], tmp_path / "m.csv",
                     strata, pair_scores)
        assert not (tmp_path / "m.csv").exists()


class TestExitCodes:
    def test_eval_without_dataset_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--pred", "m=x.jsonl", "--out", "m.csv"])
        assert exc.value.code == 2

    def test_report_stats_without_dataset_is_usage_error(self, capsys):
        assert main(["report", "--kind", "stats"]) == 2
        assert capsys.readouterr().err == "usage error: --kind stats requires --dataset\n"

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

    def test_count_too_large_for_a_float_fails_build_without_traceback(self, tmp_path):
        articles = tmp_path / "articles.tsv"
        articles.write_text(
            "A\tVaccine dose response in adults\t\n"
            "B\tVaccine dose timing and response in older adults\t\n",
            encoding="utf-8",
        )
        count = 10**309
        agg = tmp_path / "agg.jsonl"
        agg.write_text(
            json.dumps(
                {
                    "seed_id": "A",
                    "similar_id": "B",
                    "query_counts": {"vaccine dose response": count},
                    "combined_clicks": count,
                }
            )
            + "\n",
            encoding="utf-8",
        )
        proc = run_cli(
            "build",
            "--aggregates", agg,
            "--articles", articles,
            "--out-prefix", tmp_path / "data",
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "line 1" in proc.stderr
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

    def test_checkpoint_without_config_fails_explain_without_traceback(self, workdir, tmp_path):
        checkpoint = tmp_path / "tagger.bare.json"
        checkpoint.write_text('{"version": 2}', encoding="utf-8")
        proc = run_cli(
            "explain",
            "--dataset", workdir / "data.test.jsonl",
            "--backend", "tagger",
            "--articles", workdir / "articles.tsv",
            "--checkpoint", checkpoint,
            "--out", tmp_path / "p.jsonl",
        )
        assert proc.returncode == 1
        assert "'config'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "vectors, where",
        [("1 x\nalpha 1\n", "line 1"), ("1 2\nalpha abc 1\n", "line 2"), ("1 2\nalpha inf 1\n", "line 2")],
    )
    def test_bad_embeddings_fail_explain_without_traceback(self, workdir, tmp_path, vectors, where):
        emb = tmp_path / "vectors.txt"
        emb.write_text(vectors, encoding="utf-8")
        proc = run_cli(
            "explain",
            "--dataset", workdir / "data.test.jsonl",
            "--backend", "embed", "--embeddings", emb,
            "--out", tmp_path / "p.jsonl",
        )
        assert proc.returncode == 1
        assert where in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "choices, key, message",
        [
            (b"instance_id,pick\n1,left\n", b"instance_id,left_model,right_model\n1,a,b\n",
             "choices CSV row lacks the 'choice' column"),
            (b"instance_id,choice\n1,left\n", b"instance_id,model_a,model_b\n1,a,b\n",
             "key CSV row lacks the 'left_model' column"),
            (b"instance_id,choice\n1,left\n2,l\xe9ft\n", b"instance_id,left_model,right_model\n1,a,b\n",
             "CSV line 3 is not UTF-8"),
            (b"instance_id,choice\n1,left\n", b"instance_id,left_model,right_model\n1,\xff,b\n",
             "CSV line 2 is not UTF-8"),
            (b"instance_id,choice\n1,left\n1,left\n", b"instance_id,left_model,right_model\n1,a,b\n",
             "choices list instance '1' twice"),
            (b"instance_id,choice\n1,left\n", b"instance_id,left_model,right_model\n1,a,b\n1,b,a\n",
             "key lists instance '1' twice"),
        ],
        ids=[
            "choices-without-choice", "key-without-left-model", "choices-not-utf8", "key-not-utf8",
            "choices-repeat-instance", "key-repeat-instance",
        ],
    )
    def test_bad_tally_input_fails_report_without_traceback(self, tmp_path, choices, key, message):
        (tmp_path / "choices.csv").write_bytes(choices)
        (tmp_path / "key.csv").write_bytes(key)
        proc = run_cli(
            "report", "--kind", "tally", "--choices", tmp_path / "choices.csv", "--key", tmp_path / "key.csv"
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_utf8_log_fails_ingest_without_traceback(self, tmp_path):
        log = tmp_path / "raw_log.tsv"
        log.write_bytes(b"s1\t0\tq\t1\tP1\ns1\t1\tq\xff\t2\tP2\n")
        proc = run_cli("ingest", "--log", log, "--out", tmp_path / "agg.jsonl")
        assert proc.returncode == 1
        assert "error: raw log line 2 is not UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_utf8_articles_fail_build_without_traceback(self, workdir, tmp_path):
        articles = tmp_path / "articles.tsv"
        articles.write_bytes(b"P1\tA title\tAn abstract\nP2\tA \xfftitle\t\n")
        proc = run_cli(
            "build",
            "--aggregates", workdir / "agg.jsonl",
            "--articles", articles,
            "--out-prefix", tmp_path / "data",
        )
        assert proc.returncode == 1
        assert "error: bad metadata row at line 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_utf8_embeddings_fail_explain_without_traceback(self, workdir, tmp_path):
        emb = tmp_path / "vectors.txt"
        emb.write_bytes(b"2 2\nalpha 1 2\n\xfe 1 2\n")
        proc = run_cli(
            "explain",
            "--dataset", workdir / "data.test.jsonl",
            "--backend", "embed", "--embeddings", emb,
            "--out", tmp_path / "p.jsonl",
        )
        assert proc.returncode == 1
        assert "error: embedding line 3" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "change, message",
        [({"step": 7.9}, "step 7.9 is not an integer"), ({"weights": "nan"}, "weight is not finite")],
    )
    def test_bad_checkpoint_value_fails_explain_without_traceback(self, workdir, tmp_path, change, message):
        record = json.loads((workdir / "tagger.json").read_text("utf-8"))
        if "weights" in change:
            record["weights"] = [float(change["weights"])] * len(record["weights"])
        else:
            record.update(change)
        checkpoint = tmp_path / "tagger.bad.json"
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
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "record",
        [
            '{"seed_id": "A", "similar_id": "C", "scores": [{"token": 5, "score": 1}]}',
            '{"seed_id": "A", "similar_id": "C", "scores": [{"token": "dose", "score": true}]}',
            '{"seed_id": "A", "similar_id": "C", "scores": [{"token": "dose", "score": "1"}]}',
            '{"seed_id": ["A"], "similar_id": "C", "scores": []}',
        ],
    )
    def test_bad_external_score_record_fails_explain_without_traceback(self, workdir, tmp_path, record):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            '{"seed_id": "A", "similar_id": "B", "scores": [{"token": "dose", "score": 1}]}\n' + record + "\n",
            encoding="utf-8",
        )
        proc = run_cli(
            "explain",
            "--dataset", workdir / "data.test.jsonl",
            "--backend", "external", "--scores", scores,
            "--out", tmp_path / "p.jsonl",
        )
        assert proc.returncode == 1
        assert "line 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_undecodable_stopwords_fail_explain_naming_the_line(self, workdir, tmp_path):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_bytes(b"the\n\xff\n")
        proc = run_cli(
            "explain",
            "--dataset", workdir / "data.test.jsonl",
            "--backend", "overlap",
            "--articles", workdir / "articles.tsv",
            "--stopwords", stopwords,
            "--out", tmp_path / "p.jsonl",
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "line 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_backend_without_companion_flag_is_usage_error(self, workdir, tmp_path, capsys):
        code = main([
            "explain", "--dataset", str(workdir / "data.test.jsonl"),
            "--backend", "bm25", "--out", str(tmp_path / "p.jsonl"),
        ])
        assert code == 2
        assert "requires --articles" in capsys.readouterr().err


def faulty_file(fault, first, second):
    """Bytes of a JSON Lines file that starts with record ``first`` and breaks on line 2.

    Returns the bytes and the lines the error must name: the bad line, then
    for a repeated pair the line it repeats.
    """
    lines = [first.encode("utf-8"), second.encode("utf-8")]
    if fault == "deep_nesting":
        lines[1] = b"[" * 100_000
    elif fault == "non_utf8":
        lines[1] = lines[1][:13] + b"\xff" + lines[1][13:]
    elif fault == "repeated":
        return b"\n".join([lines[0], lines[0]]) + b"\n", (2, 1)
    elif fault == "crlf":
        return b"\r\n".join([lines[0], lines[1], lines[0]]) + b"\r\n", (3, 1)
    elif fault == "truncated":
        lines[1] = lines[1][:-1]
    elif fault in ("nan_inf", "huge_int"):
        seed_id = float("nan") if fault == "nan_inf" else 10**400
        lines[1] = json.dumps({**json.loads(second), "seed_id": seed_id}).encode("utf-8")
    elif fault == "non_object":
        lines[1] = f"[{second}]".encode("utf-8")
    return b"\n".join(lines) + b"\n", (2,)


RECORD_FILE_ARGV = {
    "aggregates": lambda w, f: [
        "build", "--aggregates", f, "--articles", w / "articles.tsv", "--out-prefix", f.with_suffix(""),
    ],
    "dataset": lambda w, f: ["explain", "--dataset", f, "--backend", "all", "--out", f.with_suffix(".out")],
    "predictions": lambda w, f: [
        "eval", "--dataset", w / "data.test.jsonl", "--pred", f"m={f}", "--out", f.with_suffix(".csv"),
    ],
    "pair_scores": lambda w, f: [
        "eval", "--dataset", w / "data.test.jsonl", "--pred", f"m={w / 'pred.all.jsonl'}",
        "--strata", "similarity", "--pair-scores", f, "--out", f.with_suffix(".csv"),
    ],
    "external_scores": lambda w, f: [
        "explain", "--dataset", w / "data.test.jsonl", "--backend", "external", "--scores", f,
        "--out", f.with_suffix(".out"),
    ],
}


class TestRecordFileFaults:
    """Every pair-keyed JSON Lines input fails through the CLI with exit 1 and its line numbers."""

    @staticmethod
    def good_records(workdir, kind):
        if kind in ("aggregates", "dataset", "predictions"):
            name = {"aggregates": "agg.jsonl", "dataset": "data.test.jsonl", "predictions": "pred.all.jsonl"}
            return (workdir / name[kind]).read_text("utf-8").splitlines()[:2]
        rows = [json.loads(line) for line in (workdir / "data.test.jsonl").read_text("utf-8").splitlines()[:2]]
        extra = {"score": 0.5} if kind == "pair_scores" else {"scores": [{"token": "dose", "score": 1.5}]}
        return [json.dumps({"seed_id": r["seed_id"], "similar_id": r["similar_id"], **extra}) for r in rows]

    @pytest.mark.parametrize(
        "kind, fault",
        [(kind, fault) for kind in RECORD_FILE_ARGV for fault in ("deep_nesting", "non_utf8", "repeated")]
        + [
            ("predictions", "truncated"),
            ("aggregates", "crlf"),
            ("predictions", "nan_inf"),
            ("predictions", "huge_int"),
            ("dataset", "non_object"),
        ],
    )
    def test_fault_exits_1_naming_its_lines(self, workdir, tmp_path, capsys, kind, fault):
        data, lines = faulty_file(fault, *self.good_records(workdir, kind))
        path = tmp_path / f"{kind}.jsonl"
        path.write_bytes(data)
        assert main([str(a) for a in RECORD_FILE_ARGV[kind](workdir, path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for lineno in lines:
            assert (f"{path}:{lineno}" if kind == "predictions" else f"line {lineno}") in err

    def test_integer_prediction_ids_rejected(self, workdir, tmp_path, capsys):
        preds = tmp_path / "pred.jsonl"
        preds.write_text('{"seed_id": 1, "similar_id": 2, "tokens": []}\n', encoding="utf-8")
        code = main([
            "eval", "--dataset", str(workdir / "data.test.jsonl"),
            "--pred", f"m={preds}", "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 1
        assert f"{preds}:1" in capsys.readouterr().err

    def test_run_eval_rejects_a_repeated_prediction_pair(self, workdir, tmp_path):
        first = (workdir / "pred.all.jsonl").read_text("utf-8").splitlines()[0]
        preds = tmp_path / "pred.jsonl"
        preds.write_text(f"{first}\n{first}\n", encoding="utf-8")
        with pytest.raises(DatasetError) as exc:
            run_eval(workdir / "data.test.jsonl", [("m", preds)], tmp_path / "m.csv")
        assert f"{preds}:2" in str(exc.value)

    def test_deeply_nested_checkpoint_fails_explain_without_traceback(self, workdir, tmp_path):
        checkpoint = tmp_path / "tagger.deep.json"
        checkpoint.write_text("[" * 100_000, encoding="utf-8")
        proc = run_cli(
            "explain",
            "--dataset", workdir / "data.test.jsonl",
            "--backend", "tagger",
            "--articles", workdir / "articles.tsv",
            "--checkpoint", checkpoint,
            "--out", tmp_path / "p.jsonl",
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "checkpoint is not JSON" in proc.stderr
        assert "Traceback" not in proc.stderr


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


    def test_config_without_value_is_usage_error(self, tmp_path):
        proc = run_cli("ingest", "--log", tmp_path / "x", "--out", tmp_path / "y", "--config")
        assert proc.returncode == 2
        assert "--config" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_config_line_without_equals_is_runtime_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("p 0.11\n", encoding="utf-8")
        proc = run_cli("ingest", "--log", tmp_path / "x", "--out", tmp_path / "y", "--config", config)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "p 0.11" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_config_equals_form_fails_like_separate_form(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("p 0.11\n", encoding="utf-8")
        args = ("ingest", "--log", tmp_path / "x", "--out", tmp_path / "y")
        separate = run_cli(*args, "--config", config)
        joined = run_cli(*args, f"--config={config}")
        assert joined.returncode == separate.returncode == 1
        assert joined.stderr == separate.stderr
        assert "p 0.11" in joined.stderr
        assert "Traceback" not in joined.stderr

    def test_abbreviated_config_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("p 0.11\n", encoding="utf-8")
        proc = run_cli("ingest", "--log", tmp_path / "x", "--out", tmp_path / "y", "--conf", config)
        assert proc.returncode == 2
        assert "unrecognized arguments: --conf" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_utf8_config_is_runtime_error_naming_the_line(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"n_articles=12\n# caf\xe9\nsessions=30\n")
        proc = run_cli("synth", "--out-dir", tmp_path / "w", "--config", config)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: config line 2 is not UTF-8")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "w").exists()

    def test_config_equals_form_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text("n_articles=12\nsessions=30\n", encoding="utf-8")
        assert main(["synth", "--out-dir", str(tmp_path / "w"), f"--config={config}"]) == 0
        assert "for 12 articles" in capsys.readouterr().out


# Every knob flag of synth, build, train and explain: (subcommand, flag, the
# field or parameter it sets, the value written, that value parsed). A value
# written as None marks a store_true flag.
KNOBS = [
    ("synth", "--n-articles", "n_articles", "41", 41),
    ("synth", "--cluster-size", "cluster_size", "5", 5),
    ("synth", "--topics-per-cluster", "topics_per_cluster", "6", 6),
    ("synth", "--extra-topic-prob", "extra_topic_prob", "0.25", 0.25),
    ("synth", "--extra-in-title-prob", "extra_in_title_prob", "0.75", 0.75),
    ("synth", "--filler-vocab", "filler_vocab", "501", 501),
    ("synth", "--filler-zipf", "filler_zipf", "1.5", 1.5),
    ("synth", "--stopword-vocab", "stopword_vocab", "26", 26),
    ("synth", "--title-len", "title_len", "8,20,10", (8, 20, 10)),
    ("synth", "--abstract-len", "abstract_len", "31,40", (31, 40)),
    ("synth", "--zipf", "article_zipf", "1.2", 1.2),
    ("synth", "--same-cluster-bias", "same_cluster_bias", "0.8", 0.8),
    ("synth", "--sessions", "sessions", "11", 11),
    ("synth", "--clicks-dist", "clicks_dist", "0.2,0.3,0.5", (0.2, 0.3, 0.5)),
    ("synth", "--query-sizes", "query_size_weights", "0.25,0.25,0.25,0.25", (0.25, 0.25, 0.25, 0.25)),
    ("build", "--p", "gold_threshold", "0.2", 0.2),
    ("build", "--cap", "cap_fraction", "0.5", 0.5),
    ("build", "--min-clicks", "min_clicks", "21", 21),
    ("build", "--min-title-len", "min_title_len", "8", 8),
    ("build", "--min-nonzero", "min_nonzero", "4", 4),
    ("train", "--lr", "lr", "0.01", 0.01),
    ("train", "--beta1", "beta1", "0.8", 0.8),
    ("train", "--beta2", "beta2", "0.99", 0.99),
    ("train", "--warmup-steps", "warmup_steps", "7", 7),
    ("train", "--total-steps", "total_steps", "30", 30),
    ("train", "--batch-size", "batch_size", "8", 8),
    ("train", "--eval-every", "eval_every", "10", 10),
    ("train", "--decision-threshold", "decision_threshold", "0.6", 0.6),
    ("train", "--max-len", "max_len", "64", 64),
    ("train", "--merge-seed-features", "merge_seed_features", None, True),
    ("explain", "--select", "selector", "softmax", "softmax"),
    ("explain", "--k", "k", "5", 5),
    ("explain", "--p", "p", "0.2", 0.2),
    ("explain", "--cap", "cap_fraction", "0.5", 0.5),
    ("explain", "--idf-floor", "idf_floor", "0.5", 0.5),
    ("explain", "--bm25-use-abstract", "use_abstract", None, True),
    ("explain", "--generative", "generative", None, True),
]

# The explain backend each knob is checked on; the rest go to bm25.
KNOB_BACKENDS = {"idf_floor": "overlap", "generative": "external"}

# Each knob as a flag and as a --config key; a store_true knob also as "false".
KNOB_CASES = [
    pytest.param(form, *knob, id=f"{knob[0]}{knob[1]}-{form}")
    for knob in KNOBS
    for form in ("flag", "config", "config-false")
    if form != "config-false" or knob[3] is None
]


class TestStageKnobs:
    """A knob flag left out keeps its object's default; one given sets its own field only."""

    @pytest.fixture
    def world(self, tmp_path):
        """Small explain inputs, and the argv without knobs of each subcommand."""
        articles = tmp_path / "articles.tsv"
        articles.write_text("A1\tvaccine dose trial\tan abstract\nA2\tdose response\tmore words\n", "utf-8")
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("1 2\ndose 1 0\n", "utf-8")
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            json.dumps({"seed_id": "A1", "similar_id": "A2", "scores": [{"token": "dose", "score": 1.0}]}) + "\n",
            "utf-8",
        )
        explain = [
            "--dataset", "unused", "--out", "unused", "--articles", str(articles),
            "--embeddings", str(vectors), "--scores", str(scores),
        ]
        return {
            "synth": ["synth", "--out-dir", str(tmp_path / "w")],
            "build": ["build", "--aggregates", "a", "--articles", "b", "--out-prefix", "c"],
            "train": ["train", "--train", "t", "--articles", "a", "--out", "o"],
            "explain": ["explain", *explain],
            "scores": scores,
            "vectors": vectors,
        }

    @pytest.fixture
    def handed_on(self, monkeypatch):
        """What each stage command hands to its stage; no stage runs."""
        seen = {}

        def run_synth(out_dir, config):
            seen["synth"] = config
            return 0, 0

        def run_build(aggregates, articles, out_prefix, config, ratios, seed):
            seen["build"] = config
            return BuildSummary(n_pairs=0, drops={}, split_paths={}, split_sizes={})

        def run_train(train, dev, articles, out, metrics_log, tagger):
            seen["train"] = tagger
            return 0, 0

        def run_explain(dataset, jobs):
            ((seen["explain"], _),) = jobs
            return 0, (0,)

        for stage in (run_synth, run_build, run_train, run_explain):
            monkeypatch.setattr(coclick.cli, stage.__name__, stage)
        return seen

    @staticmethod
    def knob_values(obj):
        """A config's fields, a tagger's hyperparameters or a backend's settings, by name."""
        if isinstance(obj, (SynthConfig, BuildConfig)):
            return dataclasses.asdict(obj)
        if isinstance(obj, TokenTagger):
            return {name: getattr(obj, name) for name in HYPERPARAMETERS}
        return {name: value for name, value in vars(obj).items() if not name.endswith("_")}

    @staticmethod
    def default_backend(backend, world, **knobs):
        if backend == "embed":
            with open(world["vectors"], encoding="utf-8") as fh:
                return EmbeddingRelevance(load_embeddings(fh), **knobs)
        if backend == "external":
            with open(world["scores"], encoding="utf-8") as fh:
                return ExternalScores(load_external_scores(fh), **knobs)
        return {"overlap": Overlapper, "bm25": Bm25}[backend](**knobs)

    def test_table_lists_every_knob_flag(self):
        (subcommands,) = [
            action.choices for action in coclick.cli.build_parser()._actions if action.dest == "command"
        ]
        without_default = {
            (command, action.option_strings[0])
            for command, parser in subcommands.items()
            for action in parser._actions
            if action.default is argparse.SUPPRESS and action.dest != "help"
        }
        assert without_default == {(command, flag) for command, flag, *_ in KNOBS}

    def test_no_knob_flag_builds_the_default_objects(self, world, handed_on):
        for command in ("synth", "build", "train"):
            assert main(world[command]) == 0
        assert handed_on["synth"] == SynthConfig()
        assert handed_on["build"] == BuildConfig()
        assert self.knob_values(handed_on["train"]) == self.knob_values(TokenTagger())

    @pytest.mark.parametrize("backend", ["overlap", "bm25", "embed", "external"])
    def test_no_knob_flag_builds_backends_with_constructor_defaults(self, world, backend):
        args = coclick.cli.build_parser().parse_args(world["explain"] + ["--backend", backend])
        built = coclick.cli._build_backend(args)
        assert self.knob_values(built) == self.knob_values(self.default_backend(backend, world))

    @pytest.mark.parametrize("form, command, flag, field, written, parsed", KNOB_CASES)
    def test_knob_sets_exactly_its_own_field(
        self, world, handed_on, tmp_path, form, command, flag, field, written, parsed
    ):
        if form == "flag":
            knob = [flag] if written is None else [flag, written]
        else:
            value = {"config": written or "true", "config-false": "false"}[form]
            config = tmp_path / "knob.cfg"
            config.write_text(f"{flag[2:].replace('-', '_')}={value}\n", encoding="utf-8")
            knob = ["--config", str(config)]
        expected = {field: parsed} if form != "config-false" else {}
        argv = world[command] + knob
        if command == "explain":
            backend = KNOB_BACKENDS.get(field, "bm25")
            argv += ["--backend", backend]
            default = self.default_backend(backend, world, **expected)
        else:
            default = {"synth": SynthConfig, "build": BuildConfig, "train": TokenTagger}[command](**expected)
        assert main(argv) == 0
        assert self.knob_values(handed_on[command]) == self.knob_values(default)


class TestSynthWeights:
    @pytest.mark.parametrize(
        "flag, field",
        [
            ("--clicks-dist=-1,1,1", "clicks_dist"),
            ("--clicks-dist=0,0,0", "clicks_dist"),
            ("--clicks-dist=nan,1,1", "clicks_dist"),
            ("--query-sizes=-1,1,1,1", "query_size_weights"),
            ("--title-len=9,13", "title_len"),
            ("--abstract-len=40,30", "abstract_len"),
            ("--abstract-len=0,30", "abstract_len"),
            ("--abstract-len=30", "abstract_len"),
        ],
    )
    def test_bad_weights_exit_1_without_traceback(self, tmp_path, flag, field):
        proc = run_cli("synth", "--out-dir", tmp_path / "w", "--n-articles", 8, "--sessions", 5, flag)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "w").exists()


class TestBuildRatios:
    @pytest.mark.parametrize(
        "ratios, message",
        [
            ("1", "must be 3 numbers"),
            ("0.5,0.5", "must be 3 numbers"),
            ("0.5,0.5,0,0", "must be 3 numbers"),
            ("nan,0.5,0.5", "finite and non-negative"),
        ],
    )
    def test_bad_ratios_exit_1_before_the_inputs_are_read(self, tmp_path, ratios, message):
        proc = run_cli(
            "build",
            "--aggregates", tmp_path / "missing.jsonl",
            "--articles", tmp_path / "missing.tsv",
            "--out-prefix", tmp_path / "data",
            "--ratios", ratios,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: split ratios ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


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
        printed = capsys.readouterr().out.splitlines()
        assert "parsed 4 events (4 malformed lines skipped), 2 coclicked pairs" in printed[0]
        assert printed[1] == "malformed lines by reason: field_count 1, not_integer 1, rank_below_1 1, empty_field 1"
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
        for backend in BACKENDS:
            pred = f"pred.{backend}.jsonl"
            assert result.paths[f"pred.{backend}"] == tmp_path / pred
            assert (tmp_path / pred).read_bytes() == (workdir / pred).read_bytes(), backend

    def test_run_pipeline_loads_the_test_split_for_explain_and_eval_only(self, monkeypatch, tmp_path):
        loaded = []
        load_dataset = coclick.pipeline.load_dataset

        def counting_load(fh):
            loaded.append(Path(fh.name).name)
            return load_dataset(fh)

        monkeypatch.setattr(coclick.pipeline, "load_dataset", counting_load)
        run_pipeline(tmp_path, fixture_config())
        assert sorted(loaded) == [
            "dataset.dev.jsonl", "dataset.test.jsonl", "dataset.test.jsonl", "dataset.train.jsonl",
        ]

    def test_cli_eval_writes_the_run_pipeline_metrics(self, workdir, tmp_path):
        result = run_pipeline(tmp_path / "pipeline", fixture_config())
        out = tmp_path / "metrics.csv"
        assert main(
            ["eval", "--dataset", str(workdir / "data.test.jsonl"), "--strata", "clicks", "--out", str(out)]
            + [f"--pred={b}={workdir / f'pred.{b}.jsonl'}" for b in BACKENDS]
        ) == 0
        assert out.read_bytes() == result.paths["metrics"].read_bytes()


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
        # aggregate_sharded parses the lines itself, so the parse_log wrappers stay unused.
        assert self.children(spans, "logs.aggregate") == []
        assert self.children(spans, "cli.build") == [
            "logs.read_aggregates", "dataset.build", "dataset.split",
            "dataset.write", "dataset.write", "dataset.write",
        ]
        assert all(getattr(mod, n) is fn for (mod, n), fn in originals.items())

    def test_traced_ingest_of_interleaved_log(self, tracing, workdir, tmp_path):
        lines = (workdir / "raw_log.tsv").read_text("utf-8").splitlines(True)
        random.Random(1).shuffle(lines)
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text("".join(lines), encoding="utf-8")
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            assert main(["ingest", "--log", str(shuffled), "--out", str(tmp_path / "agg.jsonl")]) == 0
        assert (tmp_path / "agg.jsonl").read_bytes() == (workdir / "agg.jsonl").read_bytes()
        assert [s.name for s in tracer.spans].count("logs.aggregate") == 2

    def test_run_pipeline_spans(self, tracing, tmp_path):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            coclick.pipeline.run_pipeline(tmp_path, fixture_config())
        names = {s.name for s in tracer.spans}
        assert {
            "synth.generate_sessions", "logs.aggregate", "dataset.build", "tagger.fit",
            "explain.tagger.predict", "evaluate.metrics_rows",
        } <= names

    def test_cli_explain_and_eval_spans(self, tracing, workdir, tmp_path):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            assert main([
                "explain", "--dataset", str(workdir / "data.test.jsonl"),
                "--backend", "bm25", "--articles", str(workdir / "articles.tsv"),
                "--out", str(tmp_path / "pred.bm25.jsonl"),
            ]) == 0
            assert main([
                "eval", "--dataset", str(workdir / "data.test.jsonl"),
                "--pred", f"bm25={tmp_path / 'pred.bm25.jsonl'}",
                "--out", str(tmp_path / "metrics.csv"),
            ]) == 0
        names = [s.name for s in tracer.spans]
        assert names.count("explain.bm25.predict") == 1
        assert names.count("evaluate.metrics_rows") == 1
        assert (tmp_path / "pred.bm25.jsonl").read_bytes() == (workdir / "pred.bm25.jsonl").read_bytes()
