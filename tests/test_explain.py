"""Explainer backend and selection rule tests."""

import io
import logging
import math
import random

import pytest

from coclick.base import DatasetError
from coclick.dataset import PairExample, TokenClickCounts
from coclick.explain import (
    Bm25,
    EmbeddingRelevance,
    ExternalScores,
    HighlightAll,
    Overlapper,
    TokenScore,
    bm25_token_score,
    embedding_token_relevance,
    load_embeddings,
    load_external_scores,
    load_stopwords,
    overlapper,
    predict_dataset,
    select_softmax_threshold,
    select_top_k,
)
from coclick.explain import EmbeddingTable
from coclick.scoring import IdfTable, compute_idf
from coclick.text import word_tokenize


def make_example(seed_title, similar_title, seed_abstract="", gold=None, pair=("S1", "T1")):
    tokens = word_tokenize(similar_title)
    counts = TokenClickCounts({t.lower: 1 for t in tokens})
    return PairExample(
        seed_id=pair[0],
        similar_id=pair[1],
        seed_title=seed_title,
        seed_abstract=seed_abstract,
        similar_title=similar_title,
        gold_tokens=gold or set(),
        token_counts=counts,
        combined_clicks=30,
    )


# Frozen micro-corpus: document lengths 4, 6, 8 -> avgdl = 6.
MICRO_CORPUS = [
    ["covid", "vaccine", "trial", "safety"],
    ["flu", "shot", "efficacy", "study", "results", "data"],
    ["heart", "disease", "risk", "factors", "blood", "pressure", "obesity", "diet"],
]


class TestHighlightAll:
    def test_selects_every_index(self):
        ex = make_example("whatever", "one two three four five six seven eight")
        assert HighlightAll().predict_positions(ex) == set(range(8))

    def test_empty_title(self):
        assert HighlightAll().predict_positions(make_example("whatever", "")) == set()

    def test_precision_is_gold_over_unique(self):
        ex = make_example("whatever", "a b c d", gold={"a", "b"})
        backend = HighlightAll()
        pred = backend.predict_tokens(ex)
        assert len(ex.gold_tokens) / len(pred) == 0.5


class TestOverlapper:
    def test_shared_tokens_minus_stopwords(self):
        seed = word_tokenize("Safety of X Vaccine")
        similar = word_tokenize("Efficacy of X Vaccine")
        got = overlapper(seed, similar, stopwords={"of"})
        assert got == {2, 3}  # x, vaccine

    def test_disjoint_titles_empty(self):
        got = overlapper(
            word_tokenize("alpha beta"), word_tokenize("gamma delta"), stopwords=set()
        )
        assert got == set()

    def test_seed_document_sharing_all_content_words(self):
        seed = word_tokenize("The Safety and Efficacy of the BNT162b2 mRNA Covid-19 Vaccine in trials")
        similar = word_tokenize("Safety and Efficacy of the BNT162b2 mRNA Covid-19 Vaccine.")
        got = overlapper(seed, similar, stopwords=load_stopwords())
        texts = {similar[i].text for i in got}
        assert texts == {"Safety", "Efficacy", "BNT162b2", "mRNA", "Covid-19", "Vaccine"}

    def test_idf_floor_excludes_common_tokens(self):
        idf = compute_idf([["x", "common"], ["common"], ["y", "common"]])
        seed = word_tokenize("x common")
        similar = word_tokenize("x common")
        assert overlapper(seed, similar, set(), idf, idf_floor=0.5) == {0}

    def test_no_stopword_ever_selected(self):
        rng = random.Random(3)
        stopwords = load_stopwords()
        pool = list(stopwords)[:20] + ["alpha", "beta", "gamma"]
        for _ in range(200):
            seed = word_tokenize(" ".join(rng.choices(pool, k=rng.randint(1, 10))))
            similar_tokens = word_tokenize(" ".join(rng.choices(pool, k=rng.randint(1, 10))))
            got = overlapper(seed, similar_tokens, stopwords)
            assert all(similar_tokens[i].lower not in stopwords for i in got)


class TestBm25:
    def test_frozen_hand_computation(self):
        idf = compute_idf(MICRO_CORPUS)
        score = bm25_token_score("covid", MICRO_CORPUS[0], idf, avgdl=6.0)
        # idf = ln(1 + 2.5/1.5); tf term = 1.5 / (1 + 0.5*(0.7 + 0.3*4/6))
        assert abs(score - 1.0146509513914406) < 1e-9

    def test_zero_tf_scores_zero(self):
        idf = compute_idf(MICRO_CORPUS)
        assert bm25_token_score("absent", MICRO_CORPUS[0], idf, avgdl=6.0) == 0.0

    def test_strictly_monotone_in_tf(self):
        idf = IdfTable(doc_count=10, doc_freq={"t": 2})
        scores = []
        for tf in range(1, 101):
            doc = ["t"] * tf + [f"f{i}" for i in range(100 - tf)]
            scores.append(bm25_token_score("t", doc, idf, avgdl=100.0))
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_case_insensitive_matching(self):
        idf = compute_idf(MICRO_CORPUS)
        assert bm25_token_score("COVID", ["Covid", "x"], idf, avgdl=2.0) > 0

    def test_backend_requires_fit(self):
        from coclick.base import NotFittedError

        ex = make_example("covid vaccine", "covid flu shot")
        with pytest.raises(NotFittedError):
            Bm25().score_tokens(ex)

    def test_backend_topk_prediction(self):
        docs = [["covid", "vaccine", "trial"], ["flu", "vaccine"], ["heart", "risk"]]
        backend = Bm25(k=2).fit(docs)
        ex = make_example("covid vaccine trial", "covid flu vaccine response")
        pred = backend.predict_tokens(ex)
        assert pred == {"covid", "vaccine"}


class TestEmbeddingRelevance:
    def test_hand_summed_cosines(self):
        table = EmbeddingTable(
            dim=2,
            vectors={
                "x": [1.0, 0.0],
                "a": [0.8, 0.6],
                "b": [-0.2, math.sqrt(0.96)],
            },
        )
        score = embedding_token_relevance("x", ["a", "b"], table)
        assert abs(score - 0.6) < 1e-9

    def test_identical_token_plus_orthogonal(self):
        table = EmbeddingTable(dim=2, vectors={"x": [1.0, 0.0], "y": [0.0, 1.0]})
        assert embedding_token_relevance("x", ["x", "y"], table) == pytest.approx(1.0)

    def test_oov_scores_zero(self):
        table = EmbeddingTable(dim=2, vectors={"x": [1.0, 0.0]})
        assert embedding_token_relevance("unknown", ["x"], table) == 0.0

    def test_load_embeddings_text_format(self):
        table = load_embeddings(io.StringIO("2 3\nx 1 0 0\ny 0 1 0\n"))
        assert table.dim == 3
        assert table.get("X") == [1.0, 0.0, 0.0]

    def test_dim_mismatch_fatal(self):
        with pytest.raises(DatasetError):
            load_embeddings(io.StringIO("1 3\nx 1 0\n"))

    def test_nan_fatal(self):
        with pytest.raises(DatasetError):
            load_embeddings(io.StringIO("1 2\nx nan 0\n"))


def scores_for(title, values):
    tokens = word_tokenize(title)
    return [TokenScore(t.lower, t.word_index, v) for t, v in zip(tokens, values)]


class TestSelectTopK:
    def test_basic_top_two(self):
        scores = scores_for("a b c", [3.0, 2.0, 1.0])
        assert select_top_k(scores, 2) == {0, 1}

    def test_k_larger_than_candidates(self):
        scores = scores_for("a b c", [3.0, 2.0, 1.0])
        assert select_top_k(scores, 10) == {0, 1, 2}

    def test_ties_broken_by_idf_then_position(self):
        scores = scores_for("x y", [1.0, 1.0])
        idf = IdfTable(doc_count=10, doc_freq={"x": 5, "y": 1})
        assert select_top_k(scores, 1, idf) == {1}  # y is rarer
        assert select_top_k(scores, 1) == {0}  # no idf: earlier position

    def test_duplicate_tokens_count_once(self):
        scores = scores_for("dose response dose", [5.0, 1.0, 5.0])
        assert select_top_k(scores, 2) == {0, 1}

    def test_nested_in_k_plus_one(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 12)
            title = " ".join(rng.choice("abcdef") for _ in range(n))
            scores = scores_for(title, [rng.uniform(-2, 2) for _ in range(n)])
            for k in range(n):
                assert select_top_k(scores, k) <= select_top_k(scores, k + 1)

    def test_outputs_within_title_bounds(self):
        scores = scores_for("a b c d", [0.1, 0.4, -0.2, 0.0])
        for k in range(6):
            assert select_top_k(scores, k) <= {0, 1, 2, 3}


class TestSelectSoftmaxThreshold:
    def test_uniform_scores_above_uniform_threshold_empty(self):
        scores = scores_for("a b c d", [2.0, 2.0, 2.0, 2.0])
        assert select_softmax_threshold(scores, p=0.30) == set()

    def test_dominant_score_singleton(self):
        # hand softmax: scaled [1, 0.01, 0.01], scores ~ [0.573, 0.213, 0.213]
        scores = scores_for("big tiny tinier", [100.0, 1.0, 1.0])
        exps = [math.exp(1.0), math.exp(0.01), math.exp(0.01)]
        top = exps[0] / sum(exps)
        assert top > 0.5
        assert select_softmax_threshold(scores, p=0.5, cap_fraction=1.0) == {0}

    def test_cap_triggers(self):
        values = [50.0] * 7 + [0.0] * 3
        scores = scores_for("a b c d e f g h i j", values)
        got = select_softmax_threshold(scores, p=0.05, cap_fraction=0.40)
        assert len(got) == 4
        assert got == {0, 1, 2, 3}

    def test_negative_scores_keep_ranking(self):
        scores = scores_for("w x y z", [-0.1, -4.0, -4.0, -4.0])
        got = select_softmax_threshold(scores, p=0.30, cap_fraction=1.0)
        assert got == {0}


class TestExternalScores:
    def test_single_valid_line(self):
        fh = io.StringIO(
            '{"seed_id": "S1", "similar_id": "T1", "scores": [{"token": "covid", "score": 2.5}]}\n'
        )
        scores = load_external_scores(fh)
        assert scores[("S1", "T1")] == [("covid", 2.5)]

    def test_duplicate_pair_last_wins_with_warning(self, caplog):
        fh = io.StringIO(
            '{"seed_id": "S1", "similar_id": "T1", "scores": [{"token": "a", "score": 1}]}\n'
            '{"seed_id": "S1", "similar_id": "T1", "scores": [{"token": "b", "score": 2}]}\n'
        )
        with caplog.at_level(logging.WARNING):
            scores = load_external_scores(fh)
        assert scores[("S1", "T1")] == [("b", 2.0)]
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_malformed_line_fatal(self):
        with pytest.raises(DatasetError):
            load_external_scores(io.StringIO("{broken\n"))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", '"nan"'])
    def test_non_finite_score_fatal_with_line_number(self, bad):
        fh = io.StringIO(
            '{"seed_id": "S1", "similar_id": "T1", "scores": [{"token": "a", "score": 1.0}]}\n'
            '{"seed_id": "S2", "similar_id": "T2", "scores": '
            f'[{{"token": "a", "score": {bad}}}, {{"token": "b", "score": 1.0}}]}}\n'
        )
        with pytest.raises(DatasetError, match="line 2"):
            load_external_scores(fh)

    def test_token_absent_from_title_names_pair(self):
        ex = make_example("seed title words", "alpha beta gamma delta", pair=("S9", "T9"))
        backend = ExternalScores({("S9", "T9"): [("zzz", 1.0)]})
        with pytest.raises(DatasetError, match="S9"):
            backend.predict_tokens(ex)

    def test_unknown_pair_skipped_with_tally(self):
        ex1 = make_example("s", "alpha beta gamma", pair=("S1", "T1"))
        ex2 = make_example("s", "alpha beta gamma", pair=("S2", "T2"))
        backend = ExternalScores({("S1", "T1"): [("alpha", 1.0)]}, k=1)
        preds, skipped = predict_dataset(backend, [ex1, ex2])
        assert skipped == 1
        assert preds == {("S1", "T1"): {"alpha"}}

    def test_generative_default_k_is_four(self):
        assert ExternalScores({}, generative=True).k == 4
        assert ExternalScores({}).k == 3


class TestStopwordList:
    def test_exactly_120_words(self):
        assert len(load_stopwords()) == 120

    def test_override_from_path(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("foo\nBAR\n", encoding="utf-8")
        assert load_stopwords(path) == {"foo", "bar"}
