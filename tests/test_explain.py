"""Explainer backend and selection rule tests."""

import io
import math
import random

import pytest

import coclick.explain
from coclick.base import ConfigError, DatasetError
from coclick.dataset import PairExample, TokenClickCounts, lower_tokens, select_gold_tokens
from coclick.explain import (
    Bm25,
    EmbeddingRelevance,
    ExternalScores,
    HighlightAll,
    Overlapper,
    embedding_token_relevance,
    load_embeddings,
    load_external_scores,
    load_stopwords,
    predict_dataset,
    select_top_k,
)
from coclick.explain import EmbeddingTable
from coclick.scoring import IdfTable, threshold_cap_select
from coclick.text import positions_of

import oracle_select


def make_example(seed_title, similar_title, seed_abstract="", gold=None, pair=("S1", "T1")):
    tokens = lower_tokens(similar_title)
    counts = TokenClickCounts({t: 1 for t in tokens})
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
        assert positions_of(ex.similar_title_tokens, HighlightAll().predict_tokens(ex)) == set(range(8))

    def test_empty_title(self):
        ex = make_example("whatever", "")
        assert positions_of(ex.similar_title_tokens, HighlightAll().predict_tokens(ex)) == set()

    def test_precision_is_gold_over_unique(self):
        ex = make_example("whatever", "a b c d", gold={"a", "b"})
        backend = HighlightAll()
        pred = backend.predict_tokens(ex)
        assert len(ex.gold_tokens) / len(pred) == 0.5


class TestOverlapper:
    def test_shared_tokens_minus_stopwords(self):
        ex = make_example("Safety of X Vaccine", "Efficacy of X Vaccine")
        assert Overlapper(stopwords={"of"}).predict_tokens(ex) == {"x", "vaccine"}

    def test_disjoint_titles_empty(self):
        ex = make_example("alpha beta", "gamma delta")
        assert Overlapper(stopwords=set()).predict_tokens(ex) == set()

    def test_seed_document_sharing_all_content_words(self):
        ex = make_example(
            "The Safety and Efficacy of the BNT162b2 mRNA Covid-19 Vaccine in trials",
            "Safety and Efficacy of the BNT162b2 mRNA Covid-19 Vaccine.",
        )
        got = Overlapper(stopwords=load_stopwords()).predict_tokens(ex)
        assert got == {"safety", "efficacy", "bnt162b2", "mrna", "covid-19", "vaccine"}

    def test_idf_floor_excludes_common_tokens(self):
        backend = Overlapper(stopwords=set(), idf_floor=0.5)
        backend.fit([["x", "common"], ["common"], ["y", "common"]])
        assert backend.predict_tokens(make_example("x common", "x common")) == {"x"}

    def test_no_stopword_ever_selected(self):
        rng = random.Random(3)
        stopwords = load_stopwords()
        pool = list(stopwords)[:20] + ["alpha", "beta", "gamma"]
        backend = Overlapper(stopwords=stopwords)
        for _ in range(200):
            ex = make_example(
                " ".join(rng.choices(pool, k=rng.randint(1, 10))),
                " ".join(rng.choices(pool, k=rng.randint(1, 10))),
            )
            got = backend.predict_tokens(ex)
            assert got <= set(ex.seed_title_tokens) & set(ex.similar_title_tokens)
            assert not got & stopwords

    def test_default_backend_fits_no_idf_table(self):
        from coclick.logs import Article
        from coclick.pipeline import default_backends, title_documents

        titles = ["Safety of X vaccine", "X vaccine dose", "Vaccine dose safety in Y", "Z risk"]
        articles = {f"P{i}": Article(f"P{i}", title) for i, title in enumerate(titles)}
        overlap = next(b for b in default_backends(articles) if b.name == "overlap")
        assert overlap.idf_ is None
        # The default floor of 0 excludes nothing: smoothed idf is always above it.
        fitted = Overlapper().fit(title_documents(articles))
        for seed in titles:
            for similar in titles:
                ex = make_example(seed, similar)
                assert overlap.predict_tokens(ex) == fitted.predict_tokens(ex)


class TestBm25:
    @staticmethod
    def micro_scores(seed_title, similar_title):
        return Bm25().fit(MICRO_CORPUS).score_tokens(make_example(seed_title, similar_title))

    def test_frozen_hand_computation(self):
        score = self.micro_scores(" ".join(MICRO_CORPUS[0]), "covid")["covid"]
        # idf = ln(1 + 2.5/1.5); tf term = 1.5 / (1 + 0.5*(0.7 + 0.3*4/6))
        assert abs(score - 1.0146509513914406) < 1e-9

    def test_zero_tf_scores_zero(self):
        assert self.micro_scores(" ".join(MICRO_CORPUS[0]), "absent covid")["absent"] == 0.0

    def test_strictly_monotone_in_tf(self):
        backend = Bm25()
        backend.idf_ = IdfTable(doc_count=10, doc_freq={"t": 2})
        backend.avgdl_ = 100.0
        scores = []
        for tf in range(1, 101):
            doc = " ".join(["t"] * tf + [f"f{i}" for i in range(100 - tf)])
            scores.append(backend.score_tokens(make_example(doc, "t"))["t"])
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_case_insensitive_matching(self):
        assert self.micro_scores("Covid x", "COVID")["covid"] > 0

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

    @pytest.mark.parametrize("header", ["1 x", "1", "1 2 3", "1 0", "x 2"])
    def test_bad_header_fatal_with_line_number(self, header):
        with pytest.raises(DatasetError, match="line 1"):
            load_embeddings(io.StringIO(f"{header}\nx 1 0\n"))

    @pytest.mark.parametrize("component", ["abc", "inf", "-inf", "1e999"])
    def test_bad_component_fatal_with_line_number(self, component):
        with pytest.raises(DatasetError, match="line 3"):
            load_embeddings(io.StringIO(f"2 2\nx 1 0\ny {component} 0\n"))


def scores_for(title, values):
    return dict(zip(lower_tokens(title), values))


class TestSelectTopK:
    def test_basic_top_two(self):
        scores = scores_for("a b c", [3.0, 2.0, 1.0])
        assert select_top_k(scores, 2) == {"a", "b"}

    def test_k_larger_than_candidates(self):
        scores = scores_for("a b c", [3.0, 2.0, 1.0])
        assert select_top_k(scores, 10) == {"a", "b", "c"}

    def test_ties_broken_by_idf_then_position(self):
        scores = scores_for("x y", [1.0, 1.0])
        idf = IdfTable(doc_count=10, doc_freq={"x": 5, "y": 1})
        assert select_top_k(scores, 1, idf) == {"y"}  # y is rarer
        assert select_top_k(scores, 1) == {"x"}  # no idf: earlier position

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
            assert select_top_k(scores, k) <= {"a", "b", "c", "d"}


class TestSelectSoftmaxThreshold:
    def test_uniform_scores_above_uniform_threshold_empty(self):
        scores = scores_for("a b c d", [2.0, 2.0, 2.0, 2.0])
        assert threshold_cap_select(scores, p=0.30, cap_fraction=0.40) == set()

    def test_dominant_score_singleton(self):
        # hand softmax: scaled [1, 0.01, 0.01], scores ~ [0.573, 0.213, 0.213]
        scores = scores_for("big tiny tinier", [100.0, 1.0, 1.0])
        exps = [math.exp(1.0), math.exp(0.01), math.exp(0.01)]
        top = exps[0] / sum(exps)
        assert top > 0.5
        assert threshold_cap_select(scores, p=0.5, cap_fraction=1.0) == {"big"}

    def test_cap_triggers(self):
        values = [50.0] * 7 + [0.0] * 3
        scores = scores_for("a b c d e f g h i j", values)
        got = threshold_cap_select(scores, p=0.05, cap_fraction=0.40)
        assert len(got) == 4
        assert got == {"a", "b", "c", "d"}

    def test_negative_scores_keep_ranking(self):
        scores = scores_for("w x y z", [-0.1, -4.0, -4.0, -4.0])
        got = threshold_cap_select(scores, p=0.30, cap_fraction=1.0)
        assert got == {"w"}


class TestExternalScores:
    def test_single_valid_line(self):
        fh = io.StringIO(
            '{"seed_id": "S1", "similar_id": "T1", "scores": [{"token": "covid", "score": 2.5}]}\n'
        )
        scores = load_external_scores(fh)
        assert scores[("S1", "T1")] == [("covid", 2.5)]

    def test_duplicate_pair_fatal_naming_both_lines(self):
        fh = io.StringIO(
            '{"seed_id": "S1", "similar_id": "T1", "scores": [{"token": "a", "score": 1}]}\n'
            '{"seed_id": "S2", "similar_id": "T1", "scores": []}\n'
            '{"seed_id": "S1", "similar_id": "T1", "scores": [{"token": "b", "score": 2}]}\n'
        )
        with pytest.raises(DatasetError, match=r"duplicate .* line 3, first at line 1"):
            load_external_scores(fh)

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

    @pytest.mark.parametrize(
        "entry",
        [
            '{"token": 5, "score": 1}',
            '{"token": null, "score": 1}',
            '{"token": "b", "score": true}',
            '{"token": "b", "score": "1"}',
            '{"token": "b", "score": [1]}',
            '{"token": "b", "score": 1' + "0" * 400 + "}",
        ],
    )
    def test_bad_entry_type_fatal_with_line_number(self, entry):
        fh = io.StringIO(
            '{"seed_id": "S1", "similar_id": "T1", "scores": [{"token": "a", "score": 1}]}\n'
            f'{{"seed_id": "S2", "similar_id": "T2", "scores": [{entry}]}}\n'
        )
        with pytest.raises(DatasetError, match="line 2"):
            load_external_scores(fh)

    @pytest.mark.parametrize("seed_id", ["5", "null", "[5]"])
    def test_non_string_pair_id_fatal_with_line_number(self, seed_id):
        fh = io.StringIO(
            '{"seed_id": "S1", "similar_id": "T1", "scores": []}\n'
            f'{{"seed_id": {seed_id}, "similar_id": "T2", "scores": []}}\n'
        )
        with pytest.raises(DatasetError, match="line 2"):
            load_external_scores(fh)

    def test_repeated_token_keeps_its_best_score(self):
        ex = make_example("s", "dose response dose")
        backend = ExternalScores({ex.pair_key: [("dose", 0.5), ("response", 1.0), ("dose", 5.0)]}, k=1)
        assert backend.score_tokens(ex) == {"dose": 5.0, "response": 1.0}
        assert backend.predict_tokens(ex) == {"dose"}
        assert ExternalScores(backend.scores, k=2).predict_tokens(ex) == {"dose", "response"}

    def test_scores_come_back_in_title_order(self):
        ex = make_example("s", "dose response dose")
        backend = ExternalScores({ex.pair_key: [("response", 1.0), ("dose", 1.0)]}, k=1)
        assert list(backend.score_tokens(ex)) == ["dose", "response"]
        assert backend.predict_tokens(ex) == {"dose"}  # the tie goes to the earlier token

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

    def test_blocks_keep_dataset_order_and_tally(self):
        # One example past the first block, with uncovered pairs on both sides of the seam.
        n = coclick.explain._PREDICT_BLOCK + 1
        examples = [make_example("s", "alpha beta gamma", pair=(f"S{i:04d}", "T")) for i in range(n)]
        backend = ExternalScores(
            {ex.pair_key: [("beta", 1.0)] for i, ex in enumerate(examples) if i % 7}, k=1
        )
        preds, skipped = predict_dataset(backend, examples)
        want = {ex.pair_key: backend.predict_tokens(ex) for ex in examples}
        assert preds == {k: v for k, v in want.items() if v is not None}
        assert list(preds) == [ex.pair_key for i, ex in enumerate(examples) if i % 7]
        assert skipped == sum(1 for i in range(n) if i % 7 == 0)

    def test_generative_default_k_is_four(self):
        assert ExternalScores({}, generative=True).k == 4
        assert ExternalScores({}).k == 3
        assert ExternalScores({}, generative=True, k=2).k == 2


class TestScoredExplainerSelection:
    @pytest.mark.parametrize(
        "make",
        [
            lambda **kw: Bm25(**kw),
            lambda **kw: EmbeddingRelevance(EmbeddingTable(dim=1, vectors={}), **kw),
            lambda **kw: ExternalScores({}, **kw),
        ],
    )
    def test_every_scored_backend_takes_the_selection_arguments(self, make):
        backend = make(selector="softmax", k=5, p=0.2, cap_fraction=0.6)
        assert (backend.selector, backend.k, backend.p, backend.cap_fraction) == ("softmax", 5, 0.2, 0.6)
        default = make()
        assert (default.selector, default.p, default.cap_fraction) == ("topk", 0.30, 0.40)

    @pytest.mark.parametrize("make", [Bm25, lambda **kw: ExternalScores({}, **kw)])
    def test_unknown_selector_rejected_at_construction(self, make):
        with pytest.raises(ConfigError, match="bogus"):
            make(selector="bogus")

    def test_softmax_selection_reaches_the_backend(self):
        ex = make_example("s", "alpha beta gamma delta eps")
        scores = {ex.pair_key: [("alpha", 9.0), ("beta", 0.0), ("gamma", 0.0), ("delta", 0.0), ("eps", 0.0)]}
        backend = ExternalScores(scores, selector="softmax", p=0.30, cap_fraction=1.0)
        assert backend.predict_tokens(ex) == {"alpha"}


class TestOverlapperStopwords:
    def test_packaged_list_read_once(self, monkeypatch):
        import coclick.explain

        reads = []
        real = coclick.explain.load_stopwords
        monkeypatch.setattr(coclick.explain, "load_stopwords", lambda *a: reads.append(a) or real(*a))
        backend = Overlapper()
        ex = make_example("The Safety of X", "Safety of the X vaccine")
        preds = [backend.predict_tokens(ex) for _ in range(5)]
        assert len(reads) == 1
        assert preds == [{"safety", "x"}] * 5


class TestStopwordList:
    def test_exactly_120_words(self):
        assert len(load_stopwords()) == 120

    def test_override_from_path(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("foo\nBAR\n", encoding="utf-8")
        assert load_stopwords(path) == {"foo", "bar"}


class TestAgainstOracle:
    """Token-set selection picks exactly what the position-based rules picked."""

    VOCAB = ["covid-19", "vaccine", "dose", "response", "trial", "of", "the", "risk"]
    PS = [0.0, 0.05, 0.1, 0.12, 0.2, 0.3, 0.5, 0.9, 1.0]
    CAPS = [0.0, 0.1, 0.25, 0.4, 0.5, 1.0]

    @classmethod
    def titles(cls, n=300, seed=23):
        """Seeded titles with repeated tokens and a score draw per case."""
        rng = random.Random(seed)
        draws = [
            lambda: float(rng.randint(-2, 2)),  # ties, zeros and negatives
            lambda: rng.uniform(-5.0, 5.0),
            lambda: rng.uniform(-3.0, 0.0),
            lambda: rng.uniform(0.0, 1000.0),
        ]
        for i in range(n):
            title = rng.choices(cls.VOCAB[: rng.randint(1, len(cls.VOCAB))], k=rng.randint(0, 12))
            if i % 5 == 0:
                value = rng.choice([-1.5, 0.0, 2.0])
                draw = lambda: value  # all scores equal
            else:
                draw = rng.choice(draws)
            yield rng, title, draw

    @staticmethod
    def idf_table(rng):
        return IdfTable(doc_count=8, doc_freq={t: rng.randint(0, 3) for t in TestAgainstOracle.VOCAB[1:]})

    def test_scored_backend_selection(self):
        for rng, title, draw in self.titles():
            unique = {t: draw() for t in dict.fromkeys(title)}
            old = [oracle_select.TokenScore(t, i, unique[t]) for i, t in enumerate(title)]
            for idf in (None, self.idf_table(rng)):
                for k in range(len(unique) + 2):
                    want = {title[i] for i in oracle_select.select_top_k(old, k, idf)}
                    assert select_top_k(unique, k, idf) == want, (title, unique, k)
            for p in self.PS:
                for cap in self.CAPS:
                    want = {title[i] for i in oracle_select.select_softmax_threshold(old, p, cap)}
                    assert threshold_cap_select(unique, p, cap) == want, (title, unique, p, cap)

    def test_external_scores_with_repeated_tokens(self):
        for rng, title, draw in self.titles(seed=29):
            ex = make_example("seed", " ".join(title))
            entries = [(rng.choice(title), draw()) for _ in range(rng.randint(1, 15))] if title else []
            old = oracle_select.external_token_scores(entries, title)
            covered = {ex.pair_key: entries}
            for k in range(len(set(title)) + 2):
                want = {title[i] for i in oracle_select.select_top_k(old, k)}
                assert ExternalScores(covered, k=k).predict_tokens(ex) == want, (entries, k)
            for p in self.PS:
                for cap in self.CAPS:
                    want = {title[i] for i in oracle_select.select_softmax_threshold(old, p, cap)}
                    backend = ExternalScores(covered, selector="softmax", p=p, cap_fraction=cap)
                    assert backend.predict_tokens(ex) == want, (entries, p, cap)

    def test_gold_tokens(self):
        for rng, title, _ in self.titles(seed=31):
            # 2**53 and 2**53 + 1 round to one float, so they tie as the parent's counts did.
            draws = [0, 0, 1, 3, 3, 40, 500] if rng.random() < 0.7 else [0, 1, 2**53 - 1, 2**53, 2**53 + 1]
            counts = TokenClickCounts({t: rng.choice(draws) for t in dict.fromkeys(title)})
            if counts.total == 0:
                continue
            for p in self.PS:
                for cap in self.CAPS:
                    want = oracle_select.select_gold_tokens(counts, p, cap)
                    assert select_gold_tokens(counts, p, cap) == want, (counts.counts, p, cap)

    def test_gold_tokens_count_beyond_float_range(self):
        counts = TokenClickCounts({"dose": 10**309, "trial": 1, "risk": 0})
        with pytest.raises(OverflowError):
            oracle_select.select_gold_tokens(counts, 0.3, 0.4)
        with pytest.raises(OverflowError):
            select_gold_tokens(counts, 0.3, 0.4)
