"""Rendering, A/B study, and corpus statistics tests."""

import io

import pytest

from coclick.base import CoclickError
from coclick.dataset import PairExample, TokenClickCounts, lower_tokens
from coclick.report import (
    corpus_stats,
    emit_ab_study,
    read_csv,
    render_case,
    render_title,
    tally_preferences,
    write_csv,
)

TABLE_TITLE = "Safety and Efficacy of the BNT162b2 mRNA Covid-19 Vaccine."


def make_example(similar_title="alpha beta gamma delta", gold=("alpha",), clicks=30, pair=("S1", "T1")):
    tokens = lower_tokens(similar_title)
    return PairExample(
        seed_id=pair[0],
        similar_id=pair[1],
        seed_title="seed title",
        seed_abstract="",
        similar_title=similar_title,
        gold_tokens=set(gold),
        token_counts=TokenClickCounts({t: 1 for t in tokens}),
        combined_clicks=clicks,
    )


class TestRenderTitle:
    def test_markdown_highlighting(self):
        got = render_title(TABLE_TITLE, {7, 8}, "markdown")
        assert got == "Safety and Efficacy of the BNT162b2 mRNA **Covid-19** **Vaccine**."

    def test_plain_and_html_markers(self):
        assert render_title("a b", {0}, "plain") == "[a] b"
        assert render_title("a b", {1}, "html") == "a <mark>b</mark>"

    def test_empty_selection_unmarked(self):
        assert render_title(TABLE_TITLE, set(), "markdown") == TABLE_TITLE

    def test_duplicate_token_both_positions(self):
        got = render_title("dose response dose", {0, 2}, "plain")
        assert got == "[dose] response [dose]"

    def test_out_of_range_position_fatal(self):
        with pytest.raises(CoclickError):
            render_title("a b", {5}, "plain")

    def test_unknown_format_fatal(self):
        with pytest.raises(CoclickError):
            render_title("a b", {0}, "latex")

    def test_marker_count_matches_positions(self):
        for positions in (set(), {0}, {0, 3}, {1, 2, 4}):
            got = render_title("one two three four five", positions, "html")
            assert got.count("<mark>") == len(positions)
            assert got.count("</mark>") == len(positions)

    def test_whitespace_preserved(self):
        got = render_title("a  b", {1}, "plain")
        assert got == "a  [b]"


class TestRenderCase:
    def test_gold_row_and_backend_rows(self):
        ex = make_example("alpha beta gamma delta", gold={"beta"})
        block = render_case(ex, {"bm25": {"alpha"}, "tagger": {"beta"}}, fmt="markdown")
        lines = block.splitlines()
        assert lines[0] == "pair: S1 -> T1"
        assert lines[2] == "gold: alpha **beta** gamma delta"
        assert lines[3] == "bm25: **alpha** beta gamma delta"
        assert lines[4] == "tagger: alpha **beta** gamma delta"

    def test_empty_prediction_unmarked(self):
        ex = make_example()
        block = render_case(ex, {"m": set()}, fmt="plain")
        assert block.splitlines()[-1] == "m: alpha beta gamma delta"


class TestAbStudy:
    def _instances(self, n):
        return [make_example(pair=(f"S{i:05d}", f"T{i:05d}")) for i in range(n)]

    def _preds(self, instances, token):
        return {ex.pair_key: {token} for ex in instances}

    def test_deterministic_given_seed(self):
        instances = self._instances(40)
        a = emit_ab_study(instances, "m1", self._preds(instances, "alpha"), "m2", self._preds(instances, "beta"), rng_seed=3)
        b = emit_ab_study(instances, "m1", self._preds(instances, "alpha"), "m2", self._preds(instances, "beta"), rng_seed=3)
        assert a == b

    def test_inversion_rate_near_half(self):
        instances = self._instances(10000)
        study = emit_ab_study(instances, "m1", self._preds(instances, "alpha"), "m2", self._preds(instances, "beta"), rng_seed=9)
        inverted = sum(1 for row in study.key_rows if row["left_model"] == "m2")
        assert 0.45 < inverted / 10000 < 0.55

    def test_sheet_carries_no_model_names(self):
        instances = self._instances(30)
        study = emit_ab_study(instances, "modelfoo", self._preds(instances, "alpha"), "modelbar", self._preds(instances, "beta"), rng_seed=1)
        buf = io.StringIO()
        write_csv(study.sheet_rows, buf)
        sheet_text = buf.getvalue()
        assert "modelfoo" not in sheet_text
        assert "modelbar" not in sheet_text

    def test_key_maps_sides_back(self):
        instances = self._instances(20)
        study = emit_ab_study(instances, "m1", self._preds(instances, "alpha"), "m2", self._preds(instances, "beta"), rng_seed=2)
        for sheet, key in zip(study.sheet_rows, study.key_rows):
            left_token = "[alpha]" if key["left_model"] == "m1" else "[beta]"
            assert left_token in sheet["title_left_highlighted"]

    def test_coverage_mismatch_fatal(self):
        instances = self._instances(5)
        with pytest.raises(CoclickError):
            emit_ab_study(instances, "m1", {}, "m2", self._preds(instances, "beta"))

    def test_tally_folds_choices_to_models(self):
        instances = self._instances(100)
        study = emit_ab_study(instances, "m1", self._preds(instances, "alpha"), "m2", self._preds(instances, "beta"), rng_seed=4)
        choices = []
        for i, key in enumerate(study.key_rows):
            if i % 5 == 0:
                choices.append({"instance_id": key["instance_id"], "choice": "neutral"})
            elif i % 2 == 0:
                side = "left" if key["left_model"] == "m1" else "right"
                choices.append({"instance_id": key["instance_id"], "choice": side})
            else:
                side = "left" if key["left_model"] == "m2" else "right"
                choices.append({"instance_id": key["instance_id"], "choice": side})
        tallies = tally_preferences(choices, study.key_rows)
        assert tallies["neutral"] == 20
        assert tallies["m1"] + tallies["m2"] + tallies["neutral"] == 100
        assert tallies["m1"] == 40
        assert tallies["m2"] == 40

    def test_csv_round_trip(self):
        instances = self._instances(3)
        study = emit_ab_study(instances, "m1", self._preds(instances, "alpha"), "m2", self._preds(instances, "beta"), rng_seed=5)
        buf = io.StringIO()
        write_csv(study.key_rows, buf)
        buf.seek(0)
        assert read_csv(buf) == study.key_rows


class TestCorpusStats:
    def test_sizes_strictly_decreasing_on_power_law(self):
        examples = []
        for i in range(300):
            clicks = int(2000 / (i + 1))  # power-law-ish
            examples.append(make_example(clicks=max(20, clicks), pair=(f"S{i}", "T")))
        stats = corpus_stats(examples)
        sizes = stats["sizes_at_thresholds"]
        assert sizes[20] > sizes[50] > sizes[100]

    def test_single_pair_dataset(self):
        stats = corpus_stats([make_example(clicks=25)])
        assert stats["n_examples"] == 1
        assert stats["click_histogram"]["[20,50)"] == 1
        assert sum(stats["click_histogram"].values()) == 1

    def test_histogram_labels_and_edges(self):
        clicks = [5, 19, 20, 49, 50, 99, 100, 199, 200, 499, 500, 999, 1000, 10**6]
        examples = [make_example(clicks=c, pair=(f"S{i}", "T")) for i, c in enumerate(clicks)]
        histogram = corpus_stats(examples)["click_histogram"]
        assert list(histogram) == ["[20,50)", "[50,100)", "[100,200)", "[200,500)", "[500,1000)", "[1000,inf)"]
        assert list(histogram.values()) == [2, 2, 2, 2, 2, 2]  # 5 and 19 fall in no bucket

    def test_title_length_mean_reported(self):
        examples = [make_example("a b c d"), make_example("a b c d e f")]
        stats = corpus_stats(examples)
        assert stats["title_length_mean"] == 5.0
        assert stats["title_length_min"] == 4
        assert stats["title_length_max"] == 6
