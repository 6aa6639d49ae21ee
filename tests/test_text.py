"""Word tokenizer tests."""

import random

from coclick.text import positions_of, unique_lower, word_tokenize


class TestWordTokenize:
    def test_hyphenated_compound_stays_intact(self):
        texts = [t.text for t in word_tokenize("Covid-19 Vaccine.")]
        assert texts == ["Covid-19", "Vaccine", "."]

    def test_empty_input(self):
        assert word_tokenize("") == []

    def test_double_space_spans_slice_back(self):
        source = "a  b"
        tokens = word_tokenize(source)
        assert [t.text for t in tokens] == ["a", "b"]
        for t in tokens:
            assert source[t.start : t.end] == t.text

    def test_leading_and_trailing_punctuation(self):
        texts = [t.text for t in word_tokenize('("low-fat diet"),')]
        assert texts == ["(", '"', "low-fat", "diet", '"', ")", ","]

    def test_internal_apostrophe_kept(self):
        assert [t.text for t in word_tokenize("don't stop")] == ["don't", "stop"]

    def test_spans_lossless_modulo_whitespace(self):
        rng = random.Random(7)
        pieces = ["alpha", "beta-2", "x.", "(y)", "don't", "...", 'say "hi"', "A,b;c"]
        for _ in range(200):
            source = " ".join(rng.choices(pieces, k=rng.randint(0, 8)))
            tokens = word_tokenize(source)
            assert "".join(t.text for t in tokens) == "".join(source.split())
            for t in tokens:
                assert source[t.start : t.end] == t.text

    def test_unique_lower_first_occurrence_order(self):
        tokens = word_tokenize("Dose response DOSE curve")
        assert unique_lower(tokens) == ["dose", "response", "curve"]

    def test_positions_of_expands_duplicates(self):
        tokens = ["dose", "response", "dose", "curve"]
        assert positions_of(tokens, {"dose", "curve"}) == {0, 2, 3}
