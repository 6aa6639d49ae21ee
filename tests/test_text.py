"""Word tokenizer tests."""

import random
import re
import sys

from coclick.dataset import lower_tokens
from coclick.report import FORMATS, render_title
from coclick.text import EDGE_PUNCT, TOKEN, positions_of, unique_lower, word_tokenize

import oracle_tokenize

# Whitespace other than the plain space, most of it outside ASCII, and letters
# whose lowercase is longer (İ) or depends on its neighbours (final Σ).
SPACES = ["\t", "\n", " ", "\u00a0", "\u0085", "\u001c", "\u2003", "\u3000"]
LETTERS = list("abXY19-/") + ["İ", "Σ", "ΣΑ", "é"]


def fuzzed_texts(n=3000, seed=11):
    """Seeded strings over edge punctuation, odd whitespace and case-changing letters."""
    rng = random.Random(seed)
    punct = sorted(EDGE_PUNCT)
    pool = punct + SPACES + LETTERS
    texts = ["", " ", "".join(punct), " ".join(punct), "(.)", "İSTANBUL ΟΔΟΣ.", "\u3000x\u0085y\u001c"]
    for _ in range(n):
        texts.append("".join(rng.choices(pool, k=rng.randint(1, 24))))
    # punctuation-only chunks between words
    for _ in range(n // 10):
        chunks = ["".join(rng.choices(punct, k=rng.randint(1, 4))) for _ in range(3)]
        texts.append(rng.choice(SPACES).join(chunks + ["word"]))
    return texts


class TestWordTokenize:
    def test_hyphenated_compound_stays_intact(self):
        assert word_tokenize("Covid-19 Vaccine.") == ["Covid-19", "Vaccine", "."]

    def test_empty_input(self):
        assert word_tokenize("") == []

    def test_double_space_spans_slice_back(self):
        source = "a  b"
        assert word_tokenize(source) == ["a", "b"]
        spans = [(m.group(), m.start(), m.end()) for m in TOKEN.finditer(source)]
        assert spans == [("a", 0, 1), ("b", 3, 4)]
        for text, start, end in spans:
            assert source[start:end] == text

    def test_leading_and_trailing_punctuation(self):
        texts = word_tokenize('("low-fat diet"),')
        assert texts == ["(", '"', "low-fat", "diet", '"', ")", ","]

    def test_internal_apostrophe_kept(self):
        assert word_tokenize("don't stop") == ["don't", "stop"]

    def test_spans_lossless_modulo_whitespace(self):
        rng = random.Random(7)
        pieces = ["alpha", "beta-2", "x.", "(y)", "don't", "...", 'say "hi"', "A,b;c"]
        for _ in range(200):
            source = " ".join(rng.choices(pieces, k=rng.randint(0, 8)))
            assert "".join(word_tokenize(source)) == "".join(source.split())
            for m in TOKEN.finditer(source):
                assert source[m.start() : m.end()] == m.group()

    def test_unique_lower_first_occurrence_order(self):
        tokens = word_tokenize("Dose response DOSE curve")
        assert unique_lower(tokens) == ["dose", "response", "curve"]

    def test_positions_of_expands_duplicates(self):
        tokens = ["dose", "response", "dose", "curve"]
        assert positions_of(tokens, {"dose", "curve"}) == {0, 2, 3}


class TestAgainstOracle:
    def test_fuzzed_texts_and_spans_match_reference_loop(self):
        texts = fuzzed_texts()
        covered = set("".join(texts))
        assert EDGE_PUNCT | set(SPACES) | {"İ", "Σ"} <= covered
        for text in texts:
            want = [(t.text, t.start, t.end) for t in oracle_tokenize.word_tokenize(text)]
            got = [(m.group(), m.start(), m.end()) for m in TOKEN.finditer(text)]
            assert got == want, text
            assert word_tokenize(text) == [t for t, _, _ in want], text

    def test_lower_tokens_match_reference_loop(self):
        for text in fuzzed_texts():
            assert lower_tokens(text) == [t.lower for t in oracle_tokenize.word_tokenize(text)], text

    def test_render_title_matches_oracle_spans(self):
        rng = random.Random(13)
        for text in fuzzed_texts():
            spans = oracle_tokenize.word_tokenize(text)
            positions = {i for i in range(len(spans)) if rng.random() < 0.5}
            for fmt, (open_mark, close_mark) in FORMATS.items():
                want, cursor = [], 0
                for i, t in enumerate(spans):
                    want.append(text[cursor : t.start])
                    want.append(f"{open_mark}{t.text}{close_mark}" if i in positions else t.text)
                    cursor = t.end
                want.append(text[cursor:])
                assert render_title(text, positions, fmt) == "".join(want), (text, fmt)

    def test_regex_space_is_str_isspace_on_every_code_point(self):
        space = re.compile(r"\s")
        mismatches = [
            hex(c) for c in range(sys.maxunicode + 1)
            if bool(space.match(chr(c))) != chr(c).isspace()
        ]
        assert mismatches == []
