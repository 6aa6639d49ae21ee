"""Reference word tokenizer: the character loop with ``_split_chunk``, kept verbatim.

``coclick.text.word_tokenize`` finds tokens with one compiled regular
expression instead. Every token text and span is part of the dataset's
reproducibility contract, so this loop is its reference: any difference in
how whitespace splits chunks or how edge punctuation is peeled shows up as a
differing token list.
"""

from dataclasses import dataclass

from coclick.text import EDGE_PUNCT


@dataclass(frozen=True)
class WordToken:
    text: str
    start: int
    end: int

    @property
    def lower(self) -> str:
        return self.text.lower()


def word_tokenize(text: str) -> list[WordToken]:
    tokens: list[WordToken] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        chunk_start = pos
        while pos < n and not text[pos].isspace():
            pos += 1
        _split_chunk(text, chunk_start, pos, tokens)
    return tokens


def _split_chunk(text: str, start: int, end: int, out: list[WordToken]) -> None:
    """Append the tokens of one whitespace-free chunk to ``out``."""
    left = start
    right = end
    leading: list[int] = []
    trailing: list[int] = []
    while left < right and text[left] in EDGE_PUNCT:
        leading.append(left)
        left += 1
    while right > left and text[right - 1] in EDGE_PUNCT:
        trailing.append(right - 1)
        right -= 1
    for i in leading:
        out.append(WordToken(text[i], i, i + 1))
    if left < right:
        out.append(WordToken(text[left:right], left, right))
    for i in reversed(trailing):
        out.append(WordToken(text[i], i, i + 1))
