"""Word tokenization.

The word tokenizer is a small deterministic rule set: split on whitespace,
then peel leading/trailing punctuation into standalone tokens. Hyphenated
compounds ("low-fat", "Covid-19") stay intact, and internal apostrophes
survive ("don't"). Both dataset construction and evaluation run through
this one tokenizer, so the system stays internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# Punctuation peeled off token edges; internal occurrences are kept.
EDGE_PUNCT = set(".,;:!?\"'()[]")


@dataclass(frozen=True)
class WordToken:
    """A word-level token with its source span.

    Only title rendering reads the span. Datasets, explainers and metrics
    keep lowercase token strings, where a position is the list index.
    """

    text: str
    start: int
    end: int

    @property
    def lower(self) -> str:
        return self.text.lower()


def word_tokenize(text: str) -> list[WordToken]:
    """Tokenize ``text`` into :class:`WordToken` objects.

    Spans index into ``text`` so that ``text[tok.start:tok.end] == tok.text``.
    """
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


def unique_lower(tokens: Sequence[WordToken]) -> list[str]:
    """Unique lowercase token texts in first-occurrence order."""
    seen: dict[str, None] = {}
    for t in tokens:
        seen.setdefault(t.lower, None)
    return list(seen)


def positions_of(tokens: Sequence[str], selected: set[str]) -> set[int]:
    """Every index into the lowercase ``tokens`` whose token is in ``selected``."""
    return {i for i, t in enumerate(tokens) if t in selected}
