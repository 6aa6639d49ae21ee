"""Word tokenization.

The word tokenizer is a small deterministic rule set: split on whitespace,
then peel leading/trailing punctuation into standalone tokens. Hyphenated
compounds ("low-fat", "Covid-19") stay intact, and internal apostrophes
survive ("don't"). Both dataset construction and evaluation run through
this one tokenizer, so the system stays internally consistent.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

# Punctuation peeled off token edges; internal occurrences are kept.
EDGE_PUNCT = set(".,;:!?\"'()[]")

_P = re.escape("".join(sorted(EDGE_PUNCT)))
# A token is one edge-punctuation character, or the longest whitespace-free
# run that starts and ends with a character that is not edge punctuation.
# ``\s`` matches exactly the characters for which ``str.isspace()`` is true.
_TOKEN = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")


class WordToken(NamedTuple):
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
    return [WordToken(m.group(), m.start(), m.end()) for m in _TOKEN.finditer(text)]


def unique_lower(tokens: Sequence[WordToken]) -> list[str]:
    """Unique lowercase token texts in first-occurrence order."""
    seen: dict[str, None] = {}
    for t in tokens:
        seen.setdefault(t.lower, None)
    return list(seen)


def positions_of(tokens: Sequence[str], selected: set[str]) -> set[int]:
    """Every index into the lowercase ``tokens`` whose token is in ``selected``."""
    return {i for i, t in enumerate(tokens) if t in selected}
