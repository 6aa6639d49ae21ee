"""Word tokenization.

The word tokenizer is a small deterministic rule set: split on whitespace,
then peel leading/trailing punctuation into standalone tokens. Hyphenated
compounds ("low-fat", "Covid-19") stay intact, and internal apostrophes
survive ("don't"). Both dataset construction and evaluation run through
this one tokenizer, so the system stays internally consistent.

A token is a plain ``str``; a position is its index in the token list.
Only title rendering needs character spans, and it reads them from
``TOKEN.finditer``, the same matches ``word_tokenize`` returns.
"""

from __future__ import annotations

import re
from typing import Sequence

# Punctuation peeled off token edges; internal occurrences are kept.
EDGE_PUNCT = set(".,;:!?\"'()[]")

_P = re.escape("".join(sorted(EDGE_PUNCT)))
# A token is one edge-punctuation character, or the longest whitespace-free
# run that starts and ends with a character that is not edge punctuation.
# ``\s`` matches exactly the characters for which ``str.isspace()`` is true.
# The group stays non-capturing so that ``findall`` returns whole matches.
TOKEN = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")


def word_tokenize(text: str) -> list[str]:
    """The word tokens of ``text``, in order, as they appear in it."""
    return TOKEN.findall(text)


def unique_lower(tokens: Sequence[str]) -> list[str]:
    """Unique lowercase tokens in first-occurrence order."""
    return list(dict.fromkeys(t.lower() for t in tokens))


def positions_of(tokens: Sequence[str], selected: set[str]) -> set[int]:
    """Every index into the lowercase ``tokens`` whose token is in ``selected``."""
    return {i for i, t in enumerate(tokens) if t in selected}
