"""Human-facing outputs: highlighted case studies, blinded A/B sheets, and
corpus statistics.

Rendering wraps selected title positions in a format-specific emphasis
marker: plain wraps in brackets, markdown bolds, html uses <mark>. The
markers are fixed so golden-file tests stay byte-stable.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

from .base import CoclickError, DatasetError, undecodable_line
from .dataset import PairExample
from .logs import PairKey
from .text import positions_of, word_tokenize

FORMATS = {
    "plain": ("[", "]"),
    "markdown": ("**", "**"),
    "html": ("<mark>", "</mark>"),
}

CLICK_BUCKETS = (20, 50, 100, 200, 500, 1000)


def render_title(title: str, positions: set[int], fmt: str = "plain") -> str:
    """Return ``title`` with the tokens at ``positions`` wrapped in emphasis."""
    try:
        open_mark, close_mark = FORMATS[fmt]
    except KeyError:
        raise CoclickError(f"unknown render format {fmt!r}") from None
    tokens = word_tokenize(title)
    for pos in positions:
        if pos < 0 or pos >= len(tokens):
            raise CoclickError(f"position {pos} out of range for title {title!r}")
    out = []
    cursor = 0
    for i, tok in enumerate(tokens):
        out.append(title[cursor : tok.start])
        if i in positions:
            out.append(f"{open_mark}{tok.text}{close_mark}")
        else:
            out.append(tok.text)
        cursor = tok.end
    out.append(title[cursor:])
    return "".join(out)


def render_case(
    example: PairExample,
    predictions: Mapping[str, set[int]],
    fmt: str = "markdown",
    include_gold: bool = True,
) -> str:
    """One case-study block: the similar title once per backend, highlighted."""
    lines = [
        f"pair: {example.seed_id} -> {example.similar_id}",
        f"seed title: {example.seed_title}",
    ]
    if include_gold:
        gold_positions = positions_of(example.similar_title_tokens, example.gold_tokens)
        lines.append("gold: " + render_title(example.similar_title, gold_positions, fmt))
    for name in predictions:
        lines.append(f"{name}: " + render_title(example.similar_title, predictions[name], fmt))
    return "\n".join(lines) + "\n"


@dataclass
class AbStudy:
    """A blinded A/B sheet plus its answer key."""

    sheet_rows: list[dict[str, str]]  # instance_id, seed_title, title_left_highlighted, title_right_highlighted
    key_rows: list[dict[str, str]]  # instance_id, left_model, right_model


def emit_ab_study(
    instances: Sequence[PairExample],
    model_a: str,
    predictions_a: Mapping[PairKey, set[str]],
    model_b: str,
    predictions_b: Mapping[PairKey, set[str]],
    rng_seed: int = 0,
) -> AbStudy:
    """Build a randomized, blinded preference sheet for two models.

    Both models must cover every instance. Sides are shuffled per instance by
    a seeded RNG; the sheet carries no model names, the key maps them back.
    """
    missing_a = [ex.pair_key for ex in instances if ex.pair_key not in predictions_a]
    missing_b = [ex.pair_key for ex in instances if ex.pair_key not in predictions_b]
    if missing_a or missing_b:
        raise CoclickError(
            f"A/B coverage mismatch: {model_a} missing {len(missing_a)} instances, "
            f"{model_b} missing {len(missing_b)}"
        )
    rng = random.Random(rng_seed)
    sheet_rows = []
    key_rows = []
    for ex in instances:
        instance_id = f"{ex.seed_id}:{ex.similar_id}"
        rendered_a = render_title(
            ex.similar_title,
            positions_of(ex.similar_title_tokens, predictions_a[ex.pair_key]),
            "plain",
        )
        rendered_b = render_title(
            ex.similar_title,
            positions_of(ex.similar_title_tokens, predictions_b[ex.pair_key]),
            "plain",
        )
        if rng.random() < 0.5:
            left, right = (model_a, rendered_a), (model_b, rendered_b)
        else:
            left, right = (model_b, rendered_b), (model_a, rendered_a)
        sheet_rows.append(
            {
                "instance_id": instance_id,
                "seed_title": ex.seed_title,
                "title_left_highlighted": left[1],
                "title_right_highlighted": right[1],
            }
        )
        key_rows.append(
            {"instance_id": instance_id, "left_model": left[0], "right_model": right[0]}
        )
    return AbStudy(sheet_rows, key_rows)


def write_csv(rows: Sequence[dict[str, str]], fh: IO[str]) -> None:
    if not rows:
        return
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def read_csv(fh: IO[str]) -> list[dict[str, str]]:
    """The rows of a CSV file with a header line; a line that is not UTF-8 raises DatasetError naming it."""
    reader = csv.DictReader(fh)
    try:
        return list(reader)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"CSV line {undecodable_line(exc, reader.line_num)} is not UTF-8: {exc}") from exc


def _cell(row: Mapping[str, str | None], column: str, table: str) -> str:
    """``row[column]``; CoclickError naming the column when the row has no value for it."""
    value = row.get(column)
    if value is None:
        raise CoclickError(f"{table} CSV row lacks the {column!r} column")
    return value


def tally_preferences(
    choices: Sequence[dict[str, str]], key_rows: Sequence[dict[str, str]]
) -> dict[str, int]:
    """Fold marked choices (left/right/neutral per instance) back onto model names.

    Each instance is counted once: an ``instance_id`` repeated in the key or
    in the choices raises :class:`CoclickError`.
    """
    key_by_id: dict[str, dict[str, str]] = {}
    for row in key_rows:
        instance_id = _cell(row, "instance_id", "key")
        if instance_id in key_by_id:
            raise CoclickError(f"key lists instance {instance_id!r} twice")
        key_by_id[instance_id] = row
    tallies: dict[str, int] = {"neutral": 0}
    chosen: set[str] = set()
    for row in choices:
        instance_id = _cell(row, "instance_id", "choices")
        if instance_id in chosen:
            raise CoclickError(f"choices list instance {instance_id!r} twice")
        chosen.add(instance_id)
        key = key_by_id.get(instance_id)
        if key is None:
            raise CoclickError(f"choice for unknown instance {instance_id!r}")
        choice = _cell(row, "choice", "choices").strip().lower()
        if choice == "neutral":
            tallies["neutral"] += 1
        elif choice in ("left", "right"):
            model = _cell(key, f"{choice}_model", "key")
            tallies[model] = tallies.get(model, 0) + 1
        else:
            raise CoclickError(f"choice must be left/right/neutral, got {row['choice']!r}")
    return tallies


def corpus_stats(examples: Sequence[PairExample]) -> dict:
    """Click histogram, title-length distribution, and sizes at click thresholds."""
    # Labels read "[20,50)" ... "[1000,inf)"; pairs below the first edge fall in no bucket.
    edges = zip(CLICK_BUCKETS, CLICK_BUCKETS[1:] + (math.inf,))
    buckets = {f"[{lo},{hi})": (lo, hi) for lo, hi in edges}
    histogram = dict.fromkeys(buckets, 0)
    for ex in examples:
        for label, (lo, hi) in buckets.items():
            if lo <= ex.combined_clicks < hi:
                histogram[label] += 1
                break
    lengths = [len(ex.similar_title_tokens) for ex in examples]
    sizes = {t: sum(1 for ex in examples if ex.combined_clicks >= t) for t in (20, 50, 100)}
    return {
        "n_examples": len(examples),
        "click_histogram": histogram,
        "sizes_at_thresholds": sizes,
        "title_length_mean": (math.fsum(lengths) / len(lengths)) if lengths else 0.0,
        "title_length_min": min(lengths) if lengths else 0,
        "title_length_max": max(lengths) if lengths else 0,
    }
