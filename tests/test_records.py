"""Seeded fuzzing of the pair-keyed JSON Lines reader and each record parser.

Each case writes a valid file (the parent), changes it by one fuzz kind and
reads the mutant. CRLF line endings leave the parent's answer. Every other
kind changes one line: reading the mutant either gives the parent's answer
with that line's record read on its own, or raises a DatasetError naming
that line. No mutant may raise any other exception.
"""

import io
import json
import random
from dataclasses import fields, is_dataclass

import pytest

from coclick.base import DatasetError, json_pair_key, read_pair_records
from coclick.cli import load_predictions
from coclick.dataset import load_dataset
from coclick.evaluate import load_pair_scores
from coclick.explain import load_external_scores
from coclick.logs import read_aggregates

WORDS = ["dose", "vaccine", "Response", "adults", "β-blocker", "café", "mRNA", "risk", "of", "in"]
BAD_UTF8 = [b"\xff", b"\xfe", b"\x80", b"\xc0\xaf", b"\xed\xa0\x80", b"\xe2\x82"]
FUZZ_KINDS = ["crlf", "truncated", "non_utf8", "nan_inf", "huge_int", "deep_nesting", "non_object"]
CASES_PER_KIND = 12


def _title(rng):
    return " ".join(rng.choices(WORDS, k=rng.randint(1, 12)))


def _dataset_record(rng, seed_id, similar_id):
    title = _title(rng)
    tokens = sorted({w.lower() for w in title.split()})
    return {
        "seed_id": seed_id,
        "similar_id": similar_id,
        "seed_title": _title(rng),
        "seed_abstract": _title(rng) if rng.random() < 0.5 else "",
        "similar_title": title,
        "token_counts": {t: rng.randint(0, 9) for t in rng.sample(tokens, rng.randint(0, len(tokens)))},
        "combined_clicks": rng.randint(0, 500),
        "gold_tokens": rng.sample(tokens, rng.randint(0, len(tokens))),
    }


def _aggregate_record(rng, seed_id, similar_id):
    counts = {_title(rng).lower(): rng.randint(1, 40) for _ in range(rng.randint(1, 4))}
    return {"seed_id": seed_id, "similar_id": similar_id, "query_counts": counts,
            "combined_clicks": sum(counts.values())}


def _pair_score_record(rng, seed_id, similar_id):
    score = rng.choice([rng.uniform(-5, 5), rng.randint(-3, 3)])
    return {"seed_id": seed_id, "similar_id": similar_id, "score": score}


def _external_record(rng, seed_id, similar_id):
    scores = [{"token": w, "score": rng.uniform(-2, 2)} for w in rng.sample(WORDS, rng.randint(0, 4))]
    return {"seed_id": seed_id, "similar_id": similar_id, "scores": scores}


def _prediction_record(rng, seed_id, similar_id):
    return {"seed_id": seed_id, "similar_id": similar_id, "tokens": rng.sample(WORDS, rng.randint(0, 4))}


def _text(data):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def _predictions(data, tmp_path):
    path = tmp_path / "pred.jsonl"
    path.write_bytes(data)
    return load_predictions(str(path))


# kind -> (record generator, read of file bytes into (key, value) pairs in file order)
READERS = {
    "reader": (
        _prediction_record,
        lambda data, _: read_pair_records(_text(data), "test", lambda r: (json_pair_key(r), r)).items(),
    ),
    "dataset": (_dataset_record, lambda data, _: [(ex.pair_key, ex) for ex in load_dataset(_text(data))]),
    "aggregates": (_aggregate_record, lambda data, _: read_aggregates(_text(data)).items()),
    "pair_scores": (_pair_score_record, lambda data, _: load_pair_scores(_text(data)).items()),
    "external_scores": (_external_record, lambda data, _: load_external_scores(_text(data)).items()),
    "predictions": (_prediction_record, lambda data, tmp_path: _predictions(data, tmp_path).items()),
}


def canonical(obj):
    """A comparable form of a reader's answer: NaN equals NaN and sets compare sorted."""
    if is_dataclass(obj):
        return canonical({f.name: getattr(obj, f.name) for f in fields(obj)})
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    return obj


def parent_lines(rng, make_record):
    """A valid file's lines, with blank and whitespace-only lines mixed in."""
    n = rng.choice([1, 2, 7, 40, 120])
    pairs = rng.sample([(f"P{i}", f"P{j}") for i in range(30) for j in range(30) if i != j], n)
    lines = []
    for seed_id, similar_id in pairs:
        while rng.random() < 0.1:
            lines.append(rng.choice(["", "  ", "\t"]))
        record = make_record(rng, seed_id, similar_id)
        lines.append(json.dumps(record, ensure_ascii=rng.random() < 0.5))
    return lines


def _paths(obj, prefix=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replace(record, rng, value):
    """``record`` as JSON text with one value, picked at random, replaced by the JSON text ``value``."""
    path = rng.choice(list(_paths(record)))
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "\x00placeholder\x00"
    return json.dumps(record).replace(json.dumps("\x00placeholder\x00"), value)


def mutate(kind, rng, line):
    """Line ``line`` changed by fuzz ``kind``, as bytes."""
    if kind == "truncated":
        return line[: rng.randrange(1, len(line))].encode("utf-8")
    if kind == "non_utf8":
        at = rng.randrange(len(line) + 1)
        return line[:at].encode("utf-8") + rng.choice(BAD_UTF8) + line[at:].encode("utf-8")
    record = json.loads(line)
    if kind == "nan_inf":
        return _replace(record, rng, rng.choice(["NaN", "Infinity", "-Infinity"])).encode("utf-8")
    if kind == "huge_int":
        return _replace(record, rng, str(rng.choice([1, -1]) * 10 ** rng.randint(309, 1000))).encode("utf-8")
    if kind == "deep_nesting":
        depth = rng.choice([2_000, 100_000])
        nested = "[" * depth + ("]" * depth if rng.random() < 0.5 else "")
        return (nested if rng.random() < 0.3 else _replace(record, rng, nested)).encode("utf-8")
    if kind == "non_object":
        return json.dumps(rng.choice([[record], list(record.values()), "text", 5, None, True])).encode("utf-8")
    raise AssertionError(kind)


def where(kind, tmp_path, lineno):
    """How the reader of ``kind`` names line ``lineno`` in an error."""
    return f"{tmp_path / 'pred.jsonl'}:{lineno}:" if kind == "predictions" else f"line {lineno}:"


def read(kind, data, tmp_path):
    return canonical(list(READERS[kind][1](data, tmp_path)))


@pytest.mark.parametrize("fuzz", FUZZ_KINDS)
@pytest.mark.parametrize("kind", list(READERS))
def test_mutant_gives_parent_answer_or_dataset_error(kind, fuzz, tmp_path):
    rng = random.Random(f"{kind}/{fuzz}")
    for _ in range(CASES_PER_KIND):
        lines = parent_lines(rng, READERS[kind][0])
        parent = read(kind, "\n".join(lines).encode("utf-8") + b"\n", tmp_path)
        if fuzz == "crlf":
            assert read(kind, "\r\n".join(lines).encode("utf-8") + b"\r\n", tmp_path) == parent
            continue
        k = rng.choice([i for i, line in enumerate(lines) if line.strip()])
        bad = mutate(fuzz, rng, lines[k])
        data = b"\n".join([*(line.encode("utf-8") for line in lines[:k]), bad,
                           *(line.encode("utf-8") for line in lines[k + 1:])]) + b"\n"
        try:
            alone = read(kind, bad + b"\n", tmp_path)
        except DatasetError as exc:
            assert f"record at {where(kind, tmp_path, 1)}" in str(exc)
            with pytest.raises(DatasetError) as exc:
                read(kind, data, tmp_path)
            assert f"record at {where(kind, tmp_path, k + 1)}" in str(exc.value)
            continue
        assert fuzz in ("nan_inf", "huge_int"), f"{fuzz} mutant read without error: {bad!r}"
        row = sum(1 for line in lines[:k] if line.strip())
        assert read(kind, data, tmp_path) == parent[:row] + alone + parent[row + 1:]


@pytest.mark.parametrize(
    "kind, bad, key",
    [
        ("aggregates", '{"seed_id": "a", "seed_id": "b", "similar_id": "c", "query_counts": {"q": 1}, '
         '"combined_clicks": 1}', "seed_id"),
        ("dataset", '{"seed_id": "a", "similar_id": "c", "similar_title": "x y", "similar_title": "z", '
         '"seed_title": "t", "token_counts": {}, "combined_clicks": 0, "gold_tokens": []}', "similar_title"),
        ("aggregates", '{"seed_id": "a", "similar_id": "c", "query_counts": {"q": 1, "r": 2, "q": 3}, '
         '"combined_clicks": 6}', "q"),
    ],
)
def test_repeated_key_names_the_line(kind, bad, key, tmp_path):
    # A plain JSON decode keeps the last value of a repeated key; the readers refuse the line.
    good = json.dumps(READERS[kind][0](random.Random(0), "P1", "P2"))
    with pytest.raises(DatasetError, match=f"record at line 2: key {key!r} is repeated"):
        read(kind, f"{good}\n{bad}\n".encode("utf-8"), tmp_path)
