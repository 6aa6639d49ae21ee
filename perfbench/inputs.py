"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the workload seed and size, so two runs
with the same seed read byte-identical files (their sha256 goes into the
result record).

The benchmark runs this file as a child process, so that the generators'
memory does not count in the measured process's peak RSS:

    PYTHONPATH=src python3 perfbench/inputs.py WORKLOAD SEED {full,tiny} DIR

It writes the workload's input files, ``corpus.pickle`` (the generated
world, for the quality metrics) and ``meta.json`` (the input file names and
what the generator wrote) into ``DIR``.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from coclick.dataset import PairExample, TokenClickCounts, split_dataset, write_dataset
from coclick.logs import write_metadata
from coclick.pipeline import benchmark_config
from coclick.synth import SynthConfig, SynthCorpus, generate_corpus
from coclick.text import unique_lower, word_tokenize

# Malformed raw-log line kinds, each tallied by coclick.logs.parse_log.
MALFORMED_KINDS = ("field_count", "rank", "empty_query")

# Input sizes per workload and size: (articles, sessions) of the ingest_large
# log, articles of the explain_bulk world.
SIZES = {
    "ingest_large": {"full": (2000, 250_000), "tiny": (200, 5000)},
    "explain_bulk": {"full": 1600, "tiny": 200},
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def desk_config(seed: int, tiny: bool):
    """``benchmark_config(seed)``, or a tiny world for smoke runs and warm-ups."""
    config = benchmark_config(seed)
    if tiny:
        config.synth = replace(config.synth, n_articles=40, sessions=6000)
    return config


def world_config(seed: int, n_articles: int) -> SynthConfig:
    """The desk world's knobs (``benchmark_config``) at another article count."""
    config = replace(benchmark_config(seed).synth, n_articles=n_articles)
    if n_articles % config.cluster_size:
        raise ValueError("n_articles must be a whole number of clusters")
    return config


@dataclass
class RawLog:
    """What the log sampler wrote, for checking the ingest's counts."""

    lines: int
    valid_lines: int
    malformed: dict[str, int]
    sessions: int
    coclicks: int


def _draw_clicks(
    rng: np.random.Generator,
    targets: np.ndarray,
    clicked: list[np.ndarray],
    cluster_size: int,
    n_articles: int,
    same_cluster_bias: float,
) -> np.ndarray:
    """One more click per session, distinct from ``clicked``.

    With probability ``same_cluster_bias`` it is a cluster mate of the
    target, otherwise any article, each uniform over the allowed set by
    rejection (the same law ``generate_sessions`` samples from).
    """
    same = rng.random(len(targets)) < same_cluster_bias
    base = (targets // cluster_size) * cluster_size
    out = np.empty(len(targets), dtype=np.int64)
    todo = np.arange(len(targets))
    while len(todo):
        draw = np.where(
            same[todo],
            base[todo] + rng.integers(0, cluster_size, len(todo)),
            rng.integers(0, n_articles, len(todo)),
        )
        taken = np.zeros(len(todo), dtype=bool)
        for prior in clicked:
            taken |= draw == prior[todo]
        out[todo[~taken]] = draw[~taken]
        todo = todo[taken]
    return out


def write_ingest_inputs(
    seed: int, n_articles: int, sessions: int, malformed_share: float, workdir: Path
) -> tuple[SynthCorpus, RawLog]:
    """Write ``raw_log.tsv`` and ``articles.tsv`` for the ``ingest_large`` workload.

    The log follows ``generate_sessions``' story (Zipf-popular targets at
    rank 1, a query that is a subset of the target's topic tokens, 1-3
    clicks with same-cluster coclicks) but draws all sessions at once with
    numpy, because ``generate_sessions`` pays per session a cost that grows
    with the corpus. Malformed lines of each kind in ``MALFORMED_KINDS`` are
    spliced in at random positions.
    """
    config = world_config(seed, n_articles)
    corpus = generate_corpus(config)
    rng = np.random.default_rng([seed, 7])
    n = len(corpus.articles)
    ids = [a.article_id for a in corpus.articles]
    topics = [corpus.topics[aid] for aid in ids]

    popularity = np.arange(1, n + 1, dtype=np.float64) ** -config.article_zipf
    targets = rng.choice(n, size=sessions, p=popularity / popularity.sum())
    clicks_p = np.array(config.clicks_dist, dtype=np.float64)
    n_clicks = rng.choice(3, size=sessions, p=clicks_p / clicks_p.sum()) + 1
    second = _draw_clicks(rng, targets, [targets], config.cluster_size, n, config.same_cluster_bias)
    third = _draw_clicks(
        rng, targets, [targets, second], config.cluster_size, n, config.same_cluster_bias
    )

    # Query: a random ordered subset of the target's topics, size by weight.
    n_topics = np.array([len(t) for t in topics])[targets]
    max_topics = int(n_topics.max())
    q_size = np.empty(sessions, dtype=np.int64)
    for k in np.unique(n_topics):
        rows = np.flatnonzero(n_topics == k)
        weights = np.array(config.query_size_weights[:k], dtype=np.float64)
        q_size[rows] = rng.choice(len(weights), size=len(rows), p=weights / weights.sum()) + 1
    keys = rng.random((sessions, max_topics))
    keys[np.arange(max_topics)[None, :] >= n_topics[:, None]] = np.inf
    order = np.argsort(keys, axis=1)

    # Each distinct (target, ordered topic subset) query string is built once.
    picked = np.where(np.arange(max_topics)[None, :] < q_size[:, None], order + 1, 0)
    code = targets.astype(np.int64)
    for j in range(max_topics):
        code = code * (max_topics + 1) + picked[:, j]
    distinct, which = np.unique(code, return_inverse=True)
    first = np.zeros(len(distinct), dtype=np.int64)
    first[which[::-1]] = np.arange(sessions)[::-1]
    query_of = [
        " ".join(topics[targets[s]][i] for i in order[s, : q_size[s]]) for s in first.tolist()
    ]

    lines: list[str] = []
    clicks = np.stack([targets, second, third], axis=1).tolist()
    for s, (k, q) in enumerate(zip(n_clicks.tolist(), which.tolist())):
        head = f"s{s:07d}\t"
        query = query_of[q]
        for rank in range(1, k + 1):
            lines.append(f"{head}{s * 10 + rank}\t{query}\t{rank}\t{ids[clicks[s][rank - 1]]}\n")

    n_bad = int(round(malformed_share * len(lines)))
    kinds = rng.integers(0, len(MALFORMED_KINDS), n_bad)
    bad_lines = []
    for j, kind in enumerate(kinds):
        sid, aid = f"m{j:07d}", ids[int(rng.integers(0, n))]
        if MALFORMED_KINDS[kind] == "field_count":
            bad_lines.append(f"{sid}\t{j}\tquery\t1\n")
        elif MALFORMED_KINDS[kind] == "rank":
            bad_lines.append(f"{sid}\t{j}\tquery\tfirst\t{aid}\n")
        else:
            bad_lines.append(f"{sid}\t{j}\t \t1\t{aid}\n")
    is_bad = np.zeros(len(lines) + n_bad, dtype=bool)
    is_bad[rng.choice(len(is_bad), size=n_bad, replace=False)] = True
    good_iter, bad_iter = iter(lines), iter(bad_lines)
    with open(workdir / "raw_log.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(next(bad_iter) if bad else next(good_iter) for bad in is_bad)
    with open(workdir / "articles.tsv", "w", encoding="utf-8") as fh:
        write_metadata(corpus.articles, fh)

    pairs_per_session = n_clicks * (n_clicks - 1) // 2
    raw = RawLog(
        lines=len(is_bad),
        valid_lines=len(lines),
        malformed={k: int(np.sum(kinds == i)) for i, k in enumerate(MALFORMED_KINDS)},
        sessions=sessions,
        coclicks=int(pairs_per_session.sum()),
    )
    return corpus, raw


def write_explain_inputs(
    seed: int, n_articles: int, workdir: Path
) -> tuple[SynthCorpus, dict[str, Path]]:
    """Write the ``explain_bulk`` dataset as train/dev/test JSON Lines.

    One example per ordered same-cluster pair; gold is the planted gold and
    the pair's clicks sit on the gold tokens only.
    """
    config = world_config(seed, n_articles)
    corpus = generate_corpus(config)
    rng = np.random.default_rng([seed, 11])
    by_id = {a.article_id: a for a in corpus.articles}
    members: dict[int, list[str]] = {}
    for a in corpus.articles:
        members.setdefault(corpus.cluster_of[a.article_id], []).append(a.article_id)

    title_tokens = {a.article_id: unique_lower(word_tokenize(a.title)) for a in corpus.articles}
    examples = []
    for cluster in sorted(members):
        for seed_id in members[cluster]:
            for similar_id in members[cluster]:
                if seed_id == similar_id:
                    continue
                seed_art, similar = by_id[seed_id], by_id[similar_id]
                gold = corpus.planted_gold(seed_id, similar_id)
                counts = {t: 0 for t in title_tokens[similar_id]}
                for token in sorted(gold):
                    counts[token] = int(rng.integers(20, 400))
                examples.append(
                    PairExample(
                        seed_id=seed_id,
                        similar_id=similar_id,
                        seed_title=seed_art.title,
                        seed_abstract=seed_art.abstract,
                        similar_title=similar.title,
                        gold_tokens=gold,
                        token_counts=TokenClickCounts(counts),
                        combined_clicks=sum(counts.values()),
                    )
                )
    splits = split_dataset(examples, (0.8, 0.1, 0.1), seed)
    paths = {}
    for name, part in splits.items():
        paths[name] = workdir / f"dataset.{name}.jsonl"
        with open(paths[name], "w", encoding="utf-8") as fh:
            write_dataset(part, fh)
    return corpus, paths


def load_corpus(directory: Path) -> SynthCorpus:
    """The world that ``write_inputs`` pickled into ``directory``."""
    with open(directory / "corpus.pickle", "rb") as fh:
        return pickle.load(fh)


def planted_f1(corpus_gold, rows) -> float:
    """Micro F1 x100 of built gold vs planted gold over ``(seed, similar, gold)`` rows."""
    tp = fp = fn = 0
    for seed_id, similar_id, gold in rows:
        planted = corpus_gold(seed_id, similar_id)
        tp += len(gold & planted)
        fp += len(gold - planted)
        fn += len(planted - gold)
    if tp == 0:
        return 0.0
    return 200.0 * tp / (2 * tp + fp + fn)


def dataset_gold(path: Path) -> list[tuple[str, str, set[str]]]:
    """``(seed_id, similar_id, gold_tokens)`` per row of a dataset file, read as plain JSON."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            rows.append((record["seed_id"], record["similar_id"], set(record["gold_tokens"])))
    return rows


def write_inputs(workload: str, seed: int, size: str, out: Path) -> dict:
    """Write ``workload``'s inputs into ``out``; returns what goes into ``meta.json``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "desk":
        (out / "pipeline_config.txt").write_text(repr(desk_config(seed, size == "tiny")) + "\n", encoding="utf-8")
        return {"files": ["pipeline_config.txt"]}
    if workload == "ingest_large":
        n_articles, sessions = SIZES[workload][size]
        corpus, raw = write_ingest_inputs(seed, n_articles, sessions, 0.01, out)
        meta = {"files": ["raw_log.tsv", "articles.tsv"], "raw_log": asdict(raw)}
    else:
        corpus, paths = write_explain_inputs(seed, SIZES[workload][size], out)
        meta = {"files": [path.name for path in paths.values()]}
    with open(out / "corpus.pickle", "wb") as fh:
        pickle.dump(corpus, fh)
    return meta


def main(argv: list[str]) -> int:
    workload, seed, size, out = argv
    meta = write_inputs(workload, int(seed), size, Path(out))
    (Path(out) / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
