"""Session-log parsing and coclick aggregation.

A raw log is TSV with columns session_id, timestamp_ms, query, rank,
article_id. Within one (session, query) group, every rank-ordered pair of
distinct clicked articles is a coclick: the higher-ranked click is the seed,
the lower-ranked one the similar article. Aggregation reduces coclicks to
one record per (seed, similar) pair holding a normalized-query -> count map.

Ingest is one streamed pass: ``aggregate_sharded(parse_log(lines))`` holds a
(rank, article_id) list per (session, query) group, never the events
themselves, and counts each group's pairs straight into the aggregates.
With ``flush_sessions=True`` it counts and drops a session's groups as soon
as the next session starts, so the group map holds one session's clicks
however long the log; the ids of finished sessions are kept to spot one
that shows up again. That needs each session's lines to be contiguous, as
``sort -s -t$'\\t' -k1,1`` makes them. A session that shows up again raises
:class:`SessionReappeared`, and ``run_ingest`` then logs one warning, seeks
back to the start and reads the log again holding every group. A log that
cannot seek, such as a pipe, is read once holding every group.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import IO, Iterable, Iterator, NamedTuple

from .base import DatasetError, PairKey, json_pair_key, read_pair_records, undecodable_line

RAW_LOG_COLUMNS = ("session_id", "timestamp_ms", "query", "rank", "article_id")
METADATA_COLUMNS = ("article_id", "title", "abstract")

Click = tuple[int, str]


class SessionEvent(NamedTuple):
    """One click row from a raw session log."""

    session_id: str
    query: str
    rank: int
    article_id: str
    timestamp: int


@dataclass
class PairAggregate:
    """Per-pair map of normalized query -> coclick count."""

    seed_id: str
    similar_id: str
    query_counts: dict[str, int] = field(default_factory=dict)

    @property
    def combined_clicks(self) -> int:
        return sum(self.query_counts.values())


@dataclass
class ParseStats:
    """Counters exposed for monitoring a parse run."""

    parsed: int = 0
    malformed: int = 0


def normalize_query(query: str) -> str:
    """Canonical form used as an aggregation key: lowercase, whitespace collapsed."""
    return " ".join(query.lower().split())


def parse_log(lines: Iterable[str], stats: ParseStats | None = None) -> Iterator[SessionEvent]:
    """Yield a :class:`SessionEvent` per well-formed TSV line.

    Malformed lines (wrong field count, bad rank, empty query or article id)
    are skipped and tallied; real logs are dirty and a bad line should never
    abort an ingest. The tallies are added to ``stats`` when the stream is
    used up or closed, not line by line. A line of a text file that is not
    UTF-8 raises :class:`DatasetError` naming the line.
    """
    parsed = malformed = blank = 0
    width = len(RAW_LOG_COLUMNS)
    # Builds each event as a plain tuple of the subclass, skipping the
    # Python-level SessionEvent.__new__ call that otherwise runs per line.
    new_event = tuple.__new__
    try:
        for line in lines:
            fields = line.rstrip("\n").split("\t")
            if len(fields) != width:
                if fields == [""]:
                    blank += 1
                else:
                    malformed += 1
                continue
            session_id, ts_text, query, rank_text, article_id = fields
            query = query.strip()
            article_id = article_id.strip()
            try:
                rank = int(rank_text)
                timestamp = int(ts_text)
            except ValueError:
                malformed += 1
                continue
            if rank < 1 or not query or not article_id or not session_id:
                malformed += 1
                continue
            parsed += 1
            yield new_event(SessionEvent, (session_id, query, rank, article_id, timestamp))
    except UnicodeDecodeError as exc:
        lineno = undecodable_line(exc, parsed + malformed + blank)
        raise DatasetError(f"raw log line {lineno} is not UTF-8: {exc}") from exc
    finally:
        if stats is not None:
            stats.parsed += parsed
            stats.malformed += malformed


def ranked_pairs(clicks: list[Click]) -> list[PairKey]:
    """The (seed, similar) coclicks of one group's (rank, article_id) clicks.

    Repeated clicks on the same article keep only the lowest-ranked
    occurrence; the rest are ordered by (rank, article_id). Pairs need a
    strict rank order, so two clicks sharing a rank produce nothing.
    """
    seen: set[str] = set()
    ordered: list[Click] = []
    for click in sorted(clicks):
        if click[1] not in seen:
            seen.add(click[1])
            ordered.append(click)
    return [(seed, similar) for (r1, seed), (r2, similar) in combinations(ordered, 2) if r1 < r2]


class SessionReappeared(Exception):
    """A session's events resumed after another session's began.

    Raised by :func:`aggregate_sharded` with ``flush_sessions=True``, which
    has already counted the session's earlier groups and so cannot go on.
    """

    def __init__(self, session_id: str):
        super().__init__(session_id)
        self.session_id = session_id


def aggregate_sharded(
    events: Iterable[SessionEvent], *, flush_sessions: bool = False
) -> dict[PairKey, PairAggregate]:
    """Count each (session, query) group's coclicks per pair, in one serial pass.

    ``events`` is consumed once and may be a generator such as
    :func:`parse_log`. Each group holds only its (rank, article_id) clicks;
    :func:`ranked_pairs` gives the pair rule. Each group's query is
    normalized once and its pairs are counted in place.

    By default every group is held until ``events`` ends, so groups need not
    be contiguous and any event order gives exact counts. With
    ``flush_sessions=True`` a session's groups are counted and dropped when
    the next session starts. A session seen again after that closes
    ``events`` (ending a :func:`parse_log` generator, which adds its tallies
    once) and raises :class:`SessionReappeared`.
    """
    groups: defaultdict[tuple[str, str], list[Click]] = defaultdict(list)
    aggregates: dict[PairKey, PairAggregate] = {}

    def count_groups() -> None:
        for (_, query), clicks in groups.items():
            if len(clicks) < 2:
                continue
            nq = normalize_query(query)
            for pair in ranked_pairs(clicks):
                agg = aggregates.get(pair)
                if agg is None:
                    agg = aggregates[pair] = PairAggregate(*pair)
                counts = agg.query_counts
                counts[nq] = counts.get(nq, 0) + 1
        groups.clear()

    current: str | None = None
    started: set[str] = set()
    for session_id, query, rank, article_id, _ in events:
        if flush_sessions and session_id != current:
            count_groups()
            if session_id in started:
                close = getattr(events, "close", None)
                if close is not None:
                    close()
                raise SessionReappeared(session_id)
            started.add(session_id)
            current = session_id
        groups[session_id, query].append((rank, article_id))
    count_groups()
    return aggregates


def write_aggregates(aggregates: dict[PairKey, PairAggregate], fh: IO[str]) -> None:
    """Write aggregates as JSON Lines, sorted by pair for reproducible output."""
    for key in sorted(aggregates):
        agg = aggregates[key]
        record = {
            "seed_id": agg.seed_id,
            "similar_id": agg.similar_id,
            "query_counts": dict(sorted(agg.query_counts.items())),
            "combined_clicks": agg.combined_clicks,
        }
        fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_aggregates(fh: IO[str]) -> dict[PairKey, PairAggregate]:
    """Read aggregates written by :func:`write_aggregates`.

    :func:`read_pair_records` rejects a bad or repeated pair. A record is bad
    when an id is not a string, a count is not an integer of at least 1, or
    ``combined_clicks`` is not the sum of the counts or is too large for a
    float.
    """
    return read_pair_records(fh, "aggregate", _parse_aggregate)


def _parse_aggregate(record: dict) -> tuple[PairKey, PairAggregate]:
    key = json_pair_key(record)
    query_counts, combined = record["query_counts"], record["combined_clicks"]
    if not isinstance(query_counts, dict):
        raise TypeError(f"query_counts must be an object, got {query_counts!r}")
    for query, count in query_counts.items():
        # bool is a subclass of int, but true is no count
        if type(count) is not int or count < 1:
            raise ValueError(f"count {count!r} for query {query!r} is not an integer >= 1")
    if type(combined) is not int or combined != sum(query_counts.values()):
        raise ValueError(f"combined_clicks {combined!r} is not the sum of the query counts")
    # The labeler converts each title token's click count, at most combined, to float.
    if combined > sys.float_info.max:
        raise ValueError("combined_clicks is too large for a float")
    return key, PairAggregate(*key, query_counts)


@dataclass(frozen=True)
class Article:
    article_id: str
    title: str
    abstract: str = ""


def read_metadata(fh: IO[str]) -> dict[str, Article]:
    """Read the article metadata TSV (article_id, title, abstract)."""
    articles: dict[str, Article] = {}
    lineno = 0
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) == 2:
                fields.append("")
            if len(fields) != len(METADATA_COLUMNS):
                raise DatasetError(f"bad metadata row at line {lineno}: {line!r}")
            article_id, title, abstract = fields
            articles[article_id] = Article(article_id, title, abstract)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"bad metadata row at line {undecodable_line(exc, lineno)}: {exc}") from exc
    return articles


def write_metadata(articles: Iterable[Article], fh: IO[str]) -> None:
    for article in articles:
        fh.write(f"{article.article_id}\t{article.title}\t{article.abstract}\n")


def write_events(events: Iterable[SessionEvent], fh: IO[str]) -> None:
    for e in events:
        fh.write(f"{e.session_id}\t{e.timestamp}\t{e.query}\t{e.rank}\t{e.article_id}\n")
