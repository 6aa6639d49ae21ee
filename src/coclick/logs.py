"""Session-log parsing and coclick aggregation.

A raw log is TSV with columns session_id, timestamp_ms, query, rank,
article_id. Within one (session, query) group, every rank-ordered pair of
distinct clicked articles is a coclick: the higher-ranked click is the seed,
the lower-ranked one the similar article. Aggregation reduces coclicks to
one record per (seed, similar) pair holding a normalized-query -> count map.

Ingest is one streamed pass, :func:`aggregate_sharded`, holding one session
at a time; :func:`sorted_by_session` makes a log's sessions contiguous.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

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


@dataclass(slots=True)
class PairAggregate:
    """Per-pair map of normalized query -> coclick count."""

    seed_id: str
    similar_id: str
    query_counts: dict[str, int] = field(default_factory=dict)

    @property
    def combined_clicks(self) -> int:
        return sum(self.query_counts.values())


# Why parse_log drops a line, in the order it checks: not five fields, a rank
# or timestamp that is not an integer, a rank below 1, and an empty query,
# article id or session id.
DROP_REASONS = ("field_count", "not_integer", "rank_below_1", "empty_field")
# What can become of a line that is not parsed: blank lines are skipped untallied.
_LINE_FATES = ("blank",) + DROP_REASONS


@dataclass
class ParseStats:
    """Counters exposed for monitoring a parse run: lines kept, and lines
    dropped per reason of :data:`DROP_REASONS`."""

    parsed: int = 0
    field_count: int = 0
    not_integer: int = 0
    rank_below_1: int = 0
    empty_field: int = 0

    @property
    def malformed(self) -> int:
        """Lines dropped for any reason."""
        return self.field_count + self.not_integer + self.rank_below_1 + self.empty_field


def normalize_query(query: str) -> str:
    """Canonical form used as an aggregation key: lowercase, whitespace collapsed."""
    return " ".join(query.lower().split())


def _parse_line(line: str, drops: dict[str, int]) -> tuple[str, str, int, str, int] | None:
    """The (session_id, query, rank, article_id, timestamp) of one raw-log line.

    A dropped line gives None and adds one to its reason in ``drops``, a dict
    over ``"blank"`` and :data:`DROP_REASONS`. The newline is not cut off
    first: it ends the article id, which is stripped anyway, and it leaves a
    blank line with one field, so only a line with the wrong field count is
    looked at for being blank.
    """
    fields = line.split("\t")
    if len(fields) != 5:  # len(RAW_LOG_COLUMNS)
        drops["field_count" if line.rstrip("\n") else "blank"] += 1
        return None
    session_id, ts_text, query, rank_text, article_id = fields
    query = query.strip()
    article_id = article_id.strip()
    try:
        rank = int(rank_text)
        timestamp = int(ts_text)
    except ValueError:
        drops["not_integer"] += 1
        return None
    if rank < 1:
        drops["rank_below_1"] += 1
        return None
    if not query or not article_id or not session_id:
        drops["empty_field"] += 1
        return None
    return session_id, query, rank, article_id, timestamp


def parse_log(lines: Iterable[str], stats: ParseStats | None = None) -> Iterator[SessionEvent]:
    """Yield a :class:`SessionEvent` per well-formed TSV line.

    Malformed lines are skipped and tallied under the first of
    :data:`DROP_REASONS` they fail; real logs are dirty and a bad line should
    never abort an ingest. Blank lines are skipped untallied. The tallies are
    added to ``stats`` when the stream is used up or closed, not line by
    line. A line of a text file that is not UTF-8 raises
    :class:`DatasetError` naming the line.
    """
    drops = dict.fromkeys(_LINE_FATES, 0)
    parsed = 0
    try:
        for line in lines:
            event = _parse_line(line, drops)
            if event is not None:
                parsed += 1
                yield SessionEvent(*event)
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, parsed + sum(drops.values())) from exc
    finally:
        _add_tallies(stats, parsed, drops)


def _not_utf8(exc: UnicodeDecodeError, lines_read: int) -> DatasetError:
    """The error naming the raw-log line that ``exc`` failed to decode after ``lines_read`` lines."""
    return DatasetError(f"raw log line {undecodable_line(exc, lines_read)} is not UTF-8: {exc}")


def _add_tallies(stats: ParseStats | None, parsed: int, drops: dict[str, int]) -> None:
    """Add one pass's line tallies to ``stats``, if given."""
    if stats is not None:
        stats.parsed += parsed
        for reason in DROP_REASONS:
            setattr(stats, reason, getattr(stats, reason) + drops[reason])


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
    """A session's lines resumed after another session's began.

    Raised by :func:`aggregate_sharded`, which has already counted the
    session's earlier groups. Only a hash per session is kept, so the signal
    cannot name the session, and a 64-bit hash collision can raise it too.
    """


def sorted_by_session(lines: Iterable[str]) -> list[str]:
    """Every raw-log line, stably sorted by its first field, the session id.

    Blank and malformed lines are kept, so a pass tallies them as before. A
    line that is not UTF-8 raises :class:`DatasetError` naming it in ``lines``.
    """
    held: list[str] = []
    try:
        # extend keeps the lines read before an error, which place the bad one.
        held.extend(lines)
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, len(held)) from exc
    held.sort(key=lambda line: line.partition("\t")[0])
    return held


def _has_repeat(hashes: array) -> bool:
    """Whether ``hashes`` holds some value twice: one sorted copy, no Python ints."""
    ordered = np.sort(np.frombuffer(hashes, dtype=np.int64))
    return bool((ordered[1:] == ordered[:-1]).any())


def aggregate_sharded(lines: Iterable[str], stats: ParseStats | None = None) -> dict[PairKey, PairAggregate]:
    """Parse raw-log ``lines`` and count each (session, query) group's coclicks, in one pass.

    Each line goes through the rule :func:`parse_log` uses, and its tallies
    are added to ``stats`` when the pass ends, also when it raises. Each
    group holds only its (rank, article_id) clicks; :func:`ranked_pairs`
    gives the pair rule, which is applied inline to a two-click group. Each
    distinct query is normalized once per pass, and every pair counted under
    it shares that one key string.

    Each session's lines must be contiguous, as :func:`sorted_by_session`
    makes them: a session's groups, keyed by query, are counted and dropped
    when the next session starts, and only ``hash(session_id)`` is kept.
    Once an id fails to ascend strictly, the hashes are checked for a repeat
    at each power-of-two count and at the end, so a session that reappears
    as the i-th run of sessions is caught by the start of run 2i. A repeat,
    which may be a hash collision, raises :class:`SessionReappeared` and
    leaves ``lines`` open for a re-read. Sorted ids always ascend, so the
    per-process hashes never decide what is counted.
    """
    groups: defaultdict[str, list[Click]] = defaultdict(list)
    aggregates: dict[PairKey, PairAggregate] = {}
    # Raw query -> its normalized form. normalize_query is idempotent, so a
    # normalized form is also stored as its own key, and every raw variant
    # of one normalized query maps to the same string object.
    normalized: dict[str, str] = {}

    def count_groups() -> None:
        for query, clicks in groups.items():
            n = len(clicks)
            if n < 2:
                continue
            nq = normalized.get(query)
            if nq is None:
                nq = normalize_query(query)
                nq = normalized[query] = normalized.setdefault(nq, nq)
            if n == 2:
                (r1, a1), (r2, a2) = clicks
                if r1 == r2 or a1 == a2:
                    continue
                pairs = ((a1, a2) if r1 < r2 else (a2, a1),)
            else:
                pairs = ranked_pairs(clicks)
            for pair in pairs:
                agg = aggregates.get(pair)
                if agg is None:
                    agg = aggregates[pair] = PairAggregate(*pair)
                counts = agg.query_counts
                counts[nq] = counts.get(nq, 0) + 1
        groups.clear()

    drops = dict.fromkeys(_LINE_FATES, 0)
    parsed = 0
    # A parsed session id is never empty, so the first one ascends from "".
    current = ""
    ascending = True
    session_hashes = array("q")
    try:
        for line in lines:
            event = _parse_line(line, drops)
            if event is None:
                continue
            parsed += 1
            session_id, query, rank, article_id, _ = event
            if session_id != current:
                count_groups()
                ascending = ascending and session_id > current
                session_hashes.append(hash(session_id))
                n = len(session_hashes)
                if not ascending and n & (n - 1) == 0 and _has_repeat(session_hashes):
                    raise SessionReappeared("a session's lines are not contiguous")
                current = session_id
            groups[query].append((rank, article_id))
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, parsed + sum(drops.values())) from exc
    finally:
        _add_tallies(stats, parsed, drops)
    count_groups()
    if not ascending and _has_repeat(session_hashes):
        raise SessionReappeared("a session's lines are not contiguous")
    return aggregates


# One encoder for every record: json.dumps with an option builds an encoder per call.
_encode_record = json.JSONEncoder(ensure_ascii=False).encode


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
        fh.write(_encode_record(record) + "\n")


def read_aggregates(fh: IO[str]) -> dict[PairKey, PairAggregate]:
    """Read aggregates written by :func:`write_aggregates`.

    :func:`read_pair_records` rejects a bad or repeated pair. A record is bad
    when an id is not a string, a count is not an integer of at least 1, or
    ``combined_clicks`` is not the sum of the counts or is too large for a
    float.

    Every id and query is kept as one string object per distinct value,
    shared by all the records that name it: each record decodes fresh copies
    of the same few thousand ids and queries.
    """
    strings: dict[str, str] = {}
    return read_pair_records(fh, "aggregate", lambda record: _parse_aggregate(record, strings))


def _parse_aggregate(record: dict, strings: dict[str, str]) -> tuple[PairKey, PairAggregate]:
    """One record's pair and aggregate, each string swapped for its first copy in ``strings``."""
    seed_id, similar_id = json_pair_key(record)
    key = (strings.setdefault(seed_id, seed_id), strings.setdefault(similar_id, similar_id))
    query_counts, combined = record["query_counts"], record["combined_clicks"]
    if not isinstance(query_counts, dict):
        raise TypeError(f"query_counts must be an object, got {query_counts!r}")
    shared: dict[str, int] = {}
    for query, count in query_counts.items():
        # bool is a subclass of int, but true is no count
        if type(count) is not int or count < 1:
            raise ValueError(f"count {count!r} for query {query!r} is not an integer >= 1")
        shared[strings.setdefault(query, query)] = count
    if type(combined) is not int or combined != sum(shared.values()):
        raise ValueError(f"combined_clicks {combined!r} is not the sum of the query counts")
    # The labeler converts each title token's click count, at most combined, to float.
    if combined > sys.float_info.max:
        raise ValueError("combined_clicks is too large for a float")
    return key, PairAggregate(*key, shared)


@dataclass(frozen=True)
class Article:
    article_id: str
    title: str
    abstract: str = ""


def read_metadata(fh: IO[str]) -> dict[str, Article]:
    """Read the article metadata TSV (article_id, title, abstract).

    A row with another field count, a repeated article id or a line that is
    not UTF-8 raises :class:`DatasetError` naming the line (both lines for a
    repeat).
    """
    articles: dict[str, Article] = {}
    first_lines: dict[str, int] = {}
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
            if article_id in articles:
                raise DatasetError(
                    f"duplicate article id {article_id!r} at line {lineno}, first at line {first_lines[article_id]}"
                )
            articles[article_id] = Article(article_id, title, abstract)
            first_lines[article_id] = lineno
    except UnicodeDecodeError as exc:
        raise DatasetError(f"bad metadata row at line {undecodable_line(exc, lineno)}: {exc}") from exc
    return articles


# Rows per write: each chunk is formatted, checked and written as one string.
# Small enough that the chunk's lines add nothing visible to synth's peak.
_WRITE_CHUNK = 256


def _write_chunk(fh: IO[str], columns: tuple[str, ...], lines: list[str], rows: Iterable[tuple]) -> None:
    """Write one chunk of formatted TSV ``lines``, refusing a field that would
    shift columns or split a line on reading.

    The chunk's text is checked once as a whole: one tab per column gap and
    one newline per line, and no carriage return. Only a bad chunk is
    searched, through ``rows`` (each line's values in ``columns`` order),
    for the field to name in the :class:`DatasetError`.
    """
    text = "".join(lines)
    if text.count("\t") != (len(columns) - 1) * len(lines) or text.count("\n") != len(lines) or "\r" in text:
        for row in rows:
            for name, value in zip(columns, row):
                if any(c in str(value) for c in "\t\n\r"):
                    raise DatasetError(f"cannot write {name} {value!r}: it holds a tab or line break")
    fh.write(text)


def write_metadata(articles: Iterable[Article], fh: IO[str]) -> None:
    """Write the article metadata TSV; a field holding a tab or line break raises :class:`DatasetError`."""
    articles = iter(articles)
    while chunk := list(islice(articles, _WRITE_CHUNK)):
        lines = [f"{a.article_id}\t{a.title}\t{a.abstract}\n" for a in chunk]
        _write_chunk(fh, METADATA_COLUMNS, lines, ((a.article_id, a.title, a.abstract) for a in chunk))


def write_events(events: Iterable[SessionEvent], fh: IO[str]) -> None:
    """Write a raw log TSV; a field holding a tab or line break raises :class:`DatasetError`."""
    events = iter(events)
    while chunk := list(islice(events, _WRITE_CHUNK)):
        lines = [f"{e.session_id}\t{e.timestamp}\t{e.query}\t{e.rank}\t{e.article_id}\n" for e in chunk]
        rows = ((e.session_id, e.timestamp, e.query, e.rank, e.article_id) for e in chunk)
        _write_chunk(fh, RAW_LOG_COLUMNS, lines, rows)
