"""Log parsing, coclick aggregation, and aggregate file tests."""

import io
import json
import logging
import os
import random
import threading
import tracemalloc
from collections import Counter

import pytest

import coclick.logs
from coclick.base import DatasetError
from coclick.logs import (
    DROP_REASONS,
    Article,
    PairAggregate,
    ParseStats,
    SessionEvent,
    SessionReappeared,
    aggregate_sharded,
    normalize_query,
    parse_log,
    ranked_pairs,
    read_aggregates,
    read_metadata,
    sorted_by_session,
    write_aggregates,
    write_events,
    write_metadata,
)
from coclick.pipeline import run_ingest


def make_event(session="s1", query="q", rank=1, article="P1", ts=0):
    return SessionEvent(session, query, rank, article, ts)


def as_log(events):
    """``events`` as a raw-log text stream, rendered by write_events."""
    buf = io.StringIO()
    write_events(events, buf)
    buf.seek(0)
    return buf


class TestParseLog:
    def test_well_formed_line(self):
        events = list(parse_log(["s1\t100\tcovid vaccine\t1\tP1\n"]))
        assert events == [SessionEvent("s1", "covid vaccine", 1, "P1", 100)]

    def test_rank_zero_skipped_and_tallied(self):
        stats = ParseStats()
        events = list(parse_log(["s1\t100\tq\t0\tP1"], stats))
        assert events == []
        assert stats.malformed == 1

    def test_empty_query_skipped(self):
        stats = ParseStats()
        assert list(parse_log(["s1\t100\t \t1\tP1"], stats)) == []
        assert stats.malformed == 1

    def test_wrong_field_count_skipped(self):
        stats = ParseStats()
        assert list(parse_log(["s1\t100\tq\t1"], stats)) == []
        assert stats.malformed == 1

    def test_non_integer_rank_skipped(self):
        stats = ParseStats()
        assert list(parse_log(["s1\t100\tq\tone\tP1"], stats)) == []
        assert stats.malformed == 1

    def test_event_is_immutable_with_named_fields(self):
        event = make_event(session="s1", query="q", rank=2, article="P1", ts=7)
        assert event == SessionEvent(session_id="s1", query="q", rank=2, article_id="P1", timestamp=7)
        assert event != make_event(rank=3)
        assert SessionEvent._fields == ("session_id", "query", "rank", "article_id", "timestamp")
        with pytest.raises(AttributeError):
            event.rank = 1

    def test_stats_filled_when_stream_is_used_up_or_closed(self):
        lines = ["s1\t1\tq\t1\tP1", "bad line", "s1\t2\tq\t2\tP2", "also bad"]
        stats = ParseStats()
        stream = parse_log(lines, stats)
        next(stream)
        next(stream)
        stream.close()
        assert (stats.parsed, stats.malformed) == (2, 1)
        stats = ParseStats()
        assert len(list(parse_log(lines, stats))) == 2
        assert (stats.parsed, stats.malformed) == (2, 2)

    @pytest.mark.parametrize("bad_line", [3, 900])
    def test_non_utf8_line_named(self, bad_line):
        # Line 900 lies past the text file's first decoded chunk; line 2 is
        # blank, which the line rule does not tally but must still count.
        lines = [f"s{i}\t{i}\tq\t1\tP{i}\n".encode() for i in range(1, 1000)]
        lines[bad_line - 1] = b"s\t0\tq\xff\t1\tP1\n"
        lines[1] = b"\n"
        readers = (
            lambda fh, stats: list(parse_log(fh, stats)),
            lambda fh, stats: aggregate_sharded(fh, stats),
            lambda fh, stats: sorted_by_session(fh),
        )
        for read in readers:
            stats = ParseStats()
            with pytest.raises(DatasetError, match=f"raw log line {bad_line} is not UTF-8"):
                read(io.TextIOWrapper(io.BytesIO(b"".join(lines)), encoding="utf-8"), stats)
            assert stats.parsed < bad_line

    def test_mixed_stream_counts(self):
        lines = [
            "s1\t1\tq\t1\tP1",
            "bad line",
            "s1\t2\tq\t3\tP2",
            "",
        ]
        stats = ParseStats()
        events = list(parse_log(lines, stats))
        assert len(events) == 2
        assert stats.parsed == 2
        assert stats.malformed == 1

    def test_tallies_per_reason_match_brute_force_classifier(self):
        rng = random.Random(29)
        pieces = {
            "session": ["s1", "s2", ""],
            "ts": ["5", "-1", "t", "", " 7", "1.5"],
            "query": ["q", "Flu  SHOT", " ", ""],
            "rank": ["1", "3", "0", "-2", "x", "", " 2 "],
            "article": ["P1", "P2", "", " "],
        }
        for _ in range(50):
            lines = []
            for _ in range(rng.randint(0, 60)):
                fields = [rng.choice(pieces[k]) for k in ("session", "ts", "query", "rank", "article")]
                width = rng.choice([5, 5, 5, 5, 1, 3, 4, 6])
                lines.append("\t".join((fields + ["extra"])[:width]) + rng.choice(["", "\n", "\r\n"]))
            expected = Counter(classify_line(line) for line in lines)
            stats = ParseStats()
            events = list(parse_log(lines, stats))
            assert len(events) == stats.parsed == expected["parsed"]
            assert {r: getattr(stats, r) for r in DROP_REASONS} == {r: expected[r] for r in DROP_REASONS}
            assert stats.malformed == sum(expected[r] for r in DROP_REASONS)
            # aggregate_sharded parses by the same rule; it needs each
            # session's lines together, which sorted_by_session gives while
            # keeping the blank and malformed lines.
            kept = [classified_event(line) for line in lines if classify_line(line) == "parsed"]
            by_session = sorted_by_session(lines)
            assert by_session == sorted(lines, key=lambda line: line.split("\t")[0])
            stats = ParseStats()
            aggregates = aggregate_sharded(by_session, stats)
            assert {k: v.query_counts for k, v in aggregates.items()} == brute_force_counts(kept)
            assert stats.parsed == expected["parsed"]
            assert {r: getattr(stats, r) for r in DROP_REASONS} == {r: expected[r] for r in DROP_REASONS}


def classify_line(line):
    """What parse_log should do with ``line``: 'parsed', 'blank' or the first drop reason it fails."""
    fields = line.rstrip("\n").split("\t")
    if fields == [""]:
        return "blank"
    if len(fields) != 5:
        return "field_count"
    session, ts, query, rank, article = fields
    for text in (rank, ts):
        try:
            int(text)
        except ValueError:
            return "not_integer"
    if int(rank) <= 0:
        return "rank_below_1"
    if "" in (session, query.strip(), article.strip()):
        return "empty_field"
    return "parsed"


def classified_event(line):
    """The event of a line that classify_line calls 'parsed'."""
    session, ts, query, rank, article = line.rstrip("\n").split("\t")
    return SessionEvent(session, query.strip(), int(rank), article.strip(), int(ts))


def pair_counts(events):
    """The streamed aggregates of ``events``, in any session order, as {(seed, similar): query_counts}."""
    return {key: agg.query_counts for key, agg in aggregate_sharded(sorted_by_session(as_log(events))).items()}


class TestExtractCoclicks:
    def test_two_clicks_one_pair(self):
        events = [make_event(rank=1, article="P1"), make_event(rank=3, article="P2")]
        assert pair_counts(events) == {("P1", "P2"): {"q": 1}}

    def test_single_click_no_pair(self):
        assert pair_counts([make_event(rank=2)]) == {}

    def test_three_clicks_three_ordered_pairs(self):
        # hand enumeration: (P1,P2), (P1,P3), (P2,P3)
        events = [
            make_event(rank=1, article="P1"),
            make_event(rank=2, article="P2"),
            make_event(rank=5, article="P3"),
        ]
        assert set(pair_counts(events)) == {("P1", "P2"), ("P1", "P3"), ("P2", "P3")}

    def test_duplicate_click_deduplicated(self):
        events = [
            make_event(rank=1, article="P1"),
            make_event(rank=1, article="P1"),
            make_event(rank=2, article="P2"),
        ]
        assert pair_counts(events) == {("P1", "P2"): {"q": 1}}

    def test_same_article_two_ranks_keeps_lowest(self):
        events = [
            make_event(rank=3, article="P1"),
            make_event(rank=1, article="P2"),
            make_event(rank=4, article="P1"),
        ]
        assert set(pair_counts(events)) == {("P2", "P1")}

    def test_equal_ranks_emit_nothing(self):
        events = [make_event(rank=2, article="P1"), make_event(rank=2, article="P2")]
        assert pair_counts(events) == {}

    def test_groups_split_by_query(self):
        events = [
            make_event(query="a", rank=1, article="P1"),
            make_event(query="b", rank=2, article="P2"),
        ]
        assert pair_counts(events) == {}

    def test_seed_rank_always_lower(self):
        rng = random.Random(13)
        events = []
        for s in range(30):
            for _ in range(rng.randint(1, 4)):
                events.append(
                    make_event(
                        session=f"s{s}",
                        query=rng.choice(["x", "y"]),
                        rank=rng.randint(1, 6),
                        article=f"P{rng.randint(1, 5)}",
                    )
                )
        best_rank = {}
        for e in events:
            key = (e.session_id, e.query, e.article_id)
            best_rank[key] = min(best_rank.get(key, e.rank), e.rank)
        groups = {(e.session_id, e.query) for e in events}
        for (seed_id, similar_id), query_counts in pair_counts(events).items():
            assert seed_id != similar_id
            for query in query_counts:
                candidates = [
                    (s, q) for (s, q) in groups
                    if (s, q, seed_id) in best_rank and (s, q, similar_id) in best_rank
                    and q == query
                ]
                assert any(
                    best_rank[(s, q, seed_id)] < best_rank[(s, q, similar_id)]
                    for s, q in candidates
                )


class TestAggregation:
    def test_counts_by_normalized_query(self):
        events = [
            make_event(session=f"s{i}", query=query, rank=rank, article=article)
            for i, query in enumerate(["covid"] * 3 + ["vaccine"])
            for rank, article in ((1, "P1"), (2, "P2"))
        ]
        agg = aggregate_sharded(as_log(events))
        assert agg[("P1", "P2")].query_counts == {"covid": 3, "vaccine": 1}
        assert agg[("P1", "P2")].combined_clicks == 4

    def test_case_variants_merge_under_normalization(self):
        assert normalize_query("Covid   Vaccine") == "covid vaccine"
        events = [
            make_event(session=q, query=q, rank=rank, article=article)
            for q in ("Covid Vaccine", "covid  vaccine")
            for rank, article in ((1, "P1"), (2, "P2"))
        ]
        assert pair_counts(events) == {("P1", "P2"): {"covid vaccine": 2}}

    def test_empty_instances(self):
        assert aggregate_sharded([]) == {}
        assert sorted_by_session([]) == []

    def test_two_click_groups_match_ranked_pairs(self):
        # Two-click groups are counted without ranked_pairs; ranks and
        # articles are drawn from small sets so that equal ranks and a
        # repeated article both come up.
        rng = random.Random(31)
        seen = set()
        for _ in range(40):
            groups = [[(rng.randint(1, 3), rng.choice("PQR")) for _ in range(2)] for _ in range(30)]
            expected = {}
            for group in groups:
                seen.add((group[0][0] == group[1][0], group[0][1] == group[1][1]))
                for pair in ranked_pairs(group):
                    expected.setdefault(pair, {"q": 0})["q"] += 1
            lines = [f"s{i}\t0\tq\t{r}\t{a}\n" for i, group in enumerate(groups) for r, a in group]
            got = aggregate_sharded(lines)
            assert {k: v.query_counts for k, v in got.items()} == expected
        assert seen == {(False, False), (False, True), (True, False), (True, True)}


def random_events(rng, n):
    events = []
    for _ in range(n):
        events.append(
            SessionEvent(
                f"s{rng.randint(0, 6)}",
                rng.choice(["covid", "covid vaccine", "flu shot", "Flu  SHOT"]),
                rng.randint(1, 5),
                f"P{rng.randint(1, 6)}",
                rng.randint(0, 1000),
            )
        )
    return events


def brute_force_counts(events):
    """Recount coclicks per pair/query with raw loops (independent of package code)."""
    groups = {}
    for e in events:
        groups.setdefault((e.session_id, e.query), []).append(e)
    counts = {}
    for (_, query), group in groups.items():
        best = {}
        for e in sorted(group, key=lambda e: e.rank):
            best.setdefault(e.article_id, e)
        clicks = sorted(best.values(), key=lambda e: (e.rank, e.article_id))
        for i in range(len(clicks)):
            for j in range(len(clicks)):
                if clicks[i].rank < clicks[j].rank:
                    key = (clicks[i].article_id, clicks[j].article_id)
                    nq = " ".join(query.lower().split())
                    counts.setdefault(key, {}).setdefault(nq, 0)
                    counts[key][nq] += 1
    return counts


class TestMergeProperties:
    def test_sharded_aggregate_matches_brute_force_recount(self):
        # random_events interleaves sessions, so no group is contiguous
        # until sorted; the one-shot iterator checks that one read suffices.
        rng = random.Random(5)
        for _ in range(20):
            events = random_events(rng, rng.randint(0, 100))
            expected = brute_force_counts(events)
            lines = as_log(events).readlines()
            for stream in (lines, iter(lines)):
                got = aggregate_sharded(sorted_by_session(stream))
                assert {k: v.query_counts for k, v in got.items()} == expected

    def test_combined_clicks_equals_instance_count(self):
        rng = random.Random(17)
        events = random_events(rng, 80)
        expected = brute_force_counts(events)
        agg = aggregate_sharded(sorted_by_session(as_log(events)))
        assert set(agg) == set(expected)
        for key, pair_agg in agg.items():
            assert pair_agg.combined_clicks == sum(expected[key].values())


def session_log(rng, sessions):
    """Raw-log lines of ``sessions`` sessions, each contiguous, with a few bad and blank lines."""
    lines = []
    for i in range(sessions):
        for query in rng.sample(["covid", "Covid  vaccine", "flu shot", "mrna"], rng.randint(1, 2)):
            for rank in rng.sample(range(1, 6), rng.randint(1, 4)):
                lines.append(f"s{i}\t{rng.randint(0, 999)}\t{query}\t{rank}\tP{rng.randint(1, 8)}\n")
        if rng.random() < 0.05:
            lines.append(rng.choice(["bad line\n", f"s{i}\t1\tq\tzero\tP1\n", "\n"]))
    return lines


def ingest_counts(tmp_path, name, lines):
    """``run_ingest`` of ``lines`` as {(seed, similar): query_counts}, with its parse tallies."""
    log_path, out_path = tmp_path / f"{name}.tsv", tmp_path / f"{name}.jsonl"
    log_path.write_text("".join(lines), encoding="utf-8")
    stats, n_pairs = run_ingest(log_path, out_path)
    with open(out_path, encoding="utf-8") as fh:
        aggregates = read_aggregates(fh)
    assert n_pairs == len(aggregates)
    return {k: v.query_counts for k, v in aggregates.items()}, (stats.parsed, stats.malformed)


class TestSessionFlush:
    def test_flushed_aggregate_matches_brute_force_on_contiguous_sessions(self):
        rng = random.Random(11)
        for _ in range(20):
            events = sorted(random_events(rng, rng.randint(0, 100)), key=lambda e: e.session_id)
            got = aggregate_sharded(as_log(events))
            assert {k: v.query_counts for k, v in got.items()} == brute_force_counts(events)

    def test_reappearing_session_signals_and_leaves_the_stream_open(self):
        # Session a comes back as the third run of sessions. The hashes are
        # checked when the fourth run (c) starts, so the signal fires there,
        # before d is read. The tallies are added once, and the stream stays
        # open for the sorted re-read.
        fh = io.StringIO(
            "a\t1\tq\t1\tP1\na\t2\tq\t2\tP2\nb\t3\tq\t1\tP1\nbad\na\t4\tq\t3\tP3\n"
            "c\t5\tq\t1\tP1\nd\t6\tq\t1\tP1\n"
        )
        stats = ParseStats()
        with pytest.raises(SessionReappeared):
            aggregate_sharded(fh, stats)
        assert (stats.parsed, stats.malformed) == (5, 1)
        assert fh.readline() == "d\t6\tq\t1\tP1\n"
        fh.seek(0)
        assert set(aggregate_sharded(sorted_by_session(fh), stats)) == {("P1", "P2"), ("P1", "P3"), ("P2", "P3")}
        assert (stats.parsed, stats.malformed) == (5 + 6, 1 + 1)

    @pytest.mark.parametrize("reappears_at", [3, 4, 5, 8, 9, 13, 16, 17, 31, 40])
    @pytest.mark.parametrize("runs", [40, 70])
    def test_reappearance_at_run_i_is_signalled_by_run_2i(self, reappears_at, runs):
        # Run k (1-based) is a new session, except run ``reappears_at``, which
        # repeats one from before run k - 1. Every third run ends with a
        # malformed line.
        rng = random.Random(reappears_at * runs)
        lines, first_line_of_run = [], {}
        for k in range(1, runs + 1):
            session = f"s{rng.randrange(1, k - 1)}" if k == reappears_at else f"s{k}"
            first_line_of_run[k] = len(lines)
            lines += [f"{session}\t{k}\tq\t{rank}\tP{rank}" for rank in (1, 2)]
            if k % 3 == 0:
                lines.append("bad line")
        consumed = 0

        def counted():
            nonlocal consumed
            for line in lines:
                consumed += 1
                yield line

        stats = ParseStats()
        with pytest.raises(SessionReappeared):
            aggregate_sharded(counted(), stats)
        assert stats.parsed + stats.malformed == consumed
        latest = first_line_of_run[2 * reappears_at] + 1 if 2 * reappears_at <= runs else len(lines)
        assert consumed <= latest

    def test_every_session_hash_colliding_still_gives_exact_aggregates(self, tmp_path, caplog, monkeypatch):
        # With one hash for every session id, a contiguous log whose ids
        # descend signals at the first check with two sessions, and the
        # sorted re-read counts it. Ids that ascend, as sorting leaves them,
        # cannot repeat, so the hashes are never looked at.
        lines = session_log(random.Random(3), 300)
        stats = ParseStats()
        expected = brute_force_counts(list(parse_log(lines, stats)))
        monkeypatch.setattr(coclick.logs, "hash", lambda session_id: 7, raising=False)
        for name, descending, warnings in (("descending", True, 1), ("ascending", False, 0)):
            log_lines = sorted(lines, key=lambda line: line.split("\t")[0], reverse=descending)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="coclick"):
                counts, tallies = ingest_counts(tmp_path, name, log_lines)
            assert counts == expected
            assert tallies == (stats.parsed, stats.malformed)
            assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == warnings, name

    def test_ingest_of_shuffled_and_sorted_logs_equals_recount(self, tmp_path, caplog):
        lines = session_log(random.Random(3), 300)
        shuffled = lines[:]
        random.Random(4).shuffle(shuffled)
        ordered = sorted(shuffled, key=lambda line: line.split("\t")[0])
        stats = ParseStats()
        expected = brute_force_counts(list(parse_log(lines, stats)))
        for name, log_lines, warnings in (("sorted", ordered, 0), ("shuffled", shuffled, 1)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="coclick"):
                counts, tallies = ingest_counts(tmp_path, name, log_lines)
            assert counts == expected
            assert tallies == (stats.parsed, stats.malformed)
            records = [r for r in caplog.records if r.levelno == logging.WARNING]
            assert len(records) == warnings, name
        message = records[0].getMessage()
        assert "sessions are not contiguous" in message and "sort -s -t$'\\t' -k1,1" in message
        assert "sorting it by session in memory" in message

    def test_ingest_of_shuffled_log_without_a_final_newline(self, tmp_path):
        # Sorting moves the unterminated last line among the others.
        lines = [line for line in session_log(random.Random(8), 200) if line.count("\t") == 4]
        random.Random(9).shuffle(lines)
        ordered = sorted_by_session(lines)
        lines[-1] = lines[-1].rstrip("\n")
        assert sorted_by_session(lines)[-1].endswith("\n")
        assert ingest_counts(tmp_path, "unterminated", lines) == ingest_counts(tmp_path, "sorted", ordered)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_ingest_of_shuffled_log_through_a_pipe_equals_recount(self, tmp_path, caplog):
        # A pipe cannot be read twice, so the log is sorted in memory as it
        # is read. The log is larger than a pipe's buffer, so a second open
        # would find the writer still writing and read only the rest.
        lines = session_log(random.Random(3), 3000)
        random.Random(4).shuffle(lines)
        stats = ParseStats()
        expected = brute_force_counts(list(parse_log(lines, stats)))
        fifo, out_path = tmp_path / "raw_log.fifo", tmp_path / "agg.jsonl"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.writelines(lines)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with caplog.at_level(logging.WARNING, logger="coclick"):
                got_stats, n_pairs = run_ingest(fifo, out_path)
        finally:
            writer.join()
        with open(out_path, encoding="utf-8") as fh:
            aggregates = read_aggregates(fh)
        assert {k: v.query_counts for k, v in aggregates.items()} == expected
        assert n_pairs == len(expected)
        assert (got_stats.parsed, got_stats.malformed) == (stats.parsed, stats.malformed)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_non_utf8_byte_after_a_reappearing_session_is_named(self, tmp_path, caplog, source):
        # Session s1 comes back as the third run, so a file's flushed pass
        # signals at the fourth run; the bad byte lies past the first decoded
        # chunk, so only the sorted re-read meets it. A pipe is sorted at
        # once. Either way the error names the byte's line in the log as
        # given, and the log fits in a pipe's buffer.
        lines = [b"s1\t0\tq\t1\tP1\n", b"s2\t0\tq\t1\tP1\n", b"s1\t0\tq\t2\tP2\n"]
        lines += [f"t{i:04d}\t{i}\tq\t1\tP{i}\n".encode() for i in range(4, 1001)]
        lines[899] = b"t\t0\tq\xff\t1\tP1\n"
        log_path = tmp_path / "raw_log.tsv"
        writer = None
        if source == "file":
            log_path.write_bytes(b"".join(lines))
        elif not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        else:
            os.mkfifo(log_path)

            def feed():
                with open(log_path, "wb") as fh:
                    fh.write(b"".join(lines))

            writer = threading.Thread(target=feed)
            writer.start()
        try:
            with caplog.at_level(logging.WARNING, logger="coclick"):
                with pytest.raises(DatasetError, match="raw log line 900 is not UTF-8"):
                    run_ingest(log_path, tmp_path / "agg.jsonl")
        finally:
            if writer is not None:
                writer.join(timeout=30)
                assert not writer.is_alive()
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == (source == "file")

    def test_flushed_pass_holds_one_session(self):
        articles = [f"P{k}" for k in range(5)]

        def lines(sessions=80_000):
            # A session-sorted log: two or three clicks per session.
            for i in range(sessions):
                session = f"s{i:06d}"
                for rank in range(1, 3 + i % 2):
                    yield f"{session}\t0\tq\t{rank}\t{articles[(i + rank) % 5]}\n"

        tracemalloc.start()
        try:
            aggregates = aggregate_sharded(lines())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {k: v.query_counts for k, v in aggregates.items()} == brute_force_counts(parse_log(lines()))
        # One 8-byte hash per finished session; ascending ids never need the
        # sorted copy that a check for a repeat makes.
        assert peak <= 32 * 80_000, peak

    def test_fallback_after_a_late_reappearance_peaks_like_one_sorted_pass(self, tmp_path):
        # A session-sorted log whose first line moved last: the flushed pass
        # runs to the end before the fallback, and its session ids and
        # aggregates must be freed before the log is read again.
        lines = [
            f"s{i:06d}\t0\tq\t{rank}\tP{(i + rank) % 5}\n"
            for i in range(10_000)
            for rank in range(1, 3 + i % 2)
        ]
        lines = lines[1:] + lines[:1]
        log_path = tmp_path / "late.tsv"
        log_path.write_text("".join(lines), encoding="utf-8")

        def sorted_pass():
            with open(log_path, encoding="utf-8") as fh:
                return aggregate_sharded(sorted_by_session(fh))

        peaks = {}
        for name, run in (
            ("sorted", sorted_pass),
            ("ingest", lambda: run_ingest(log_path, tmp_path / "agg.jsonl")),
        ):
            tracemalloc.start()
            try:
                run()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["ingest"] <= 1.1 * peaks["sorted"], peaks


class TestAggregateIO:
    def test_round_trip(self):
        agg = {
            ("P1", "P2"): PairAggregate("P1", "P2", {"covid": 3, "vaccine": 1}),
            ("P1", "P3"): PairAggregate("P1", "P3", {"flu": 2}),
        }
        buf = io.StringIO()
        write_aggregates(agg, buf)
        buf.seek(0)
        loaded = read_aggregates(buf)
        assert {k: v.query_counts for k, v in loaded.items()} == {
            k: v.query_counts for k, v in agg.items()
        }

    def test_output_sorted_by_pair(self):
        agg = {
            ("P9", "P1"): PairAggregate("P9", "P1", {"q": 1}),
            ("P1", "P2"): PairAggregate("P1", "P2", {"q": 1}),
        }
        buf = io.StringIO()
        write_aggregates(agg, buf)
        lines = buf.getvalue().splitlines()
        assert '"seed_id": "P1"' in lines[0]

    def _read(self, *records):
        return read_aggregates(io.StringIO("".join(json.dumps(r) + "\n" for r in records)))

    def test_combined_clicks_checked_against_counts(self):
        good = {"seed_id": "P1", "similar_id": "P2", "query_counts": {"q": 2, "r": 1}, "combined_clicks": 3}
        assert self._read(good)[("P1", "P2")].query_counts == {"q": 2, "r": 1}
        with pytest.raises(DatasetError, match="line 1: combined_clicks 99"):
            self._read({**good, "combined_clicks": 99})

    @pytest.mark.parametrize(
        "counts",
        [{"q": 1.7}, {"q": 2.0}, {"q": True}, {"q": -3}, {"q": 0}, {"q": "2"}, {"q": None}],
    )
    def test_non_integer_or_non_positive_count_rejected(self, counts):
        good = {"seed_id": "P0", "similar_id": "P1", "query_counts": {"a": 1}, "combined_clicks": 1}
        bad = {"seed_id": "P1", "similar_id": "P2", "query_counts": counts, "combined_clicks": 1}
        with pytest.raises(DatasetError, match="line 2: count"):
            self._read(good, bad)

    @pytest.mark.parametrize(
        "record",
        [
            {"seed_id": "P1", "similar_id": "P2", "query_counts": {"q": 1}},
            {"seed_id": "P1", "similar_id": "P2", "query_counts": [1], "combined_clicks": 1},
            {"seed_id": ["P1"], "similar_id": "P2", "query_counts": {"q": 1}, "combined_clicks": 1},
            ["P1", "P2"],
        ],
    )
    def test_malformed_record_rejected(self, record):
        with pytest.raises(DatasetError, match="line 1"):
            self._read(record)

    def test_duplicate_pair_rejected(self):
        record = {"seed_id": "P1", "similar_id": "P2", "query_counts": {"q": 1}, "combined_clicks": 1}
        with pytest.raises(DatasetError, match="duplicate .* line 2, first at line 1"):
            self._read(record, {**record, "query_counts": {"r": 1}})

    def test_records_share_one_string_per_distinct_id_and_query(self):
        lines = [
            json.dumps({"seed_id": "P1", "similar_id": "P2", "query_counts": {"covid": 2, "flu": 1},
                        "combined_clicks": 3}),
            json.dumps({"seed_id": "P1", "similar_id": "P3", "query_counts": {"covid": 4}, "combined_clicks": 4}),
        ]
        loaded = read_aggregates(io.StringIO("".join(line + "\n" for line in lines)))
        first, second = loaded.values()
        assert first.seed_id is second.seed_id
        assert next(iter(first.query_counts)) is next(iter(second.query_counts))
        for (key, agg), line in zip(loaded.items(), lines):
            record = json.loads(line)
            assert key == (record["seed_id"], record["similar_id"]) == (agg.seed_id, agg.similar_id)
            assert agg.query_counts == record["query_counts"]
            assert agg.combined_clicks == record["combined_clicks"]


class TestTsvFiles:
    def test_repeated_article_id_names_both_lines(self):
        text = "A\tfirst title\tabs\n\nB\tother\t\nA\tsecond title\tabs2\n"
        with pytest.raises(DatasetError, match="duplicate article id 'A' at line 4, first at line 1"):
            read_metadata(io.StringIO(text))

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb", "ab\n"])
    @pytest.mark.parametrize("field", ["session_id", "query", "article_id"])
    def test_event_field_with_tab_or_line_break_is_refused(self, field, bad):
        fields = {"session_id": "s1", "query": "q", "rank": 1, "article_id": "P1", "timestamp": 0}
        event = SessionEvent(**{**fields, field: bad})
        with pytest.raises(DatasetError, match=f"cannot write {field} "):
            write_events([make_event()] * 5000 + [event], io.StringIO())

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\r"])
    @pytest.mark.parametrize("field", ["article_id", "title", "abstract"])
    def test_metadata_field_with_tab_or_line_break_is_refused(self, field, bad):
        article = Article(**{"article_id": "A", "title": "t", "abstract": "x", field: bad})
        with pytest.raises(DatasetError, match=f"cannot write {field} "):
            write_metadata([article], io.StringIO())
