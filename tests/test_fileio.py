"""CSV readers and writers: round trips and error reporting."""

import codecs
import csv
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perc import Clustering, GoldClustering, UncertainGraph, VoteTally
from perc.harness import MetricsSnapshot
import perc.fileio
from perc.cli import main, read_config_file
from perc.fileio import (
    load_graph,
    read_clusters_csv,
    read_gold_csv,
    read_records_csv,
    read_votes_csv,
    write_clusters_csv,
    write_curve_csv,
    write_gold_csv,
    write_records_csv,
    write_votes_csv,
)

from conftest import read_curve_csv


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(path, ["b", "a", "c"])
        assert read_records_csv(path) == ["b", "a", "c"]
        assert path.read_bytes() == b"record_id\r\nb\r\na\r\nc\r\n"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong\nx\n")
        with pytest.raises(ValueError, match="record_id"):
            read_records_csv(path)

    def test_rejects_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("record_id\n")
        with pytest.raises(ValueError, match="no records"):
            read_records_csv(path)


class TestVotesCsv:
    def test_round_trip_keeps_order(self, tmp_path):
        path = tmp_path / "votes.csv"
        rows = [(("b", "c"), VoteTally(3, 5)), (("a", "b"), VoteTally(5, 5))]
        write_votes_csv(path, rows)
        assert read_votes_csv(path) == rows

    def test_canonicalizes_pairs(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("record_a,record_b,yes,total\nz,a,2,5\n")
        assert read_votes_csv(path) == [(("a", "z"), VoteTally(2, 5))]

    def test_error_names_line_and_pair(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("record_a,record_b,yes,total\na,b,9,5\n")
        with pytest.raises(ValueError, match=r"votes\.csv:2"):
            read_votes_csv(path)
        path.write_text("record_a,record_b,yes,total\na,b,1\n")
        with pytest.raises(ValueError, match="4 columns"):
            read_votes_csv(path)


class TestGoldCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gold.csv"
        gold = GoldClustering({"a": "x", "b": "x", "c": "y"})
        write_gold_csv(path, gold)
        back = read_gold_csv(path)
        assert back.entity == gold.entity
        assert all(back.difficulty[r] == 1.0 for r in back.entity)

    def test_optional_difficulty_column(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("record_id,entity_id,difficulty\na,x,2.5\nb,x,\nc,y,1.0\n")
        gold = read_gold_csv(path)
        assert gold.difficulty == {"a": 2.5, "b": 1.0, "c": 1.0}

    def test_rejects_duplicate_record(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("record_id,entity_id\na,x\na,y\n")
        with pytest.raises(ValueError, match="listed twice"):
            read_gold_csv(path)

    @pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf", "-inf"])
    def test_rejects_bad_difficulty_with_line(self, tmp_path, value):
        path = tmp_path / "gold.csv"
        path.write_text(f"record_id,entity_id,difficulty\na,x,1.0\nb,x,{value}\n")
        with pytest.raises(ValueError, match=rf"gold\.csv:3: difficulty for 'b'"):
            read_gold_csv(path)

    def test_rejects_unknown_extra_column(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("record_id,entity_id,mystery\na,x,1\n")
        with pytest.raises(ValueError, match="mystery"):
            read_gold_csv(path)

    @pytest.mark.parametrize("header, row, expected", [
        ("record_id,entity_id", "b,x,2.0", "expected 2 columns, got 3"),
        ("record_id,entity_id,difficulty", "b,x,2.0,9", "expected 2 or 3 columns, got 4"),
        ("record_id,entity_id,difficulty", "b", "expected 2 or 3 columns, got 1"),
    ])
    def test_rejects_row_of_wrong_width_with_line(self, tmp_path, header, row, expected):
        path = tmp_path / "gold.csv"
        path.write_text(f"{header}\na,x\n{row}\n")
        with pytest.raises(ValueError, match=rf"gold\.csv:3: {expected}$"):
            read_gold_csv(path)

    def test_rejects_repeated_difficulty_column(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("record_id,entity_id,difficulty,difficulty\na,x,1,2\n")
        with pytest.raises(ValueError, match="unexpected column 'difficulty'"):
            read_gold_csv(path)

    def test_rejects_empty_body(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("record_id,entity_id\n")
        with pytest.raises(ValueError, match="gold.csv: no records"):
            read_gold_csv(path)


class TestClustersCsv:
    def test_round_trip_and_block_ids(self, tmp_path):
        path = tmp_path / "clusters.csv"
        clustering = Clustering([["d"], ["b", "a", "c"]])
        write_clusters_csv(path, clustering)
        assert path.read_bytes() == (
            b"record_id,cluster_id\r\na,a\r\nb,a\r\nc,a\r\nd,d\r\n")
        assert read_clusters_csv(path) == clustering

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "clusters.csv"
        path.write_text("record_id,cluster_id\n")
        with pytest.raises(ValueError, match="no cluster"):
            read_clusters_csv(path)

    def test_rejects_row_wider_than_header_with_line(self, tmp_path):
        path = tmp_path / "clusters.csv"
        path.write_text("record_id,cluster_id\na,a\nb,a,c\n")
        with pytest.raises(ValueError, match=r"clusters\.csv:3: expected 2 columns, got 3$"):
            read_clusters_csv(path)


class TestCurveCsv:
    def test_round_trip_exact_floats(self, tmp_path):
        path = tmp_path / "curve.csv"
        curve = [
            MetricsSnapshot(3, 1 / 3, 0.5, 0.4, -0.19818076296069148, 2),
            MetricsSnapshot(7, 1.0, 1.0, 1.0, 0.0, 4),
        ]
        write_curve_csv(path, curve)
        assert read_curve_csv(path) == curve

    def test_nan_quality_round_trips(self, tmp_path):
        import math
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [MetricsSnapshot(1, float("nan"), float("nan"),
                                               float("nan"), -1.0, 2)])
        back = read_curve_csv(path)[0]
        assert math.isnan(back.f1)
        assert back.reliability == -1.0


class TestLoadGraph:
    def test_combines_records_and_votes(self, tmp_path):
        write_records_csv(tmp_path / "records.csv", ["a", "b", "c"])
        write_votes_csv(tmp_path / "votes.csv",
                        [(("a", "b"), VoteTally(4, 5))])
        g = load_graph(tmp_path / "records.csv", tmp_path / "votes.csv")
        assert g.records == ("a", "b", "c")
        assert g.edges == {("a", "b"): 0.8}

    def test_rejects_vote_for_undeclared_record(self, tmp_path):
        write_records_csv(tmp_path / "records.csv", ["a", "b"])
        write_votes_csv(tmp_path / "votes.csv",
                        [(("a", "z"), VoteTally(1, 5))])
        with pytest.raises(ValueError):
            load_graph(tmp_path / "records.csv", tmp_path / "votes.csv")


# rows over ten records in either order, each with a tally of up to 7 votes
VOTE_FILES = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(1, 7), st.integers(0, 7)),
    max_size=40)


@settings(max_examples=60, deadline=None)
@given(rows=VOTE_FILES)
def test_load_graph_equals_ingesting_read_votes(tmp_path_factory, rows):
    """load_graph's one pass builds the edges dict with_edges builds from
    read_votes_csv: the same keys in the same order, bit-equal fractions."""
    d = tmp_path_factory.mktemp("votes")
    records = [f"r{i}" for i in range(10)]
    votes, seen = [], set()
    for i, j, total, yes in rows:
        pair = (records[i], records[j])
        if i != j and frozenset(pair) not in seen:
            seen.add(frozenset(pair))
            votes.append((pair, VoteTally(min(yes, total), total)))
    write_records_csv(d / "records.csv", records[::-1])
    # rows as written, not canonicalized, so the readers canonicalize them
    (d / "votes.csv").write_text("record_a,record_b,yes,total\n" + "".join(
        f"{a},{b},{t.yes},{t.total}\n" for (a, b), t in votes))
    loaded = load_graph(d / "records.csv", d / "votes.csv")
    ingested = UncertainGraph(records).with_edges(read_votes_csv(d / "votes.csv", records))
    assert loaded.records == ingested.records
    assert [(pair, p.hex()) for pair, p in loaded.edges.items()] == \
        [(pair, p.hex()) for pair, p in ingested.edges.items()]


class TestLoadGraphErrors:
    """Each malformed row the readers' tests use is rejected by load_graph
    and by perc next and perc cluster, with the reader's text, exit 1."""

    @pytest.mark.parametrize("records, votes, message", [
        (b"record_id\na\nb\nc\nd\n", b"a,b,9,5\n",
         "{votes}:2: bad tally for pair (a, b): yes=9 outside 0..5"),
        (b"record_id\na\nb\nc\nd\n", b"a,b,0,0\n",
         "{votes}:2: bad tally for pair (a, b): vote tally needs at least one vote, "
         "got total=0"),
        (b"record_id\na\nb\nc\nd\n", b"a,b,1\n", "{votes}:2: expected 4 columns, got 3"),
        (b"record_id\na\nb\nc\nd\n", b"c,d,1,5\nc,d,1,5\n",
         "{votes}:3: pair ('c', 'd') already listed on line 2"),
        (b"record_id\na\nb\nc\nd\n", b'a,"b\nx",3,5\nc,d,1,5\nc,d,1,5\n',
         "{votes}:3: record 'b\\nx' in pair ('a', 'b\\nx') is not declared in {records}"),
        (b"record_id\na\nb\nc\nd\n", b"c,c,1,5\n",
         "{votes}:2: pair ('c', 'c') is a self-loop, records must differ"),
        (b"record_id\na\nb\nc\nd\n", b"a,z,1,5\n",
         "{votes}:2: record 'z' in pair ('a', 'z') is not declared in {records}"),
        (b"record_id\na\nb\nc\nd\n", b'a,"b\nc",1,5\nc,d\xe9,1,5\n',
         "{votes}:4: not UTF-8 text"),
        (b"wrong\nx\n", b"", "{records}:1: expected header record_id, got wrong"),
        (b"", b"", "{records}: expected header record_id, got an empty file"),
        (b"\nrecord_id\na\n", b"", "{records}:1: expected header record_id, got an empty line"),
        (b"record_id\n", b"", "{records}: no records listed"),
        (b'record_id\na,"x\ny"\nb\n', b"", "{records}:3: expected 1 column, got 2"),
        (b"record_id\na\nb\xe9\n", b"", "{records}:3: not UTF-8 text"),
    ], ids=["tally-above-total", "no-votes", "short-row", "duplicate-pair",
            "multiline-undeclared", "self-loop", "undeclared-record", "votes-not-utf8",
            "records-header", "records-no-header", "records-blank-header", "records-empty",
            "records-multiline", "records-not-utf8"])
    def test_rejected_with_the_readers_text(self, tmp_path, capsys, records, votes,
                                            message):
        records_path, votes_path = tmp_path / "records.csv", tmp_path / "votes.csv"
        records_path.write_bytes(records)
        votes_path.write_bytes(b"record_a,record_b,yes,total\n" + votes)
        expected = message.format(records=records_path, votes=votes_path)
        with pytest.raises(ValueError) as exc:
            load_graph(records_path, votes_path)
        assert str(exc.value) == expected
        if message.startswith("{votes}"):
            with pytest.raises(ValueError) as exc:
                read_votes_csv(votes_path, read_records_csv(records_path), records_path)
            assert str(exc.value) == expected
        for command in ("next", "cluster"):
            code = main([command, "--graph", str(votes_path), "--records", str(records_path)])
            assert code == 1
            assert capsys.readouterr() == ("", f"error: {expected}\n")


class TestPhysicalLines:
    """Errors cite the line a row ends on, also after a quoted field that
    spans two lines (rows 2-3 below)."""

    @pytest.mark.parametrize("reader, text, message", [
        (read_records_csv, 'record_id\na,"x\ny"\nb\n', "3: expected 1 column, got 2"),
        (read_votes_csv, 'record_a,record_b,yes,total\na,"b\nx",3,5\nc,d,1,5\nc,d,1,5\n',
         "5: pair ('c', 'd') already listed on line 4"),
        (read_gold_csv, 'record_id,entity_id\na,"x\ny"\nb,x\nb,x\n',
         "5: record 'b' listed twice"),
        (read_clusters_csv, 'record_id,cluster_id\na,"x\ny"\nb,x\nb,x\n',
         "5: record 'b' listed twice"),
    ], ids=["records", "votes", "gold", "clusters"])
    def test_error_line_follows_multiline_field(self, tmp_path, reader, text, message):
        path = tmp_path / "file.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}:{message}"


class TestNotUtf8:
    """A byte that is not UTF-8 is named with the physical line it is on,
    which runs ahead of the row count after a field that spans lines."""

    @pytest.mark.parametrize("reader, data, line", [
        (read_records_csv, b"record_id\na\nb\xe9\n", 3),
        (read_records_csv, b"\xef\xbb\xbfrecord_id\na\nb\xe9\n", 3),
        (read_votes_csv, b'record_a,record_b,yes,total\na,"b\nc",1,5\nc,d\xe9,1,5\n', 4),
        (read_gold_csv, b"record_id,entity_id\na,x\nb,\xe9\n", 3),
        (read_clusters_csv, b"record_id,cluster_id\r\na,a\r\n\xffb,a\r\n", 3),
        (read_curve_csv, b"questions_asked,precision,recall,f1,reliability,blocks\n"
                         b"0,0.0,0.0,0.0,-1.0,2\n\xe9", 3),
    ], ids=["records", "records-after-a-mark", "votes", "gold", "clusters", "curve"])
    def test_bad_byte_names_file_and_line(self, tmp_path, reader, data, line):
        path = tmp_path / "file.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}:{line}: not UTF-8 text"


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet exports write, is
    dropped: every file reads the same with and without it."""

    READERS = {
        "records": ("records.csv", lambda d: read_records_csv(d / "records.csv")),
        "votes": ("votes.csv", lambda d: read_votes_csv(d / "votes.csv", ["a", "b", "c"])),
        "graph": ("votes.csv", lambda d: list(load_graph(d / "records.csv",
                                                          d / "votes.csv").edges.items())),
        "gold": ("gold.csv", lambda d: read_gold_csv(d / "gold.csv").entity),
        "clusters": ("clusters.csv", lambda d: read_clusters_csv(d / "clusters.csv")),
        "config": ("run.cfg", lambda d: read_config_file(d / "run.cfg")),
    }

    # records and votes files may take the plain-row path or csv.reader's
    @pytest.mark.parametrize("reader, checked", [
        ("records", False), ("records", True), ("votes", False), ("votes", True),
        ("graph", False), ("graph", True), ("gold", True), ("clusters", True),
        ("config", True),
    ], ids=["records-plain", "records-checked", "votes-plain", "votes-checked", "graph-plain",
            "graph-checked", "gold", "clusters", "config"])
    def test_file_reads_the_same_with_the_mark(self, tmp_path, reader, checked):
        write_records_csv(tmp_path / "records.csv", ["a", "b", "c"])
        write_votes_csv(tmp_path / "votes.csv", [(("a", "b"), VoteTally(2, 3)),
                                                 (("b", "c"), VoteTally(0, 3))])
        write_gold_csv(tmp_path / "gold.csv", GoldClustering({"a": "x", "b": "x", "c": "y"}))
        write_clusters_csv(tmp_path / "clusters.csv", Clustering([["a", "b"], ["c"]]))
        (tmp_path / "run.cfg").write_text("budget = 12  # comment\nseed = 4\n")
        name, read = self.READERS[reader]
        with mock.patch.object(perc.fileio, "_plain_split",
                               (lambda *args: None) if checked else perc.fileio._plain_split):
            without = read(tmp_path)
            path = tmp_path / name
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
            assert read(tmp_path) == without


PLAIN_IDS = ["r0", "r1", "r2", "r3"]
# ids no file declares, or that csv.reader reads apart from str.splitlines
# (\x0b, \x1c, U+2028), with a CR that ends no line, quoted, empty or with a BOM
ODD_IDS = st.sampled_from(["r9", "r1\x0br2", "r2\x1c", "r3\u2028", "r0\rr3", '"r1"', '"r,2"',
                           "", "\ufeffr0"])
# (yes, total) out of bounds, zero-padded, of 5,000 digits, or that int()
# reads though they are not ASCII digits
ODD_TALLIES = st.sampled_from([("6", "5"), ("0", "0"), ("3", "007"), ("0" * 4999 + "3", "5"),
                               ("9" * 5000, "9" * 5000), ("+3", "5"), (" 4", "5"), ("", "5")])
ROW_ENDS = st.sampled_from(["\n", "\r\n"])


def mostly(plain, odd):
    """plain about four times in five, odd otherwise."""
    return st.sampled_from([plain] * 4 + [odd]).flatmap(lambda chosen: chosen)


ANY_ID = st.sampled_from(PLAIN_IDS) | ODD_IDS
VOTE_ROWS = st.tuples(
    # two declared records in either order, or any two ids
    mostly(st.permutations(PLAIN_IDS).map(lambda ids: ids[:2]), st.tuples(ANY_ID, ANY_ID)),
    # yes and total within bounds, or any two counts
    mostly(st.integers(1, 7).flatmap(lambda t: st.tuples(st.integers(0, t), st.just(t)))
           .map(lambda tally: tuple(map(str, tally))),
           ODD_TALLIES),
).map(lambda row: [*row[0], *row[1]])


def csv_text(header, rows, ends, blank_at, final_end, bom):
    """The header and rows, each line ended by its entry in ends, with a
    blank line after row blank_at (if not None), the last line end only if
    final_end, and a BOM first if bom."""
    lines = [",".join(row) + end for row, end in zip([header, *rows], ends)]
    if blank_at is not None:
        lines.insert(blank_at + 1, ends[0])
    text = ("\ufeff" if bom else "") + "".join(lines)
    return text if final_end else text.rstrip("\r\n")


def csv_file(header, rows):
    """Files of the header and rows: mixed line ends, and now and then a
    blank line, no final line end, or a BOM."""
    return st.builds(csv_text, st.just(header), st.just(rows),
                     st.lists(ROW_ENDS, min_size=len(rows) + 1, max_size=len(rows) + 1),
                     mostly(st.none(), st.integers(0, len(rows))),
                     mostly(st.just(True), st.just(False)), mostly(st.just(False), st.just(True)))


# (records text, votes text): the declared records or any list of ids, and
# vote rows on distinct pairs or on any pairs
CSV_FILES = st.tuples(
    mostly(st.permutations(PLAIN_IDS), st.lists(ANY_ID, min_size=1, max_size=6))
    .flatmap(lambda ids: csv_file(["record_id"], [[r] for r in ids])),
    mostly(st.lists(VOTE_ROWS, max_size=6, unique_by=lambda row: frozenset(row[:2])),
           st.lists(VOTE_ROWS, max_size=6))
    .flatmap(lambda rows: csv_file(["record_a", "record_b", "yes", "total"], rows)))


def outcomes(records_path, votes_path):
    """What each reader makes of the two files: the graph with exact float
    bits and key order, the rows, or the error text."""
    out = []
    for read in (lambda: read_records_csv(records_path),
                 lambda: read_votes_csv(votes_path),
                 lambda: read_votes_csv(votes_path, read_records_csv(records_path),
                                        records_path),
                 lambda: [(pair, p.hex()) for pair, p
                          in load_graph(records_path, votes_path).edges.items()],
                 lambda: load_graph(records_path, votes_path).records):
        try:
            out.append(read())
        except ValueError as exc:
            out.append(f"error: {exc}")
    return out


@settings(max_examples=400, deadline=None)
@given(files=CSV_FILES)
def test_plain_path_agrees_with_the_checked_reader(tmp_path_factory, files):
    """Every records and votes file gives the same ids, rows and graph, or
    the same error text, whether or not the plain-row path may take it."""
    d = tmp_path_factory.mktemp("plain")
    records_path, votes_path = d / "records.csv", d / "votes.csv"
    records_path.write_text(files[0], encoding="utf-8", newline="")
    votes_path.write_text(files[1], encoding="utf-8", newline="")
    with mock.patch.object(perc.fileio, "_plain_split", lambda *args: None):
        checked = outcomes(records_path, votes_path)
    assert outcomes(records_path, votes_path) == checked


@pytest.mark.parametrize("rows, error", [
    ("a,b,1,2,3\nx,7,9\n", "2: expected 4 columns, got 5"),
    ("a,b,1,2\nc,d,3,4,x,e,f,5,6\n", "3: expected 4 columns, got 9"),
], ids=["cell-count-right", "line-ends-aligned"])
def test_ragged_rows_agree_with_the_checked_reader(tmp_path, rows, error):
    """Rows of the wrong width whose cells, read as one stream, fill the
    columns with ids and counts that pass every other check: a long row and
    a short one that make the right cell count, or a row three rows wide
    whose line ends fall where the last column's would."""
    records_path, votes_path = tmp_path / "records.csv", tmp_path / "votes.csv"
    write_records_csv(records_path, list("abcdefx"))
    votes_path.write_text("record_a,record_b,yes,total\n" + rows)
    with mock.patch.object(perc.fileio, "_plain_split", lambda *args: None):
        checked = outcomes(records_path, votes_path)
    assert outcomes(records_path, votes_path) == checked
    assert checked[1] == f"error: {votes_path}:{error}"


def test_written_files_take_the_plain_path(tmp_path):
    """The files perc writes, CRLF line ends and all, never reach csv.reader."""
    write_records_csv(tmp_path / "records.csv", ["b", "a", "c"])
    write_votes_csv(tmp_path / "votes.csv", [(("c", "a"), VoteTally(0, 3)),
                                             (("a", "b"), VoteTally(3, 3))])
    with mock.patch.object(perc.fileio.csv, "reader", None):
        graph = load_graph(tmp_path / "records.csv", tmp_path / "votes.csv")
    assert graph.records == ("a", "b", "c")
    assert list(graph.edges.items()) == [(("a", "c"), 0.0), (("a", "b"), 1.0)]


@pytest.mark.parametrize("checked", [False, True], ids=["plain", "checked"])
@pytest.mark.parametrize("name", ["records.csv", "votes.csv"])
def test_id_over_the_field_limit_is_refused_on_both_paths(tmp_path, name, checked):
    """An id one character longer than csv.field_size_limit() on line 2 is
    refused with csv.reader's words by every reader of its file, whether or
    not the plain-row path may take it."""
    limit = csv.field_size_limit()
    long_id = "r" * (limit + 1)
    write_records_csv(tmp_path / "records.csv", ["a", "b"])
    write_votes_csv(tmp_path / "votes.csv", [(("a", "b"), VoteTally(1, 2))])
    path = tmp_path / name
    text = path.read_text()
    path.write_text(text.replace("\na", f"\n{long_id}", 1))
    records, votes = tmp_path / "records.csv", tmp_path / "votes.csv"
    readers = ([lambda: read_records_csv(records), lambda: load_graph(records, votes)]
               if name == "records.csv" else
               [lambda: read_votes_csv(votes), lambda: load_graph(records, votes),
                lambda: read_votes_csv(votes, ["a", "b"], records)])
    with mock.patch.object(perc.fileio, "_plain_split",
                           (lambda *args: None) if checked else perc.fileio._plain_split):
        for read in readers:
            with pytest.raises(ValueError) as exc:
                read()
            assert str(exc.value) == f"{path}:2: field larger than field limit ({limit})"
