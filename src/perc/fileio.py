"""CSV interchange formats.

All files are UTF-8 comma-separated with a header row and no NUL byte.
Record ids may not contain commas or newlines (enforced by the readers, and
by UncertainGraph for ids given in code), so no quoting is ever needed.
Floats are written with repr, which round-trips exactly and keeps reruns
byte-identical.  A records.csv or votes.csv of plain rows only is split
into columns in one pass and checked a column at a time; any other file
goes to the csv.reader path, the only one that words errors, so each reads
the same.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import math
import re
from operator import eq, truediv

from .crowd import GoldClustering
from .graph import Clustering, Pair, UncertainGraph, VoteTally, _check_record_id
from .harness import MetricsSnapshot
from .util import canonical_pair

VOTES_HEADER = ["record_a", "record_b", "yes", "total"]
RECORDS_HEADER = ["record_id"]
CLUSTERS_HEADER = ["record_id", "cluster_id"]
GOLD_HEADER = ["record_id", "entity_id"]
CURVE_HEADER = ["questions_asked", "precision", "recall", "f1", "reliability", "blocks"]

# a number >= 0 in ASCII digits, with an optional fraction and exponent
_PLAIN_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def read_text(path) -> str:
    """The file as UTF-8 text, less a leading byte-order mark (as
    spreadsheet exports write); a byte that is not UTF-8, or a NUL byte, is
    reported with the physical line it is on.  A path that cannot be read
    raises an OSError that names it, as open()'s do, worded alike for a str
    and a Path."""
    try:
        with open(path, "rb", buffering=0) as fh:  # one read: no buffer to fill
            # cut before decoding, as "utf-8-sig" would, but so that error
            # offsets still count from the file's first byte
            data = fh.read().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        if exc.filename is None:  # a read that fails after open()
            exc.filename = str(path)
        raise
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at, problem = exc.start, "not UTF-8 text"
    else:
        at, problem = data.find(b"\0"), "NUL byte"
        if at < 0:
            return text
    line = data.count(b"\n", 0, at) + 1
    raise ValueError(f"{path}:{line}: {problem}") from None


def _plain_split(text: str, header: list[str]) -> list[list[str]] | None:
    """Each column's cells below the header, if text is the header and then
    rows of its width, each ended by LF or CRLF, that csv.reader reads as
    they stand: no quote, stray CR or field over csv.field_size_limit()."""
    text = text.replace("\r\n", "\n")
    head, stride = ",".join(header) + "\n", len(header) + 1
    if not text.startswith(head) or not text.endswith("\n") or '"' in text or "\r" in text:
        return None
    # each line end becomes a cell of its own: every stride-th cell, unless a row is ragged
    rows, cells = text.count("\n") - 1, text[len(head):].replace("\n", ",\n,").split(",")
    limit = csv.field_size_limit()
    if (len(cells) != rows * stride + 1 or cells[stride - 1::stride].count("\n") != rows
            or len(text) > limit and max(map(len, cells)) > limit):
        return None
    return [cells[i:-1:stride] for i in range(stride - 1)]


def _csv_rows(text: str, path, header: list[str], optional_tail=()):
    """(line, row) for each non-empty row below the header of a CSV text.
    The header must start with ``header``, and each column after those must
    be one of optional_tail, listed once; a row has the header's width, and
    may leave off the optional columns.  The line is the physical line the
    row ends on; after a quoted field that spans lines it runs ahead of the
    row count."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        row = next(reader, None)
        if row is None:
            raise ValueError(f"{path}: expected header {','.join(header)}, got an empty file")
        if row[:len(header)] != header:
            raise ValueError(f"{path}:{reader.line_num}: expected header {','.join(header)}, "
                             f"got {','.join(row) or 'an empty line'}")
        extra = row[len(header):]
        for col in extra:
            if col not in optional_tail or extra.count(col) > 1:
                raise ValueError(f"{path}:{reader.line_num}: unexpected column {col!r}")
        width, optional = len(row), len(extra)
        for row in reader:
            if row:
                if not width - optional <= len(row) <= width:
                    expected = (f"{width - optional} or {width} columns" if optional
                                else f"{width} column{'s' * (width > 1)}")
                    raise ValueError(f"{path}:{reader.line_num}: expected {expected}, "
                                     f"got {len(row)}")
                yield reader.line_num, row
    except csv.Error as exc:
        # csv.reader's own error, such as a field over csv.field_size_limit()
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _write_csv(path, header: list[str], rows) -> None:
    """The header and rows, CRLF-ended, to the file at ``path`` or to an open
    text stream.  A write to the file that fails (a full disk) raises an
    OSError that names ``path``, as open()'s errors do."""
    try:
        with (contextlib.nullcontext(path) if hasattr(path, "write")
              else open(path, "w", newline="", encoding="utf-8")) as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        if exc.filename is None and not hasattr(path, "write"):
            exc.filename = str(path)
        raise


def _record_id(row, path, lineno, seen) -> str:
    """The row's record id, valid and not listed on an earlier row."""
    try:
        rid = _check_record_id(row[0])
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    if rid in seen:
        raise ValueError(f"{path}:{lineno}: record {rid!r} listed twice")
    return rid


def read_records_csv(path) -> list[str]:
    """record_id per row; returns ids in file order, each checked once."""
    text = read_text(path)
    (ids,) = _plain_split(text, RECORDS_HEADER) or [[]]
    if ids and "" not in ids and len(set(ids)) == len(ids):
        return ids
    seen: dict[str, None] = {}  # in file order
    for lineno, row in _csv_rows(text, path, RECORDS_HEADER):
        seen[_record_id(row, path, lineno, seen)] = None
    if not seen:
        raise ValueError(f"{path}: no records listed")
    return list(seen)


def write_records_csv(path, records) -> None:
    _write_csv(path, RECORDS_HEADER, ([r] for r in records))


class _Tallies(dict):
    """tally(yes, total) by a vote row's (yes, total) cells, made on the first
    lookup of each; ValueError unless both are ASCII digits, total >= 1 and yes <= total."""

    def __init__(self, tally):
        self.tally = tally

    def __missing__(self, key):
        yes, total = key
        if not (yes.isdigit() and total.isdigit() and yes.isascii() and total.isascii()):
            raise ValueError(f"yes and total must be ASCII digits, got {yes!r} and {total!r}")
        yes, total = int(yes), int(total)
        if not 0 <= yes <= total or total < 1:
            VoteTally(yes=yes, total=total)  # raises with the bound it breaks
        value = self[key] = self.tally(yes, total)
        return value


def _vote_edges(path, records, records_path, tally) -> dict:
    """Each vote row's canonical pair with tally(yes, total), in file order,
    once every row passes the checks read_votes_csv makes given records."""
    text, tallies = read_text(path), _Tallies(tally)
    declared = None if records is None else set(records)
    plain = _plain_split(text, VOTES_HEADER)
    if plain is not None:
        firsts, seconds, yes, total = plain
        try:
            values = list(map(tallies.__getitem__, zip(yes, total)))
        except ValueError:
            values = None
        if (values is not None and not any(map(eq, firsts, seconds)) and (
                declared is None or declared.issuperset(firsts) and declared.issuperset(seconds))):
            pairs = [(a, b) if a < b else (b, a) for a, b in zip(firsts, seconds)]
            edges = dict(zip(pairs, values))
            if len(edges) == len(pairs):
                return edges
    # the checked path: row by row, naming the line of the first bad row
    edges = {}
    seen: dict[Pair, int] = {}
    for lineno, (a, b, yes, total) in _csv_rows(text, path, VOTES_HEADER):
        try:
            value = tallies[yes, total]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad tally for pair ({a}, {b}): {exc}") from exc
        try:
            pair = canonical_pair(a, b)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if pair in seen:
            raise ValueError(f"{path}:{lineno}: pair {pair} already listed "
                             f"on line {seen[pair]}")
        seen[pair] = lineno
        for r in () if declared is None else pair:
            if r not in declared:
                raise ValueError(f"{path}:{lineno}: record {r!r} in pair {pair} "
                                 f"is not declared in {records_path}")
        edges[pair] = value
    return edges


def read_votes_csv(path, records=None, records_path=None) -> list[tuple[Pair, VoteTally]]:
    """Vote rows in file order, pairs canonicalized, for replay; self-loops
    and a pair listed twice are rejected with the line.  Given ``records``,
    the ids read from records_path, so is a vote naming any other record.
    load_graph reads the rows through the same checks."""
    return list(_vote_edges(path, records, records_path, VoteTally).items())


def write_votes_csv(path, rows) -> None:
    _write_csv(path, VOTES_HEADER, ([a, b, tally.yes, tally.total] for (a, b), tally in rows))


def read_gold_csv(path, records=None, records_path=None) -> GoldClustering:
    """record_id,entity_id with an optional difficulty column.  Given
    ``records``, the ids read from records_path, the rows must list exactly
    those records."""
    declared = None if records is None else set(records)
    entity: dict[str, str] = {}
    difficulty: dict[str, float] = {}
    for lineno, row in _csv_rows(read_text(path), path, GOLD_HEADER, ("difficulty",)):
        rid = _record_id(row, path, lineno, entity)
        if declared is not None and rid not in declared:
            raise ValueError(f"{path}:{lineno}: record {rid!r} is not declared "
                             f"in {records_path}")
        entity[rid] = row[1]
        if len(row) > 2 and row[2] != "":
            # float() would also take signs, spaces, "_", nan and non-ASCII digits
            if not _PLAIN_NUMBER.fullmatch(row[2]) or float(row[2]) == math.inf:
                raise ValueError(f"{path}:{lineno}: difficulty for {rid!r} must be "
                                 f"a finite number >= 0, got {row[2]!r}")
            difficulty[rid] = float(row[2])
    if not entity:
        raise ValueError(f"{path}: no records listed")
    for rid in records or ():
        if rid not in entity:
            raise ValueError(f"{path}: record {rid!r} of {records_path} has no row")
    return GoldClustering(entity, difficulty)


def write_gold_csv(path, gold: GoldClustering) -> None:
    _write_csv(path, GOLD_HEADER, ([rid, gold.entity_of(rid)] for rid in sorted(gold.records)))


def read_clusters_csv(path) -> Clustering:
    groups: dict[str, list[str]] = {}
    seen = set()
    for lineno, row in _csv_rows(read_text(path), path, CLUSTERS_HEADER):
        rid = _record_id(row, path, lineno, seen)
        seen.add(rid)
        groups.setdefault(row[1], []).append(rid)
    if not groups:
        raise ValueError(f"{path}: no cluster assignments listed")
    return Clustering(groups.values())


def write_clusters_csv(path, clustering: Clustering) -> None:
    """record_id,cluster_id rows sorted by record; a block's id is its
    minimum member.  ``path`` may be an open text stream, such as
    sys.stdout."""
    _write_csv(path, CLUSTERS_HEADER,
               sorted([r, block[0]] for block in clustering.blocks for r in block))


def write_curve_csv(path, curve: list[MetricsSnapshot]) -> None:
    _write_csv(path, CURVE_HEADER, ([snap.questions_asked, repr(snap.precision),
                                     repr(snap.recall), repr(snap.f1),
                                     repr(snap.reliability), snap.blocks] for snap in curve))


def load_graph(records_path, votes_path) -> UncertainGraph:
    """records.csv plus votes.csv into an UncertainGraph, each file read
    once: each distinct count's YES fraction, divided once, goes straight
    into the edges, in file order.  A bad row, or a vote naming an
    undeclared record, is rejected with its line as read_votes_csv rejects
    it.  Record ids are checked once, by read_records_csv."""
    records = read_records_csv(records_path)
    return UncertainGraph._from_checked(
        records, _vote_edges(votes_path, records, records_path, truediv))
