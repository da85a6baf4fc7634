"""CSV interchange formats.

All files are UTF-8 comma-separated with a header row.  Record ids may not
contain commas or newlines (enforced by the readers and at graph
construction), so no quoting is ever needed.  Floats are written with repr,
which round-trips exactly and keeps reruns byte-identical.
"""

from __future__ import annotations

import csv
import math

from .crowd import GoldClustering
from .graph import (Clustering, Pair, UncertainGraph, VoteTally, _check_record_id,
                    ingest_votes)
from .harness import MetricsSnapshot
from .util import canonical_pair

VOTES_HEADER = ["record_a", "record_b", "yes", "total"]
RECORDS_HEADER = ["record_id"]
CLUSTERS_HEADER = ["record_id", "cluster_id"]
GOLD_HEADER = ["record_id", "entity_id"]
CURVE_HEADER = ["questions_asked", "precision", "recall", "f1", "reliability", "blocks"]


def _open_reader(path):
    return open(path, newline="", encoding="utf-8")


def _rows(reader, path, width: int, optional: int = 0):
    """(line, row) for each non-empty row after the header.  The line is
    the physical line the row ends on; after a quoted field that spans
    lines it runs ahead of the row count.  A row must have width columns,
    of which the last ``optional`` may be left off."""
    for row in reader:
        if row:
            if not width - optional <= len(row) <= width:
                expected = (f"{width - optional} or {width} columns" if optional
                            else f"{width} column{'s' * (width > 1)}")
                raise ValueError(f"{path}:{reader.line_num}: expected {expected}, "
                                 f"got {len(row)}")
            yield reader.line_num, row


def _check_header(row, expected, path, optional_tail=()):
    if row is None or row[:len(expected)] != expected:
        raise ValueError(f"{path}: expected header {','.join(expected)}, got "
                         f"{','.join(row) if row else 'an empty file'}")
    extra = row[len(expected):]
    for col in extra:
        if col not in optional_tail or extra.count(col) > 1:
            raise ValueError(f"{path}: unexpected column {col!r}")
    return extra


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
    """record_id per row; returns ids in file order."""
    with _open_reader(path) as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), RECORDS_HEADER, path)
        out = []
        seen = set()
        for lineno, row in _rows(reader, path, len(RECORDS_HEADER)):
            rid = _record_id(row, path, lineno, seen)
            seen.add(rid)
            out.append(rid)
    if not out:
        raise ValueError(f"{path}: no records listed")
    return out


def write_records_csv(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORDS_HEADER)
        for r in records:
            writer.writerow([r])


def read_votes_csv(path, records=None, records_path=None) -> list[tuple[Pair, VoteTally]]:
    """Vote rows in file order, pairs canonicalized; self-loops and a pair
    listed twice are rejected with the line.  Given ``records``, the ids
    read from records_path, so is a vote naming any other record."""
    declared = None if records is None else set(records)
    seen: dict[Pair, int] = {}
    rows = []
    with _open_reader(path) as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), VOTES_HEADER, path)
        for lineno, row in _rows(reader, path, len(VOTES_HEADER)):
            a, b, yes, total = row
            try:
                tally = VoteTally(yes=int(yes), total=int(total))
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
            if declared is not None:
                for r in pair:
                    if r not in declared:
                        raise ValueError(f"{path}:{lineno}: record {r!r} in pair {pair} "
                                         f"is not declared in {records_path}")
            rows.append((pair, tally))
    return rows


def write_votes_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(VOTES_HEADER)
        for (a, b), tally in rows:
            writer.writerow([a, b, tally.yes, tally.total])


def read_gold_csv(path) -> GoldClustering:
    """record_id,entity_id with an optional difficulty column."""
    entity: dict[str, str] = {}
    difficulty: dict[str, float] = {}
    with _open_reader(path) as fh:
        reader = csv.reader(fh)
        extra = _check_header(next(reader, None), GOLD_HEADER, path,
                              optional_tail=("difficulty",))
        for lineno, row in _rows(reader, path, len(GOLD_HEADER) + len(extra), len(extra)):
            rid = _record_id(row, path, lineno, entity)
            entity[rid] = row[1]
            if len(row) > 2 and row[2] != "":
                try:
                    difficulty[rid] = float(row[2])
                    if not 0 <= difficulty[rid] < math.inf:  # also rejects nan
                        raise ValueError
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: difficulty for {rid!r} must be "
                                     f"a finite number >= 0, got {row[2]!r}") from None
    if not entity:
        raise ValueError(f"{path}: no records listed")
    return GoldClustering(entity, difficulty)


def write_gold_csv(path, gold: GoldClustering) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(GOLD_HEADER)
        for rid in sorted(gold.records):
            writer.writerow([rid, gold.entity_of(rid)])


def read_clusters_csv(path) -> Clustering:
    groups: dict[str, list[str]] = {}
    seen = set()
    with _open_reader(path) as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), CLUSTERS_HEADER, path)
        for lineno, row in _rows(reader, path, len(CLUSTERS_HEADER)):
            rid = _record_id(row, path, lineno, seen)
            seen.add(rid)
            groups.setdefault(row[1], []).append(rid)
    if not groups:
        raise ValueError(f"{path}: no cluster assignments listed")
    return Clustering(groups.values())


def write_clusters_csv(path, clustering: Clustering) -> None:
    """record_id,cluster_id rows sorted by record; a block's id is its
    minimum member."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CLUSTERS_HEADER)
        rows = []
        for block in clustering.blocks:
            for r in block:
                rows.append([r, block[0]])
        rows.sort()
        writer.writerows(rows)


def write_curve_csv(path, curve: list[MetricsSnapshot]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_HEADER)
        for snap in curve:
            writer.writerow([snap.questions_asked, repr(snap.precision),
                             repr(snap.recall), repr(snap.f1),
                             repr(snap.reliability), snap.blocks])


def read_curve_csv(path) -> list[MetricsSnapshot]:
    out = []
    with _open_reader(path) as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), CURVE_HEADER, path)
        for _, row in _rows(reader, path, len(CURVE_HEADER)):
            out.append(MetricsSnapshot(questions_asked=int(row[0]),
                                       precision=float(row[1]), recall=float(row[2]),
                                       f1=float(row[3]), reliability=float(row[4]),
                                       blocks=int(row[5])))
    return out


def load_graph(records_path, votes_path) -> UncertainGraph:
    """records.csv plus votes.csv into an UncertainGraph; a vote naming an
    undeclared record is rejected with its line."""
    records = read_records_csv(records_path)
    return ingest_votes(records, read_votes_csv(votes_path, records, records_path))
