"""CSV readers and writers: round trips and error reporting."""

import pytest

from perc import Clustering, GoldClustering, MetricsSnapshot, VoteTally
from perc.fileio import (
    load_graph,
    read_clusters_csv,
    read_curve_csv,
    read_gold_csv,
    read_records_csv,
    read_votes_csv,
    write_clusters_csv,
    write_curve_csv,
    write_gold_csv,
    write_records_csv,
    write_votes_csv,
)


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

    @pytest.mark.parametrize("value", ["abc", "-1", "nan"])
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
        assert g.probability("a", "b") == 0.8
        assert not g.has_edge("a", "c")

    def test_rejects_vote_for_undeclared_record(self, tmp_path):
        write_records_csv(tmp_path / "records.csv", ["a", "b"])
        write_votes_csv(tmp_path / "votes.csv",
                        [(("a", "z"), VoteTally(1, 5))])
        with pytest.raises(ValueError):
            load_graph(tmp_path / "records.csv", tmp_path / "votes.csv")
