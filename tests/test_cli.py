"""The perc command line: every subcommand through main(argv)."""

import contextlib
import csv
import dataclasses
import errno
import io
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perc.cli
import perc.fileio
import perc.selection
from perc import (Clustering, ExperimentConfig, GoldClustering, ReliabilityParams,
                  UncertainGraph, VoteTally)
from perc.cli import build_parser, main, read_config_file
from perc.fileio import (
    load_graph,
    read_clusters_csv,
    read_gold_csv,
    read_records_csv,
    write_clusters_csv,
    write_gold_csv,
    write_records_csv,
    write_votes_csv,
)
from perc.reliability import pair_connectivity

from conftest import EIGHT, RUNNING_BLOCKS, read_curve_csv, running_vote_rows


def child_env(**variables) -> dict:
    """os.environ plus ``variables`` for a child process that imports perc:
    src leads PYTHONPATH and the entries already there stay after it, so
    that tests/line_reach.py can trace the child."""
    path = [str(Path(perc.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **variables}


@pytest.fixture
def running_files(tmp_path):
    """records.csv and votes.csv for the eight-record example."""
    records = tmp_path / "records.csv"
    votes = tmp_path / "votes.csv"
    write_records_csv(records, list("ABCDEFGH"))
    write_votes_csv(votes, running_vote_rows())
    return records, votes


class TestSynth:
    def test_writes_world(self, tmp_path, capsys):
        out = tmp_path / "world"
        code = main(["synth", "--entities", "3", "--records", "12",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        assert "12 records" in capsys.readouterr().out
        records = read_records_csv(out / "records.csv")
        gold = read_gold_csv(out / "gold.csv")
        assert len(records) == 12
        assert len({gold.entity_of(r) for r in records}) == 3

    @pytest.mark.parametrize("entities, records, message", [
        ("5", "99999999999", "record count 99999999999 must sit in 1..100000"),
        ("99999999999", "99999999999", "record count 99999999999 must sit in 1..100000"),
        ("99999999999", "10", "entity count 99999999999 must sit in 1..10"),
    ], ids=["records", "both", "entities"])
    def test_oversized_count_exits_one(self, tmp_path, capsys, entities, records, message):
        # checked before any record name is made, so this returns at once
        out = tmp_path / "world"
        code = main(["synth", "--entities", entities, "--records", records,
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        for name in ("w1", "w2"):
            main(["synth", "--entities", "2", "--records", "8",
                  "--seed", "3", "--out", str(tmp_path / name)])
        assert (tmp_path / "w1" / "gold.csv").read_bytes() == \
            (tmp_path / "w2" / "gold.csv").read_bytes()


class TestCluster:
    def test_to_file(self, running_files, tmp_path):
        records, votes = running_files
        out = tmp_path / "clusters.csv"
        code = main(["cluster", "--graph", str(votes),
                     "--records", str(records), "--out", str(out)])
        assert code == 0
        clustering = read_clusters_csv(out)
        assert clustering.blocks == (
            ("A", "B"), ("C", "D"), ("E", "F"), ("G", "H"))

    def test_to_stdout(self, running_files, capsys):
        records, votes = running_files
        code = main(["cluster", "--graph", str(votes), "--records", str(records)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "record_id,cluster_id"
        assert "A,A" in lines and "B,A" in lines and "H,G" in lines

    def test_stdout_has_the_bytes_of_the_out_file(self, running_files, tmp_path, capsys):
        # one writer for both, so both end lines with CRLF
        records, votes = running_files
        out = tmp_path / "clusters.csv"
        argv = ["cluster", "--graph", str(votes), "--records", str(records)]
        assert main(argv) == 0 and main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
        assert out.read_bytes().startswith(b"record_id,cluster_id\r\nA,A\r\n")


class TestNext:
    def test_single_best_question(self, running_files, capsys):
        records, votes = running_files
        code = main(["next", "--graph", str(votes), "--records", str(records)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        a, b, gain = out[0].split(",")
        assert (a, b) == ("E", "H")
        assert float(gain) == pytest.approx(0.102, abs=1e-3)

    def test_batch_of_two(self, running_files, capsys):
        records, votes = running_files
        code = main(["next", "--graph", str(votes), "--records", str(records),
                     "--batch", "2"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(",")[:2] for line in out] == [["E", "H"], ["A", "D"]]

    def test_batch_above_sys_maxsize_prints_every_candidate(self, running_files, capsys):
        records, votes = running_files
        argv = ["next", "--graph", str(votes), "--records", str(records), "--batch"]
        assert main([*argv, "28"]) == 0  # 8 records: 28 pairs
        every = capsys.readouterr().out
        assert main([*argv, str(10**20)]) == 0
        assert capsys.readouterr().out == every

    @staticmethod
    def next_pricing(tmp_path, monkeypatch, *flags):
        """perc next --batch 2 on four blocks of three that no edge spans,
        each joined by two edges at p 0.8: its exit code and the blocks it
        priced.  The batch is (A, D) and (A, G), and no pair of a block
        after (A, G) can rank."""
        blocks = ["ABC", "DEF", "GHI", "JKL"]
        write_records_csv(tmp_path / "records.csv", [r for block in blocks for r in block])
        write_votes_csv(tmp_path / "votes.csv", [((a, b), VoteTally(4, 5)) for x, y, z in blocks
                                                 for a, b in ((x, y), (y, z))])
        priced = []

        def counted(graph, block, pairs, params, *intra):
            priced.append(tuple(block))
            return pair_connectivity(graph, block, pairs, params, *intra)
        monkeypatch.setattr(perc.selection, "pair_connectivity", counted)
        code = main(["next", "--graph", str(tmp_path / "votes.csv"),
                     "--records", str(tmp_path / "records.csv"), "--batch", "2", *flags])
        return code, priced

    def test_prices_only_blocks_below_the_bound(self, tmp_path, capsys, monkeypatch):
        # block ABC pops before (A, D), but its certified gain bound,
        # 3 log10 2, is below the top gain, so it waits unpriced
        code, priced = self.next_pricing(tmp_path, monkeypatch)
        assert code == 0
        assert capsys.readouterr().out == "A,D,12.0\nA,G,12.0\n"
        assert priced == []

    def test_prices_a_block_sampled_past_the_edge_limit(self, tmp_path, capsys, monkeypatch):
        # two uncertain edges above the limit of one: a sampled c can read
        # 0, and then a pair of the block reaches the top gain
        code, priced = self.next_pricing(tmp_path, monkeypatch, "--exact-edge-limit", "1")
        assert code == 0
        assert capsys.readouterr().out == "A,D,12.0\nA,G,12.0\n"
        assert priced == [("A", "B", "C")]

    def test_leaves_numpy_unloaded(self, running_files):
        # numpy is imported only to draw a stream, and a next call that
        # samples no block draws none; a fresh process shows what it loads
        records, votes = running_files
        script = ("import sys, perc, perc.cli; code = perc.cli.main(sys.argv[1:]); "
                  "sys.exit('numpy was loaded' if 'numpy' in sys.modules else code)")
        done = subprocess.run([sys.executable, "-c", script, "next", "--graph", str(votes),
                               "--records", str(records)],
                              env=child_env(), capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.split(",")[:2] == ["E", "H"]

    def test_exhausted_graph_exits_nonzero(self, tmp_path, capsys):
        write_records_csv(tmp_path / "records.csv", ["a", "b"])
        write_votes_csv(tmp_path / "votes.csv", [(("a", "b"), VoteTally(5, 5))])
        code = main(["next", "--graph", str(tmp_path / "votes.csv"),
                     "--records", str(tmp_path / "records.csv")])
        assert code == 1
        assert "no candidate" in capsys.readouterr().err

    def test_one_record_world_exits_one(self, tmp_path, capsys):
        # a single record has no pair to ask
        write_records_csv(tmp_path / "records.csv", ["a"])
        write_votes_csv(tmp_path / "votes.csv", [])
        code = main(["next", "--graph", str(tmp_path / "votes.csv"),
                     "--records", str(tmp_path / "records.csv"), "--batch", "3"])
        assert code == 1
        assert capsys.readouterr().err == "no candidate pairs remain\n"

    def test_output_does_not_depend_on_row_order(self, tmp_path, capsys):
        # the loader keeps file order: shuffled rows, half of them written
        # b,a, give the graph another edge order but the same batch; the low
        # edge limit makes the larger blocks sample
        rng = random.Random(6)
        records = [f"r{i:02d}" for i in range(24)]
        pairs = rng.sample([(a, b) for i, a in enumerate(records) for b in records[i + 1:]], 90)
        rows = [(pair, VoteTally(rng.choice([0, 1, 4, 5] if int(pair[0][1:]) % 4 ==
                                            int(pair[1][1:]) % 4 else [0, 0, 1, 2]), 5))
                for pair in sorted(pairs)]
        write_records_csv(tmp_path / "records.csv", records)
        write_votes_csv(tmp_path / "sorted.csv", rows)
        rng.shuffle(rows)
        write_votes_csv(tmp_path / "shuffled.csv", [((b, a) if i % 2 else (a, b), tally)
                                                    for i, ((a, b), tally) in enumerate(rows)])
        outputs = []
        for name in ("sorted.csv", "shuffled.csv"):
            assert main(["next", "--graph", str(tmp_path / name), "--records",
                         str(tmp_path / "records.csv"), "--batch", "10",
                         "--exact-edge-limit", "4", "--mc-samples", "50"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 10

    def test_edge_limit_above_cap_exits_one(self, running_files, capsys):
        # the exact solver is exponential in the edges, so the limit is capped
        records, votes = running_files
        code = main(["next", "--graph", str(votes), "--records", str(records),
                     "--exact-edge-limit", "10000"])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: exact_edge_limit must be <= 25, got 10000\n"

    def test_mc_samples_above_cap_exits_one(self, running_files, capsys):
        # the sampler's time grows linearly with its samples, so they are capped
        records, votes = running_files
        code = main(["next", "--graph", str(votes), "--records", str(records),
                     "--mc-samples", "1000000000000"])
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: mc_samples must be <= 10000, got 1000000000000\n")


class TestClosedPipe:
    @pytest.mark.parametrize("command", ["next", "cluster"])
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_gone_exits_one_quietly(self, running_files, command, unbuffered):
        # as when `perc next ... | head -1` stops reading: the pipe's read end
        # is closed before the child writes, whether each write goes out at
        # once or waits in the buffer for the final flush
        records, votes = running_files
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "perc.cli", command, "--graph",
                                   str(votes), "--records", str(records)],
                                  stdout=write, stderr=subprocess.PIPE,
                                  env=child_env(PYTHONUNBUFFERED=unbuffered), text=True)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
class TestFullDevice:
    """A write that fails for want of space names its target, as open()'s
    errors name theirs."""

    FULL = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"

    def test_out_file_is_named(self, running_files, capsys):
        records, votes = running_files
        assert main(["cluster", "--graph", str(votes), "--records", str(records),
                     "--out", "/dev/full"]) == 1
        assert capsys.readouterr() == ("", f"error: {self.FULL}: '/dev/full'\n")

    @pytest.mark.parametrize("command", ["next", "cluster"])
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_stdout_is_named(self, running_files, command, unbuffered):
        # as `perc next ... > /dev/full`: the write fails inside the command
        # when each write goes out at once, and at main's flush when the
        # output waits in the buffer
        records, votes = running_files
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "perc.cli", command, "--graph",
                                   str(votes), "--records", str(records)], stdout=full,
                                  stderr=subprocess.PIPE,
                                  env=child_env(PYTHONUNBUFFERED=unbuffered), text=True)
        assert (done.returncode, done.stderr) == (1, f"error: {self.FULL}: '<stdout>'\n")


class TestParserReuse:
    """main parses with one parser built at import; no call may leave a
    trace in it for the next."""

    def next_argv(self, running_files, *flags):
        records, votes = running_files
        return ["next", "--graph", str(votes), "--records", str(records), *flags]

    def test_batch_flag_does_not_outlive_its_call(self, running_files, capsys):
        assert main(self.next_argv(running_files, "--batch", "3")) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert main(self.next_argv(running_files)) == 0
        assert len(capsys.readouterr().out.splitlines()) == ExperimentConfig.batch_size

    def test_rejected_flag_leaves_the_next_call_unchanged(self, running_files, capsys):
        assert main(self.next_argv(running_files, "--batch", "2")) == 0
        alone = capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(self.next_argv(running_files, "--no-such-flag"))
        assert info.value.code == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
        assert main(self.next_argv(running_files, "--batch", "2")) == 0
        assert capsys.readouterr() == alone

    def test_main_does_not_rebuild_the_parser(self, running_files, capsys, monkeypatch):
        def no_rebuild():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(perc.cli, "build_parser", no_rebuild)
        assert main(self.next_argv(running_files)) == 0
        assert capsys.readouterr().out.split(",")[:2] == ["E", "H"]


class TestEval:
    def test_scores_match_worked_example(self, tmp_path, capsys):
        clusters = tmp_path / "clusters.csv"
        clusters.write_text(
            "record_id,cluster_id\na,a\nb,a\nc,a\nd,d\n")
        gold = tmp_path / "gold.csv"
        gold.write_text("record_id,entity_id\na,x\nb,x\nc,y\nd,y\n")
        code = main(["eval", "--clusters", str(clusters), "--gold", str(gold)])
        assert code == 0
        out = capsys.readouterr().out
        assert "precision=0.3333333333333333" in out
        assert "recall=0.5" in out
        assert "f1=0.4" in out

    @pytest.mark.parametrize("short", ["clusters", "gold"])
    def test_one_column_row_names_file_and_line(self, tmp_path, capsys, short):
        files = {"clusters": "record_id,cluster_id\na,a\nb,a\n",
                 "gold": "record_id,entity_id\na,x\nb,x\n"}
        files[short] = files[short].replace("b,", "b", 1)
        for name, text in files.items():
            (tmp_path / f"{name}.csv").write_text(text)
        code = main(["eval", "--clusters", str(tmp_path / "clusters.csv"),
                     "--gold", str(tmp_path / "gold.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / f'{short}.csv'}:3: "
                       "expected 2 columns, got 1\n")

    @pytest.mark.parametrize("short", ["clusters", "gold"])
    @pytest.mark.parametrize("row, message", [
        (",a", "record id must be a non-empty string, got ''"),
        ('"c,d",a', "record id 'c,d' contains a comma or newline"),
        ("a,a", "record 'a' listed twice"),
    ], ids=["empty-id", "quoted-comma", "repeated"])
    def test_bad_record_id_names_file_and_line(self, tmp_path, capsys, short,
                                               row, message):
        files = {"clusters": "record_id,cluster_id\na,a\nb,a\n",
                 "gold": "record_id,entity_id\na,x\nb,x\n"}
        files[short] += row + "\n"
        for name, text in files.items():
            (tmp_path / f"{name}.csv").write_text(text)
        code = main(["eval", "--clusters", str(tmp_path / "clusters.csv"),
                     "--gold", str(tmp_path / "gold.csv")])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {tmp_path / f'{short}.csv'}:4: {message}\n"

    @pytest.mark.parametrize("clustered, listed, message", [
        (range(2), range(10), "{gold}:4: record 'r02' is not declared in {clusters}"),
        (range(4), range(1, 4), "{gold}: record 'r00' of {clusters} has no row"),
    ], ids=["gold-lists-more", "gold-lists-fewer"])
    def test_clusters_and_gold_must_list_the_same_records(self, tmp_path, capsys,
                                                          clustered, listed, message):
        clusters, gold = tmp_path / "c.csv", tmp_path / "gold.csv"
        clusters.write_text("record_id,cluster_id\n"
                            + "".join(f"r{i:02d},a\n" for i in clustered))
        gold.write_text("record_id,entity_id\n"
                        + "".join(f"r{i:02d},e{i % 3}\n" for i in listed))
        assert main(["eval", "--clusters", str(clusters), "--gold", str(gold)]) == 1
        assert capsys.readouterr().err == \
            f"error: {message.format(gold=gold, clusters=clusters)}\n"

    def test_infinite_difficulty_names_file_and_line(self, tmp_path, capsys):
        (tmp_path / "clusters.csv").write_text("record_id,cluster_id\na,a\nb,a\n")
        gold = tmp_path / "gold.csv"
        gold.write_text("record_id,entity_id,difficulty\na,x,1.0\nb,x,inf\n")
        code = main(["eval", "--clusters", str(tmp_path / "clusters.csv"),
                     "--gold", str(gold)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {gold}:3: difficulty for 'b' must be a finite number >= 0, "
            "got 'inf'\n")


class TestRun:
    def world(self, tmp_path):
        main(["synth", "--entities", "3", "--records", "10", "--seed", "2",
              "--out", str(tmp_path / "world")])
        return tmp_path / "world"

    def test_simulated_run_writes_outputs(self, tmp_path, capsys):
        world = self.world(tmp_path)
        code = main(["run", "--records", str(world / "records.csv"),
                     "--gold", str(world / "gold.csv"),
                     "--strategy", "perc", "--budget", "20", "--batch", "4",
                     "--initial", "9", "--seed", "13",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "questions=" in capsys.readouterr().out
        curve = read_curve_csv(tmp_path / "out" / "curve.csv")
        assert curve[-1].questions_asked <= 20
        read_clusters_csv(tmp_path / "out" / "clusters.csv")

    def test_batch_above_sys_maxsize_asks_every_pair(self, tmp_path, capsys):
        main(["synth", "--entities", "3", "--records", "8", "--seed", "2",
              "--out", str(tmp_path / "world")])
        for strategy in ("perc", "tc", "dense"):
            out = tmp_path / strategy
            code = main(["run", "--records", str(tmp_path / "world" / "records.csv"),
                         "--gold", str(tmp_path / "world" / "gold.csv"),
                         "--strategy", strategy, "--budget", str(10**20),
                         "--batch", str(10**20), "--out", str(out)])
            assert code == 0, capsys.readouterr().err
            assert "questions=28 " in capsys.readouterr().out
            assert len((out / "votes.csv").read_text().splitlines()) == 1 + 28

    def test_replay_reproduces_curve(self, tmp_path, capsys):
        world = self.world(tmp_path)
        base = ["--records", str(world / "records.csv"),
                "--strategy", "perc", "--budget", "20", "--batch", "4",
                "--initial", "9", "--seed", "13"]
        main(["run", *base, "--gold", str(world / "gold.csv"),
              "--out", str(tmp_path / "live")])
        main(["run", *base, "--gold", str(world / "gold.csv"),
              "--replay", str(tmp_path / "live" / "votes.csv"),
              "--out", str(tmp_path / "replayed")])
        capsys.readouterr()
        assert (tmp_path / "live" / "curve.csv").read_bytes() == \
            (tmp_path / "replayed" / "curve.csv").read_bytes()

    def test_output_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # str hashes, and with them set iteration order, differ between
        # processes; none of it may reach a file.  The low edge limit makes
        # the larger blocks sample
        main(["synth", "--entities", "3", "--records", "15", "--seed", "4",
              "--out", str(tmp_path / "world")])

        def outputs(label, *options):
            runs = []
            for hash_seed in ("1", "2"):
                out = tmp_path / f"{label}-{hash_seed}"
                subprocess.run(
                    [sys.executable, "-c", "import sys; from perc.cli import main; "
                     "sys.exit(main(sys.argv[1:]))", "run",
                     "--records", str(tmp_path / "world" / "records.csv"),
                     "--gold", str(tmp_path / "world" / "gold.csv"),
                     *options, "--budget", "60", "--batch", "5",
                     "--initial", "10", "--seed", "3", "--exact-edge-limit", "4",
                     "--mc-samples", "60", "--out", str(out)],
                    env=child_env(PYTHONHASHSEED=hash_seed), check=True,
                    capture_output=True)
                runs.append([(out / name).read_bytes()
                             for name in ("votes.csv", "curve.csv", "clusters.csv")])
            return runs

        for strategy in ("perc", "tc", "dense"):
            first, second = outputs(strategy, "--strategy", strategy)
            assert first == second, strategy
        # PERC replaying a foreign log: most of its picks may not be asked,
        # so this is the path with the most replay marks
        first, second = outputs("replay", "--strategy", "perc",
                                "--replay", str(tmp_path / "tc-1" / "votes.csv"))
        assert first == second, "replay"

    def test_next_output_does_not_depend_on_the_hash_seed(self, tmp_path, capsys,
                                                          monkeypatch):
        # the plain-row reader converts each distinct count once, through a
        # table built from a set; 5 and 05 are one number to both readers
        write_records_csv(tmp_path / "records.csv", list("abcdefg"))
        (tmp_path / "votes.csv").write_text(
            "record_a,record_b,yes,total\n"
            "a,b,05,5\nb,c,4,05\nc,a,1,5\nd,e,4,005\ne,f,1,5\n"
            "f,d,3,5\nc,d,2,05\ng,a,0,5\ne,g,0005,5\n")
        argv = ["next", "--graph", str(tmp_path / "votes.csv"),
                "--records", str(tmp_path / "records.csv"), "--batch", "6"]
        outputs = [subprocess.run(
            [sys.executable, "-c", "import sys; from perc.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            env=child_env(PYTHONHASHSEED=hash_seed), check=True,
            capture_output=True).stdout for hash_seed in ("1", "2")]
        assert outputs[0] == outputs[1]
        with monkeypatch.context() as patched:
            patched.setattr(perc.fileio.csv, "reader", None)  # plain rows only
            assert main(argv) == 0
        assert capsys.readouterr().out.encode() == outputs[0]
        monkeypatch.setattr(perc.fileio, "_plain_split", lambda *args: None)
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == outputs[0]

    def test_config_file_supplies_options(self, tmp_path, capsys):
        world = self.world(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment setup\n"
            f"records = {world / 'records.csv'}\n"
            f"gold = {world / 'gold.csv'}\n"
            "strategy = tc\n"
            "budget = 15\n"
            "batch = 3\n"
            "initial = 9\n"
            "seed = 4\n"
            f"out = {tmp_path / 'cfg-out'}\n")
        code = main(["run", "--config", str(cfg)])
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "cfg-out" / "curve.csv").exists()

    def test_flags_override_config_file(self, tmp_path, capsys):
        world = self.world(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"records = {world / 'records.csv'}\n"
            f"gold = {world / 'gold.csv'}\n"
            "budget = 15\nbatch = 3\ninitial = 9\nseed = 4\n"
            f"out = {tmp_path / 'a'}\n")
        main(["run", "--config", str(cfg)])
        main(["run", "--config", str(cfg), "--budget", "12",
              "--out", str(tmp_path / "b")])
        capsys.readouterr()
        a = read_curve_csv(tmp_path / "a" / "curve.csv")
        b = read_curve_csv(tmp_path / "b" / "curve.csv")
        assert a[-1].questions_asked == 15
        assert b[-1].questions_asked == 12

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text + "zz,e00\n", "gold.csv:12: record 'zz' is not declared in {}"),
        (lambda text: text.replace("r08,e00\n", ""), "gold.csv: record 'r08' of {} has no row"),
    ], ids=["undeclared", "missing"])
    def test_gold_must_match_records(self, tmp_path, capsys, edit, message):
        world = self.world(tmp_path)
        gold = world / "gold.csv"
        gold.write_text(edit(gold.read_text()))
        records = world / "records.csv"
        code = main(["run", "--records", str(records), "--gold", str(gold),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {world / message.format(records)}\n"

    def test_oversized_worker_flag_exits_one(self, tmp_path, capsys):
        # one coin per worker per answer: the count is checked before any draw
        world = self.world(tmp_path)
        capsys.readouterr()
        code = main(["run", "--records", str(world / "records.csv"),
                     "--gold", str(world / "gold.csv"), "--workers", "100000000000",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: workers_per_pair must be <= 1000, got 100000000000\n")
        assert not (tmp_path / "out").exists()

    def test_oversized_mc_samples_flag_exits_one(self, tmp_path, capsys):
        world = self.world(tmp_path)
        capsys.readouterr()
        code = main(["run", "--records", str(world / "records.csv"),
                     "--gold", str(world / "gold.csv"), "--mc-samples", "1000000000000",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: mc_samples must be <= 10000, got 1000000000000\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, holder", [
        (["--strategy", "tc"], "strategy tc holds"),
        (["--strategy", "dense"], "strategy dense holds"),
        (["--initial", "2001", "--budget", "2001"], "initial_pairs=2001 seeds from"),
    ], ids=["tc", "dense", "seeding"])
    def test_all_pairs_record_bound_exits_one(self, tmp_path, capsys, flags, holder):
        # the record count is checked before any all-pairs table is built
        main(["synth", "--entities", "400", "--records", "2001", "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["run", "--records", str(tmp_path / "records.csv"),
                     "--gold", str(tmp_path / "gold.csv"), *flags,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: {holder} every record pair: 2001 records exceed 2000\n")
        assert not (tmp_path / "out").exists()

    def test_missing_answer_source_fails(self, tmp_path, capsys):
        world = self.world(tmp_path)
        code = main(["run", "--records", str(world / "records.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_records_exits_one(self, tmp_path, capsys):
        world = self.world(tmp_path)
        capsys.readouterr()
        code = main(["run", "--gold", str(world / "gold.csv"), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: run needs --records (or a records entry in the config file)\n")
        assert not (tmp_path / "out").exists()

    def test_out_under_a_regular_file_exits_one(self, tmp_path, capsys):
        world = self.world(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        capsys.readouterr()
        code = main(["run", "--records", str(world / "records.csv"),
                     "--gold", str(world / "gold.csv"), "--budget", "5",
                     "--out", str(blocker / "out")])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot create output directory {blocker / 'out'}: ")
        assert blocker.read_text() == ""


class TestConfigFile:
    def test_parses_comments_and_underscores(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("budget = 40  # inline comment\nerror_rate = 0.2\n\n")
        values = read_config_file(cfg)
        assert values == {"budget": (40, 1), "error_rate": (0.2, 2)}

    def test_rejects_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        # a key that names no run flag, eval_every among them
        for lines, lineno, key in [("wat = 1\n", 1, "wat"),
                                   ("budget = 10\neval_every = 2\n", 2, "eval_every")]:
            cfg.write_text(lines)
            assert main(["run", "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == f"error: {cfg}:{lineno}: unknown option {key!r}\n"
        # and its flag is refused as every unknown flag is
        with pytest.raises(SystemExit) as info:
            main(["run", "--eval-every", "2"])
        assert info.value.code == 2
        assert capsys.readouterr().err == (
            f"{build_parser().format_usage()}perc: error: unrecognized arguments: --eval-every 2\n")

    def test_rejects_missing_equals(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(ValueError, match="c.cfg:1"):
            read_config_file(cfg)

    @pytest.mark.parametrize("lines, message", [
        ("budget = 10\nbudget = 30\n", "2: budget already set on line 1"),
        ("error-rate = 0.1\nseed = 4\nerror_rate = 0.2\n",
         "3: error_rate already set on line 1"),
        ("out = a\n\nout = b\n", "3: out already set on line 1"),
    ], ids=["field", "spelled-otherwise", "io-key"])
    def test_key_set_twice_names_both_lines(self, tmp_path, capsys, lines, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:{message}\n"

    def test_bad_byte_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"budget = 10\n# caf\xff\nseed = 4\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: not UTF-8 text\n"

    def test_bad_value_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("records = records.csv\nbudget = abc\n")
        code = main(["run", "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: budget expects int, got 'abc'\n")

    # characters at which str.splitlines, but not a file's line count, ends a line
    LINE_BREAKS = ["\x0c", "\x0b", "\x1c", "\x1e", "\x85", "\u2028", "\u2029", "\r"]

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_only_a_newline_ends_a_line(self, tmp_path, brk):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"# note{brk}more\nbatch = 3\r\n".encode())
        assert read_config_file(cfg) == {"batch_size": (3, 2)}

    def test_crlf_line_is_quoted_without_its_cr(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"budget = 10\r\njust a line\r\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == \
            f"error: {cfg}:2: expected 'key = value', got 'just a line'\n"

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_bad_value_after_a_line_break_names_its_physical_line(self, tmp_path, capsys,
                                                                   brk):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"# one{brk}# two\nbatch = x\n".encode())
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: batch expects int, got 'x'\n"


    @pytest.mark.parametrize("line, message", [
        ("budget = -1", "budget must be >= 0, got -1"),
        ("strategy = x", "unknown strategy 'x', pick one of ('perc', 'tc', 'dense')"),
        ("initial = 500", "initial_pairs=500 must sit in 0..budget (100)"),
        ("workers = 0", "workers_per_pair must be >= 1, got 0"),
        ("workers = 100000000000", "workers_per_pair must be <= 1000, got 100000000000"),
        ("error_rate = 2.0", "error_rate must be <= 1.0, got 2.0"),
        ("mc_samples = 0", "mc_samples must be >= 1, got 0"),
        ("mc_samples = 1000000000000", "mc_samples must be <= 10000, got 1000000000000"),
        ("epsilon = 0.5", "epsilon must be < 0.001, got 0.5"),
        ("exact_edge_limit = -1", "exact_edge_limit must be >= 0, got -1"),
        ("exact_edge_limit = 10000", "exact_edge_limit must be <= 25, got 10000"),
    ], ids=["budget", "strategy", "initial", "workers", "workers-cap",
            "error-rate", "mc-samples", "mc-samples-cap", "epsilon", "exact-edge-limit",
            "exact-edge-limit-cap"])
    def test_rejected_value_names_file_and_line(self, tmp_path, capsys, line, message):
        main(["synth", "--entities", "2", "--records", "4", "--out", str(tmp_path)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"records = {tmp_path / 'records.csv'}\n"
                       f"gold = {tmp_path / 'gold.csv'}\n"
                       f"out = {tmp_path / 'out'}\n{line}\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:4: {message}\n"
        # a flag for the same option replaces the file's value
        flag = "--" + line.split(" = ")[0].replace("_", "-")
        fixed = {"--strategy": "tc", "--error-rate": "0.1", "--epsilon": "1e-9"}.get(flag, "5")
        assert main(["run", "--config", str(cfg), flag, fixed]) == 0
        capsys.readouterr()


def subparser(name):
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    return sub.choices[name]


class TestOptionsFromDataclasses:
    # a valid non-default value for every ExperimentConfig field
    VALUES = {"strategy": "dense", "budget": 14, "batch_size": 3,
              "initial_pairs": 9, "workers_per_pair": 3, "error_rate": 0.2,
              "mc_samples": 50, "epsilon": 1e-9, "exact_edge_limit": 4,
              "seed": 7}

    def test_every_field_is_a_run_flag_and_a_config_key(self, tmp_path, capsys,
                                                         monkeypatch):
        assert set(self.VALUES) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        flags = {a.dest: a.option_strings[0] for a in subparser("run")._actions}
        seen = []
        real_run = perc.cli.run_experiment

        def spy(config, *args, **kwargs):
            seen.append(config)
            return real_run(config, *args, **kwargs)

        monkeypatch.setattr(perc.cli, "run_experiment", spy)
        main(["synth", "--entities", "3", "--records", "10", "--seed", "2",
              "--out", str(tmp_path / "world")])
        io = {"records": tmp_path / "world" / "records.csv",
              "gold": tmp_path / "world" / "gold.csv"}
        argv = ["run", *(f"--{k}={v}" for k, v in io.items()),
                "--out", str(tmp_path / "flags")]
        for name, value in self.VALUES.items():
            argv += [flags[name], str(value)]
        assert main(argv) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in io.items())
                       + f"out = {tmp_path / 'config'}\n"
                       + "".join(f"{flags[name][2:].replace('-', '_')} = {value}\n"
                                 for name, value in self.VALUES.items()))
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert seen == [ExperimentConfig(**self.VALUES)] * 2
        assert (tmp_path / "flags" / "curve.csv").read_bytes() == \
            (tmp_path / "config" / "curve.csv").read_bytes()

    def test_next_flags_are_reliability_params(self):
        actions = {a.dest: a for a in subparser("next")._actions}
        for field in dataclasses.fields(ReliabilityParams):
            assert actions[field.name].option_strings == \
                ["--" + field.name.replace("_", "-")]
            assert actions[field.name].default == field.default


class TestErrors:
    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["cluster", "--graph", str(tmp_path / "nope.csv"),
                     "--records", str(tmp_path / "nope2.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cluster", "next"])
    def test_unreadable_path_is_named_without_a_traceback(self, running_files, tmp_path,
                                                          capsys, command):
        records, votes = running_files
        missing = tmp_path / "missing.csv"
        assert main([command, "--graph", str(missing), "--records", str(records)]) == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: '{missing}'\n")
        assert main([command, "--graph", str(votes), "--records", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")

    @pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="no /proc/self/mem")
    def test_read_that_fails_after_open_is_named(self, running_files, capsys):
        # opening /proc/self/mem succeeds and reading its first page fails;
        # main takes an unnamed OSError for a failed stdout write
        records, votes = running_files
        assert main(["cluster", "--graph", str(votes), "--records", "/proc/self/mem"]) == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}: '/proc/self/mem'\n")

    @pytest.mark.parametrize("command", ["cluster", "next", "run", "run-seeded"])
    @pytest.mark.parametrize("records, votes, bad", [
        ("a\nb\nc\n", "a,b,5,5\nb,a,1,5\n", "votes.csv:3"),    # duplicate pair
        ("a\nb\nc\n", "a,b,5,5\nc,c,1,5\n", "votes.csv:3"),    # self-loop
        ("a\nb\nc\n", "a,b,5,5\na,z,1,5\n", "votes.csv:3"),    # undeclared record
        ("a\nb\nc\nb\n", "a,b,5,5\n", "records.csv:5"),       # duplicate record id
        ('a\n"b,c"\nc\n', "a,c,5,5\n", "records.csv:3"),      # comma inside an id
        ("a\nb,c\nc\n", "a,c,5,5\n", "records.csv:3"),        # row wider than the header
    ], ids=["duplicate-pair", "self-loop", "undeclared-record", "duplicate-record",
            "quoted-comma", "wide-row"])
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, command,
                                         records, votes, bad):
        (tmp_path / "records.csv").write_text("record_id\n" + records)
        (tmp_path / "votes.csv").write_text("record_a,record_b,yes,total\n" + votes)
        if command.startswith("run"):
            # the votes are a replay log; seeding may take its rows, or none
            argv = ["run", "--replay", str(tmp_path / "votes.csv"),
                    "--out", str(tmp_path / "out"),
                    "--initial", "2" if command == "run-seeded" else "0"]
        else:
            argv = [command, "--graph", str(tmp_path / "votes.csv")]
        code = main(argv + ["--records", str(tmp_path / "records.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / bad}: ")

    @pytest.mark.parametrize("form, line", [("1_0", 3), ("+3", 3), (" 5", 3),
                                            ("\uff15", 3), ('"5\n"', 4)],
                             ids=["underscore", "plus-sign", "space", "full-width",
                                  "spans-lines"])
    @pytest.mark.parametrize("column", ["total", "difficulty"])
    def test_number_not_in_ascii_digits_names_file_and_line(self, tmp_path, capsys,
                                                           column, form, line):
        # int() and float() read each form as a number; a row is named by
        # the line it ends on
        if column == "total":
            (tmp_path / "records.csv").write_text("record_id\na\nb\nc\n")
            bad = tmp_path / "votes.csv"
            bad.write_text(f"record_a,record_b,yes,total\na,b,5,5\na,c,1,{form}\n",
                           encoding="utf-8")
            argv = ["next", "--graph", str(bad), "--records", str(tmp_path / "records.csv")]
        else:
            (tmp_path / "clusters.csv").write_text("record_id,cluster_id\na,a\nb,a\n")
            bad = tmp_path / "gold.csv"
            bad.write_text(f"record_id,entity_id,difficulty\na,x,1.0\nb,x,{form}\n",
                           encoding="utf-8")
            argv = ["eval", "--clusters", str(tmp_path / "clusters.csv"), "--gold", str(bad)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:{line}: ")


# input file -> what it loads into, given the others intact, and the
# command line that reads it
CLUSTER = ["cluster", "--records", "records.csv", "--graph", "votes.csv"]
EVAL = ["eval", "--clusters", "clusters.csv", "--gold", "gold.csv"]
CORRUPTIBLE = {
    "records.csv": (lambda d: UncertainGraph(read_records_csv(d / "records.csv")), CLUSTER),
    "votes.csv": (lambda d: load_graph(d / "records.csv", d / "votes.csv"), CLUSTER),
    "gold.csv": (lambda d: read_gold_csv(d / "gold.csv"), EVAL),
    "clusters.csv": (lambda d: read_clusters_csv(d / "clusters.csv"), EVAL),
}

# (where as a fraction of the text, characters cut there, text put there)
EDITS = st.lists(st.tuples(st.floats(0, 1), st.integers(0, 4),
                           st.text(st.sampled_from(',"\n\r\x00 #-1xAé\ufeff'),
                                   max_size=3)),
                 min_size=1, max_size=3)


@pytest.fixture(scope="module")
def corruption_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt")


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(CORRUPTIBLE)), edits=EDITS)
def test_corrupted_file_loads_or_is_named_in_the_error(corruption_dir, name, edits):
    """A corrupted input file either still loads, or the command exits 1
    with an error naming that file; it never raises past main."""
    # a new directory per example, left for pytest to remove: overwriting or
    # deleting a just-written file can wait on a disk flush
    d = Path(tempfile.mkdtemp(dir=corruption_dir))
    write_records_csv(d / "records.csv", EIGHT)
    write_votes_csv(d / "votes.csv", running_vote_rows())
    write_gold_csv(d / "gold.csv", GoldClustering(
        {r: block[0] for block in RUNNING_BLOCKS for r in block}))
    write_clusters_csv(d / "clusters.csv", Clustering(RUNNING_BLOCKS))
    load, argv = CORRUPTIBLE[name]
    path = d / name
    text = path.read_text(encoding="utf-8")
    for where, cut, insert in edits:
        at = int(where * len(text))
        text = text[:at] + insert + text[at + cut:]
    path.write_text(text, encoding="utf-8", newline="")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(d / arg) if arg.endswith(".csv") else arg for arg in argv])
    try:
        load(d)
    except ValueError:
        assert code == 1
        assert err.getvalue().startswith(f"error: {path}:")
    else:
        assert code in (0, 1)


# input file -> the command line that reads it, with the files named relative
# to the directory TestNulByte writes them to
NUL_READERS = {
    "records.csv": ["next", "--records", "records.csv", "--graph", "votes.csv"],
    "votes.csv": CLUSTER,
    "replay.csv": ["run", "--records", "records.csv", "--replay", "replay.csv",
                   "--out", "out"],
    "gold.csv": EVAL,
    "clusters.csv": EVAL,
    "run.cfg": ["run", "--config", "run.cfg"],
}


# input file -> the command lines that read it, files named as for NUL_READERS
FIELD_LIMIT_READERS = [
    ("records.csv", CLUSTER), ("records.csv", NUL_READERS["records.csv"]),
    ("votes.csv", CLUSTER), ("votes.csv", NUL_READERS["records.csv"]),
    ("replay.csv", NUL_READERS["replay.csv"]),
    ("gold.csv", EVAL), ("clusters.csv", EVAL),
]


class TestFieldLimit:
    """A field longer than csv.field_size_limit() makes csv.reader raise
    csv.Error, which is no ValueError; it exits 1 naming the file and the
    line, in a header row as in any other."""

    @pytest.mark.parametrize("line", [1, 3], ids=["header", "row"])
    @pytest.mark.parametrize("name, argv", FIELD_LIMIT_READERS,
                             ids=[f"{name}-{argv[0]}" for name, argv in FIELD_LIMIT_READERS])
    def test_names_file_and_line(self, tmp_path, capsys, name, argv, line):
        write_records_csv(tmp_path / "records.csv", EIGHT)
        write_votes_csv(tmp_path / "votes.csv", running_vote_rows())
        write_votes_csv(tmp_path / "replay.csv", running_vote_rows())
        write_gold_csv(tmp_path / "gold.csv", GoldClustering(
            {r: block[0] for block in RUNNING_BLOCKS for r in block}))
        write_clusters_csv(tmp_path / "clusters.csv", Clustering(RUNNING_BLOCKS))
        path = tmp_path / name
        lines = path.read_text().split("\n")
        lines[line - 1] = "x" * (csv.field_size_limit() + 1) + lines[line - 1]
        path.write_text("\n".join(lines))
        assert main([str(tmp_path / arg) if "." in arg else arg for arg in argv]) == 1
        assert capsys.readouterr().err == \
            f"error: {path}:{line}: field larger than field limit ({csv.field_size_limit()})\n"


class TestNulByte:
    """A NUL byte in any input file exits 1 naming the file and its line.
    On Python 3.10 csv.reader raises an error that is no ValueError for it,
    and on 3.11 it keeps it inside a field, so read_text rejects it first."""

    @pytest.mark.parametrize("name", sorted(NUL_READERS))
    def test_names_file_and_line(self, tmp_path, capsys, name):
        write_records_csv(tmp_path / "records.csv", EIGHT)
        write_votes_csv(tmp_path / "votes.csv", running_vote_rows())
        write_votes_csv(tmp_path / "replay.csv", running_vote_rows())
        write_gold_csv(tmp_path / "gold.csv", GoldClustering(
            {r: block[0] for block in RUNNING_BLOCKS for r in block}))
        write_clusters_csv(tmp_path / "clusters.csv", Clustering(RUNNING_BLOCKS))
        (tmp_path / "run.cfg").write_text("budget = 10\n# the seed\nseed = 4\n")
        path = tmp_path / name
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:1] + b"\x00" + lines[2][1:]
        path.write_bytes(b"\n".join(lines))
        argv = [str(tmp_path / arg) if "." in arg else arg for arg in NUL_READERS[name]]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}:3: NUL byte\n"
