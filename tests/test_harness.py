"""Experiment loop, metrics, seeding, replay, and the synthetic world."""

import itertools
import math
from dataclasses import fields, replace
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perc.harness
from perc import (
    Clustering,
    ExperimentConfig,
    GoldClustering,
    ReliabilityParams,
    ReplayOracle,
    SimulatedOracle,
    UncertainGraph,
    VoteTally,
    WorkerModel,
    precision_recall_f1,
    questions_to_reach,
    run_experiment,
    scc_cluster,
    synth_world,
)
from perc.cli import main, report
from perc.fileio import write_gold_csv, write_records_csv, write_votes_csv
from perc.harness import MAX_ALL_PAIRS_RECORDS, MetricsSnapshot, _initial_pairs_simulated
from perc.util import ConfigError

from conftest import read_curve_csv, running_vote_rows


def total_pairs(n):
    return n * (n - 1) // 2


class TestPrecisionRecallF1:
    def test_worked_example(self):
        predicted = Clustering([["a", "b", "c"], ["d"]])
        gold = GoldClustering({"a": "x", "b": "x", "c": "y", "d": "y"})
        p, r, f1 = precision_recall_f1(predicted, gold)
        assert p == pytest.approx(1 / 3)
        assert r == pytest.approx(1 / 2)
        assert f1 == pytest.approx(0.4)

    def test_perfect_match(self):
        gold = GoldClustering({"a": "x", "b": "x", "c": "y"})
        assert precision_recall_f1(Clustering([["a", "b"], ["c"]]), gold) == (1.0, 1.0, 1.0)

    def test_no_reported_pairs(self):
        gold = GoldClustering({"a": "x", "b": "x"})
        p, r, f1 = precision_recall_f1(Clustering([["a"], ["b"]]), gold)
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_no_gold_pairs(self):
        gold = GoldClustering({"a": "x", "b": "y"})
        p, r, f1 = precision_recall_f1(Clustering([["a", "b"]]), gold)
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=14))
    def test_equals_pair_by_pair_count(self, labels):
        # record i sits in block labels[i][0] and gold entity labels[i][1]
        records = [f"r{i:02d}" for i in range(len(labels))]
        blocks: dict[int, list[str]] = {}
        for r, (block, _) in zip(records, labels):
            blocks.setdefault(block, []).append(r)
        predicted = Clustering(blocks.values())
        gold = GoldClustering({r: f"e{entity}" for r, (_, entity) in zip(records, labels)})
        pairs = list(itertools.combinations(range(len(records)), 2))
        reported = sum(labels[i][0] == labels[j][0] for i, j in pairs)
        matching = sum(labels[i][1] == labels[j][1] for i, j in pairs)
        correct = sum(labels[i] == labels[j] for i, j in pairs)
        precision = correct / reported if reported else 0.0
        recall = correct / matching if matching else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert precision_recall_f1(predicted, gold) == (precision, recall, f1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=10),
           st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)), max_size=12))
    def test_carried_counts_equal_fresh_calls(self, labels, moves):
        """One terms dict carried over clusterings of one gold, each moving
        a record of the one before to another block (so blocks split and
        re-form), scores each as a call without it does and keeps only the
        current blocks' counts."""
        records = [f"r{i:02d}" for i in range(len(labels))]
        gold = GoldClustering({r: f"e{entity}" for r, (_, entity) in zip(records, labels)})
        block_of = [block for block, _ in labels]
        terms: dict = {}
        for i, block in [(0, block_of[0])] + moves:
            block_of[i % len(records)] = block
            groups: dict[int, list[str]] = {}
            for r, label in zip(records, block_of):
                groups.setdefault(label, []).append(r)
            predicted = Clustering(groups.values())
            assert precision_recall_f1(predicted, gold, terms) == \
                precision_recall_f1(predicted, gold)
            assert terms.keys() == {None} | {b for b in predicted.blocks if len(b) > 1}

    def test_rejects_mismatched_universe(self):
        gold = GoldClustering({"a": "x", "b": "x"})
        with pytest.raises(ValueError):
            precision_recall_f1(Clustering([["a"]]), gold)


class TestQuestionsToReach:
    def test_first_crossing(self):
        curve = [
            MetricsSnapshot(5, 0.5, 0.5, 0.5, -1.0, 4),
            MetricsSnapshot(10, 0.9, 0.9, 0.9, -0.5, 3),
            MetricsSnapshot(15, 1.0, 1.0, 1.0, -0.1, 3),
        ]
        assert questions_to_reach(curve, 0.9) == 10
        assert questions_to_reach(curve, 0.95) == 15
        assert questions_to_reach(curve, 1.1) is None


class TestInitialPairs:
    def test_spanning_path_covers_every_record(self):
        records = tuple(f"r{i}" for i in range(8))
        pairs = _initial_pairs_simulated(records, 7, seed=3)
        touched = {r for pair in pairs for r in pair}
        assert len(pairs) == 7
        assert touched == set(records)

    def test_distinct_and_deterministic(self):
        records = tuple(f"r{i}" for i in range(10))
        a = _initial_pairs_simulated(records, 20, seed=5)
        b = _initial_pairs_simulated(records, 20, seed=5)
        assert a == b
        assert len(set(a)) == 20

    def test_caps_at_population(self):
        records = ("x", "y", "z")
        pairs = _initial_pairs_simulated(records, 50, seed=1)
        assert sorted(pairs) == [("x", "y"), ("x", "z"), ("y", "z")]


class TestSynthWorld:
    def test_shapes(self):
        records, gold = synth_world(30, 6, seed=4)
        assert len(records) == 30
        assert gold.records == frozenset(records)
        entities = {gold.entity_of(r) for r in records}
        assert len(entities) == 6  # every entity got at least one record

    def test_deterministic_per_seed(self):
        _, g1 = synth_world(20, 4, seed=9)
        _, g2 = synth_world(20, 4, seed=9)
        _, g3 = synth_world(20, 4, seed=10)
        assert g1.entity == g2.entity
        assert g1.entity != g3.entity

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_world(0, 1)
        for args, field in (((True, 1), "n_records"), ((2.0, 1), "n_records"),
                            ((5, True), "n_entities"), ((5, 2.0), "n_entities"),
                            ((5, 2, 2.7), "seed"), ((5, 2, False), "seed"),
                            (("5", 2), "n_records")):
            with pytest.raises(ConfigError, match=f"^{field} must be an integer") as caught:
                synth_world(*args)
            assert caught.value.field == field
        records, gold = synth_world(np.int64(5), np.int64(2), np.int64(3))
        plain_records, plain_gold = synth_world(5, 2, 3)
        assert records == plain_records and gold.entity == plain_gold.entity
        with pytest.raises(ValueError):
            synth_world(5, 6)
        with pytest.raises(ValueError):
            synth_world(5, 0)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(strategy="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(budget=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(budget=5, initial_pairs=6)
        with pytest.raises(ValueError):
            ExperimentConfig(budget=5, batch_size=6)
        with pytest.raises(ValueError):
            ExperimentConfig(batch_size=0)

    def test_integer_fields_refuse_floats_and_bools(self):
        # 2.0 would fail mid-run and 1.5 as a seed would run truncated, so
        # every int field refuses them up front; numpy integers pass
        for cls in (WorkerModel, ReliabilityParams, ExperimentConfig):
            names = [f.name for f in fields(cls) if f.type == "int"]
            assert names, cls
            for name in names:
                for value in (2.0, True):
                    with pytest.raises(ConfigError, match="must be an integer") as caught:
                        cls(**{name: value})
                    assert caught.value.field == name
                assert getattr(cls(**{name: np.int64(2)}), name) == 2
            # a bool would run as 0 or 1 and a string would fail a bare
            # comparison, so every float field refuses both; numpy floats pass
            names = [f.name for f in fields(cls) if f.type == "float"]
            assert names, cls
            for name in names:
                for value in (True, "0.1"):
                    with pytest.raises(ConfigError, match="must be a real number") as caught:
                        cls(**{name: value})
                    assert caught.value.field == name
                default = getattr(cls, name)
                assert getattr(cls(**{name: np.float64(default)}), name) == default
        # a replayed 1.5 or True would be written to a votes.csv its readers refuse
        for name in ("yes", "total"):
            for value in (1.5, True, "1"):
                with pytest.raises(ConfigError, match="must be an integer") as caught:
                    VoteTally(**{"yes": 1, "total": 2, name: value})
                assert caught.value.field == name
        assert VoteTally(np.int64(1), np.int64(2)).fraction == 0.5
        with pytest.raises(ConfigError, match="seed must be an integer, got 1.5"):
            SimulatedOracle(GoldClustering({"a": "x"}), WorkerModel(), seed=1.5)
        assert SimulatedOracle(GoldClustering({"a": "x"}), WorkerModel(),
                               seed=np.int64(3)).seed == 3

    def test_every_declared_limit_is_checked(self):
        # each numeric limit is declared once, as metadata on its field; the
        # nearest value inside it passes, the nearest past it fails naming
        # the field.  ExperimentConfig's crowd and reliability fields are
        # checked through the WorkerModel and ReliabilityParams it builds
        def nearest(value, toward, kind):
            if kind == "int":
                return value + (1 if toward > value else -1)
            return math.nextafter(value, toward)

        declared = {f.name: f.metadata for cls in (WorkerModel, ReliabilityParams)
                    for f in fields(cls)}
        unbounded = set()
        for cls in (WorkerModel, ReliabilityParams, ExperimentConfig):
            for f in fields(cls):
                if f.type not in ("int", "float"):
                    continue
                limits = f.metadata or declared.get(f.name, {})
                if not limits.keys() & {"le", "lt"}:
                    unbounded.add(f.name)
                if f.type == "float":
                    with pytest.raises(ConfigError, match=f"^{f.name} must be ") as caught:
                        cls(**{f.name: math.nan})
                    assert caught.value.field == f.name
                for key, limit in limits.items():
                    outward = -math.inf if key in ("ge", "gt") else math.inf
                    if key in ("ge", "le"):
                        inside, past = limit, nearest(limit, outward, f.type)
                    else:
                        inside, past = nearest(limit, -outward, f.type), limit
                    assert getattr(cls(**{f.name: inside}), f.name) == inside
                    with pytest.raises(ConfigError, match=f"^{f.name} must be ") as caught:
                        cls(**{f.name: past})
                    assert caught.value.field == f.name
        # no value of these grows the work past the all-pairs tables that
        # MAX_ALL_PAIRS_RECORDS bounds: the budget and the seeding stop at the
        # pair count, select_batch caps k there and seed only picks streams.
        # A new numeric field needs a maximum or a reason here
        assert unbounded == {"budget", "batch_size", "initial_pairs", "seed"}

    def test_defaults_are_the_checking_dataclasses_defaults(self):
        # each crowd and reliability option declares its default once
        assert ExperimentConfig().reliability_params() == ReliabilityParams()
        assert ExperimentConfig().worker_model() == WorkerModel()

    def test_perc_next_asks_what_the_run_asks_next(self, tmp_path, capsys):
        # a run prices every round with the params perc next takes as flags,
        # so next on the run's votes prints the batch a longer run asks next
        for limit, seed, batch in itertools.product((0, 3, 18), range(4), (1, 2, 4)):
            records, gold = synth_world(14, 2, seed=seed)
            config = ExperimentConfig(strategy="perc", budget=13 + 3 * batch,
                                      batch_size=batch, initial_pairs=13, error_rate=0.2,
                                      mc_samples=50, exact_edge_limit=limit, seed=seed)
            write_records_csv(tmp_path / "records.csv", records)
            write_votes_csv(tmp_path / "votes.csv",
                            run_experiment(config, records, gold=gold).vote_log)
            assert main(["next", "--records", str(tmp_path / "records.csv"),
                         "--graph", str(tmp_path / "votes.csv"), "--batch", str(batch),
                         "--seed", str(seed), "--mc-samples", "50",
                         "--exact-edge-limit", str(limit)]) == 0
            printed = [tuple(line.split(",")[:2])
                       for line in capsys.readouterr().out.splitlines()]
            longer = run_experiment(replace(config, budget=config.budget + batch),
                                    records, gold=gold)
            assert printed == [pair for pair, _ in longer.vote_log[config.budget:]], \
                (limit, seed, batch)


class TestRunExperiment:
    def run_error_free(self, strategy, n=9, entities=3, budget=None, **kw):
        records, gold = synth_world(n, entities, seed=2)
        config = ExperimentConfig(strategy=strategy,
                                  budget=budget or total_pairs(n),
                                  batch_size=3, initial_pairs=n - 1,
                                  workers_per_pair=3, error_rate=0.0,
                                  seed=11, **kw)
        return run_experiment(config, records, gold=gold), gold

    @pytest.mark.parametrize("strategy", ["perc", "tc", "dense"])
    def test_error_free_crowd_reaches_gold(self, strategy):
        result, gold = self.run_error_free(strategy)
        assert result.curve[-1].f1 == 1.0
        assert all(result.clustering.same_block(a, b) == gold.same(a, b)
                   for a, b in itertools.combinations(sorted(gold.records), 2))

    @pytest.mark.parametrize("strategy, initial, holder", [
        ("tc", 0, "strategy tc holds"),
        ("dense", 0, "strategy dense holds"),
        ("perc", MAX_ALL_PAIRS_RECORDS + 1,
         f"initial_pairs={MAX_ALL_PAIRS_RECORDS + 1} seeds from"),
    ], ids=["tc", "dense", "seeding"])
    def test_all_pairs_tables_refuse_records_past_the_bound(self, strategy, initial, holder):
        # TC's open pairs, DENSE's absent pairs and seeding past a spanning
        # path hold every record pair, so their memory grows with its square
        n = MAX_ALL_PAIRS_RECORDS + 1
        records, gold = synth_world(n, n // 5, seed=1)
        config = ExperimentConfig(strategy=strategy, budget=max(20, initial), batch_size=10,
                                  initial_pairs=initial)
        with pytest.raises(ValueError, match=f"^{holder} every record pair: {n} records "
                                             f"exceed {MAX_ALL_PAIRS_RECORDS}$"):
            run_experiment(config, records, gold=gold)

    def test_perc_runs_past_the_all_pairs_bound(self):
        # PERC keeps no all-pairs table, and a spanning path of seeds builds none
        n = MAX_ALL_PAIRS_RECORDS + 1
        records, gold = synth_world(n, n // 5, seed=1)
        for initial in (0, n - 1):
            config = ExperimentConfig(budget=initial + 20, batch_size=10, initial_pairs=initial)
            result = run_experiment(config, records, gold=gold)
            assert result.curve[-1].questions_asked == initial + 20

    def test_budget_counts_distinct_questions(self):
        result, _ = self.run_error_free("perc", budget=20)
        assert result.stats["questions_asked"] <= 20
        pairs = [pair for pair, _ in result.vote_log]
        assert len(pairs) == len(set(pairs))
        assert result.curve[-1].questions_asked == len(pairs)

    def test_tc_stops_when_everything_inferable(self):
        result, _ = self.run_error_free("tc")
        # error-free answers settle every pair well below the full budget
        assert result.flags.get("exhausted")
        assert result.stats["questions_asked"] < total_pairs(9)

    @pytest.mark.parametrize("strategy", ["perc", "tc", "dense"])
    def test_one_record_world_is_exhausted_at_once(self, strategy):
        config = ExperimentConfig(strategy=strategy, budget=5, batch_size=3, initial_pairs=0)
        result = run_experiment(config, ["a"], gold=GoldClustering({"a": "e"}))
        assert result.flags == {"exhausted": True}
        assert result.vote_log == []
        assert result.clustering == Clustering([["a"]])

    def test_curve_question_counts_strictly_increase(self):
        result, _ = self.run_error_free("perc")
        counts = [snap.questions_asked for snap in result.curve]
        assert counts == sorted(set(counts))
        # one row for the seeding and one per round
        assert len(counts) == 1 + result.stats["rounds"]

    def test_contradiction_triggers_recluster(self):
        # Two records of one entity plus a stranger; the replay log first
        # links the pair wrongly apart, then the harness discovers the
        # contradiction when the third answer arrives.
        records = ["a", "b", "c"]
        gold = GoldClustering({"a": "x", "b": "x", "c": "y"})
        rows = [
            (("a", "b"), VoteTally(5, 5)),
            (("a", "c"), VoteTally(4, 5)),   # wrong: crowd says match
            (("b", "c"), VoteTally(0, 5)),
        ]
        config = ExperimentConfig(strategy="perc", budget=3, batch_size=1,
                                  initial_pairs=2, workers_per_pair=5,
                                  seed=0)
        result = run_experiment(config, records, gold=gold,
                                replay=ReplayOracle(rows))
        assert result.stats["mlc_checks"] >= 1
        assert result.stats["mlc_failures"] >= 1
        assert result.stats["reclusterings"] == 1
        # {a, b, c} splits into {a, b} and {c}
        assert result.stats["reclusterings_changed"] == 1
        assert 0.0 < result.stats["recluster_fraction"] <= 1.0

    def test_changed_reclusterings_are_the_rebuild_rounds(self, monkeypatch):
        """reclusterings_changed counts the reclusters that returned another
        clustering than the one they were given."""
        changed = []
        scc_cluster = perc.harness.scc_cluster

        def counted(graph, previous=None):
            fresh = scc_cluster(graph, previous=previous)
            if previous is not None:
                changed.append(fresh != previous)
            return fresh

        monkeypatch.setattr(perc.harness, "scc_cluster", counted)
        records, gold = synth_world(24, 6, seed=4)
        config = ExperimentConfig(strategy="perc", budget=120, batch_size=4,
                                  initial_pairs=23, error_rate=0.25, seed=9)
        stats = run_experiment(config, records, gold=gold).stats
        assert 0 < stats["reclusterings_changed"] < stats["reclusterings"]
        assert len(changed) == stats["reclusterings"]
        assert sum(changed) == stats["reclusterings_changed"]

    def test_each_round_finds_its_change_once(self, monkeypatch):
        """With a snapshot every round, PERC and DENSE each run
        changes_since once per round, wherever it is looked up, and compare
        graphs once per round plus once per recluster, each time with an
        ancestor on the newer graph's lineage."""
        calls = []
        modules = [import_module(f"perc.{name}") for name in ("harness", "reliability")]
        changes_since = modules[-1].changes_since

        def counted(*args, **kwargs):
            calls.append(args)
            return changes_since(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, "changes_since", counted)
        compared = []
        edges_added_since = UncertainGraph.edges_added_since

        def on_lineage(self, older):
            assert older._lineage is self._lineage and older._n <= self._n
            compared.append(older)
            return edges_added_since(self, older)

        monkeypatch.setattr(UncertainGraph, "edges_added_since", on_lineage)
        records, gold = synth_world(24, 6, seed=4)
        for strategy in ("perc", "dense"):
            calls.clear()
            compared.clear()
            config = ExperimentConfig(strategy=strategy, budget=120, batch_size=4,
                                      initial_pairs=23, error_rate=0.25, seed=9)
            stats = run_experiment(config, records, gold=gold).stats
            assert stats["reclusterings"] > 0
            assert len(calls) == stats["rounds"] > 0
            assert len(compared) == stats["rounds"] + stats["reclusterings"]

    def test_graph_is_built_once_per_round(self, monkeypatch):
        """The loop folds answers into the graph a round at a time: a perc
        run, a dense run and a TC replay of a cut log (whose last round is
        cut short by a pair the log lacks) build it once for the seeding
        and once per round, never once per answer, and every answer in the
        vote log goes in."""
        built = []
        extended = UncertainGraph._extended

        def counted(self, answers):
            built.append(len(answers))
            return extended(self, answers)

        monkeypatch.setattr(UncertainGraph, "_extended", counted)
        records, gold = synth_world(24, 6, seed=4)
        config = ExperimentConfig(strategy="perc", budget=120, batch_size=4,
                                  initial_pairs=23, error_rate=0.25, seed=9)
        runs = [(config, None), (replace(config, strategy="dense"), None)]
        tc = replace(config, strategy="tc")
        runs.append((tc, ReplayOracle(run_experiment(tc, records, gold=gold).vote_log[:62])))
        for config, replay in runs:
            built.clear()
            result = run_experiment(config, records, gold=gold, replay=replay)
            assert len(built) == 1 + result.stats["rounds"]
            assert built[0] == 23 and sum(built) == len(result.vote_log)
            assert max(built[1:]) == 4
        assert "unanswered_selection" in result.flags and 0 < built[-1] < 4

    @pytest.mark.parametrize("strategy", ["perc", "dense"])
    @pytest.mark.parametrize("batch_size", [1, 7])
    @pytest.mark.parametrize("seed", [1])
    def test_carried_run_equals_cold_run(self, monkeypatch, strategy, batch_size, seed):
        """Everything the loop carries from round to round (the clustering,
        the snapshot's score and F1 counts, the strategy's state) gives the
        vote log and curve of a run that prices every round from scratch,
        bit for bit, and so does a replay of a cut log."""
        records, gold = synth_world(24, 5, seed=batch_size + seed)
        config = ExperimentConfig(strategy=strategy, budget=90, batch_size=batch_size,
                                  initial_pairs=12, error_rate=0.3, mc_samples=30,
                                  exact_edge_limit=6, seed=seed)
        carried = run_experiment(config, records, gold=gold)
        cut = ReplayOracle(carried.vote_log[:60])
        carried_replay = run_experiment(config, records, gold=gold, replay=cut)

        harness = perc.harness
        scc_cluster = harness.scc_cluster
        reliability = harness.reliability
        precision_recall_f1 = harness.precision_recall_f1
        build = harness._strategy(strategy)[0]

        def cold_refresh(state, changes):
            fresh = build(changes.graph, changes.clustering, config.reliability_params(),
                          allowed=state.allowed)
            for name in type(state).__slots__:
                setattr(state, name, getattr(fresh, name))

        monkeypatch.setattr(harness, "scc_cluster", lambda graph, previous=None:
                            scc_cluster(graph))
        monkeypatch.setattr(harness, "reliability", lambda graph, clustering, params=None,
                            changes=None: reliability(graph, clustering, params))
        monkeypatch.setattr(harness, "precision_recall_f1", lambda predicted, gold, terms=None:
                            precision_recall_f1(predicted, gold))
        monkeypatch.setattr(harness, "refresh_after_answer", cold_refresh)
        monkeypatch.setattr(harness, "refresh_dense_state", cold_refresh)
        cold = run_experiment(config, records, gold=gold)
        cold_replay = run_experiment(config, records, gold=gold, replay=cut)
        assert carried.stats["reclusterings_changed"] > 0
        assert carried.vote_log == cold.vote_log
        assert carried.curve == cold.curve
        assert carried_replay.vote_log == cold_replay.vote_log
        assert carried_replay.curve == cold_replay.curve
        assert carried_replay.flags == cold_replay.flags

    @pytest.mark.parametrize("strategy", ["perc", "tc", "dense"])
    def test_snapshot_every_round_walks_no_block_pair(self, monkeypatch, strategy):
        """The run prices one snapshot after the seeding and one per round,
        each from that round's change, which takes the spans of the block
        pairs that gained edges from the last snapshot's rows, so the run
        never calls edges_between."""
        walked = []
        edges_between = UncertainGraph.edges_between
        snapshots = []
        reliability = perc.harness.reliability

        def counted(self, left, right):
            walked.append((left, right))
            return edges_between(self, left, right)

        def snapshot(graph, clustering, params=None, changes=None):
            snapshots.append(changes)
            return reliability(graph, clustering, params, changes=changes)

        monkeypatch.setattr(UncertainGraph, "edges_between", counted)
        monkeypatch.setattr(perc.harness, "reliability", snapshot)
        records, gold = synth_world(30, 6, seed=5)
        config = ExperimentConfig(strategy=strategy, budget=150, batch_size=5,
                                  initial_pairs=29, error_rate=0.2, mc_samples=50,
                                  exact_edge_limit=4, seed=3)
        result = run_experiment(config, records, gold=gold)
        assert result.stats["reclusterings_changed"] > 0
        assert walked == []
        assert len(snapshots) == len(result.curve) == 1 + result.stats["rounds"]
        assert snapshots[0] is None and None not in snapshots[1:]

    def test_stats_crowd_error_rate_zero_when_error_free(self):
        result, _ = self.run_error_free("perc")
        assert result.stats["crowd_error_rate"] == 0.0

    def test_requires_answer_source(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(), ["a", "b"])

    @pytest.mark.parametrize("initial", [0, 2])
    def test_replay_log_must_name_declared_records(self, initial):
        rows = [(("a", "b"), VoteTally(5, 5)), (("b", "z"), VoteTally(1, 5))]
        config = ExperimentConfig(budget=2, initial_pairs=initial)
        with pytest.raises(ValueError, match="'z'"):
            run_experiment(config, ["a", "b", "c"], replay=ReplayOracle(rows))

    def test_gold_must_cover_records(self):
        gold = GoldClustering({"a": "x"})
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(), ["a", "b"], gold=gold)


class TestReplay:
    def test_replaying_own_log_reproduces_the_curve(self):
        for strategy in ("perc", "tc", "dense"):
            records, gold = synth_world(10, 3, seed=6)
            config = ExperimentConfig(strategy=strategy, budget=30,
                                      batch_size=4, initial_pairs=9,
                                      workers_per_pair=5, error_rate=0.2,
                                      seed=21)
            live = run_experiment(config, records, gold=gold)
            replayed = run_experiment(config, records, gold=gold,
                                      replay=ReplayOracle(live.vote_log))
            assert replayed.curve == live.curve
            assert replayed.vote_log == live.vote_log
            assert replayed.clustering == live.clustering

    def test_sampled_run_reruns_and_replays_byte_for_byte(self, tmp_path, capsys):
        # acceptance 7's world with every block sampled: a sampled value
        # carries across rounds, so it must equal the one priced cold
        records, gold = synth_world(20, 5, seed=99)
        write_records_csv(tmp_path / "records.csv", records)
        write_gold_csv(tmp_path / "gold.csv", gold)
        base = ["run", "--records", str(tmp_path / "records.csv"),
                "--gold", str(tmp_path / "gold.csv"), "--strategy", "perc",
                "--budget", "80", "--batch", "5", "--initial", "19", "--seed", "123",
                "--exact-edge-limit", "0", "--mc-samples", "50"]
        for name in ("first", "second"):
            assert main([*base, "--out", str(tmp_path / name)]) == 0
        assert main([*base, "--replay", str(tmp_path / "first" / "votes.csv"),
                     "--out", str(tmp_path / "replayed")]) == 0
        capsys.readouterr()
        first = (tmp_path / "first" / "curve.csv").read_bytes()
        assert (tmp_path / "second" / "curve.csv").read_bytes() == first
        assert (tmp_path / "replayed" / "curve.csv").read_bytes() == first

    def test_replay_without_gold_gives_nan_quality(self):
        records, gold = synth_world(8, 2, seed=13)
        config = ExperimentConfig(strategy="perc", budget=15, batch_size=3,
                                  initial_pairs=7, seed=3)
        live = run_experiment(config, records, gold=gold)
        replayed = run_experiment(config, records,
                                  replay=ReplayOracle(live.vote_log))
        assert [s.questions_asked for s in replayed.curve] == \
            [s.questions_asked for s in live.curve]
        assert [s.reliability for s in replayed.curve] == \
            [s.reliability for s in live.curve]
        for snap in replayed.curve:
            assert math.isnan(snap.f1)

    def test_running_example_log_seeds_and_flags_exhaustion(self):
        # The fixture log answers every far pair and the in-block pairs;
        # after seeding, selection wants (E, H), which the log cannot
        # answer, so the run stops with the exhaustion flag.
        rows = running_vote_rows()
        config = ExperimentConfig(strategy="perc", budget=len(rows) + 1,
                                  batch_size=1, initial_pairs=len(rows),
                                  seed=0)
        records = sorted({r for (a, b), _ in rows for r in (a, b)})
        result = run_experiment(config, records, replay=ReplayOracle(rows))
        assert result.flags.get("replay_exhausted")
        assert result.stats["questions_asked"] == len(rows)
        assert result.clustering.blocks == (
            ("A", "B"), ("C", "D"), ("E", "F"), ("G", "H"))

    def test_dense_flags_replay_exhaustion_only_while_cross_pairs_remain(self):
        # DENSE asks every cross pair of an error-free world and stops; a
        # replay of that log stops at the same point, while a replay of a
        # cut log stops with cross pairs left that the log cannot answer
        records, gold = synth_world(9, 3, seed=2)
        config = ExperimentConfig(strategy="dense", budget=total_pairs(9),
                                  batch_size=3, initial_pairs=8,
                                  workers_per_pair=3, error_rate=0.0, seed=11)
        live = run_experiment(config, records, gold=gold)
        assert live.flags == {"exhausted": True}
        full = run_experiment(config, records, replay=ReplayOracle(live.vote_log))
        assert full.flags == {"exhausted": True}
        assert full.vote_log == live.vote_log
        cut = run_experiment(config, records, replay=ReplayOracle(live.vote_log[:14]))
        assert cut.flags == {"exhausted": True, "replay_exhausted": True}

    def test_replay_ends_before_a_round_whose_first_pick_is_unrecorded(self):
        # the log lacks the first pick of TC's twelfth batch, so that round
        # asks nothing, is not counted, and ends the run
        records, gold = synth_world(20, 4, seed=1)
        config = ExperimentConfig(strategy="tc", budget=60, batch_size=5, seed=2)
        live = run_experiment(config, records, gold=gold)
        assert live.stats["rounds"] == 12
        (missing, _), = live.vote_log[55:56]
        cut = run_experiment(config, records, gold=gold,
                             replay=ReplayOracle(live.vote_log[:55] + live.vote_log[56:]))
        assert cut.vote_log == live.vote_log[:55]
        assert cut.stats["rounds"] == 11
        assert cut.flags == {"replay_exhausted": True, "unanswered_selection": missing}
        assert cut.curve == live.curve[:12]


class TestReport:
    def test_writes_all_files_and_returns_curve_path(self, tmp_path, capsys):
        records, gold = synth_world(8, 2, seed=1)
        config = ExperimentConfig(strategy="perc", budget=12, batch_size=3,
                                  initial_pairs=7, seed=5)
        result = run_experiment(config, records, gold=gold)
        curve_path = report(result, tmp_path / "out")
        assert curve_path == str(tmp_path / "out" / "curve.csv")
        for name in ("curve.csv", "clusters.csv", "votes.csv"):
            assert (tmp_path / "out" / name).exists()
        printed = capsys.readouterr().out
        assert "questions=" in printed and "f1=" in printed
        assert read_curve_csv(curve_path) == result.curve

    def test_rerun_is_byte_identical(self, tmp_path):
        records, gold = synth_world(8, 2, seed=1)
        config = ExperimentConfig(strategy="perc", budget=12, batch_size=3,
                                  initial_pairs=7, seed=5)
        blobs = []
        for name in ("first", "second"):
            result = run_experiment(config, records, gold=gold)
            report(result, tmp_path / name)
            blobs.append((tmp_path / name / "curve.csv").read_bytes())
        assert blobs[0] == blobs[1]
