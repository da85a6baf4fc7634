"""Simulated and replayed crowd answer sources."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perc import (
    GoldClustering,
    ReplayOracle,
    SimulatedOracle,
    UnrecordedPairError,
    VoteTally,
    WorkerModel,
    crowd_error_rate,
    simulate_votes,
)
from perc.util import make_rng

GOLD = GoldClustering({"a": "e1", "b": "e1", "c": "e2", "d": "e2"})


class TestGoldClustering:
    def test_same_and_entity(self):
        assert GOLD.same("a", "b")
        assert not GOLD.same("b", "c")
        assert GOLD.entity_of("c") == "e2"
        with pytest.raises(KeyError):
            GOLD.entity_of("z")

    def test_to_clustering(self):
        c = GOLD.to_clustering()
        assert c.blocks == (("a", "b"), ("c", "d"))

    def test_difficulty_defaults_and_mean(self):
        g = GoldClustering({"a": "e1", "b": "e1", "c": "e2"},
                           difficulty={"a": 2.0})
        assert g.pair_difficulty("a", "b") == 1.5
        assert g.pair_difficulty("b", "c") == 1.0

    def test_rejects_bad_difficulty(self):
        with pytest.raises(ValueError):
            GoldClustering({"a": "e1"}, difficulty={"z": 1.0})
        with pytest.raises(ValueError):
            GoldClustering({"a": "e1"}, difficulty={"a": -0.5})
        with pytest.raises(ValueError):
            GoldClustering({})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_difficulty(self, value):
        # min(1, error_rate * nan) is 1, so every vote would come out wrong
        with pytest.raises(ValueError, match="difficulty for 'a' must be a finite number"):
            GoldClustering({"a": "x", "b": "x"}, difficulty={"a": value})


class TestWorkerModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerModel(workers_per_pair=0)
        with pytest.raises(ValueError):
            WorkerModel(error_rate=1.5)

    def test_error_free_votes_match_gold(self):
        model = WorkerModel(workers_per_pair=7, error_rate=0.0)
        rng = make_rng(0)
        assert simulate_votes(GOLD, ("a", "b"), model, rng) == VoteTally(7, 7)
        assert simulate_votes(GOLD, ("a", "c"), model, rng) == VoteTally(0, 7)

    def test_always_wrong_votes_invert_gold(self):
        model = WorkerModel(workers_per_pair=4, error_rate=1.0)
        rng = make_rng(0)
        assert simulate_votes(GOLD, ("a", "b"), model, rng) == VoteTally(0, 4)
        assert simulate_votes(GOLD, ("c", "a"), model, rng) == VoteTally(4, 4)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.sampled_from((0.0, 0.1, 0.25, 0.5, 1.0)),
           st.sampled_from((("a", "b"), ("a", "c"))), st.integers(0, 2**64 - 1))
    def test_bulk_coins_equal_per_coin_draws(self, workers, error_rate, pair, seed):
        # the reference draws one rng.random() per worker, in worker order
        model = WorkerModel(workers_per_pair=workers, error_rate=error_rate)
        rng = make_rng(seed)
        truth = GOLD.same(*pair)
        yes = sum(truth != (rng.random() < error_rate) for _ in range(workers))
        rng = make_rng(seed)
        assert simulate_votes(GOLD, pair, model, rng) == VoteTally(yes, workers)
        # the bulk draw leaves the stream where the per-coin draws would
        reference = make_rng(seed)
        for _ in range(workers):
            reference.random()
        assert rng.random() == reference.random()

    def test_error_rate_scales_with_difficulty(self):
        # Difficulty 3 at base rate 0.2 flips with probability 0.6; check
        # the empirical flip share lands near it.
        gold = GoldClustering({"a": "e1", "b": "e1"},
                              difficulty={"a": 3.0, "b": 3.0})
        model = WorkerModel(workers_per_pair=1, error_rate=0.2)
        rng = make_rng(101)
        flips = sum(simulate_votes(gold, ("a", "b"), model, rng).yes == 0
                    for _ in range(4000))
        assert flips / 4000 == pytest.approx(0.6, abs=0.03)

    def test_difficulty_caps_flip_probability_at_one(self):
        gold = GoldClustering({"a": "e1", "b": "e1"},
                              difficulty={"a": 50.0, "b": 50.0})
        model = WorkerModel(workers_per_pair=6, error_rate=0.9)
        assert simulate_votes(gold, ("a", "b"), model, make_rng(5)) == VoteTally(0, 6)


class TestSimulatedOracle:
    def test_deterministic_per_pair(self):
        oracle = SimulatedOracle(GOLD, WorkerModel(), seed=42)
        assert oracle.answer(("a", "b")) == oracle.answer(("b", "a"))

    def test_ask_order_does_not_change_tallies(self):
        pairs = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        o1 = SimulatedOracle(GOLD, WorkerModel(), seed=9)
        o2 = SimulatedOracle(GOLD, WorkerModel(), seed=9)
        forward = {p: o1.answer(p) for p in pairs}
        backward = {p: o2.answer(p) for p in reversed(pairs)}
        assert forward == backward

    def test_different_seeds_differ_somewhere(self):
        pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
        model = WorkerModel(workers_per_pair=20, error_rate=0.5)
        o1 = SimulatedOracle(GOLD, model, seed=1)
        o2 = SimulatedOracle(GOLD, model, seed=2)
        assert any(o1.answer(p) != o2.answer(p) for p in pairs)

    def test_tallies_centered_on_expected_yes_share(self):
        model = WorkerModel(workers_per_pair=10, error_rate=0.1)
        oracle = SimulatedOracle(GOLD, model, seed=3)
        yes = oracle.answer(("a", "b"))
        no = oracle.answer(("a", "c"))
        assert yes.fraction >= 0.5
        assert no.fraction <= 0.5


class TestReplayOracle:
    def test_round_trip(self):
        rows = [(("a", "b"), VoteTally(4, 5)), (("c", "a"), VoteTally(1, 5))]
        oracle = ReplayOracle(rows)
        assert oracle.answer(("b", "a")) == VoteTally(4, 5)
        assert oracle.answer(("a", "c")) == VoteTally(1, 5)
        assert oracle.rows[0] == (("a", "b"), VoteTally(4, 5))
        assert oracle.rows[1][0] == ("a", "c")
        assert oracle.pairs == frozenset({("a", "b"), ("a", "c")})

    def test_unrecorded_pair_raises(self):
        oracle = ReplayOracle([(("a", "b"), VoteTally(4, 5))])
        with pytest.raises(UnrecordedPairError):
            oracle.answer(("a", "c"))
        assert issubclass(UnrecordedPairError, KeyError)

    def test_duplicate_log_pair_rejected(self):
        with pytest.raises(ValueError):
            ReplayOracle([(("a", "b"), VoteTally(4, 5)),
                          (("b", "a"), VoteTally(5, 5))])


class TestCrowdErrorRate:
    def test_worked_example(self):
        # A matching pair answered 8 yes of 10: 20 percent of votes wrong.
        rate = crowd_error_rate([(("a", "b"), VoteTally(8, 10))], GOLD)
        assert rate == pytest.approx(20.0)

    def test_mixes_pair_directions(self):
        rows = [
            (("a", "b"), VoteTally(8, 10)),   # matching, 2 wrong
            (("a", "c"), VoteTally(1, 10)),   # non-matching, 1 wrong
        ]
        assert crowd_error_rate(rows, GOLD) == pytest.approx(15.0)

    def test_empty_is_none(self):
        assert crowd_error_rate([], GOLD) is None

    def test_simulated_rate_near_model_rate(self):
        model = WorkerModel(workers_per_pair=5, error_rate=0.1)
        oracle = SimulatedOracle(GOLD, model, seed=17)
        pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                 ("b", "d"), ("c", "d")]
        rows = [(p, oracle.answer(p)) for p in pairs]
        rate = crowd_error_rate(rows, GOLD)
        assert 0.0 <= rate <= 35.0
