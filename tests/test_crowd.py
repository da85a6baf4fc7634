"""Simulated and replayed crowd answer sources."""

import hashlib
import itertools
import math

import pytest

from perc import (
    GoldClustering,
    ReplayOracle,
    SimulatedOracle,
    VoteTally,
    WorkerModel,
)
from perc.crowd import (MAX_WORKERS_PER_PAIR, UnrecordedPairError, crowd_error_rate,
                        simulate_votes, vote_coins)

GOLD = GoldClustering({"a": "e1", "b": "e1", "c": "e2", "d": "e2"})


class TestGoldClustering:
    def test_same_and_entity(self):
        assert GOLD.same("a", "b")
        assert not GOLD.same("b", "c")
        assert GOLD.entity_of("c") == "e2"
        with pytest.raises(KeyError):
            GOLD.entity_of("z")

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

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_rejects_bool_and_string_difficulty(self, value):
        # True would weigh in as 1.0 and "0.5" would fail a bare comparison
        with pytest.raises(ValueError, match=f"difficulty for 'a' must be a finite number "
                                             f">= 0, got {value}$"):
            GoldClustering({"a": "x", "b": "x"}, difficulty={"a": value})

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
        WorkerModel(workers_per_pair=MAX_WORKERS_PER_PAIR)
        with pytest.raises(ValueError):
            WorkerModel(workers_per_pair=MAX_WORKERS_PER_PAIR + 1)

    def test_error_free_votes_match_gold(self):
        model = WorkerModel(workers_per_pair=7, error_rate=0.0)
        assert simulate_votes(GOLD, ("a", "b"), model,
                              vote_coins(0, "a", "b", 7)) == VoteTally(7, 7)
        assert simulate_votes(GOLD, ("a", "c"), model,
                              vote_coins(0, "a", "c", 7)) == VoteTally(0, 7)

    def test_always_wrong_votes_invert_gold(self):
        model = WorkerModel(workers_per_pair=4, error_rate=1.0)
        assert simulate_votes(GOLD, ("a", "b"), model,
                              vote_coins(0, "a", "b", 4)) == VoteTally(0, 4)
        assert simulate_votes(GOLD, ("c", "a"), model,
                              vote_coins(0, "a", "c", 4)) == VoteTally(4, 4)

    def test_error_rate_scales_with_difficulty(self):
        # Difficulty 3 at base rate 0.2 flips with probability 0.6; check
        # the empirical flip share lands near it.
        gold = GoldClustering({"a": "e1", "b": "e1"},
                              difficulty={"a": 3.0, "b": 3.0})
        model = WorkerModel(workers_per_pair=1, error_rate=0.2)
        flips = sum(simulate_votes(gold, ("a", "b"), model, [coin]).yes == 0
                    for coin in vote_coins(101, "a", "b", 4000))
        assert flips / 4000 == pytest.approx(0.6, abs=0.03)

    def test_difficulty_caps_flip_probability_at_one(self):
        gold = GoldClustering({"a": "e1", "b": "e1"},
                              difficulty={"a": 50.0, "b": 50.0})
        model = WorkerModel(workers_per_pair=6, error_rate=0.9)
        assert simulate_votes(gold, ("a", "b"), model,
                              vote_coins(5, "a", "b", 6)) == VoteTally(0, 6)

    @pytest.mark.parametrize("count", [4, 6])
    def test_one_coin_per_worker(self, count):
        model = WorkerModel(workers_per_pair=5, error_rate=0.1)
        with pytest.raises(ValueError, match=f"need 5 coins, got {count}"):
            simulate_votes(GOLD, ("a", "b"), model, [0.5] * count)

    def test_self_loop_is_refused(self):
        model = WorkerModel(workers_per_pair=5, error_rate=0.1)
        with pytest.raises(ValueError, match=r"^pair \('a', 'a'\) is a self-loop"):
            simulate_votes(GOLD, ("a", "a"), model, [0.5] * 5)


class TestVoteCoins:
    def test_known_answer(self):
        # pins the stream: a change here moves every simulated tally
        assert vote_coins(42, "a", "b", 10) == [
            0.031115698112431645, 0.19744103144096614, 0.28841541090556433,
            0.7789623669085282, 0.551062205939987, 0.8547866979803442,
            0.729036169633587, 0.7250339488330988, 0.9358750756481377,
            0.4578959211111985,
        ]
        # coins 0 to 2 fall below 0.3, so three of five workers flip YES
        oracle = SimulatedOracle(GOLD, WorkerModel(5, 0.3), seed=42)
        assert oracle.answer(("b", "a")) == VoteTally(2, 5)

    def test_coin_i_does_not_depend_on_worker_count(self):
        assert vote_coins(7, "a", "c", 20)[:5] == vote_coins(7, "a", "c", 5)
        for workers in (5, 20):
            model = WorkerModel(workers, 0.1)
            assert SimulatedOracle(GOLD, model, seed=7).answer(("c", "a")) == simulate_votes(
                GOLD, ("a", "c"), model, vote_coins(7, "a", "c", workers))

    def test_coins_8_to_15_come_from_the_digest_salted_with_1(self):
        digest = hashlib.blake2b(repr((42, "votes", "a", "b")).encode("utf-8"),
                                 salt=(1).to_bytes(16, "little")).digest()
        words = [int.from_bytes(digest[8 * j:8 * j + 8], "little") for j in range(8)]
        assert vote_coins(42, "a", "b", 16)[8:] == [(w >> 11) / 2**53 for w in words]

    def test_coin_999_is_word_7_of_the_digest_salted_with_124(self):
        digest = hashlib.blake2b(repr((42, "votes", "a", "b")).encode("utf-8"),
                                 salt=(124).to_bytes(16, "little")).digest()
        word = int.from_bytes(digest[56:64], "little")
        assert vote_coins(42, "a", "b", 1000)[999] == (word >> 11) / 2**53


class TestSimulatedOracle:
    @pytest.mark.parametrize("workers", [1, 5, 8, 9, 16, 17, 1000])
    def test_answer_is_the_reference_vote(self, workers):
        # answer counts flips from the digest words; simulate_votes on
        # vote_coins is the definition it must reproduce, up to the cap of
        # the flip probability at 1 (difficulty 3 at error rates 0.5 and 1)
        for seed, error_rate, difficulty in itertools.product(
                (0, 7, 42, -3, 2**63), (0.0, 0.1, 0.5, 1.0), (0.0, 0.5, 1.0, 3.0)):
            gold = GoldClustering(GOLD.entity, {r: difficulty for r in GOLD.entity})
            model = WorkerModel(workers, error_rate)
            oracle = SimulatedOracle(gold, model, seed=seed)
            for pair in (("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")):
                canonical = tuple(sorted(pair))
                coins = vote_coins(seed, *canonical, workers)
                assert oracle.answer(pair) == simulate_votes(gold, canonical, model, coins), \
                    (seed, error_rate, difficulty, pair)

    def test_a_coin_equal_to_the_flip_probability_does_not_flip(self):
        coins = vote_coins(42, "a", "b", 5)
        for error_rate, flips in ((coins[2], 2), (math.nextafter(coins[2], 1.0), 3)):
            model = WorkerModel(5, error_rate)
            assert SimulatedOracle(GOLD, model, seed=42).answer(("a", "b")) == \
                VoteTally(5 - flips, 5) == simulate_votes(GOLD, ("a", "b"), model, coins)

    def test_answer_keeps_the_reference_errors(self):
        oracle = SimulatedOracle(GOLD, WorkerModel(), seed=1)
        with pytest.raises(ValueError, match=r"pair \('a', 'a'\) is a self-loop"):
            oracle.answer(("a", "a"))
        with pytest.raises(KeyError, match="record 'z' is not in the gold clustering"):
            oracle.answer(("a", "z"))

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
