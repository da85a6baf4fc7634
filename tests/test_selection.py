"""Question selection: gains, the cached queue, refresh, and batching."""

import math

import numpy as np
import pytest

from perc import (
    Clustering,
    ReliabilityParams,
    UncertainGraph,
    build_state,
    pair_priority,
    refresh_after_answer,
    select_batch,
    select_next,
)
from perc.reliability import block_connectivity, disconnectivity

from conftest import random_small_graph


def states_equal(a, b):
    return (a.intra == b.intra and a.inter == b.inter
            and a.clustering == b.clustering and a.graph.edges == b.graph.edges)


class TestPairPriority:
    def test_worked_inter_gains(self, running_graph, running_clustering):
        # D(C3, C4) = 0.79 and D(C1, C2) = 0.82; a certain NO answer lifts
        # either term to zero, so the gains are -log10 of those values.
        g34 = pair_priority(running_graph, running_clustering, ("E", "H"))
        g12 = pair_priority(running_graph, running_clustering, ("A", "D"))
        assert g34.gain == pytest.approx(0.102, abs=1e-3)
        assert g12.gain == pytest.approx(0.086, abs=1e-3)
        assert g34.gain == pytest.approx(-math.log10(0.79), abs=1e-12)
        assert g12.gain == pytest.approx(-math.log10(0.82), abs=1e-12)
        assert g34.gain > g12.gain
        assert g34.scope == ("inter", ("E", "F"), ("G", "H"))

    def test_spanning_pairs_share_the_gain(self, running_graph, running_clustering):
        assert pair_priority(running_graph, running_clustering, ("A", "D")).gain == \
            pair_priority(running_graph, running_clustering, ("B", "C")).gain

    def test_intra_gain_matches_connectivity_ratio(self):
        g = UncertainGraph.from_probabilities(
            "ABC", {("A", "B"): 0.9, ("B", "C"): 0.6})
        c = Clustering([["A", "B", "C"]])
        params = ReliabilityParams()
        cand = pair_priority(g, c, ("A", "C"), params)
        base = block_connectivity(g, c.blocks[0], params).value
        with_edge = block_connectivity(g, c.blocks[0], params,
                                       extra_pair=("A", "C")).value
        assert base == pytest.approx(0.54)
        assert with_edge == pytest.approx(0.9 + 0.6 - 0.54)
        assert cand.gain == pytest.approx(math.log10(with_edge) - math.log10(base))
        assert cand.scope == ("intra", ("A", "B", "C"))

    def test_uncovered_block_pair_gets_clamp_gain(self):
        g = UncertainGraph(["A", "B"])
        c = Clustering([["A"], ["B"]])
        cand = pair_priority(g, c, ("A", "B"), ReliabilityParams(epsilon=1e-12))
        assert cand.gain == pytest.approx(12.0)

    def test_rejects_crowdsourced_pair(self, running_graph, running_clustering):
        with pytest.raises(ValueError):
            pair_priority(running_graph, running_clustering, ("A", "B"))

    def test_intra_gain_nonnegative(self):
        # Adding a certain edge can only help connectivity.
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(50):
            g = random_small_graph(rng, n_min=3, n_max=6, p_edge=0.5)
            c = Clustering([list(g.records)])
            absent = list(g.absent_pairs())
            if not absent:
                continue
            pair = absent[int(rng.integers(len(absent)))]
            assert pair_priority(g, c, pair).gain >= -1e-9
            checked += 1
        assert checked >= 25


class TestBuildState:
    def test_running_example_queue(self, running_graph, running_clustering):
        state = build_state(running_graph, running_clustering)
        # No intra candidate exists (every block's single pair was asked),
        # and only two block pairs still have absent spanning pairs.
        assert state.intra == {}
        assert set(state.inter) == {
            (("A", "B"), ("C", "D")), (("E", "F"), ("G", "H"))}
        rep12, gain12 = state.inter[(("A", "B"), ("C", "D"))]
        rep34, gain34 = state.inter[(("E", "F"), ("G", "H"))]
        assert rep12 == ("A", "D")
        assert rep34 == ("E", "H")
        assert gain34 == pytest.approx(-math.log10(0.79))
        assert gain12 == pytest.approx(-math.log10(0.82))
        assert len(state) == 2

    def test_representative_is_smallest_absent_spanning_pair(self):
        g = UncertainGraph.from_probabilities(
            "ABCD", {("A", "B"): 0.9, ("C", "D"): 0.9, ("A", "C"): 0.1})
        c = Clustering([["A", "B"], ["C", "D"]])
        state = build_state(g, c)
        rep, _ = state.inter[(("A", "B"), ("C", "D"))]
        assert rep == ("A", "D")  # (A, C) is taken, (A, D) is next

    def test_fully_crowdsourced_graph_has_empty_queue(self):
        g = UncertainGraph.from_probabilities(
            "AB", {("A", "B"): 0.9})
        state = build_state(g, Clustering([["A", "B"]]))
        assert len(state) == 0
        assert select_next(state) is None

    def test_allowed_filter_restricts_candidates(self, running_graph, running_clustering):
        allowed = frozenset({("B", "C"), ("F", "G")})
        state = build_state(running_graph, running_clustering, allowed=allowed)
        assert state.inter[(("A", "B"), ("C", "D"))][0] == ("B", "C")
        assert state.inter[(("E", "F"), ("G", "H"))][0] == ("F", "G")
        none_left = build_state(running_graph, running_clustering,
                                allowed=frozenset())
        assert len(none_left) == 0


class TestSelectNext:
    def test_running_example_first_question(self, running_graph, running_clustering):
        state = build_state(running_graph, running_clustering)
        assert select_next(state) == ("E", "H")

    def test_ties_break_lexicographically(self):
        # Two block pairs with identical disconnectivity tie on gain.
        g = UncertainGraph.from_probabilities(
            "ABCDEF",
            {("A", "B"): 0.9, ("C", "D"): 0.9, ("E", "F"): 0.9,
             ("B", "C"): 0.3, ("D", "E"): 0.3})
        c = Clustering([["A", "B"], ["C", "D"], ["E", "F"]])
        state = build_state(g, c)
        # (A,B)x(C,D) and (C,D)x(E,F) share gain; (A,B)x(E,F) is uncovered
        # and clamps far higher, so its representative wins.
        assert select_next(state) == ("A", "E")

    def test_prefers_highest_gain(self, running_graph, running_clustering):
        state = build_state(running_graph, running_clustering)
        ranked = state.entries()
        assert [c.pair for c in ranked] == [("E", "H"), ("A", "D")]
        assert ranked[0].gain > ranked[1].gain


class TestSelectBatch:
    def test_batch_two_spreads_across_block_pairs(self, running_graph, running_clustering):
        state = build_state(running_graph, running_clustering)
        assert select_batch(state, 2) == [("E", "H"), ("A", "D")]

    def test_batch_four_expands_within_block_pairs(self, running_graph, running_clustering):
        state = build_state(running_graph, running_clustering)
        assert select_batch(state, 4) == [
            ("E", "H"), ("A", "D"), ("F", "G"), ("B", "C")]

    def test_batch_one_equals_select_next(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            g = random_small_graph(rng, n_min=3, n_max=7)
            c = Clustering([list(g.records)[:2], list(g.records)[2:]]) \
                if len(g.records) > 2 else Clustering([list(g.records)])
            state = build_state(g, c)
            nxt = select_next(state)
            if nxt is None:
                assert select_batch(state, 1) == []
            else:
                assert select_batch(state, 1) == [nxt]

    def test_batch_caps_at_population(self, running_graph, running_clustering):
        state = build_state(running_graph, running_clustering)
        assert select_batch(state, 10) == [
            ("E", "H"), ("A", "D"), ("F", "G"), ("B", "C")]

    def test_batch_returns_distinct_pairs(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            g = random_small_graph(rng, n_min=4, n_max=8, p_edge=0.4)
            recs = list(g.records)
            c = Clustering([recs[: len(recs) // 2], recs[len(recs) // 2:]])
            state = build_state(g, c)
            batch = select_batch(state, 6)
            assert len(batch) == len(set(batch))
            for pair in batch:
                assert not g.has_edge(*pair)

    def test_rejects_nonpositive_k(self, running_graph, running_clustering):
        state = build_state(running_graph, running_clustering)
        with pytest.raises(ValueError):
            select_batch(state, 0)

    def test_expansion_pairs_share_the_representative_gain(self, running_graph,
                                                           running_clustering):
        state = build_state(running_graph, running_clustering)
        batch = select_batch(state, 4)
        by_pair = {}
        for pair in batch:
            by_pair[pair] = pair_priority(running_graph, running_clustering,
                                          pair).gain
        assert by_pair[("E", "H")] == by_pair[("F", "G")]
        assert by_pair[("A", "D")] == by_pair[("B", "C")]


class TestRefreshAfterAnswer:
    def test_inter_answer_reprices_only_that_block_pair(self, running_graph,
                                                        running_clustering):
        state = build_state(running_graph, running_clustering)
        intra, inter = state.intra, state.inter
        before = dict(inter)
        g2 = running_graph.with_edge("E", "H", probability=0.2)
        refresh_after_answer(state, g2, ("E", "H"))
        assert state.intra is intra and state.inter is inter
        assert states_equal(state, build_state(g2, running_clustering))
        # the C3 x C4 disconnectivity rose to 1 - 0.3*0.7*0.2, repricing it
        _, new_gain = state.inter[(("E", "F"), ("G", "H"))]
        assert new_gain == pytest.approx(-math.log10(1 - 0.3 * 0.7 * 0.2))
        # the untouched block pair kept its exact entry object value
        assert state.inter[(("A", "B"), ("C", "D"))] == \
            before[(("A", "B"), ("C", "D"))]

    def test_intra_answer_reprices_only_that_block(self):
        g = UncertainGraph.from_probabilities(
            "ABCDE", {("A", "B"): 0.9, ("B", "C"): 0.8, ("D", "E"): 0.7,
                      ("C", "D"): 0.2})
        c = Clustering([["A", "B", "C"], ["D", "E"]])
        state = build_state(g, c)
        g2 = g.with_edge("A", "C", probability=0.6)
        refresh_after_answer(state, g2, ("A", "C"))
        assert states_equal(state, build_state(g2, c))

    def test_refresh_requires_edge_in_graph(self, running_graph, running_clustering):
        state = build_state(running_graph, running_clustering)
        with pytest.raises(ValueError):
            refresh_after_answer(state, running_graph, ("E", "H"))

    def test_incremental_equals_scratch_over_many_answers(self):
        # Drive a whole instance to exhaustion, alternating intra and inter
        # answers, checking the cache against a scratch build every step.
        rng = np.random.default_rng(73)
        for trial in range(8):
            g = random_small_graph(rng, n_min=4, n_max=7, p_edge=0.5)
            recs = list(g.records)
            c = Clustering([recs[: len(recs) // 2], recs[len(recs) // 2:]])
            state = build_state(g, c)
            while True:
                pair = select_next(state)
                if pair is None:
                    break
                g = g.with_edge(*pair, probability=float(rng.random()))
                refresh_after_answer(state, g, pair)
                assert states_equal(state, build_state(g, c))
            assert list(g.absent_pairs()) == []

    def test_batched_answers_equal_scratch(self):
        # One graph update carries a whole batch, then each answered pair is
        # folded in by its own call, as the experiment loop does.
        rng = np.random.default_rng(29)
        for trial in range(8):
            g = random_small_graph(rng, n_min=5, n_max=8, p_edge=0.4)
            recs = list(g.records)
            c = Clustering([recs[::2], recs[1::2]])
            state = build_state(g, c)
            while len(state):
                batch = select_batch(state, 3)
                for pair in batch:
                    g = g.with_edge(*pair, probability=float(rng.random()))
                for pair in batch:
                    refresh_after_answer(state, g, pair)
                assert states_equal(state, build_state(g, c))
