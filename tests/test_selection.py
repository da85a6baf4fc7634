"""Question selection: gains, the cached queue, refresh, and batching."""

import math

import numpy as np
import pytest

import perc.selection
from perc import (
    Clustering,
    ReliabilityParams,
    UncertainGraph,
    build_state,
    pair_priority,
    refresh_after_answer,
    scc_cluster,
    select_batch,
)
from perc.reliability import MAX_EXACT_EDGE_LIMIT, block_connectivity, pair_connectivity
from perc.selection import PriorityState

from conftest import random_partition, random_small_graph, round_changes


def factoring_connectivity(n, edges):
    """All-terminal connectivity by edge factoring, a reference that shares
    nothing with the partition DP: condition on one edge at a time,
    contract it (present, p) or drop it (absent, 1 - p); stop at 1 once
    one group is left and at 0 once the remaining edges cannot join the
    groups."""
    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def groups(parent, extra):
        parent = list(parent)
        for u, v, _ in extra:
            ru, rv = find(parent, u), find(parent, v)
            if ru != rv:
                parent[rv] = ru
        return len({find(parent, x) for x in range(n)}), parent

    def solve(parent, idx):
        count, _ = groups(parent, ())
        if count == 1:
            return 1.0
        if groups(parent, edges[idx:])[0] > 1:
            return 0.0
        u, v, p = edges[idx]
        if find(parent, u) == find(parent, v):
            return solve(parent, idx + 1)
        _, joined = groups(parent, [edges[idx]])
        value = p * solve(joined, idx + 1)
        if p < 1.0:
            value += (1.0 - p) * solve(parent, idx + 1)
        return value

    return solve(list(range(n)), 0)


def inter_queue(state):
    """Block pair -> (representative, gain) over the full queue, stored or not."""
    return {(c.scope[1], c.scope[2]): (c.pair, c.gain)
            for c in state.entries() if c.scope[0] == "inter"}


def states_equal(a, b):
    # the views price both states, so every row of _inter is priced by now
    return (a.intra == b.intra and a.inter == b.inter and a._inter.keys() == b._inter.keys()
            and a.entries() == b.entries()
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
        g = UncertainGraph("ABC", {("A", "B"): 0.9, ("B", "C"): 0.6})
        c = Clustering([["A", "B", "C"]])
        params = ReliabilityParams()
        cand = pair_priority(g, c, ("A", "C"), params)
        base, (with_edge,) = pair_connectivity(g, c.blocks[0], [("A", "C")], params)
        assert base == block_connectivity(g, c.blocks[0], params).value
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

    def test_rejects_a_clustering_of_other_records(self):
        # the pair's blocks are found, and nothing spans them, so without the
        # cover check the pair would get the clamped top gain
        g = UncertainGraph("ABC", {("A", "B"): 0.9, ("B", "C"): 0.8})
        c = Clustering([["A", "B"], ["Z"]])
        with pytest.raises(ValueError, match="does not cover exactly the graph's records"):
            pair_priority(g, c, ("A", "Z"))

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


    def test_gain_at_exactly_the_edge_limit_compares_exact_values(self):
        # A block with exactly exact_edge_limit edges is solved exactly, a
        # candidate pair not counted, so its gains are taken against the
        # exact term the score holds.  Sampled with-pair values against an
        # exact base give gains down to -10.9 on such blocks, though a
        # certain edge never lowers connectivity.
        rng = np.random.default_rng(7)
        limit = 8
        params = ReliabilityParams(mc_samples=50, exact_edge_limit=limit, seed=3)
        checked = 0
        while checked < 20:
            g = random_small_graph(rng, n_min=7, n_max=7, p_edge=0.4)
            if len(g.edges) != limit:
                continue
            block = g.records
            c = Clustering([block])
            base = block_connectivity(g, block, params)
            assert base.method == "exact"
            intra = build_state(g, c, params).intra
            pairs = list(g.absent_pairs())
            pair_base, values = pair_connectivity(g, block, pairs, params)
            assert pair_base == base.value
            for pair, with_edge in zip(pairs, values):
                certain = g.with_edge(*pair, probability=1.0)
                assert with_edge == pytest.approx(
                    block_connectivity(certain, block, params).value, abs=1e-12)
                expected = (math.log10(max(with_edge, params.epsilon))
                            - math.log10(max(base.value, params.epsilon)))
                assert pair_priority(g, c, pair, params).gain == expected
                assert intra[pair] == expected
            checked += 1


class TestExactGainsAgainstFactoring:
    def test_build_state_intra_gains_match_per_pair_factoring(self):
        rng = np.random.default_rng(83)
        params = ReliabilityParams(exact_edge_limit=MAX_EXACT_EDGE_LIMIT)
        eps = params.epsilon
        checked = 0
        for trial in range(100):
            g = random_small_graph(rng, n_min=2, n_max=7, p_edge=0.5)
            # one block half of the time, so some blocks hold every record
            c = random_partition(rng, g.records) if trial % 2 else Clustering([g.records])
            state = build_state(g, c, params)
            for pair, gain in state.intra.items():
                block = c.block_of(pair[0])
                index = {r: i for i, r in enumerate(block)}
                edges = [(index[a], index[b], p) for (a, b), p in g.edges_within(block)]
                certain = (index[pair[0]], index[pair[1]], 1.0)
                base = factoring_connectivity(len(block), edges)
                with_pair = factoring_connectivity(len(block), edges + [certain])
                expected = math.log10(max(with_pair, eps)) - math.log10(max(base, eps))
                assert abs(gain - expected) <= 1e-12, (pair, gain, expected)
                assert pair_priority(g, c, pair, params).gain == gain
                checked += 1
        assert checked >= 200


class TestBuildState:
    def test_running_example_queue(self, running_graph, running_clustering):
        state = build_state(running_graph, running_clustering)
        # No intra candidate exists (every block's single pair was asked),
        # and only two block pairs still have absent spanning pairs.
        assert state.intra == {}
        queue = inter_queue(state)
        assert set(queue) == {
            (("A", "B"), ("C", "D")), (("E", "F"), ("G", "H"))}
        rep12, gain12 = queue[(("A", "B"), ("C", "D"))]
        rep34, gain34 = queue[(("E", "F"), ("G", "H"))]
        assert rep12 == ("A", "D")
        assert rep34 == ("E", "H")
        assert gain34 == pytest.approx(-math.log10(0.79))
        assert gain12 == pytest.approx(-math.log10(0.82))
        assert len(state.entries()) == 2

    def test_representative_is_smallest_absent_spanning_pair(self):
        g = UncertainGraph("ABCD", {("A", "B"): 0.9, ("C", "D"): 0.9, ("A", "C"): 0.1})
        c = Clustering([["A", "B"], ["C", "D"]])
        state = build_state(g, c)
        rep, _ = inter_queue(state)[(("A", "B"), ("C", "D"))]
        assert rep == ("A", "D")  # (A, C) is taken, (A, D) is next

    def test_unspanned_block_pairs_are_left_unstored(self):
        records = [f"r{i:03d}" for i in range(200)]
        g = UncertainGraph(records)
        state = build_state(g, Clustering([r] for r in records))
        assert state.intra == {} and state.inter == {} and set(state._inter) == set()
        assert len(state.entries()) == 19900
        pairs = list(g.absent_pairs())
        for k in (1, 2, 199, 200, 1000):
            assert select_batch(state, k) == pairs[:k]

    def test_unspanned_pair_whose_min_pair_is_not_allowed_is_stored(self):
        g = UncertainGraph("ABCD", {("A", "B"): 0.9})
        c = Clustering([["A", "B"], ["C", "D"]])
        state = build_state(g, c, allowed=frozenset({("B", "D")}))
        top = -math.log10(ReliabilityParams().epsilon)
        assert state.inter == {(("A", "B"), ("C", "D")): (("B", "D"), top)}
        assert len(state.entries()) == 1
        unstored = build_state(g, c, allowed=frozenset({("A", "C"), ("B", "D")}))
        assert unstored.inter == {}
        assert [(e.pair, e.gain) for e in unstored.entries()] == [(("A", "C"), top)]
        assert select_batch(unstored, 3) == [("A", "C"), ("B", "D")]
        # nothing across the blocks may be asked: the stored pair prices to no
        # representative, so (A, C) is no candidate, not an unstored top gain
        empty = build_state(g, c, allowed=frozenset())
        with pytest.raises(KeyError):
            empty.gain(("A", "C"))
        assert select_batch(empty, 3) == [] and empty.entries() == []
        with pytest.raises(KeyError):
            empty.gain(("A", "C"))

    def test_stored_unspanned_pair_goes_when_its_block_is_reclustered_away(self):
        # no edge spans {A,B} x {C,D}, but (A, C) may not be asked, so the
        # pair holds an entry; the next round splits {C,D}, and that entry
        # must go although the pair is in no lost set
        g = UncertainGraph("ABCD", {("A", "B"): 0.9})
        allowed = frozenset({("B", "D"), ("B", "C")})
        state = build_state(g, Clustering([["A", "B"], ["C", "D"]]), allowed=allowed)
        assert set(state.inter) == {(("A", "B"), ("C", "D"))}
        grown = g.with_edge("C", "D", probability=0.2)
        split = Clustering([["A", "B"], ["C"], ["D"]])
        refresh_after_answer(state, round_changes(state, grown, split))
        assert states_equal(state, build_state(grown, split, allowed=allowed))

    def test_fully_crowdsourced_graph_has_empty_queue(self):
        g = UncertainGraph("AB", {("A", "B"): 0.9})
        state = build_state(g, Clustering([["A", "B"]]))
        assert len(state.entries()) == 0
        assert select_batch(state, 1) == []

    def test_previous_must_match_params_allowed_and_edges(self, running_graph,
                                                           running_clustering):
        params = ReliabilityParams(exact_edge_limit=8)
        grown = running_graph.with_edge("A", "D", probability=0.4)
        # the previous graph must be part of the new one
        previous = build_state(grown, running_clustering, params)
        with pytest.raises(ValueError, match="edges this graph lacks"):
            refresh_after_answer(previous, round_changes(previous, running_graph,
                                                         running_clustering))

    def test_carry_prices_no_kept_sampled_block(self, monkeypatch):
        # {A,B,C} survives untouched while E-F merges {D,E} with {F}; at
        # limit 0 both are sampled, and only the new block is priced
        params = ReliabilityParams(mc_samples=50, exact_edge_limit=0)
        graph = UncertainGraph("ABCDEF", {("A", "B"): 0.9, ("B", "C"): 0.8, ("D", "E"): 0.9})
        state = build_state(graph, scc_cluster(graph), params)
        grown = graph.with_edge("E", "F", probability=0.9)
        clustering = scc_cluster(grown)
        assert clustering.blocks == (("A", "B", "C"), ("D", "E", "F"))
        carried_gain = state.intra[("A", "C")]
        priced = []

        def counted(graph, block, pairs, params, *intra):
            priced.append(tuple(block))
            return pair_connectivity(graph, block, pairs, params, *intra)
        monkeypatch.setattr(perc.selection, "pair_connectivity", counted)
        refresh_after_answer(state, round_changes(state, grown, clustering))
        assert state.intra[("A", "C")] == carried_gain
        assert priced == [("D", "E", "F")]
        assert states_equal(state, build_state(grown, clustering, params))

    def test_previous_graph_must_agree_on_records_and_probabilities(
            self, running_graph, running_clustering):
        previous = build_state(running_graph, running_clustering)
        repriced = dict(running_graph.edges)
        repriced[("A", "B")] = 0.7
        repriced = UncertainGraph(running_graph.records, edges=repriced)
        with pytest.raises(ValueError, match="prices differently"):
            refresh_after_answer(previous, round_changes(previous, repriced, running_clustering))
        wider = UncertainGraph(running_graph.records + ("I",), edges=running_graph.edges)
        with pytest.raises(ValueError, match="other records"):
            refresh_after_answer(previous, round_changes(
                previous, wider, Clustering(running_clustering.blocks + (("I",),))))

    def test_allowed_filter_restricts_candidates(self, running_graph, running_clustering):
        allowed = frozenset({("B", "C"), ("F", "G")})
        state = build_state(running_graph, running_clustering, allowed=allowed)
        queue = inter_queue(state)
        assert queue[(("A", "B"), ("C", "D"))][0] == ("B", "C")
        assert queue[(("E", "F"), ("G", "H"))][0] == ("F", "G")
        none_left = build_state(running_graph, running_clustering,
                                allowed=frozenset())
        assert len(none_left.entries()) == 0


class TestSelectBatchOfOne:
    def test_running_example_first_question(self, running_graph, running_clustering):
        state = build_state(running_graph, running_clustering)
        assert select_batch(state, 1) == [("E", "H")]

    def test_ties_break_lexicographically(self):
        # Two block pairs with identical disconnectivity tie on gain.
        g = UncertainGraph("ABCDEF", {("A", "B"): 0.9, ("C", "D"): 0.9, ("E", "F"): 0.9,
                                      ("B", "C"): 0.3, ("D", "E"): 0.3})
        c = Clustering([["A", "B"], ["C", "D"], ["E", "F"]])
        state = build_state(g, c)
        # (A,B)x(C,D) and (C,D)x(E,F) share gain; (A,B)x(E,F) is uncovered
        # and clamps far higher, so its representative wins.
        assert select_batch(state, 1) == [("A", "E")]

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

    def test_a_block_before_the_bound_is_priced_whole(self):
        # A joins {B, F} through either absent pair, which the certain B-F
        # edge makes certain, so both carry the top gain.  The batch of two
        # stops at the unstored (A, D), after (A, B) but before (A, F)
        g = UncertainGraph("ABCDEF", {("B", "F"): 1.0})
        c = Clustering([["A", "B", "F"], ["C"], ["D"], ["E"]])
        assert select_batch(build_state(g, c), 2) == [("A", "B"), ("A", "C")]
        assert select_batch(build_state(g, c), 5) == [
            ("A", "B"), ("A", "C"), ("A", "D"), ("A", "E"), ("A", "F")]

    def test_fewer_unstored_than_k_prices_only_pairs_that_can_rank(
            self, running_graph, running_clustering, monkeypatch):
        # a marked block pair's key is at least (-gain, (min, min)), its
        # lower key; only one at or before the batch's k-th key can rank
        priced = []
        price_pair = PriorityState._price_pair

        def counted(state, key):
            priced.append(key)
            return price_pair(state, key)
        monkeypatch.setattr(PriorityState, "_price_pair", counted)
        rng = np.random.default_rng(83)
        cases = [(running_graph, running_clustering, 2)]
        for _ in range(40):
            g = random_small_graph(rng, n_min=5, n_max=9, p_edge=0.5)
            cases.append((g, scc_cluster(g), int(rng.integers(1, 8))))
        checked = 0
        for g, c, k in cases:
            ranked = build_state(g, c).entries()
            state = build_state(g, c)
            if len(list(state._unstored())) >= k:
                continue
            kth = (-ranked[k - 1].gain, ranked[k - 1].pair) if len(ranked) >= k else (math.inf,)
            expected = [key for key, (rep, gain) in state._inter.items()
                        if rep is None and (-gain, (key[0][0], key[1][0])) <= kth]
            priced.clear()
            select_batch(state, k)
            assert sorted(priced) == sorted(expected)
            checked += 1
        assert checked > 20
        # in the running example every block pair is spanned; the two that
        # rank are priced, the four all-NO ones are not
        priced.clear()
        select_batch(build_state(running_graph, running_clustering), 2)
        assert sorted(priced) == [(("A", "B"), ("C", "D")), (("E", "F"), ("G", "H"))]

    @pytest.mark.parametrize("answered_in_round", [False, True])
    def test_counted_top_gain_row_ranks_among_unstored_pairs(self, answered_in_round):
        # every edge across {A} x {C, D} is certain, so d = 0 and the row's
        # (A, D) carries the top gain, like the unstored pairs around it;
        # counting starts at the refresh, whether the row was built before
        # or is made in the round
        certain = {("A", "C"): 1.0}
        before = UncertainGraph("ABCDEFG", {("C", "D"): 0.5, **certain})
        after = before.with_edge("F", "G", probability=0.5)
        if answered_in_round:
            before = UncertainGraph("ABCDEFG", {("C", "D"): 0.5, ("F", "G"): 0.5})
            after = before.with_edge("A", "C", probability=1.0)
        c = Clustering([["A"], ["B"], ["C", "D"], ["E"], ["F"], ["G"]])
        state = build_state(before, c)
        refresh_after_answer(state, round_changes(state, after, c))
        assert state._at_top == 1 and len(list(state._unstored())) >= 3
        assert select_batch(state, 3) == [("A", "B"), ("A", "D"), ("A", "E")]
        assert select_batch(state, 3) == [entry.pair for entry in state.entries()[:3]]

    @pytest.mark.parametrize("priced_before_counting", [False, True])
    def test_counted_top_gain_intra_entry_ranks_among_unstored_pairs(
            self, priced_before_counting):
        # A-B is a certain NO, so c(A, B, C) = 0, clamped to epsilon; a
        # certain A-C joins A through the certain B-C, so (A, C) gains the top
        g = UncertainGraph("ABCDEFG", {("A", "B"): 0.0, ("B", "C"): 1.0})
        after = g.with_edge("F", "G", probability=0.5)
        c = Clustering([["A", "B", "C"], ["D"], ["E"], ["F"], ["G"]])
        state = build_state(g, c)
        if priced_before_counting:
            select_batch(state, 3)  # prices the marked block
        refresh_after_answer(state, round_changes(state, after, c))
        if not priced_before_counting:
            state.gain(("A", "C"))  # prices the marked block
        assert isinstance(state._intra[("A", "B", "C")], dict)
        assert state._at_top == 1 and len(list(state._unstored())) >= 3
        assert select_batch(state, 3) == [("A", "C"), ("A", "D"), ("A", "E")]
        assert select_batch(state, 3) == [entry.pair for entry in state.entries()[:3]]

    def test_batch_one_is_the_best_entry(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            g = random_small_graph(rng, n_min=3, n_max=7)
            c = Clustering([list(g.records)[:2], list(g.records)[2:]]) \
                if len(g.records) > 2 else Clustering([list(g.records)])
            state = build_state(g, c)
            assert select_batch(state, 1) == [entry.pair for entry in state.entries()[:1]]

    def test_batch_caps_at_population(self, running_graph, running_clustering):
        state = build_state(running_graph, running_clustering)
        assert select_batch(state, 10) == [
            ("E", "H"), ("A", "D"), ("F", "G"), ("B", "C")]

    def test_batch_above_sys_maxsize_returns_every_candidate(self, running_graph,
                                                             running_clustering):
        rng = np.random.default_rng(73)
        graphs = [(running_graph, running_clustering)]
        for _ in range(10):
            g = random_small_graph(rng, n_min=2, n_max=7, p_edge=0.4)
            graphs.append((g, scc_cluster(g)))
        for g, c in graphs:
            state = build_state(g, c)
            n_pairs = len(g.records) * (len(g.records) - 1) // 2
            assert select_batch(state, 10**20) == select_batch(state, n_pairs)
            assert len(select_batch(state, 10**20)) == n_pairs - len(g.edges)

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

    def test_state_gain_equals_pair_priority(self, running_graph, running_clustering):
        # perc next prints state.gain for each batch pair
        rng = np.random.default_rng(79)
        params = ReliabilityParams(exact_edge_limit=3)  # some blocks are sampled
        for _ in range(20):
            g = random_small_graph(rng, n_min=5, n_max=8, p_edge=0.3)
            recs = list(g.records)
            c = Clustering([recs[:2], recs[2:4], recs[4:]])
            state = build_state(g, c, params)
            for pair in select_batch(state, 30):
                assert state.gain(pair) == pair_priority(g, c, pair, params).gain
        state = build_state(running_graph, running_clustering)
        with pytest.raises(KeyError):
            state.gain(("A", "E"))  # every pair across these blocks was asked
        # an asked pair in a block with absent pairs left, and a pair in a
        # block with none left, whose per-block row prices to empty
        g = UncertainGraph("ABCDE", {("A", "B"): 0.9, ("B", "C"): 0.8, ("D", "E"): 0.7})
        state = build_state(g, Clustering([["A", "B", "C"], ["D", "E"]]))
        with pytest.raises(KeyError):
            state.gain(("A", "B"))
        with pytest.raises(KeyError):
            state.gain(("D", "E"))
        assert state._intra[("D", "E")] == {} and ("A", "B", "C") in state._intra

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


def path_block(records, p=0.8):
    """Edges at p joining the records in a path."""
    return {(a, b): p for a, b in zip(records, records[1:])}


class TestGainBound:
    """A marked block that pops while k unstored pairs hold the floor at
    the top gain waits unpriced when _gain_bound certifies that none of its
    gains reaches the top; the block is then priced only in a batch whose
    floor is at or below the stored bound."""

    @staticmethod
    def counted(monkeypatch):
        """The blocks priced and the blocks certified, in call order."""
        priced, checked = [], []
        gain_bound = perc.selection._gain_bound

        def pricing(graph, block, pairs, params, *rest):
            priced.append(tuple(block))
            return pair_connectivity(graph, block, pairs, params, *rest)

        def certifying(graph, block, params):
            checked.append(block)
            return gain_bound(graph, block, params)
        monkeypatch.setattr(perc.selection, "pair_connectivity", pricing)
        monkeypatch.setattr(perc.selection, "_gain_bound", certifying)
        return priced, checked

    @pytest.mark.parametrize("block, epsilon", [
        ("ABC", 1e-12),
        # (i) at its margin: 2^(1 - 10) >= 2 epsilon
        ("ABCDEFGHIJ", 3 * 2.0**-12),
    ])
    def test_certified_block_waits_under_its_bound(self, monkeypatch, block, epsilon):
        g = UncertainGraph(block + "XYZ", path_block(block))
        c = Clustering([list(block), ["X"], ["Y"], ["Z"]])
        params = ReliabilityParams(epsilon=epsilon)
        ranked = [entry.pair for entry in build_state(g, c, params).entries()]
        priced, checked = self.counted(monkeypatch)
        state = build_state(g, c, params)
        # six unstored pairs; (A, B) comes before (A, X), so the block pops
        assert select_batch(state, 2) == ranked[:2] == [("A", "X"), ("A", "Y")]
        assert state._intra[tuple(block)] == len(block) * math.log10(2)
        # the bound is stored, not found again
        assert select_batch(state, 2) == ranked[:2]
        assert (priced, checked) == ([], [tuple(block)])
        # a batch past the unstored pairs has no floor: the block goes in
        # under its bound and is priced when that key reaches the top
        k = len(ranked) + 1
        assert select_batch(state, k)[:len(ranked)] == ranked
        assert (priced, checked) == ([tuple(block)], [tuple(block)])

    @pytest.mark.parametrize("edges, params", [
        # (i) fails by the factor 2: 2^(1 - 11) < 2 epsilon, though >= epsilon
        (path_block("ABCDEFGHIJK"), ReliabilityParams(epsilon=3 * 2.0**-12)),
        # (ii) fails: only edges at p <= 1/2 inside, and c = 0 <= epsilon
        ({("A", "B"): 0.5, ("B", "C"): 0.0}, ReliabilityParams()),
        # (iii) fails: two uncertain edges, sampled above a limit of one
        (path_block("ABC"), ReliabilityParams(exact_edge_limit=1)),
    ])
    def test_refused_block_is_priced(self, monkeypatch, edges, params):
        block = sorted({r for pair in edges for r in pair})
        g = UncertainGraph(block + ["X", "Y", "Z"], edges)
        c = Clustering([block, ["X"], ["Y"], ["Z"]])
        ranked = [entry.pair for entry in build_state(g, c, params).entries()]
        priced, checked = self.counted(monkeypatch)
        state = build_state(g, c, params)
        assert select_batch(state, 2) == ranked[:2]
        assert priced == checked == [tuple(block)]


class TestRefreshAfterAnswer:
    def test_inter_answer_reprices_only_that_block_pair(self, running_graph,
                                                        running_clustering):
        state = build_state(running_graph, running_clustering)
        before = dict(state.inter)
        g2 = running_graph.with_edge("E", "H", probability=0.2)
        refresh_after_answer(state, round_changes(state, g2, running_clustering))
        assert states_equal(state, build_state(g2, running_clustering))
        # the C3 x C4 disconnectivity rose to 1 - 0.3*0.7*0.2, repricing it
        _, new_gain = inter_queue(state)[(("E", "F"), ("G", "H"))]
        assert new_gain == pytest.approx(-math.log10(1 - 0.3 * 0.7 * 0.2))
        # the untouched block pair kept its exact entry object value
        assert state.inter[(("A", "B"), ("C", "D"))] == \
            before[(("A", "B"), ("C", "D"))]

    def test_intra_answer_reprices_only_that_block(self):
        g = UncertainGraph("ABCDE", {("A", "B"): 0.9, ("B", "C"): 0.8, ("D", "E"): 0.7,
                                     ("C", "D"): 0.2})
        c = Clustering([["A", "B", "C"], ["D", "E"]])
        state = build_state(g, c)
        g2 = g.with_edge("A", "C", probability=0.6)
        refresh_after_answer(state, round_changes(state, g2, c))
        assert states_equal(state, build_state(g2, c))

    def test_round_prices_each_touched_block_once(self, monkeypatch):
        # three answers inside {A..E} in one graph update; folding them in
        # one at a time priced the block three times
        g = UncertainGraph("ABCDEFG", {("A", "B"): 0.9, ("B", "C"): 0.8, ("C", "D"): 0.9,
                                       ("D", "E"): 0.7, ("E", "F"): 0.1, ("F", "G"): 0.9})
        c = Clustering([["A", "B", "C", "D", "E"], ["F", "G"]])
        state = build_state(g, c)
        grown = g
        for pair, p in ((("A", "C"), 0.6), (("A", "E"), 0.8), (("B", "D"), 0.3)):
            grown = grown.with_edge(*pair, probability=p)
        priced = []

        def counted(graph, block, pairs, params, *intra):
            priced.append(tuple(block))
            return pair_connectivity(graph, block, pairs, params, *intra)
        monkeypatch.setattr(perc.selection, "pair_connectivity", counted)
        refresh_after_answer(state, round_changes(state, grown, c))
        state.intra
        assert priced == [("A", "B", "C", "D", "E")]
        assert states_equal(state, build_state(grown, c))

    def test_a_marked_block_pair_loses_its_old_gain(self):
        # A-C at p = 1 spans {A, B} x {C, D} with no NO chance, so the pair
        # has the top gain and its representative (A, D) comes first.  Once
        # (A, D) is answered at 1/2 the pair is marked at a lower gain, and
        # its old entry must not outrank the unstored (A, E)
        g = UncertainGraph("ABCDEF", {("A", "B"): 0.9, ("C", "D"): 0.9, ("A", "C"): 1.0})
        c = Clustering([["A", "B"], ["C", "D"], ["E"], ["F"]])
        state = build_state(g, c)
        assert select_batch(state, 1) == [("A", "D")]
        grown = g.with_edge("A", "D", probability=0.5)
        refresh_after_answer(state, round_changes(state, grown, c))
        assert select_batch(state, 1) == [("A", "E")]

    def test_refresh_requires_edge_in_graph(self, running_graph, running_clustering):
        grown = running_graph.with_edge("E", "H", probability=0.2)
        state = build_state(grown, running_clustering)
        with pytest.raises(ValueError):
            refresh_after_answer(state, round_changes(state, running_graph, running_clustering))

    def test_incremental_equals_scratch_over_many_answers(self):
        # Drive a whole instance to exhaustion, alternating intra and inter
        # answers, checking the cache against a scratch build every step.
        rng = np.random.default_rng(73)
        for trial in range(8):
            g = random_small_graph(rng, n_min=4, n_max=7, p_edge=0.5)
            recs = list(g.records)
            c = Clustering([recs[: len(recs) // 2], recs[len(recs) // 2:]])
            state = build_state(g, c)
            while batch := select_batch(state, 1):
                g = g.with_edge(*batch[0], probability=float(rng.random()))
                refresh_after_answer(state, round_changes(state, g, c))
                assert states_equal(state, build_state(g, c))
            assert list(g.absent_pairs()) == []

    def test_batched_answers_equal_scratch(self):
        # One graph update carries a whole batch, then one call folds the
        # round in, as the experiment loop does.
        rng = np.random.default_rng(29)
        for trial in range(8):
            g = random_small_graph(rng, n_min=5, n_max=8, p_edge=0.4)
            recs = list(g.records)
            c = Clustering([recs[::2], recs[1::2]])
            state = build_state(g, c)
            while len(state.entries()):
                batch = select_batch(state, 3)
                for pair in batch:
                    g = g.with_edge(*pair, probability=float(rng.random()))
                refresh_after_answer(state, round_changes(state, g, c))
                assert states_equal(state, build_state(g, c))
