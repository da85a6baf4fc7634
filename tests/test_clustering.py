"""Agglomerative clustering, brute-force maximum likelihood, stability screen."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from perc import (
    Clustering,
    UncertainGraph,
    clustering_log_likelihood,
    merge_probability,
    mlc_bruteforce,
    mlc_unchanged,
    scc_cluster,
)
from perc import clustering
from perc.clustering import _partitions

from conftest import random_small_graph
from test_fast_paths import reference_scc


class TestMergeProbability:
    def test_worked_value(self, running_graph):
        # Spanning edges 0.3 and 0.6: 0.18 / (0.18 + 0.28) = 0.3913...
        got = merge_probability(running_graph, ("A", "B"), ("C", "D"))
        assert got == pytest.approx(0.3913, abs=1e-4)
        assert got == pytest.approx(0.18 / 0.46, abs=1e-12)

    def test_single_edge_is_identity(self):
        g = UncertainGraph("AB", {("A", "B"): 0.7})
        assert merge_probability(g, ("A",), ("B",)) == pytest.approx(0.7)

    def test_no_spanning_edges_is_none(self):
        g = UncertainGraph(["A", "B", "C"])
        assert merge_probability(g, ("A",), ("B",)) is None

    def test_matches_direct_product_formula(self):
        rng = np.random.default_rng(13)
        left = ["a0", "a1"]
        right = ["b0", "b1"]
        pairs = [(l, r) for l in left for r in right]
        for _ in range(40):
            k = int(rng.integers(1, len(pairs) + 1))
            probs = [float(rng.uniform(0.01, 0.99)) for _ in range(k)]
            edges = dict(zip(pairs, probs))
            g = UncertainGraph(left + right, edges=edges)
            num = math.prod(probs)
            den = num + math.prod(1 - p for p in probs)
            assert merge_probability(g, left, right) == pytest.approx(num / den)

    def test_certain_yes_and_no_edges(self):
        g = UncertainGraph("ABC", {("A", "B"): 1.0})
        assert merge_probability(g, ("A",), ("B",)) == 1.0
        g0 = UncertainGraph("ABC", {("A", "B"): 0.0})
        assert merge_probability(g0, ("A",), ("B",)) == 0.0

    def test_contradictory_certain_evidence_is_neutral(self):
        g = UncertainGraph("ABC", {("A", "C"): 1.0, ("B", "C"): 0.0})
        assert merge_probability(g, ("A", "B"), ("C",)) == 0.5

    def test_rejects_overlapping_blocks(self, running_graph):
        with pytest.raises(ValueError):
            merge_probability(running_graph, ("A", "B"), ("B", "C"))

    def test_rejects_an_undeclared_record(self):
        g = UncertainGraph("ABC", {("A", "B"): 0.9, ("B", "C"): 0.8})
        with pytest.raises(ValueError, match="^record 'Z' is not declared$"):
            merge_probability(g, ["A"], ["Z"])

    def test_extreme_products_do_not_overflow(self):
        n = 400
        left = ["L"]
        right = [f"r{i:03d}" for i in range(n)]
        edges = {("L", r): 0.99 for r in right}
        # right records are pairwise certain-linked so the block is coherent
        g = UncertainGraph(left + right, edges=edges)
        assert merge_probability(g, left, right) == 1.0
        edges_low = {("L", r): 0.01 for r in right}
        g_low = UncertainGraph(left + right, edges=edges_low)
        assert merge_probability(g_low, left, right) == 0.0


class TestSccCluster:
    def test_running_example(self, running_graph):
        c = scc_cluster(running_graph)
        assert c.blocks == (("A", "B"), ("C", "D"), ("E", "F"), ("G", "H"))

    def test_boundary_half_does_not_merge(self):
        g = UncertainGraph("AB", {("A", "B"): 0.5})
        assert scc_cluster(g).blocks == (("A",), ("B",))
        g2 = UncertainGraph("AB", {("A", "B"): 0.5 + 1e-9})
        assert scc_cluster(g2).blocks == (("A", "B"),)

    def test_no_edges_stays_singletons(self):
        g = UncertainGraph(["A", "B", "C"])
        assert scc_cluster(g) == Clustering([["A"], ["B"], ["C"]])

    def test_chain_merges_fully(self):
        g = UncertainGraph("ABCD", {("A", "B"): 0.9, ("B", "C"): 0.9, ("C", "D"): 0.9})
        assert scc_cluster(g).blocks == (("A", "B", "C", "D"),)

    def test_merge_uses_combined_evidence(self):
        # Each single cross edge is weak (0.6) but two of them reinforce:
        # after {A, B} forms, evidence toward C is 0.36 vs 0.16.
        g = UncertainGraph("ABC", {("A", "B"): 0.9, ("A", "C"): 0.6, ("B", "C"): 0.6})
        assert scc_cluster(g).blocks == (("A", "B", "C"),)

    def test_combined_evidence_can_block_merge(self):
        # One strong YES edge toward C is outvoted by a stronger NO edge
        # once the pair aggregates combine.
        g = UncertainGraph("ABC", {("A", "B"): 0.9, ("A", "C"): 0.7, ("B", "C"): 0.1})
        c = scc_cluster(g)
        assert c.blocks == (("A", "B"), ("C",))

    def test_agreeing_component_is_one_block_without_tallies(self, monkeypatch):
        made = []
        edge_tally = clustering._edge_tally

        def counting_tally(p):
            made.append(p)
            return edge_tally(p)

        monkeypatch.setattr(clustering, "_edge_tally", counting_tally)
        g = UncertainGraph("ABCDE", {
            ("A", "B"): math.nextafter(0.5, 1), ("B", "C"): 0.51, ("A", "C"): 1.0,
            ("C", "D"): 0.6, ("D", "E"): 0.9})
        assert scc_cluster(g).blocks == (("A", "B", "C", "D", "E"),)
        assert made == []
        # one dissenting edge sends the component through the heap, where
        # B-D at 0.1 outvotes B's two weak YES edges
        assert scc_cluster(g.with_edge("B", "D", probability=0.1)).blocks == \
            (("A", "C", "D", "E"), ("B",))
        assert made

    def test_one_dissenting_edge_keeps_a_yes_triangle_apart(self):
        # a union of the YES edges would give {A, B, C}
        g = UncertainGraph("ABC", {("A", "B"): 1.0, ("B", "C"): 1.0, ("A", "C"): 0.0})
        assert scc_cluster(g).blocks == (("A", "B"), ("C",))

    def test_deterministic_under_relabeling(self):
        # Same structure with shuffled record names clusters isomorphically.
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = random_small_graph(rng, n_min=3, n_max=7)
            c1 = scc_cluster(g)
            c2 = scc_cluster(UncertainGraph(list(g.records),
                                            edges=dict(reversed(g.edge_items()))))
            assert c1 == c2

    def test_all_records_covered(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            g = random_small_graph(rng, n_min=2, n_max=8)
            assert scc_cluster(g).records == frozenset(g.records)


# tie-prone fractions on both sides of one half, and the certain ones
CARRY_FRACTIONS = (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0)


@st.composite
def edge_chains(draw):
    """Records and the answers a run would add one by one: distinct pairs,
    each with a YES fraction."""
    n = draw(st.integers(2, 9))
    records = [f"r{i}" for i in range(n)]
    pairs = draw(st.permutations(list(itertools.combinations(records, 2))))
    fractions = draw(st.lists(st.sampled_from(CARRY_FRACTIONS), max_size=len(pairs)))
    return records, list(zip(pairs, fractions))


class TestCarriedSccCluster:
    """scc_cluster(graph, previous=...) must equal scc_cluster(graph)."""

    @settings(max_examples=300, deadline=None)
    # one pick per answer: a chain of 9 records has 36
    @given(edge_chains(), st.lists(st.none() | st.integers(0, 36), min_size=36, max_size=36))
    # a chain whose carried calls take both ways to a dirty component's
    # edges: the first answer joins r3 and r4 in a graph of one edge, one
    # member pair, so the edges are passed over; the last joins r5 to them
    # in a graph of four edges, three member pairs, so the pairs are looked
    # up, and the old edge (r4, r5) at 0.0 keeps r5 apart
    @example((["r0", "r1", "r2", "r3", "r4", "r5"],
              [(("r3", "r4"), 0.8), (("r0", "r1"), 0.2), (("r4", "r5"), 0.0),
               (("r3", "r5"), 0.6)]), [0] * 36)
    def test_carried_equals_cold_along_a_chain(self, chain, picks):
        # picks[i] is None when answer i is not reclustered, else which
        # earlier result the carry is taken from, counted back from the
        # latest modulo their number: any of them, shrinking to the latest
        records, answers = chain
        graph = UncertainGraph(records)
        carried = [scc_cluster(graph)]
        for (pair, p), back in zip(answers, picks):
            graph = graph.with_edge(*pair, probability=p)
            if back is None:
                continue
            cold = scc_cluster(graph)
            previous = carried[-1 - back % len(carried)]
            with mock.patch.object(UncertainGraph, "edges_within", autospec=True,
                                   side_effect=UncertainGraph.edges_within) as lookups, \
                    mock.patch.object(clustering, "_agglomerate",
                                      wraps=clustering._agglomerate) as agglomerated:
                warm = scc_cluster(graph, previous=previous)
            event("member-pair lookups" if lookups.called else
                  "one pass over the edges" if agglomerated.called else
                  "no component clustered again")
            assert warm == cold
            # previous is not consumed: carrying from it again gives the same
            assert scc_cluster(graph, previous=previous) == cold
            # each result is canonical, its owner map holding its own blocks
            for result in (cold, warm):
                plain = Clustering(result.blocks)
                assert result == plain and hash(result) == hash(plain)
                assert result._owner == plain._owner
                assert all(result._owner[r] is block for block in result.blocks for r in block)
            carried.append(warm)

    def test_a_later_yes_edge_joins_two_components(self):
        g = UncertainGraph("ABCDE", {
            ("A", "B"): 0.8, ("B", "C"): 0.6, ("A", "C"): 0.2,
            ("D", "E"): 1.0, ("C", "D"): 0.4})
        first = scc_cluster(g)
        assert first.blocks == (("A", "B"), ("C",), ("D", "E"))
        for p in CARRY_FRACTIONS:
            joined = g.with_edge("B", "D", probability=p)
            assert scc_cluster(joined, previous=first) == scc_cluster(joined)
        joined = g.with_edge("C", "E", probability=1.0)
        assert scc_cluster(joined, previous=first).blocks == \
            (("A", "B"), ("C", "D", "E"))
        # one call whose new edges both join two components and lie inside
        # one of them: C's component is marked and joined, and gathered once
        g = UncertainGraph("ABCDE", {("C", "D"): 0.8, ("D", "E"): 0.8})
        both = g.with_edge("A", "C", probability=0.8).with_edge("C", "E", probability=0.4)
        carried = scc_cluster(both, previous=scc_cluster(g))
        assert carried == scc_cluster(both) == reference_scc(both)
        assert carried.blocks == (("A", "C", "D", "E"), ("B",))

    def test_previous_from_a_graph_not_extended_raises(self):
        g = UncertainGraph("ABC", {("A", "B"): 0.6})
        later = g.with_edge("B", "C", probability=0.8)
        with pytest.raises(ValueError):
            scc_cluster(g, previous=scc_cluster(later))
        repriced = UncertainGraph("ABC", {("A", "B"): 0.4})
        with pytest.raises(ValueError):
            scc_cluster(repriced, previous=scc_cluster(g))
        other_records = UncertainGraph("ABCD", {("A", "B"): 0.6})
        with pytest.raises(ValueError):
            scc_cluster(other_records, previous=scc_cluster(g))

    @settings(max_examples=100, deadline=None)
    @given(edge_chains(), st.lists(st.integers(0, 8), min_size=9, max_size=9))
    def test_hand_built_previous_clusters_cold(self, chain, labels):
        records, answers = chain
        graph = UncertainGraph(records)
        for pair, p in answers:
            graph = graph.with_edge(*pair, probability=p)
        groups: dict[int, list[str]] = {}
        for record, label in zip(records, labels):
            groups.setdefault(label, []).append(record)
        assert scc_cluster(graph, previous=Clustering(groups.values())) == scc_cluster(graph)

    def test_carry_is_not_compared_or_hashed(self, running_graph):
        c = scc_cluster(running_graph)
        plain = Clustering(c.blocks)
        assert c == plain and hash(c) == hash(plain)


class TestMlcBruteforce:
    def test_returns_argmax_over_all_partitions(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            g = random_small_graph(rng, n_min=2, n_max=6)
            best, best_ll = mlc_bruteforce(g)
            for c in _partitions(g.records):
                assert clustering_log_likelihood(g, c) <= best_ll + 1e-9
            assert clustering_log_likelihood(g, best) == best_ll

    def test_tie_breaks_to_fewest_blocks_then_lexicographic(self):
        # p = 0.5 everywhere makes every partition equally likely.
        g = UncertainGraph("ABC", {("A", "B"): 0.5, ("B", "C"): 0.5, ("A", "C"): 0.5})
        best, _ = mlc_bruteforce(g)
        assert best.blocks == (("A", "B", "C"),)

    def test_trio_prefers_two_blocks(self, trio_graph):
        # Intra 0.9/0.8 with weak links to D (0.2, 0.6): best keeps D out.
        best, ll = mlc_bruteforce(trio_graph)
        assert best == Clustering([["A", "B", "C"], ["D"]])
        assert ll == pytest.approx(
            math.log10(0.9) + math.log10(0.8) + math.log10(0.8) + math.log10(0.4))

    def test_rejects_large_instances(self):
        with pytest.raises(ValueError):
            mlc_bruteforce(UncertainGraph([f"r{i}" for i in range(11)]))


class TestMlcUnchanged:
    def test_intra_pair_agreement(self):
        c = Clustering([["A", "B"], ["C"]])
        assert mlc_unchanged(c, ("A", "B"), 0.9)
        assert not mlc_unchanged(c, ("A", "B"), 0.3)
        assert not mlc_unchanged(c, ("A", "B"), 0.5)

    def test_cross_pair_agreement(self):
        c = Clustering([["A", "B"], ["C"]])
        assert mlc_unchanged(c, ("A", "C"), 0.2)
        assert not mlc_unchanged(c, ("A", "C"), 0.8)
        assert not mlc_unchanged(c, ("A", "C"), 0.5)

    def test_rejects_bad_probability(self):
        c = Clustering([["A", "B"]])
        with pytest.raises(ValueError):
            mlc_unchanged(c, ("A", "B"), 1.5)

    def test_screen_is_sound_on_small_instances(self):
        # Whenever the screen passes, the brute-force argmax after adding
        # the edge equals the argmax before (up to likelihood ties).
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(120):
            g = random_small_graph(rng, n_min=3, n_max=6, p_edge=0.7)
            absent = list(g.absent_pairs())
            if not absent:
                continue
            before, before_ll = mlc_bruteforce(g)
            pair = absent[int(rng.integers(len(absent)))]
            p = float(rng.random())
            if not mlc_unchanged(before, pair, p):
                continue
            g2 = g.with_edge(*pair, probability=p)
            after, after_ll = mlc_bruteforce(g2)
            assert clustering_log_likelihood(g2, before) >= after_ll - 1e-9
            checked += 1
        assert checked >= 20

    def test_failed_screen_can_move_the_argmax(self):
        # Fixture (a): strong path {A,B,C}; a contradicting A-C answer
        # splits C off.
        g = UncertainGraph("ABC", {("A", "B"): 0.9, ("B", "C"): 0.8})
        before, _ = mlc_bruteforce(g)
        assert before == Clustering([["A", "B", "C"]])
        assert not mlc_unchanged(before, ("A", "C"), 0.1)
        after, _ = mlc_bruteforce(g.with_edge("A", "C", probability=0.1))
        assert after == Clustering([["A", "B"], ["C"]])

    def test_failed_screen_can_rearrange_blocks(self):
        # Fixture (b): weak {B,C} plus a strong new A-B answer pulls B over.
        g = UncertainGraph("ABC", {("B", "C"): 0.6, ("A", "C"): 0.1})
        before, _ = mlc_bruteforce(g)
        assert before == Clustering([["A"], ["B", "C"]])
        assert not mlc_unchanged(before, ("A", "B"), 0.9)
        after, _ = mlc_bruteforce(g.with_edge("A", "B", probability=0.9))
        assert after == Clustering([["A", "B"], ["C"]])
