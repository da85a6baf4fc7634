"""Graph data model: tallies, canonicalization, worlds, likelihood."""

import itertools
import math

import numpy as np
import pytest

from perc import (
    Clustering,
    UncertainGraph,
    VoteTally,
    clustering_log_likelihood,
    possible_world_log_prob,
)
from perc.clustering import _partitions
from perc.util import canonical_pair

from conftest import (
    EIGHT,
    RUNNING_EDGES,
    bell_numbers,
    random_partition,
    random_small_graph,
    world_product,
)


class TestVoteTally:
    def test_fraction(self):
        assert VoteTally(yes=3, total=10).fraction == 0.3
        assert VoteTally(yes=0, total=4).fraction == 0.0
        assert VoteTally(yes=4, total=4).fraction == 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            VoteTally(yes=0, total=0)
        with pytest.raises(ValueError):
            VoteTally(yes=5, total=4)
        with pytest.raises(ValueError):
            VoteTally(yes=-1, total=4)


class TestCanonicalPair:
    def test_orders_endpoints(self):
        assert canonical_pair("B", "A") == ("A", "B")
        assert canonical_pair("A", "B") == ("A", "B")

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            canonical_pair("A", "A")


class TestUncertainGraph:
    def test_records_sorted_and_deduplicated(self):
        g = UncertainGraph(["C", "A", "B", "A"])
        assert g.records == ("A", "B", "C")

    def test_rejects_empty_and_bad_ids(self):
        with pytest.raises(ValueError):
            UncertainGraph([])
        with pytest.raises(ValueError):
            UncertainGraph(["a,b"])
        with pytest.raises(ValueError):
            UncertainGraph([""])
        with pytest.raises(ValueError):
            UncertainGraph(["ok", "bad\nid"])

    def test_edges_canonicalized(self):
        g = UncertainGraph("AB", {("B", "A"): 0.4})
        assert g.has_edge("A", "B")
        assert g.has_edge("B", "A")
        assert g.edges == {("A", "B"): 0.4}

    @pytest.mark.parametrize("build", [
        UncertainGraph,
        lambda records, probs: UncertainGraph(records).with_edges(
            [(pair, VoteTally(round(p * 10), 10)) for pair, p in probs.items()]),
    ], ids=["init", "with_edges"])
    def test_rejects_a_pair_named_twice(self, build):
        with pytest.raises(ValueError, match=r"pair \('A', 'B'\) was already crowdsourced"):
            build("AB", {("A", "B"): 0.9, ("B", "A"): 0.1})

    def test_absent_is_not_zero(self, running_graph):
        # (A, E) was crowdsourced all-NO; (A, D) was never asked.
        assert running_graph.edges[("A", "E")] == 0.0
        assert not running_graph.has_edge("A", "D")
        assert ("A", "D") in running_graph.absent_pairs()

    def test_rejects_unknown_record_in_edge(self):
        with pytest.raises(ValueError):
            UncertainGraph("AB", {("A", "Z"): 0.5})

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            UncertainGraph("AB", {("A", "B"): 1.5})
        with pytest.raises(ValueError):
            UncertainGraph("AB", {("A", "B"): -0.1})

    def test_with_edge_returns_new_graph(self):
        g = UncertainGraph("ABC", {("A", "B"): 0.8})
        g2 = g.with_edge("B", "C", tally=VoteTally(yes=7, total=10))
        assert not g.has_edge("B", "C")
        assert g2.edges[("B", "C")] == 0.7

    def test_with_edge_rejects_reask(self):
        g = UncertainGraph("AB", {("A", "B"): 0.8})
        with pytest.raises(ValueError):
            g.with_edge("B", "A", probability=0.9)

    def test_with_edge_needs_exactly_one_source(self):
        g = UncertainGraph(["A", "B"])
        with pytest.raises(ValueError):
            g.with_edge("A", "B")
        with pytest.raises(ValueError):
            g.with_edge("A", "B", tally=VoteTally(1, 2), probability=0.5)

    def test_with_edges_adds_every_answer_from_one_parent(self):
        g = UncertainGraph("ABCD", {("A", "B"): 0.8})
        answers = [(("C", "B"), VoteTally(7, 10)), (("A", "D"), VoteTally(0, 3))]
        g2 = g.with_edges(answers)
        assert g.edges == {("A", "B"): 0.8}
        assert g2.edges == {("A", "B"): 0.8, ("B", "C"): 0.7, ("A", "D"): 0.0}
        assert g2.edges_added_since(g) == [("A", "D"), ("B", "C")]

    @pytest.mark.parametrize("answers", [
        [(("C", "D"), VoteTally(1, 2)), (("B", "A"), VoteTally(1, 2))],
        [(("C", "D"), VoteTally(1, 2)), (("D", "C"), VoteTally(2, 2))],
    ], ids=["already-asked", "repeated-in-batch"])
    def test_with_edges_rejects_reask_as_with_edge_does(self, answers):
        g = UncertainGraph("ABCD", {("A", "B"): 0.8})
        with pytest.raises(ValueError, match="was already crowdsourced") as batch:
            g.with_edges(answers)
        # the failed call left the parent as it was
        assert g.edges == {("A", "B"): 0.8} and g._n == len(g._lineage) == 0
        asked = g.with_edges(answers[:-1])
        assert asked._lineage is g._lineage
        with pytest.raises(ValueError) as single:
            asked.with_edge(*answers[-1][0], tally=answers[-1][1])
        assert str(batch.value) == str(single.value)

    def test_with_edges_rejects_undeclared_record(self):
        g = UncertainGraph(["A", "B"])
        with pytest.raises(ValueError, match="'Z' in pair .* is not declared"):
            g.with_edges([(("A", "B"), VoteTally(1, 1)), (("A", "Z"), VoteTally(1, 1))])
        assert g.edges == {} and g._lineage == []

    def test_absent_pairs_running_example(self, running_graph):
        assert list(running_graph.absent_pairs()) == [
            ("A", "D"), ("B", "C"), ("E", "H"), ("F", "G")]

    def test_absent_pairs_between_interleaved_blocks(self):
        # a < b < c < d: the blocks interleave, so canonical pairs come from
        # both sides, and the walk must still give lexicographic order
        g = UncertainGraph("abcd", {("a", "c"): 0.5})
        expected = [("a", "b"), ("b", "d"), ("c", "d")]
        assert list(g.absent_pairs_between(("a", "d"), ("b", "c"))) == expected
        assert list(g.absent_pairs_between(("b", "c"), ("a", "d"))) == expected
        allowed = frozenset({("a", "c"), ("b", "d"), ("c", "d")})
        assert list(g.absent_pairs_between(("a", "d"), ("b", "c"), allowed)) == \
            [("b", "d"), ("c", "d")]

    def test_edges_within_and_between(self, running_graph):
        assert running_graph.edges_within(["A", "B"]) == [(("A", "B"), 0.8)]
        spanning = running_graph.edges_between(["A", "B"], ["C", "D"])
        assert spanning == [(("A", "C"), 0.3), (("B", "D"), 0.6)]

    def test_edges_added_since(self, running_graph):
        grown = running_graph.with_edge("B", "C", probability=0.5).with_edge(
            "A", "D", probability=0.4)
        assert grown.edges_added_since(running_graph) == [("A", "D"), ("B", "C")]
        assert running_graph.edges_added_since(running_graph) == []
        with pytest.raises(ValueError, match="other records"):
            UncertainGraph(EIGHT + ["I"], edges=running_graph.edges).edges_added_since(
                running_graph)
        with pytest.raises(ValueError, match="edges this graph lacks"):
            running_graph.edges_added_since(grown)
        repriced = dict(running_graph.edges)
        repriced[("A", "B")] = 0.7
        with pytest.raises(ValueError, match="prices differently"):
            UncertainGraph(EIGHT, edges=repriced).edges_added_since(running_graph)

    def test_edge_items_sorted(self, running_graph):
        items = running_graph.edge_items()
        assert items == sorted(items)
        assert len(items) == len(RUNNING_EDGES)


class TestWithEdges:
    """Vote tallies ingested as UncertainGraph(records).with_edges(pairs)."""

    def test_round_trip(self):
        g = UncertainGraph("ABC").with_edges([(("A", "B"), VoteTally(8, 10)),
                                              (("C", "B"), VoteTally(2, 10))])
        assert g.edges == {("A", "B"): 0.8, ("B", "C"): 0.2}

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match=r"\('A', 'B'\)"):
            UncertainGraph("AB").with_edges([(("A", "B"), VoteTally(8, 10)),
                                             (("B", "A"), VoteTally(2, 10))])

    def test_rejects_unknown_record(self):
        with pytest.raises(ValueError):
            UncertainGraph("AB").with_edges([(("A", "Z"), VoteTally(1, 1))])


class TestClustering:
    def test_canonical_form(self):
        c1 = Clustering([["B", "A"], ["C"]])
        c2 = Clustering([("C",), ("A", "B")])
        assert c1 == c2
        assert hash(c1) == hash(c2)
        assert c1.blocks == (("A", "B"), ("C",))

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(ValueError):
            Clustering([["A", "B"], ["B"]])
        with pytest.raises(ValueError):
            Clustering([["A"], []])
        with pytest.raises(ValueError):
            Clustering([])

    def test_membership_queries(self):
        c = Clustering([["A", "B"], ["C"]])
        assert c.block_of("A") == ("A", "B")
        assert c.same_block("A", "B")
        assert not c.same_block("A", "C")
        with pytest.raises(KeyError):
            c.block_of("Z")


class TestPossibleWorlds:
    def test_worked_value(self):
        # 0.8 * 0.6 * (1 - 0.4) = 0.288
        g = UncertainGraph("ABC", {("A", "B"): 0.8, ("B", "C"): 0.6, ("A", "C"): 0.4})
        lp = possible_world_log_prob(g, [("A", "B"), ("B", "C")])
        assert 10.0 ** lp == pytest.approx(0.288, abs=1e-12)

    def test_matches_product_oracle_exhaustively(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_small_graph(rng, n_min=2, n_max=5)
            pairs = [pair for pair, _ in g.edge_items()]
            for r in range(len(pairs) + 1):
                for chosen in itertools.combinations(pairs, r):
                    expected = world_product(dict(g.edge_items()), set(chosen))
                    got = possible_world_log_prob(g, chosen)
                    if expected == 0.0:
                        assert got == float("-inf")
                    else:
                        assert got == pytest.approx(math.log10(expected), abs=1e-9)

    def test_world_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_small_graph(rng, n_min=3, n_max=5)
            pairs = [pair for pair, _ in g.edge_items()]
            total = 0.0
            for r in range(len(pairs) + 1):
                for chosen in itertools.combinations(pairs, r):
                    lp = possible_world_log_prob(g, chosen)
                    if lp != float("-inf"):
                        total += 10.0 ** lp
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_certain_edges_force_impossible_worlds(self):
        g = UncertainGraph("AB", {("A", "B"): 1.0})
        assert possible_world_log_prob(g, []) == float("-inf")
        assert possible_world_log_prob(g, [("A", "B")]) == 0.0

    def test_rejects_uncrowdsourced_present_pair(self, running_graph):
        with pytest.raises(ValueError):
            possible_world_log_prob(running_graph, [("A", "D")])


class TestClusteringLikelihood:
    def test_equals_world_of_intra_edges(self, running_graph, running_clustering):
        intra = [pair for pair, _ in running_graph.edge_items()
                 if running_clustering.same_block(*pair)]
        assert clustering_log_likelihood(running_graph, running_clustering) == \
            possible_world_log_prob(running_graph, intra)

    def test_matches_product_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_small_graph(rng, n_min=2, n_max=6)
            c = random_partition(rng, g.records)
            edges = dict(g.edge_items())
            present = {pair for pair in edges if c.same_block(*pair)}
            expected = world_product(edges, present)
            got = clustering_log_likelihood(g, c)
            if expected == 0.0:
                assert got == float("-inf")
            else:
                assert got == pytest.approx(math.log10(expected), abs=1e-9)

    def test_absent_pairs_do_not_contribute(self):
        # Same edge set, wildly different numbers of absent pairs.
        g_small = UncertainGraph("AB", {("A", "B"): 0.8})
        g_big = UncertainGraph("ABCDEF", {("A", "B"): 0.8})
        c_small = Clustering([["A", "B"]])
        c_big = Clustering([["A", "B"], ["C"], ["D"], ["E"], ["F"]])
        assert clustering_log_likelihood(g_small, c_small) == \
            clustering_log_likelihood(g_big, c_big)

    def test_rejects_mismatched_records(self, running_graph):
        with pytest.raises(ValueError):
            clustering_log_likelihood(running_graph, Clustering([["A", "B"]]))


class TestPartitions:
    def test_counts_are_bell_numbers(self):
        bells = bell_numbers(6)
        for n in range(1, 7):
            records = [chr(ord("a") + i) for i in range(n)]
            parts = list(_partitions(records))
            assert len(parts) == bells[n]
            assert len(set(parts)) == bells[n]

    def test_each_partition_covers_all_records(self):
        for c in _partitions("abcd"):
            assert c.records == frozenset("abcd")
