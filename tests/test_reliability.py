"""Connectivity, disconnectivity, and the combined reliability score."""

import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perc.reliability
from perc import (
    Clustering,
    ReliabilityParams,
    UncertainGraph,
    block_connectivity,
    disconnectivity,
)
from perc.reliability import (ConnectivityEstimate, MAX_EXACT_EDGE_LIMIT, MAX_MC_SAMPLES,
                              _partition_dp, _reduced_block, _sampled_partitions,
                              pair_connectivity, reliability)
from perc.util import ConfigError, make_rng

from conftest import connectivity_by_enumeration, random_small_graph


def random_block_graph(rng, n_max=6, max_edges=12):
    """A single-block instance: members plus random intra edges."""
    n = int(rng.integers(2, n_max + 1))
    members = [f"m{i}" for i in range(n)]
    pairs = [(members[i], members[j]) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    count = int(rng.integers(0, min(len(pairs), max_edges) + 1))
    edges = {tuple(pair): float(rng.uniform(0.05, 0.95)) for pair in pairs[:count]}
    return UncertainGraph(members, edges=edges), members


class TestDisconnectivity:
    def test_worked_values(self, running_graph, running_clustering):
        c1, c2, c3, c4 = running_clustering.blocks
        assert disconnectivity(running_graph, running_clustering, c1, c2) == \
            pytest.approx(0.82, abs=1e-12)
        assert disconnectivity(running_graph, running_clustering, c3, c4) == \
            pytest.approx(0.79, abs=1e-12)
        assert disconnectivity(running_graph, running_clustering, c1, c3) == 1.0
        assert disconnectivity(running_graph, running_clustering, c2, c4) == 1.0

    def test_trio_value(self, trio_graph, trio_clustering):
        # NO probabilities 0.8 and 0.4: 1 - 0.2 * 0.6 = 0.88
        abc, d = trio_clustering.blocks
        assert disconnectivity(trio_graph, trio_clustering, abc, d) == \
            pytest.approx(0.88, abs=1e-12)

    def test_no_spanning_edges_means_zero(self):
        g = UncertainGraph("ABCD", {("A", "B"): 0.9})
        c = Clustering([["A", "B"], ["C", "D"]])
        assert disconnectivity(g, c, ("A", "B"), ("C", "D")) == 0.0

    def test_symmetric_in_block_order(self, running_graph, running_clustering):
        c1, c2 = running_clustering.blocks[:2]
        assert disconnectivity(running_graph, running_clustering, c2, c1) == \
            disconnectivity(running_graph, running_clustering, c1, c2)

    def test_certain_no_edge_gives_one(self):
        g = UncertainGraph("ABC", {("A", "C"): 0.0})
        c = Clustering([["A", "B"], ["C"]])
        assert disconnectivity(g, c, ("A", "B"), ("C",)) == 1.0

    def test_rejects_foreign_block(self, running_graph, running_clustering):
        with pytest.raises(ValueError):
            disconnectivity(running_graph, running_clustering, ("A", "B"), ("C",))
        with pytest.raises(ValueError):
            disconnectivity(running_graph, running_clustering,
                            ("A", "B"), ("A", "B"))

    def test_rejects_a_clustering_of_other_records(self):
        # Z is not declared and C is left out; each block is still part of
        # the clustering, so only the cover check catches it
        g = UncertainGraph("ABC", {("A", "B"): 0.9, ("B", "C"): 0.8})
        c = Clustering([["A", "B"], ["Z"]])
        with pytest.raises(ValueError, match="does not cover exactly the graph's records"):
            disconnectivity(g, c, ("A", "B"), ("Z",))


EXACT = ReliabilityParams()


def sampled_connectivity(graph, block, params):
    """block_connectivity forced onto the Monte Carlo path."""
    return block_connectivity(graph, block,
                              dataclasses.replace(params, exact_edge_limit=0))


def partition_pair_values(graph, members, pairs, samples, seed):
    """c(block + certain pair) for each pair, read off _partition_dp when
    samples is 0 and else off _sampled_partitions on the stream seed: the
    connected share plus the share of two-group worlds with the pair apart."""
    index, n, edges = _reduced_block(graph, members)
    connected, split = (_sampled_partitions(n, edges, samples, make_rng(seed)) if samples
                        else _partition_dp(n, edges))
    return [connected + math.fsum(w for s, w in split.items() if s[index[a]] != s[index[b]])
            for a, b in pairs]


class TestConnectivityExact:
    def test_singleton_is_certain(self):
        g = UncertainGraph(["A"])
        assert block_connectivity(g, ["A"], EXACT).value == 1.0
        # exact whatever the limit and the edges leaving the block
        g = UncertainGraph("AB", {("A", "B"): 0.3})
        for params in (EXACT, ReliabilityParams(exact_edge_limit=0)):
            assert block_connectivity(g, "A", params) == ConnectivityEstimate(1.0, "exact")

    def test_single_edge(self):
        g = UncertainGraph("AB", {("A", "B"): 0.8})
        assert block_connectivity(g, "AB", EXACT).value == pytest.approx(0.8)

    def test_no_edges_means_disconnected(self):
        g = UncertainGraph(["A", "B"])
        assert block_connectivity(g, "AB", EXACT).value == 0.0

    def test_trio_worked_value(self, trio_graph):
        # Path 0.9 - 0.8, no third edge: 0.9 * 0.8 = 0.72
        est = block_connectivity(trio_graph, ("A", "B", "C"), EXACT)
        assert est.value == pytest.approx(0.72, abs=1e-12)
        assert est.method == "exact"

    def test_triangle_closed_form(self):
        p = {("A", "B"): 0.5, ("B", "C"): 0.5, ("A", "C"): 0.5}
        g = UncertainGraph("ABC", p)
        # all three pairs of edges + the full triangle: 3 * 0.125 + 0.125
        assert block_connectivity(g, "ABC", EXACT).value == pytest.approx(0.5)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            g, members = random_block_graph(rng)
            expected = connectivity_by_enumeration(members, dict(g.edge_items()))
            got = block_connectivity(g, members, EXACT)
            assert got.method == "exact"
            assert got.value == pytest.approx(expected, abs=1e-10)

    def test_certain_edges_handled(self):
        g = UncertainGraph("ABC", {("A", "B"): 1.0, ("B", "C"): 0.0, ("A", "C"): 0.6})
        expected = connectivity_by_enumeration(
            ["A", "B", "C"], dict(g.edge_items()))
        assert block_connectivity(g, "ABC", EXACT).value == pytest.approx(expected)


@st.composite
def dp_blocks(draw):
    """A block of 1 to 6 records with at most 9 edges: random edges, a
    random tree, or random edges that leave the last member isolated.
    Probabilities are mostly 0, 1/2 and 1, where ties and certain edges
    are most likely."""
    n = draw(st.integers(1, 6))
    members = [f"m{i}" for i in range(n)]
    shape = draw(st.sampled_from(("random", "tree", "isolated")))
    if shape == "tree":
        pairs = [(members[draw(st.integers(0, i - 1))], members[i]) for i in range(1, n)]
    else:
        pool = members[:-1] if shape == "isolated" else members
        universe = list(itertools.combinations(pool, 2))
        pairs = draw(st.lists(st.sampled_from(universe), unique=True, max_size=9)) \
            if universe else []
    probs = {pair: draw(st.sampled_from((0.0, 0.5, 1.0, 0.3, 0.9))) for pair in pairs}
    return UncertainGraph(members, edges=probs)


@st.composite
def contractible_blocks(draw):
    """A block of 3 to 6 records: a random tree plus up to 4 more random
    edges, of which at least two are certain (p of 0 or 1), so contraction
    removes at least two edges."""
    n = draw(st.integers(3, 6))
    members = [f"m{i}" for i in range(n)]
    pairs = [(members[draw(st.integers(0, i - 1))], members[i]) for i in range(1, n)]
    rest = [pair for pair in itertools.combinations(members, 2) if pair not in pairs]
    pairs += draw(st.lists(st.sampled_from(rest), unique=True, max_size=4))
    probs = [draw(st.sampled_from((0.0, 0.5, 1.0, 0.3, 0.9))) for _ in pairs]
    for i in draw(st.lists(st.integers(0, len(pairs) - 1), min_size=2, max_size=2,
                           unique=True)):
        probs[i] = draw(st.sampled_from((0.0, 1.0)))
    return UncertainGraph(members, edges=dict(zip(pairs, probs)))


def path_edges(n, p):
    return [(i, i + 1, p) for i in range(n - 1)]


class TestPartitionDP:
    @settings(max_examples=200, deadline=None)
    @given(dp_blocks())
    @example(UncertainGraph(["m0"]))
    @example(UncertainGraph(["m0", "m1"]))
    @example(UncertainGraph(["m0", "m1"], {("m0", "m1"): 0.5}))
    @example(UncertainGraph(  # m3 isolated
        ["m0", "m1", "m2", "m3"], {("m0", "m1"): 0.5, ("m1", "m2"): 1.0}))
    @example(UncertainGraph(  # three groups even with a pair
        ["m0", "m1", "m2", "m3"], {("m0", "m1"): 0.5}))
    def test_matches_enumeration_with_every_certain_pair(self, graph):
        members = list(graph.records)
        edges = dict(graph.edge_items())
        absent = [pair for pair in itertools.combinations(members, 2) if pair not in edges]
        base, values = pair_connectivity(graph, members, absent, EXACT)
        assert abs(base - connectivity_by_enumeration(members, edges)) <= 1e-12
        assert block_connectivity(graph, members, EXACT).value == base
        for pair, value in zip(absent, values):
            expected = connectivity_by_enumeration(members, {**edges, pair: 1.0})
            assert abs(value - expected) <= 1e-12, pair

    def test_path_block_keeps_one_state_per_absent_edge(self):
        # the connected state plus, per edge, the state with only that edge
        # absent; without pruning at three groups the 18 edges would leave
        # 2**18 partitions
        n, p = 19, 0.7
        connected, split = _partition_dp(n, path_edges(n, p))
        assert len(split) == n - 1
        assert connected == pytest.approx(p ** (n - 1), rel=1e-12)

    def test_path_block_candidates_closed_form(self):
        # a certain pair (a, b) bridges the d path edges between them: any
        # one of those may be absent
        n, p = 19, 0.7
        members = [f"m{i:02d}" for i in range(n)]
        graph = UncertainGraph(
            members, {(members[i], members[j]): q for i, j, q in path_edges(n, p)})
        absent = [(members[i], members[j]) for i in range(n) for j in range(i + 2, n)]
        base, values = pair_connectivity(
            graph, members, absent, ReliabilityParams(exact_edge_limit=n))
        assert base == pytest.approx(p ** (n - 1), rel=1e-12)
        for (a, b), value in zip(absent, values):
            d = members.index(b) - members.index(a)
            expected = p ** (n - 1) + d * (1 - p) * p ** (n - 2)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_exact_edge_limit_is_capped(self):
        assert ReliabilityParams(exact_edge_limit=MAX_EXACT_EDGE_LIMIT)
        with pytest.raises(ConfigError, match=f"must be <= {MAX_EXACT_EDGE_LIMIT}, got 10000"):
            ReliabilityParams(exact_edge_limit=10000)

    def test_mc_samples_is_capped(self):
        # 4,000, the most any demo or test samples, is admitted
        assert ReliabilityParams(mc_samples=MAX_MC_SAMPLES).mc_samples >= 4000
        with pytest.raises(ConfigError, match=f"must be <= {MAX_MC_SAMPLES}, got 10001"):
            ReliabilityParams(mc_samples=MAX_MC_SAMPLES + 1)


class TestConnectivityMC:
    def test_deterministic_for_fixed_seed(self, trio_graph):
        params = ReliabilityParams(mc_samples=500, seed=42)
        a = sampled_connectivity(trio_graph, "ABC", params)
        b = sampled_connectivity(trio_graph, "ABC", params)
        assert a == b
        assert a.method == "monte-carlo"
        assert a.samples == 500

    def test_different_seed_different_stream(self, trio_graph):
        a = sampled_connectivity(trio_graph, "ABC", ReliabilityParams(mc_samples=200, seed=1))
        b = sampled_connectivity(trio_graph, "ABC", ReliabilityParams(mc_samples=200, seed=2))
        assert a.seed != b.seed

    def test_close_to_exact(self):
        rng = np.random.default_rng(23)
        params = ReliabilityParams(mc_samples=4000, seed=9)
        for _ in range(10):
            g, members = random_block_graph(rng)
            exact = block_connectivity(g, members, EXACT).value
            sampled = sampled_connectivity(g, members, params).value
            sigma = math.sqrt(max(exact * (1 - exact), 1e-9) / params.mc_samples)
            assert abs(sampled - exact) <= 4 * sigma + 0.01

    def test_certain_graph_sampled_exactly(self):
        g = UncertainGraph("ABC", {("A", "B"): 1.0, ("B", "C"): 1.0})
        est = sampled_connectivity(g, "ABC", ReliabilityParams(mc_samples=50, seed=0))
        assert est.value == 1.0
        g0 = UncertainGraph("ABC", {("A", "B"): 1.0})
        est0 = sampled_connectivity(g0, "ABC", ReliabilityParams(mc_samples=50, seed=0))
        assert est0.value == 0.0


class TestBlockConnectivity:
    def test_picks_exact_for_sparse_blocks(self, trio_graph):
        est = block_connectivity(trio_graph, ("A", "B", "C"), ReliabilityParams())
        assert est.method == "exact"
        assert est.value == pytest.approx(0.72)

    def test_switches_to_sampling_over_limit(self, trio_graph):
        params = ReliabilityParams(exact_edge_limit=1, mc_samples=300, seed=5)
        est = block_connectivity(trio_graph, ("A", "B", "C"), params)
        assert est.method == "monte-carlo"

    @pytest.mark.parametrize("block", [("A", "Z"), ("Z",)], ids=["two-records", "one-record"])
    def test_rejects_an_undeclared_record(self, trio_graph, block):
        # a one-record block is connected for certain, but only if declared
        with pytest.raises(ValueError, match="^record 'Z' is not declared$"):
            block_connectivity(trio_graph, block, EXACT)


class TestPairConnectivity:
    def test_rejects_an_undeclared_record(self, trio_graph):
        with pytest.raises(ValueError, match="^record 'Z' is not declared$"):
            pair_connectivity(trio_graph, ("A", "Z"), [("A", "Z")], EXACT)

    def test_pair_acts_as_certain_edge(self):
        g = UncertainGraph("ABC", {("A", "B"): 0.9})
        base, (boosted,) = pair_connectivity(g, "ABC", [("C", "B")], ReliabilityParams())
        assert base == 0.0
        assert boosted == pytest.approx(0.9)

    def test_method_comes_from_the_edge_count_with_a_pair(self, trio_graph):
        # the block's own count of m = 2 uncertain edges picks the method, a
        # pair not counted: at m == exact_edge_limit the base and every
        # with-pair value are exact, and below it both are sampled from the
        # block's stream
        params = ReliabilityParams(exact_edge_limit=2, mc_samples=100, seed=0)
        exact = block_connectivity(trio_graph, "ABC", params)
        assert exact.method == "exact"
        base, (value,) = pair_connectivity(trio_graph, "ABC", [("A", "C")], params)
        assert base == exact.value
        # a certain A-C leaves ABC connected unless both A-B and B-C are absent
        assert value == pytest.approx(1.0 - 0.1 * 0.2, abs=1e-15)
        below = ReliabilityParams(exact_edge_limit=1, mc_samples=100, seed=0)
        sampled = block_connectivity(trio_graph, "ABC", below)
        assert sampled.method == "monte-carlo"
        base, values = pair_connectivity(trio_graph, "ABC", [("A", "C")], below)
        assert base == sampled.value
        assert values == partition_pair_values(trio_graph, "ABC", [("A", "C")], 100,
                                               sampled.seed)

    def test_pair_must_be_inside_block(self, running_graph):
        with pytest.raises(ValueError, match="does not lie inside the block"):
            pair_connectivity(running_graph, ("A", "B"), [("A", "C")], ReliabilityParams())

    def test_empty_block_is_refused(self, trio_graph):
        with pytest.raises(ValueError, match="^block is empty$"):
            block_connectivity(trio_graph, (), EXACT)
        with pytest.raises(ValueError, match="^block is empty$"):
            pair_connectivity(trio_graph, (), [], EXACT)

    def test_base_and_pairs_share_one_stream(self):
        # common random numbers: the base is block_connectivity's sampled
        # value, and each with-pair value reads the same sampled worlds
        members = [f"m{i}" for i in range(6)]
        rng = np.random.default_rng(31)
        edges = {}
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                edges[(a, b)] = float(rng.uniform(0.2, 0.8))
        del edges[(members[0], members[1])]
        g = UncertainGraph(members, edges=edges)
        params = ReliabilityParams(exact_edge_limit=2, mc_samples=400, seed=77)
        alone = block_connectivity(g, members, params)
        assert alone.method == "monte-carlo"
        pair = (members[0], members[1])
        base, values = pair_connectivity(g, members, [pair], params)
        assert base == alone.value
        assert values == partition_pair_values(g, members, [pair], 400, alone.seed)

    @settings(max_examples=100, deadline=None)
    @given(dp_blocks(), st.integers(0, 2**32 - 1))
    @example(UncertainGraph(["m0", "m1", "m2"], {("m0", "m1"): 0.9, ("m1", "m2"): 0.8}), 0)
    def test_sampled_values_equal_the_reference(self, graph, seed):
        # at every limit from 0 to m + 1 the queue's base is block_connectivity's
        # value bit for bit, and the with-pair values come by the same method
        # from the reference partitions: the DP's up to m == exact_edge_limit,
        # where counting the pair would sample, and the block's stream above it
        members = list(graph.records)
        edges = dict(graph.edge_items())
        absent = [pair for pair in itertools.combinations(members, 2) if pair not in edges]
        m = len(_reduced_block(graph, members)[2])
        for limit in range(m + 2):
            params = ReliabilityParams(mc_samples=60, exact_edge_limit=limit, seed=seed)
            base, values = pair_connectivity(graph, members, absent, params)
            alone = block_connectivity(graph, members, params)
            assert alone.method == ("exact" if m <= limit else "monte-carlo"), limit
            assert base == alone.value, limit
            assert values == partition_pair_values(graph, members, absent, alone.samples,
                                                   alone.seed), limit

    def test_pairs_read_the_partitions_the_score_found(self, monkeypatch):
        # the snapshot prices a changed block, the queue the same block on
        # the same graph: the second call runs neither the DP nor the sampler
        perc.reliability._distribution.cache_clear()
        runs = []
        for name in ("_partition_dp", "_sampled_partitions"):
            monkeypatch.setattr(perc.reliability, name, lambda *args, run=getattr(
                perc.reliability, name), name=name: runs.append(name) or run(*args))
        g = UncertainGraph("ABCD", {("A", "B"): 0.3, ("B", "C"): 0.6, ("C", "D"): 0.7,
                                    ("A", "D"): 0.4})
        for params in (EXACT, ReliabilityParams(exact_edge_limit=3, mc_samples=50, seed=8)):
            alone = block_connectivity(g, "ABCD", params)
            assert pair_connectivity(g, "ABCD", [("A", "C")], params)[0] == alone.value
        assert runs == ["_partition_dp", "_sampled_partitions"]

    @settings(max_examples=150, deadline=None)
    @given(dp_blocks(), st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_sampled_pair_never_prices_below_the_base(self, graph, samples, seed):
        # a certain pair can only join groups, and every pair reads the
        # base's worlds, so each sampled with-pair value is at least the base
        members = list(graph.records)
        edges = dict(graph.edge_items())
        absent = [pair for pair in itertools.combinations(members, 2) if pair not in edges]
        params = ReliabilityParams(mc_samples=samples, exact_edge_limit=0, seed=seed)
        base, values = pair_connectivity(graph, members, absent, params)
        for pair, value in zip(absent, values):
            assert value >= base, pair

    def test_sampled_pairs_sit_within_tolerance_of_the_exact_dp(self):
        # acceptance 2's sweep and tolerance, applied to every with-pair value
        rng = np.random.default_rng(20261020)
        priced = 0
        for i in range(40):
            g, members = random_block_graph(rng, n_max=8, max_edges=14)
            absent = [pair for pair in itertools.combinations(members, 2)
                      if pair not in g.edges]
            _, exact = pair_connectivity(g, members, absent, EXACT)
            _, sampled = pair_connectivity(
                g, members, absent, ReliabilityParams(mc_samples=1000, seed=i,
                                                      exact_edge_limit=0))
            for pair, want, got in zip(absent, exact, sampled):
                tolerance = 3.0 * math.sqrt(want * (1.0 - want) / 1000.0) + 0.005
                assert abs(got - want) <= tolerance, (i, pair)
            priced += len(absent)
        assert priced >= 300


class TestContraction:
    def test_certain_edges_join_super_vertices(self):
        # A-C certain: {A, C} is vertex 0, numbered by its smallest member;
        # D-E (p = 0) is dropped and the rest keep canonical order
        g = UncertainGraph("ABCDE", {
            ("A", "C"): 1.0, ("B", "C"): 0.5, ("D", "E"): 0.0,
            ("B", "D"): 0.3, ("C", "E"): 0.7, ("A", "B"): 0.4})
        index, n, edges = _reduced_block(g, "EDCBA")
        assert index == {"A": 0, "B": 1, "C": 0, "D": 2, "E": 3}
        assert n == 4
        assert edges == [(0, 1, 0.4), (1, 0, 0.5), (1, 2, 0.3), (0, 3, 0.7)]

    @settings(max_examples=150, deadline=None)
    @given(contractible_blocks())
    @example(UncertainGraph(  # B-C certain, A-C absent
        ["A", "B", "C", "D"], {("A", "B"): 0.5, ("B", "C"): 1.0, ("C", "D"): 1.0,
                               ("A", "D"): 0.0, ("B", "D"): 0.5}))
    def test_contracted_block_priced_exactly_under_the_raw_count(self, graph):
        # the raw intra edge count is above exact_edge_limit and the
        # contracted count with a pair is not: both functions solve exactly
        members = list(graph.records)
        edges = dict(graph.edge_items())
        index, _, reduced = _reduced_block(graph, members)
        assert len(edges) > len(reduced) + 1
        params = ReliabilityParams(exact_edge_limit=len(reduced) + 1, mc_samples=10)
        alone = block_connectivity(graph, members, params)
        assert alone.method == "exact"
        assert abs(alone.value - connectivity_by_enumeration(members, edges)) <= 1e-12
        absent = [pair for pair in itertools.combinations(members, 2) if pair not in edges]
        base, values = pair_connectivity(graph, members, absent, params)
        assert base == alone.value
        for (a, b), value in zip(absent, values):
            if index[a] == index[b]:
                assert value == base, (a, b)
            else:
                expected = connectivity_by_enumeration(members, {**edges, (a, b): 1.0})
                assert abs(value - expected) <= 1e-12, (a, b)

    def test_sampled_pair_inside_a_super_vertex_is_the_base(self):
        g = UncertainGraph("ABCD", {
            ("A", "B"): 1.0, ("B", "C"): 1.0, ("C", "D"): 0.5, ("A", "D"): 0.5})
        params = ReliabilityParams(exact_edge_limit=1, mc_samples=50, seed=3)
        alone = block_connectivity(g, "ABCD", params)
        assert alone.method == "monte-carlo"
        base, (inside, across) = pair_connectivity(g, "ABCD", [("A", "C"), ("B", "D")], params)
        assert inside == base == alone.value
        assert across == 1.0


class TestReliability:
    def test_trio_worked_value(self, trio_graph, trio_clustering):
        # log10(0.72) + log10(0.88) = -0.198185...
        score = reliability(trio_graph, trio_clustering)
        assert score.value == pytest.approx(-0.199, abs=1e-3)
        assert score.value == pytest.approx(
            math.log10(0.72) + math.log10(0.88), abs=1e-12)
        assert [e.value for e in score.block_connectivity] == [
            pytest.approx(0.72), pytest.approx(1.0)]
        assert score._pairs == {
            (("A", "B", "C"), ("D",)): (pytest.approx(0.88), pytest.approx(math.log10(0.88)),
                                        [(("A", "D"), 0.2), (("C", "D"), 0.6)])}
        assert score.connectivity_log == pytest.approx(math.log10(0.72), abs=1e-15)
        assert score.disconnectivity_log == pytest.approx(math.log10(0.88), abs=1e-15)
        assert score.clamped == 0

    def test_running_example_value(self, running_graph, running_clustering):
        score = reliability(running_graph, running_clustering)
        expected = 4 * math.log10(0.8) + math.log10(0.82) + math.log10(0.79)
        assert score.value == pytest.approx(expected, abs=1e-12)

    def test_epsilon_clamps_zero_components(self):
        g = UncertainGraph(["A", "B", "C"])
        c = Clustering([["A", "B"], ["C"]])
        # Block {A,B} has no intra edge (connectivity 0) and no spanning
        # edge separates the blocks (disconnectivity 0): two clamps.
        score = reliability(g, c, ReliabilityParams(epsilon=1e-12))
        assert score.value == pytest.approx(2 * math.log10(1e-12))
        assert score.clamped == 2
        assert score._pairs == {}

    def test_epsilon_is_configurable(self):
        g = UncertainGraph(["A", "B"])
        c = Clustering([["A", "B"]])
        loose = reliability(g, c, ReliabilityParams(epsilon=1e-6))
        tight = reliability(g, c, ReliabilityParams(epsilon=1e-12))
        assert loose.value == pytest.approx(-6.0)
        assert tight.value == pytest.approx(-12.0)

    def test_all_singletons_reliability(self, running_graph):
        # Every singleton block is trivially connected; every block pair
        # p(e) = 0 edge spanning it is a certain separator.
        c = Clustering([r] for r in running_graph.records)
        score = reliability(running_graph, c)
        for est in score.block_connectivity:
            assert est.value == 1.0

    def test_monotone_in_separator_strength(self):
        # Raising a spanning edge's NO probability cannot hurt the score.
        previous = None
        for p_yes in [0.9, 0.7, 0.5, 0.3, 0.1]:
            g = UncertainGraph("ABC", {("A", "B"): 0.8, ("B", "C"): p_yes})
            c = Clustering([["A", "B"], ["C"]])
            value = reliability(g, c).value
            if previous is not None:
                assert value >= previous
            previous = value

    def test_previous_must_match_params_and_edges(self, running_graph,
                                                  running_clustering):
        params = ReliabilityParams(exact_edge_limit=8)
        grown = running_graph.with_edge("A", "D", probability=0.4)
        previous = reliability(running_graph, running_clustering, params)
        with pytest.raises(ValueError, match="previous score priced other params"):
            reliability(grown, running_clustering, ReliabilityParams(exact_edge_limit=9),
                        previous=previous)
        # the previous graph must be part of the new one, with its probabilities
        with pytest.raises(ValueError, match="edges this graph lacks"):
            reliability(running_graph, running_clustering, params,
                        previous=reliability(grown, running_clustering, params))
        repriced = dict(running_graph.edges)
        repriced[("A", "B")] = 0.7
        with pytest.raises(ValueError, match="prices differently"):
            reliability(UncertainGraph(running_graph.records, edges=repriced),
                        running_clustering, params, previous=previous)
        wider = UncertainGraph(running_graph.records + ("I",), edges=running_graph.edges)
        with pytest.raises(ValueError, match="other records"):
            reliability(wider, Clustering(running_clustering.blocks + (("I",),)), params,
                        previous=previous)
        # the seed is a param like any other
        with pytest.raises(ValueError, match="previous score priced other params"):
            reliability(grown, running_clustering, ReliabilityParams(exact_edge_limit=8, seed=5),
                        previous=previous)
        # previous is left as it was
        cold = reliability(grown, running_clustering, params)
        for _ in range(2):
            assert reliability(grown, running_clustering, params, previous=previous) == cold

    def test_previous_is_left_as_it_was_across_a_recluster(self, running_graph,
                                                           running_clustering):
        # splitting {C,D} removes a block that A-C and B-D span; left
        # unsplit, the pair gains A-D, and its span starts from a copy of
        # previous's row, whose list previous keeps as it was
        params = ReliabilityParams(exact_edge_limit=8)
        previous = reliability(running_graph, running_clustering, params)
        before = copy.deepcopy(previous._pairs)
        assert (("A", "B"), ("C", "D")) in before
        grown = running_graph.with_edge("A", "D", probability=0.4)
        split = Clustering((("A", "B"), ("C",), ("D",), ("E", "F"), ("G", "H")))
        for clustering in (split, running_clustering):
            cold = reliability(grown, clustering, params)
            for _ in range(2):
                assert reliability(grown, clustering, params, previous=previous) == cold
                assert previous._pairs == before

    def test_sampled_connectivity_carries(self, running_graph, running_clustering):
        # at limit 0 every block is sampled; an edge across two blocks
        # leaves each block's inputs as they were
        params = ReliabilityParams(mc_samples=50, exact_edge_limit=0)
        previous = reliability(running_graph, running_clustering, params)
        grown = running_graph.with_edge("A", "D", probability=0.4)
        carried = reliability(grown, running_clustering, params, previous=previous)
        for old, new in zip(previous.block_connectivity, carried.block_connectivity):
            assert new.method == "monte-carlo"
            assert new is old
        assert carried == reliability(grown, running_clustering, params)

    def test_rejects_mismatched_records(self, trio_graph):
        with pytest.raises(ValueError):
            reliability(trio_graph, Clustering([["A", "B"]]))


class TestMonotonicityProperty:
    def test_reliability_never_drops_as_separators_strengthen(self):
        # Scale every cross-block edge's YES probability by (1 - q): at
        # q = 0 the instance is untouched; larger q means stronger
        # separators and (weakly) larger reliability.
        rng = np.random.default_rng(41)
        for _ in range(15):
            g = random_small_graph(rng, n_min=4, n_max=7, p_edge=0.8)
            recs = list(g.records)
            half = len(recs) // 2
            c = Clustering([recs[:half], recs[half:]])
            base_edges = dict(g.edge_items())
            previous = None
            for q in np.linspace(0.0, 1.0, 6):
                edges = {}
                for (a, b), p in base_edges.items():
                    if c.same_block(a, b):
                        edges[(a, b)] = p
                    else:
                        edges[(a, b)] = p * (1.0 - float(q))
                scaled = UncertainGraph(recs, edges=edges)
                value = reliability(scaled, c).value
                if previous is None:
                    assert value == pytest.approx(reliability(g, c).value)
                else:
                    assert value >= previous - 1e-9
                previous = value
