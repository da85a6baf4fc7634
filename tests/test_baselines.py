"""TC and DENSE baseline selection strategies."""

import math

import numpy as np
import pytest

from perc import (
    Clustering,
    UncertainGraph,
    build_dense_state,
    dense_batch,
    rho_inputs,
    tc_batch,
)
from perc.util import make_rng
from test_fast_paths import reference_open_pairs


class TestTcSelection:
    @pytest.mark.parametrize("records, edges, open_pairs", [
        # A~B~C closes transitively, so A-C is settled; D stays open
        ("ABCD", {("A", "B"): 0.9, ("B", "C"): 0.7}, [("A", "D"), ("B", "D"), ("C", "D")]),
        # A~B matched, B-C non-matched: A-C is settled through the
        # component's anti-link, while D is untouched
        ("ABCD", {("A", "B"): 0.9, ("B", "C"): 0.1}, [("A", "D"), ("B", "D"), ("C", "D")]),
        # p = 1/2 settles nothing: A-C is neither closed nor anti-linked
        ("ABC", {("A", "B"): 0.5, ("B", "C"): 0.9}, [("A", "C")]),
    ], ids=["closure", "anti-link", "undecided"])
    def test_exhausting_batch_is_the_open_pairs(self, records, edges, open_pairs):
        g = UncertainGraph.from_probabilities(records, edges)
        assert sorted(tc_batch(g, make_rng(0), 10)) == open_pairs

    def test_never_returns_inferable_or_crowdsourced(self):
        rng_instances = np.random.default_rng(79)
        for _ in range(30):
            n = int(rng_instances.integers(4, 9))
            recs = [f"r{i}" for i in range(n)]
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng_instances.random() < 0.5:
                        edges[(recs[i], recs[j])] = float(rng_instances.random())
            g = UncertainGraph(recs, edges=edges)
            open_pairs = reference_open_pairs(g, None)
            for pick in tc_batch(g, make_rng(0), 3):
                assert pick in open_pairs

    def test_exhaustion_returns_none(self):
        # Everything crowdsourced or inferable: two matched pairs plus one
        # non-match between the components settles all six pairs.
        g = UncertainGraph.from_probabilities(
            "ABCD", {("A", "B"): 0.9, ("C", "D"): 0.9, ("A", "C"): 0.1})
        assert tc_batch(g, make_rng(0), 1) == []

    def test_uniform_over_candidates(self):
        # Four records, no edges: six equally likely candidates.
        g = UncertainGraph(["A", "B", "C", "D"])
        counts = {}
        rng = make_rng(123)
        trials = 6000
        for _ in range(trials):
            (pick,) = tc_batch(g, rng, 1)
            counts[pick] = counts.get(pick, 0) + 1
        assert set(counts) == set(g.absent_pairs())
        expected = trials / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # chi-square with 5 degrees of freedom: 0.999 quantile is ~20.5
        assert chi2 < 20.5

    def test_batch_distinct_without_replacement(self):
        g = UncertainGraph(["A", "B", "C", "D"])
        batch = tc_batch(g, make_rng(7), 6)
        assert len(batch) == 6
        assert len(set(batch)) == 6
        assert tc_batch(g, make_rng(7), 10) == batch + []  # only 6 exist

    def test_batch_respects_allowed(self):
        g = UncertainGraph(["A", "B", "C"])
        allowed = frozenset({("A", "C")})
        assert tc_batch(g, make_rng(3), 5, allowed=allowed) == [("A", "C")]

    def test_deterministic_given_rng_state(self):
        g = UncertainGraph(["A", "B", "C", "D", "E"])
        assert tc_batch(g, make_rng(11), 4) == tc_batch(g, make_rng(11), 4)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            tc_batch(UncertainGraph(["A", "B"]), make_rng(0), 0)


class TestRhoInputs:
    def test_worked_min_factors(self, running_graph, running_clustering):
        c1, c2, c3, c4 = running_clustering.blocks
        r12 = rho_inputs(running_graph, c1, c2)
        r34 = rho_inputs(running_graph, c3, c4)
        # Each pair has one positive cross edge (0.6 rsp. 0.7) and one
        # negative; the cheap flip is the positive one: (1-p)/p.
        assert r12.min_factor == pytest.approx(0.3 / 0.7, abs=1e-9)
        assert r34.min_factor == pytest.approx(0.3 / 0.7, abs=1e-9)
        assert r12.min_factor == pytest.approx(0.428571, abs=1e-6)

    def test_classification(self, running_graph, running_clustering):
        c1, c2 = running_clustering.blocks[:2]
        r = rho_inputs(running_graph, c1, c2)
        assert {pair for pair, _ in r.yes} == {("B", "D")}
        assert {pair for pair, _ in r.no} == {("A", "C")}
        assert dict(r.no)[("A", "C")] == pytest.approx(0.7)
        # outside edges: all-NO far pairs are negative, so y1/y2 hold none
        assert r.y1 == () and r.y2 == ()
        assert r.outside_factor == 1.0

    def test_undecided_edges_excluded(self):
        g = UncertainGraph.from_probabilities(
            "ABC", {("A", "B"): 0.5, ("A", "C"): 0.8})
        r = rho_inputs(g, ("A",), ("B",))
        assert r.yes == () and r.no == ()
        assert r.min_factor == 1.0
        assert {pair for pair, _ in r.y1} == {("A", "C")}

    def test_outside_positive_evidence_shrinks_rho(self):
        # A strong positive edge from A to an outside record means merging
        # A with B fights that evidence, shrinking the ratio.
        base = UncertainGraph.from_probabilities(
            "ABC", {("A", "B"): 0.6})
        tied = UncertainGraph.from_probabilities(
            "ABC", {("A", "B"): 0.6, ("A", "C"): 0.9})
        assert rho_inputs(tied, ("A",), ("B",)).value < \
            rho_inputs(base, ("A",), ("B",)).value
        assert rho_inputs(tied, ("A",), ("B",)).value == pytest.approx(
            (0.1 / 0.9) * (0.4 / 0.6))

    def test_certain_edges_zero_the_ratio(self):
        g = UncertainGraph.from_probabilities("AB", {("A", "B"): 1.0})
        # flipping a certain verdict costs everything: ratio 0
        assert rho_inputs(g, ("A",), ("B",)).value == 0.0

    def test_value_bounded_in_unit_interval(self):
        rng = np.random.default_rng(83)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            recs = [f"r{i}" for i in range(n)]
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        edges[(recs[i], recs[j])] = float(rng.random())
            g = UncertainGraph(recs, edges=edges)
            c = Clustering.singletons(recs)
            for bj, bk in c.block_pairs():
                value = rho_inputs(g, bj, bk).value
                assert 0.0 <= value <= 1.0 + 1e-12

    def test_rejects_overlapping_blocks(self, running_graph):
        with pytest.raises(ValueError):
            rho_inputs(running_graph, ("A", "B"), ("B", "C"))


class TestDenseSelection:
    def test_running_example_tie_resolves_to_smallest_pair(self, running_graph,
                                                           running_clustering):
        # C1 x C2 and C3 x C4 tie exactly; (A, D) < (E, H).
        assert dense_batch(build_dense_state(running_graph, running_clustering), 1) == \
            [("A", "D")]

    def test_prefers_higher_rho(self, running_clustering):
        # Pull both C3 x C4 cross edges toward one half: flipping either
        # verdict gets cheap to deny, raising that pair's ratio above
        # C1 x C2's, so DENSE switches sides.
        edges = {
            ("A", "B"): 0.8, ("C", "D"): 0.8, ("E", "F"): 0.8, ("G", "H"): 0.8,
            ("A", "C"): 0.3, ("B", "D"): 0.6,
            ("E", "G"): 0.45, ("F", "H"): 0.55,
            ("A", "E"): 0.0, ("A", "F"): 0.0, ("B", "E"): 0.0, ("B", "F"): 0.0,
            ("A", "G"): 0.0, ("A", "H"): 0.0, ("B", "G"): 0.0, ("B", "H"): 0.0,
            ("C", "E"): 0.0, ("C", "F"): 0.0, ("D", "E"): 0.0, ("D", "F"): 0.0,
            ("C", "G"): 0.0, ("C", "H"): 0.0, ("D", "G"): 0.0, ("D", "H"): 0.0,
        }
        g = UncertainGraph.from_probabilities("ABCDEFGH", edges)
        r34 = rho_inputs(g, ("E", "F"), ("G", "H")).value
        r12 = rho_inputs(g, ("A", "B"), ("C", "D")).value
        assert r34 > r12
        assert dense_batch(build_dense_state(g, running_clustering), 1) == [("E", "H")]

    def test_only_cross_pairs_proposed(self):
        g = UncertainGraph.from_probabilities(
            "ABCD", {("A", "B"): 0.9, ("C", "D"): 0.2})
        c = Clustering([["A", "B", "C"], ["D"]])
        batch = dense_batch(build_dense_state(g, c), 10)
        for a, b in batch:
            assert not c.same_block(a, b)
        assert ("A", "C") not in batch  # intra pair, never a candidate

    def test_batch_order_and_allowed(self, running_graph, running_clustering):
        batch = dense_batch(build_dense_state(running_graph, running_clustering), 4)
        assert batch == [("A", "D"), ("B", "C"), ("E", "H"), ("F", "G")]
        restricted = dense_batch(build_dense_state(
            running_graph, running_clustering,
            allowed=frozenset({("B", "C"), ("F", "G")})), 4)
        assert restricted == [("B", "C"), ("F", "G")]

    def test_exhaustion_returns_none(self):
        g = UncertainGraph.from_probabilities(
            "AB", {("A", "B"): 0.2})
        c = Clustering([["A"], ["B"]])
        assert dense_batch(build_dense_state(g, c), 1) == []

    def test_rejects_nonpositive_k(self, running_graph, running_clustering):
        with pytest.raises(ValueError):
            dense_batch(build_dense_state(running_graph, running_clustering), 0)
