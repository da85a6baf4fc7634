"""Shared fixtures: the two worked graphs plus small generators and oracles.

The oracle helpers recompute expected values by direct enumeration with
plain float products, independent of the library's log-space code paths,
so the tests check the implementation against arithmetic it does not
share.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from perc import Clustering, UncertainGraph, VoteTally
from perc.fileio import CURVE_HEADER, _csv_rows, read_text
from perc.harness import MetricsSnapshot
from perc.reliability import ReliabilityParams, changes_since, reliability

EIGHT = list("ABCDEFGH")

# Four 2-record entities; two crowdsourced edges span C1xC2 and C3xC4 and
# every pair across the far block pairs was answered all-NO.
RUNNING_EDGES = {
    ("A", "B"): 0.8, ("C", "D"): 0.8, ("E", "F"): 0.8, ("G", "H"): 0.8,
    ("A", "C"): 0.3, ("B", "D"): 0.6,
    ("E", "G"): 0.3, ("F", "H"): 0.7,
    ("A", "E"): 0.0, ("A", "F"): 0.0, ("B", "E"): 0.0, ("B", "F"): 0.0,
    ("A", "G"): 0.0, ("A", "H"): 0.0, ("B", "G"): 0.0, ("B", "H"): 0.0,
    ("C", "E"): 0.0, ("C", "F"): 0.0, ("D", "E"): 0.0, ("D", "F"): 0.0,
    ("C", "G"): 0.0, ("C", "H"): 0.0, ("D", "G"): 0.0, ("D", "H"): 0.0,
}

RUNNING_BLOCKS = (("A", "B"), ("C", "D"), ("E", "F"), ("G", "H"))


@pytest.fixture
def running_graph() -> UncertainGraph:
    return UncertainGraph(EIGHT, RUNNING_EDGES)


@pytest.fixture
def running_clustering() -> Clustering:
    return Clustering(RUNNING_BLOCKS)


def running_vote_rows() -> list[tuple[tuple[str, str], VoteTally]]:
    """The running example as a replayable vote log (out of 10 voters)."""
    rows = []
    for (a, b), p in sorted(RUNNING_EDGES.items()):
        rows.append(((a, b), VoteTally(yes=round(p * 10), total=10)))
    return rows


# a span does not depend on params, so these, which sample each block once,
# price the scores round_changes measures a change from
SPAN_PARAMS = ReliabilityParams(mc_samples=1, exact_edge_limit=0)


def round_changes(state, graph, clustering):
    """The round's change from a strategy state's graph and clustering to
    these, measured as run_experiment measures it: from a score priced
    where the state was."""
    return changes_since(reliability(state.graph, state.clustering, SPAN_PARAMS),
                         graph, clustering)


# Two blocks {A,B,C} and {D}: intra path 0.9, 0.8 and two edges to D whose
# NO probabilities are 0.8 and 0.4.
TRIO_EDGES = {
    ("A", "B"): 0.9, ("B", "C"): 0.8,
    ("A", "D"): 0.2, ("C", "D"): 0.6,
}


@pytest.fixture
def trio_graph() -> UncertainGraph:
    return UncertainGraph("ABCD", TRIO_EDGES)


@pytest.fixture
def trio_clustering() -> Clustering:
    return Clustering([("A", "B", "C"), ("D",)])


def read_curve_csv(path) -> list[MetricsSnapshot]:
    """The snapshots of a curve.csv that write_curve_csv wrote, read through
    the library's checked CSV reader."""
    return [MetricsSnapshot(questions_asked=int(row[0]), precision=float(row[1]),
                            recall=float(row[2]), f1=float(row[3]),
                            reliability=float(row[4]), blocks=int(row[5]))
            for _, row in _csv_rows(read_text(path), path, CURVE_HEADER)]


def world_product(edges: dict, present: set) -> float:
    """Probability of one possible world by direct float products."""
    value = 1.0
    for pair, p in edges.items():
        value *= p if pair in present else 1.0 - p
    return value


def connectivity_by_enumeration(members: list, edges: dict) -> float:
    """All-terminal connectivity by summing over every edge subset.

    Kept deliberately naive (itertools over subsets plus a reachability
    walk) so it shares nothing with the library's partition DP.
    """
    items = sorted(edges.items())
    total = 0.0
    for bits in itertools.product([False, True], repeat=len(items)):
        prob = 1.0
        adj = {m: [] for m in members}
        for present, (pair, p) in zip(bits, items):
            prob *= p if present else 1.0 - p
            if present:
                adj[pair[0]].append(pair[1])
                adj[pair[1]].append(pair[0])
        seen = {members[0]}
        stack = [members[0]]
        while stack:
            for other in adj[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if len(seen) == len(members):
            total += prob
    return total


def bell_numbers(limit: int) -> list[int]:
    """Bell numbers B(0)..B(limit) via the Bell triangle."""
    row = [1]
    bells = [1]
    for _ in range(limit):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        bells.append(row[0])
    return bells


def random_small_graph(rng: np.random.Generator, n_min=2, n_max=8,
                       p_edge=0.6, certain=False) -> UncertainGraph:
    """Random graph over a few records with random edge probabilities."""
    n = int(rng.integers(n_min, n_max + 1))
    records = [f"r{i:02d}" for i in range(n)]
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                p = float(rng.random()) if not certain else float(rng.integers(2))
                edges[(records[i], records[j])] = p
    return UncertainGraph(records, edges=edges)


def random_partition(rng: np.random.Generator, records) -> Clustering:
    """Uniformly random assignment of records to at most len(records) bins."""
    recs = sorted(records)
    k = int(rng.integers(1, len(recs) + 1))
    labels = [int(rng.integers(k)) for _ in recs]
    groups: dict[int, list] = {}
    for r, lab in zip(recs, labels):
        groups.setdefault(lab, []).append(r)
    return Clustering(groups.values())


def pytest_terminal_summary(terminalreporter):
    """One visible PASS/FAIL line per acceptance criterion, when those ran."""
    import sys
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None) if module else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
