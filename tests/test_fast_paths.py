"""Exact-equality oracles for the one-pass block-pair aggregates.

Random small graphs and clusterings with tie-prone edge fractions (0/1,
1/2, 3/5, ...) are pushed through the fast paths and through references
that price each block pair on its own: disconnectivity per pair, a
linear-scan agglomerative merge, a full sort of the queue, and a scan of
all |A|·|B| pairs for the absent cross pairs.  Values must agree bit for
bit, since curve bytes depend on them.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from perc import (Clustering, ReliabilityParams, UncertainGraph, build_state,
                  dense_batch, reliability, rho_inputs, scc_cluster, select_batch)
from perc.clustering import _PairAgg
from perc.reliability import block_connectivity, disconnectivity, spanning_products
from perc.selection import _inter_gain
from perc.util import log10_clamped

FRACTIONS = (0.0, 1.0, 0.5, 0.6, 0.4, 0.2, 0.8)
NAMES = "QWERTYUIOP"
PARAMS = ReliabilityParams(mc_samples=40, exact_edge_limit=8)
ORACLE = settings(max_examples=150, deadline=None)


@st.composite
def graphs(draw, max_records=9):
    n = draw(st.integers(2, max_records))
    records = draw(st.permutations(NAMES))[:n]
    pairs = list(itertools.combinations(sorted(records), 2))
    values = draw(st.lists(st.one_of(st.none(), st.sampled_from(FRACTIONS)),
                           min_size=len(pairs), max_size=len(pairs)))
    probs = {pair: p for pair, p in zip(pairs, values) if p is not None}
    return UncertainGraph.from_probabilities(records, probs)


@st.composite
def graphs_with_clusterings(draw, max_records=9):
    graph = draw(graphs(max_records))
    labels = draw(st.lists(st.integers(0, len(graph.records) - 1),
                           min_size=len(graph.records), max_size=len(graph.records)))
    groups: dict[int, list[str]] = {}
    for record, label in zip(graph.records, labels):
        groups.setdefault(label, []).append(record)
    return graph, Clustering(groups.values())


def draw_allowed(data, graph):
    """None, or a replay log's pair set drawn from all pairs."""
    if not data.draw(st.booleans(), label="replay"):
        return None
    universe = list(itertools.combinations(graph.records, 2))
    return frozenset(data.draw(st.lists(st.sampled_from(universe)), label="allowed"))


def scan_absent_between(graph, left, right, allowed):
    """Every pair across the two blocks, canonicalized, kept if absent (and
    allowed), then sorted."""
    pairs = [tuple(sorted((a, b))) for a in left for b in right]
    return sorted(p for p in pairs
                  if p not in graph.edges and (allowed is None or p in allowed))


def reference_scc(graph):
    """Agglomerative merging that rescans every candidate before each merge."""
    blocks = {i: (r,) for i, r in enumerate(graph.records)}
    owner = {r: i for i, r in enumerate(graph.records)}
    agg = {}
    for (a, b), p in graph.edge_items():
        key = tuple(sorted((owner[a], owner[b])))
        agg.setdefault(key, _PairAgg()).add_edge(p)
    next_id = len(blocks)
    while agg:
        best_key = best_prob = best_order = None
        for key, entry in agg.items():
            prob = entry.probability()
            order = tuple(sorted((blocks[key[0]][0], blocks[key[1]][0])))
            if best_key is None or prob > best_prob or (
                    prob == best_prob and order < best_order):
                best_key, best_prob, best_order = key, prob, order
        if best_prob <= 0.5:
            break
        ia, ib = best_key
        mid = next_id
        next_id += 1
        blocks[mid] = tuple(sorted(blocks.pop(ia) + blocks.pop(ib)))
        combined = {}
        for (x, y), entry in list(agg.items()):
            if {x, y} & {ia, ib}:
                del agg[(x, y)]
                if {x, y} != {ia, ib}:
                    other = y if x in (ia, ib) else x
                    if other in combined:
                        combined[other].absorb(entry)
                    else:
                        combined[other] = entry
        for other, entry in combined.items():
            agg[(other, mid)] = entry
    return Clustering(blocks.values())


def reference_select_batch(state, k):
    """The queue fully sorted, then spare slots filled across block pairs."""
    ranked = state.entries()
    batch = [c.pair for c in ranked[:k]]
    taken = set(batch)
    for cand in ranked:
        if len(batch) >= k:
            break
        if cand.scope[0] != "inter":
            continue
        for pair in scan_absent_between(state.graph, cand.scope[1],
                                        cand.scope[2], state.allowed):
            if len(batch) < k and pair not in taken:
                taken.add(pair)
                batch.append(pair)
    return batch


def reference_inter(graph, clustering, allowed):
    inter = {}
    for bj, bk in clustering.block_pairs():
        absent = scan_absent_between(graph, bj, bk, allowed)
        if absent:
            dis = disconnectivity(graph, clustering, bj, bk)
            inter[(bj, bk)] = (absent[0], _inter_gain(dis, PARAMS))
    return inter


def reference_dense_batch(graph, clustering, k, allowed):
    """DENSE with every block pair ranked, every absent cross pair listed
    under its pair's score, a full sort, then repeats dropped."""
    ranked = sorted(((rho_inputs(graph, bj, bk).value, (bj, bk))
                     for bj, bk in clustering.block_pairs()),
                    key=lambda t: (-t[0], t[1]))
    candidates = []
    for score, (bj, bk) in ranked:
        for a in bj:
            for b in bk:
                key = tuple(sorted((a, b)))
                if key in graph.edges or (allowed is not None and key not in allowed):
                    continue
                candidates.append((-score, key))
    candidates.sort()
    out = []
    seen = set()
    for _, pair in candidates:
        if pair in seen:
            continue
        seen.add(pair)
        out.append(pair)
        if len(out) >= k:
            break
    return out


@ORACLE
@given(graphs_with_clusterings())
def test_spanning_products_equal_disconnectivity(case):
    graph, clustering = case
    products = spanning_products(graph, clustering)
    assert set(products) <= set(clustering.block_pairs())
    for bj, bk in clustering.block_pairs():
        prod = products.get((bj, bk))
        assert (prod is None) == (not graph.edges_between(bj, bk))
        d = 0.0 if prod is None else 1.0 - prod
        assert d == disconnectivity(graph, clustering, bj, bk)


@ORACLE
@given(graphs_with_clusterings())
def test_reliability_equals_per_pair_sum(case):
    graph, clustering = case
    total = 0.0
    for block in clustering.blocks:
        total += log10_clamped(block_connectivity(graph, block, PARAMS).value,
                               PARAMS.epsilon)
    for bj, bk in clustering.block_pairs():
        total += log10_clamped(disconnectivity(graph, clustering, bj, bk),
                               PARAMS.epsilon)
    assert reliability(graph, clustering, PARAMS).value == total


@ORACLE
@given(graphs(max_records=10))
def test_scc_cluster_equals_linear_scan(graph):
    assert scc_cluster(graph) == reference_scc(graph)


@ORACLE
@given(graphs_with_clusterings(max_records=7), st.data())
def test_select_batch_equals_sorted_queue(case, data):
    graph, clustering = case
    allowed = draw_allowed(data, graph)
    state = build_state(graph, clustering, PARAMS, allowed=allowed)
    assert state.inter == reference_inter(graph, clustering, allowed)
    ranked = [c.pair for c in state.entries()]
    for k in range(1, len(state) + 4):
        batch = select_batch(state, k)
        assert batch[:len(state)] == ranked[:k]
        assert batch == reference_select_batch(state, k)


@ORACLE
@given(graphs_with_clusterings(), st.data())
def test_absent_pairs_between_equals_scan(case, data):
    graph, clustering = case
    allowed = draw_allowed(data, graph)
    for bj, bk in clustering.block_pairs():
        expected = scan_absent_between(graph, bj, bk, allowed)
        assert list(graph.absent_pairs_between(bj, bk, allowed)) == expected
        assert list(graph.absent_pairs_between(bk, bj, allowed)) == expected


@ORACLE
@given(graphs_with_clusterings(max_records=7), st.data())
def test_dense_batch_equals_sort_then_dedupe(case, data):
    graph, clustering = case
    allowed = draw_allowed(data, graph)
    absent = sum(len(scan_absent_between(graph, bj, bk, allowed))
                 for bj, bk in clustering.block_pairs())
    for k in range(1, absent + 3):
        assert dense_batch(graph, clustering, k, allowed) == \
            reference_dense_batch(graph, clustering, k, allowed)
