"""Exact-equality oracles for the one-pass block-pair aggregates.

Random small graphs and clusterings with tie-prone edge fractions (0/1,
1/2, 3/5, ...) are pushed through the fast paths and through references
that price each block pair on its own: a filter over every edge and
disconnectivity per pair, a linear-scan agglomerative merge over every
edge, a full sort of the queue, a scan of all |A|·|B| pairs for the
absent cross pairs and for the queue entry of every block pair (stored or
not), rho_inputs per block pair, a rescan of TC's candidates before each
pick, a Monte Carlo sampler that draws one coin per call and finds each
world's groups by BFS, and a cold build_state, a cold reliability call, a
cold DENSE state and a rescan of TC's open pairs after every round.
Values must agree bit for bit, since curve bytes depend on them.
"""

import copy
import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perc import (Clustering, ReliabilityParams, UncertainGraph, VoteTally, build_state,
                  refresh_after_answer, scc_cluster, select_batch)
from perc.baselines import (TcState, build_dense_state, dense_batch, refresh_dense_state,
                            refresh_tc_state, rho_inputs, tc_batch)
from perc.clustering import _edge_tally, _tally_probability
from perc.reliability import (Changes, _sampled_partitions, block_connectivity,
                              changes_since, disconnectivity, reliability)
from perc.selection import _inter_gain
from perc.util import make_rng

FRACTIONS = (0.0, 1.0, 0.5, 0.6, 0.4, 0.2, 0.8)
# tallies whose fractions are FRACTIONS
TALLIES = tuple(VoteTally(yes, total) for yes, total in
                ((0, 1), (1, 1), (1, 2), (3, 5), (2, 5), (1, 5), (4, 5)))
# products of these round differently when multiplied in another order
ROUNDING_FRACTIONS = FRACTIONS + (0.7, 0.9, 2 / 3, 0.3)
NAMES = "QWERTYUIOP"
NAME_PAIRS = list(itertools.combinations(sorted(NAMES), 2))
PARAMS = ReliabilityParams(mc_samples=40, exact_edge_limit=8)
# the default clamp floor, and one that products of a few small fractions reach
EPSILONS = (1e-12, 1e-3 / 2)
ORACLE = settings(max_examples=150, deadline=None)


@st.composite
def graphs(draw, max_records=9, fractions=FRACTIONS):
    """A graph whose edges are inserted in a drawn order, as a loaded vote
    file may list them, so graph.edges is not sorted."""
    n = draw(st.integers(2, max_records))
    records = draw(st.permutations(NAMES))[:n]
    pairs = draw(st.permutations(list(itertools.combinations(sorted(records), 2))))
    values = draw(st.lists(st.one_of(st.none(), st.sampled_from(fractions)),
                           min_size=len(pairs), max_size=len(pairs)))
    probs = {pair: p for pair, p in zip(pairs, values) if p is not None}
    return UncertainGraph(records, probs)


@st.composite
def graphs_with_clusterings(draw, max_records=9, fractions=FRACTIONS):
    graph = draw(graphs(max_records, fractions))
    labels = draw(st.lists(st.integers(0, len(graph.records) - 1),
                           min_size=len(graph.records), max_size=len(graph.records)))
    groups: dict[int, list[str]] = {}
    for record, label in zip(graph.records, labels):
        groups.setdefault(label, []).append(record)
    return graph, Clustering(groups.values())


@st.composite
def component_graphs(draw, max_records=10):
    """Groups of records, each held together by a path of p > 1/2 edges
    plus random edges inside, with edges at p 0, 1/2 or 0.3 between
    groups: several components of the p > 1/2 edges that cross evidence
    joins; the edges inserted in a drawn order, as graphs() inserts them."""
    n = draw(st.integers(2, max_records))
    records = sorted(draw(st.permutations(NAMES))[:n])
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    groups = [records[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    probs = {}
    for group in groups:
        for a, b in zip(group, group[1:]):
            probs[(a, b)] = draw(st.sampled_from((0.6, 0.7, 0.9, 2 / 3, 1.0)))
        for a, b in itertools.combinations(group, 2):
            if (a, b) not in probs and draw(st.booleans()):
                probs[(a, b)] = draw(st.sampled_from(ROUNDING_FRACTIONS))
    for left, right in itertools.combinations(groups, 2):
        for a in left:
            for b in right:
                p = draw(st.sampled_from((None, None, 0.0, 0.5, 0.3)))
                if p is not None:
                    probs[(a, b)] = p
    order = draw(st.permutations(sorted(probs)))
    return UncertainGraph(records, {pair: probs[pair] for pair in order})


# p just above one half, where log10(p) and log10(1 - p) lie a few ulps apart
AGREEING_FRACTIONS = (math.nextafter(0.5, 1), 0.5 + 2**-50, 0.51, 0.6, 2 / 3, 1.0)
DISSENTING_FRACTIONS = (0.5, math.nextafter(0.5, 0), 0.3, 0.0)


@st.composite
def agreeing_component_graphs(draw, max_records=10):
    """Groups whose inner edges all have p > 1/2, down to nextafter(1/2, 1),
    each joined by a path of them, next to groups that hold one dissenting
    edge (p <= 1/2), with edges at p 0, 1/2 or 0.3 between groups; then
    the edges in a drawn order, as a run would add them."""
    n = draw(st.integers(2, max_records))
    records = sorted(draw(st.permutations(NAMES))[:n])
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    groups = [records[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    probs = {}
    for group in groups:
        fractions = draw(st.lists(st.sampled_from(AGREEING_FRACTIONS), min_size=1, max_size=3))
        inner = list(zip(group, group[1:]))
        inner += [pair for pair in itertools.combinations(group, 2)
                  if pair not in inner and draw(st.booleans())]
        for pair in inner:
            probs[pair] = draw(st.sampled_from(fractions))
        if inner and draw(st.booleans()):
            probs[draw(st.sampled_from(inner))] = draw(st.sampled_from(DISSENTING_FRACTIONS))
    for left, right in itertools.combinations(groups, 2):
        for a in left:
            for b in right:
                p = draw(st.sampled_from((None, None, 0.0, 0.5, 0.3)))
                if p is not None:
                    probs[(a, b)] = p
    order = draw(st.permutations(sorted(probs)))
    return records, [(pair, probs[pair]) for pair in order]


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
        agg[tuple(sorted((owner[a], owner[b])))] = _edge_tally(p)
    next_id = len(blocks)
    while agg:
        best_key = best_prob = best_order = None
        for key, entry in agg.items():
            prob = _tally_probability(entry)
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
                        combined[other] = [u + v for u, v in zip(combined[other], entry)]
                    else:
                        combined[other] = entry
        for other, entry in combined.items():
            agg[(other, mid)] = entry
    return Clustering(blocks.values())


def reference_sampled_partitions(n, edges, samples, rng):
    """The sampled partitions with one rng.random() call per coin, edge by
    edge in list order and world by world, each world's groups found by a
    plain BFS from every vertex not yet reached."""
    connected = 0
    split = {}
    for _ in range(samples):
        adjacency = [[] for _ in range(n)]
        for u, v, p in edges:
            if rng.random() < p:
                adjacency[u].append(v)
                adjacency[v].append(u)
        group = [None] * n
        groups = 0
        for start in range(n):
            if group[start] is None:
                group[start] = groups
                queue = [start]
                for node in queue:
                    for other in adjacency[node]:
                        if group[other] is None:
                            group[other] = groups
                            queue.append(other)
                groups += 1
        if groups == 1:
            connected += 1
        elif groups == 2:
            key = bytes(g == group[0] for g in group)
            split[key] = split.get(key, 0) + 1
    return connected / samples, {key: count / samples for key, count in split.items()}


@st.composite
def next_clusterings(draw, graph, clustering):
    """What a recluster may leave: scc_cluster's answer, two blocks merged,
    one block split, or the same blocks."""
    blocks = [list(block) for block in clustering.blocks]
    kind = draw(st.sampled_from(("scc", "merge", "split", "same")))
    if kind == "scc":
        return scc_cluster(graph)
    if kind == "merge" and len(blocks) > 1:
        i, j = sorted(draw(st.lists(st.integers(0, len(blocks) - 1),
                                    min_size=2, max_size=2, unique=True)))
        blocks[i] += blocks.pop(j)
    splittable = [i for i, block in enumerate(blocks) if len(block) > 1]
    if kind == "split" and splittable:
        block = blocks.pop(draw(st.sampled_from(splittable)))
        cut = draw(st.integers(1, len(block) - 1))
        blocks += [block[:cut], block[cut:]]
    return Clustering(blocks)


def reference_entries(graph, clustering, params, allowed):
    """Every queue entry as (gain, pair, scope), best first: a cold build's
    intra entries, and one entry for every block pair with an absent
    spanning pair, found by reference_inter."""
    intra = build_state(graph, clustering, params, allowed=allowed).intra
    out = [(gain, pair, ("intra", clustering.block_of(pair[0])))
           for pair, gain in intra.items()]
    out.extend((gain, rep, ("inter", bj, bk))
               for (bj, bk), (rep, gain) in reference_inter(graph, clustering, params,
                                                            allowed).items())
    out.sort(key=lambda e: (-e[0], e[1]))
    return out


def reference_select_batch(graph, ranked, allowed, k):
    """The ranked queue's first k pairs, then spare slots filled across
    block pairs."""
    batch = [pair for _, pair, _ in ranked[:k]]
    taken = set(batch)
    for _, _, scope in ranked:
        if len(batch) >= k:
            break
        if scope[0] != "inter":
            continue
        for pair in scan_absent_between(graph, scope[1], scope[2], allowed):
            if len(batch) < k and pair not in taken:
                taken.add(pair)
                batch.append(pair)
    return batch


def reference_inter(graph, clustering, params, allowed):
    inter = {}
    for bj, bk in itertools.combinations(clustering.blocks, 2):
        absent = scan_absent_between(graph, bj, bk, allowed)
        if absent:
            dis = disconnectivity(graph, clustering, bj, bk)
            inter[(bj, bk)] = (absent[0], _inter_gain(dis, params))
    return inter


def assert_queue_matches_reference(state):
    """The full queue view and every batch size against the references."""
    ranked = reference_entries(state.graph, state.clustering, state.params, state.allowed)
    assert [(c.gain, c.pair, c.scope) for c in state.entries()] == ranked
    assert len(state.entries()) == len(ranked)
    for k in range(1, len(ranked) + 4):
        assert select_batch(state, k) == \
            reference_select_batch(state.graph, ranked, state.allowed, k)


def reference_dense_batch(graph, clustering, k, allowed):
    """DENSE with every block pair ranked, every absent cross pair listed
    under its pair's score, a full sort, then repeats dropped."""
    ranked = sorted(((rho_inputs(graph, bj, bk).value, (bj, bk))
                     for bj, bk in itertools.combinations(clustering.blocks, 2)),
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


def reference_open_pairs(graph, allowed):
    """Absent (and allowed) pairs that majority verdicts leave open, in
    lexicographic order: match edges merge components by relabelling, and
    a non-match edge settles every pair across its two components."""
    comp = {r: frozenset([r]) for r in graph.records}
    for (a, b), p in graph.edge_items():
        if p > 0.5 and comp[a] != comp[b]:
            merged = comp[a] | comp[b]
            for r in merged:
                comp[r] = merged
    settled = set()
    for (a, b), p in graph.edge_items():
        if p < 0.5:
            settled.update(tuple(sorted(pair)) for pair in itertools.product(comp[a], comp[b]))
    return [(a, b) for a, b in graph.absent_pairs()
            if comp[a] != comp[b] and (a, b) not in settled
            and (allowed is None or (a, b) in allowed)]


def reference_tc_batch(graph, seed, k, allowed):
    """TC rebuilding its candidate list, minus the pairs already drawn,
    before every pick."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        candidates = [pair for pair in reference_open_pairs(graph, allowed)
                      if pair not in out]
        if not candidates:
            break
        out.append(candidates[int(rng.integers(len(candidates)))])
    return out


def filtered_span(graph, left, right):
    """The edges spanning two disjoint blocks as (pair, p) in canonical
    order, found by testing every edge of the graph."""
    return sorted(((a, b), p) for (a, b), p in graph.edges.items()
                  if a in left and b in right or a in right and b in left)


@ORACLE
@given(graphs(fractions=ROUNDING_FRACTIONS), st.data())
def test_edges_between_equals_a_filter_over_every_edge(graph, data):
    """The merge walk over two sorted disjoint blocks, either way round and
    either block possibly empty, lists what the filter finds."""
    records = data.draw(st.permutations(graph.records), label="records")
    cut = data.draw(st.integers(0, len(records)), label="cut")
    end = data.draw(st.integers(cut, len(records)), label="end")
    left, right = tuple(sorted(records[:cut])), tuple(sorted(records[cut:end]))
    assert graph.edges_between(left, right) == filtered_span(graph, left, right)
    assert graph.edges_between(right, left) == filtered_span(graph, left, right)


@ORACLE
@given(graphs_with_clusterings(fractions=ROUNDING_FRACTIONS), st.data())
def test_spanning_edges_equal_disconnectivity(case, data):
    """The one edge pass lists each block pair's spanning edges in
    canonical order, the order of a filter over every edge, and
    disconnectivity multiplies them in that order."""
    graph, clustering = case
    blocks = data.draw(st.sets(st.sampled_from(clustering.blocks), min_size=1), label="blocks")
    changes = Changes([], frozenset(), frozenset(blocks), set(), graph, clustering)
    spans = changes.spans
    assert set(spans) <= {(bj, bk) for bj, bk in itertools.combinations(clustering.blocks, 2)
                          if bj in blocks or bk in blocks}
    for bj, bk in itertools.combinations(clustering.blocks, 2):
        if bj not in blocks and bk not in blocks:
            continue
        span = spans.get((bj, bk))
        spanning = filtered_span(graph, bj, bk)
        assert (span is None) == (not spanning)
        d = 0.0 if span is None else 1.0 - math.prod(p for _, p in span)
        assert d == 1.0 - math.prod(p for _, p in spanning)
        assert d == disconnectivity(graph, clustering, bj, bk)
        assert span is None or span == spanning


def assert_changes_match_reference(changes, old_graph, old):
    """changes.spans and changes.priced hold exactly the block pairs of two
    old blocks whose spanning edges changed and the spanned pairs with a
    new block; each span is filtered_span's list, priced at
    disconnectivity's value and its math.log10.  Of the old clustering's block pairs with a gone block
    (none from scratch, where old is None), dropped lists each once and
    lost holds those an edge of the new graph spans."""
    graph, clustering = changes.graph, changes.clustering
    old_blocks = () if old is None else old.blocks
    fresh = set(clustering.blocks) - set(old_blocks)
    gone = set(old_blocks) - set(clustering.blocks)
    old_pairs = [(bj, bk) for bj, bk in itertools.combinations(old_blocks, 2)
                 if bj in gone or bk in gone]
    assert sorted(changes.dropped) == old_pairs
    assert changes.lost == {(bj, bk) for bj, bk in old_pairs if filtered_span(graph, bj, bk)}
    expected = {(bj, bk) for bj, bk in itertools.combinations(clustering.blocks, 2)
                if filtered_span(graph, bj, bk) != (
                    [] if bj in fresh or bk in fresh else filtered_span(old_graph, bj, bk))}
    assert set(changes.spans) == expected
    assert set(changes.priced) == expected
    for (bj, bk), span in changes.spans.items():
        assert span == filtered_span(graph, bj, bk)
        d, log, priced_span = changes.priced[(bj, bk)]
        assert priced_span is span
        assert d == 1.0 - math.prod(p for _, p in span)
        assert d == disconnectivity(graph, clustering, bj, bk)
        assert log == (math.log10(d) if d > 0.0 else -math.inf)


@settings(max_examples=150, deadline=None)
@given(graphs(max_records=8, fractions=ROUNDING_FRACTIONS), st.data())
def test_changes_spans_equal_edges_between(graph, data):
    """A build from scratch, then drawn rounds of answers and reclusters,
    each found with no score or with a drawn score of the chain.  Only the
    score priced on the old graph and clustering lends its rows, and no
    list of a lent row is changed; one priced on an older graph is not read."""
    clustering = data.draw(next_clusterings(graph, scc_cluster(graph)), label="clustering")
    assert_changes_match_reference(Changes.from_scratch(graph, clustering), graph, None)
    scores = [reliability(graph, clustering, PARAMS)]
    for _ in range(4):
        absent = list(graph.absent_pairs())
        if not absent:
            break
        batch = data.draw(st.lists(st.sampled_from(absent), min_size=1, max_size=4,
                                   unique=True), label="batch")
        new_graph = graph
        for pair in batch:
            new_graph = new_graph.with_edge(*pair, probability=data.draw(
                st.sampled_from(ROUNDING_FRACTIONS), label="p"))
        new_clustering = data.draw(next_clusterings(new_graph, clustering), label="clustering")
        score = data.draw(st.sampled_from([None, *scores]), label="score")
        changes = changes_since(graph, clustering, new_graph, new_clustering, score=score)
        assert changes.rows is (score._pairs if score is scores[-1] else None)
        rows = copy.deepcopy(scores[-1]._pairs)
        assert_changes_match_reference(changes, graph, clustering)
        assert scores[-1]._pairs == rows
        graph, clustering = new_graph, new_clustering
        scores.append(reliability(graph, clustering, PARAMS, previous=scores[-1],
                                  changes=changes))


@ORACLE
@given(graphs_with_clusterings(fractions=ROUNDING_FRACTIONS), st.randoms(),
       st.sampled_from(EPSILONS))
def test_reliability_equals_per_pair_sum(case, rng, epsilon):
    graph, clustering = case
    params = replace(PARAMS, epsilon=epsilon)
    connect = [block_connectivity(graph, block, params).value for block in clustering.blocks]
    spanned = {(bj, bk): disconnectivity(graph, clustering, bj, bk)
               for bj, bk in itertools.combinations(clustering.blocks, 2)
               if filtered_span(graph, bj, bk)}
    connect_terms = [math.log10(c) for c in connect if c >= epsilon]
    disconnect_terms = [math.log10(d) for d in spanned.values() if d >= epsilon]
    # the sums are exactly rounded, so no order of the terms may matter
    rng.shuffle(connect_terms)
    rng.shuffle(disconnect_terms)
    blocks = len(clustering.blocks)
    clamped = (blocks - len(connect_terms)
               + blocks * (blocks - 1) // 2 - len(disconnect_terms))
    score = reliability(graph, clustering, params)
    assert score.connectivity_log == math.fsum(connect_terms)
    assert score.disconnectivity_log == math.fsum(disconnect_terms)
    assert score.clamped == clamped
    assert score.value == math.fsum((math.fsum(connect_terms), math.fsum(disconnect_terms),
                                     clamped * math.log10(epsilon)))
    assert [est.value for est in score.block_connectivity] == connect
    assert score._pairs == {key: (d, math.log10(d) if d > 0.0 else -math.inf,
                                  filtered_span(graph, *key))
                            for key, d in spanned.items()}


@ORACLE
@given(graphs(max_records=7), st.data())
def test_edges_added_since_equals_key_difference(root, data):
    """A chain of with_edge and multi-pair with_edges steps that branches,
    plus hand-built graphs with the edges of its last graph, each against
    every other: an ancestor's added edges come off the shared lineage
    exactly when every step down to the newer graph made a first child,
    and every other pair (a sibling, a reversed pair, a hand-built graph)
    goes through the full check, with its ValueError where an older edge
    is missing or priced differently."""
    # made[i] came from made[parent[i]], as that graph's first child or not
    made, children, parent, first = [root], [0], [None], [False]
    for _ in range(data.draw(st.integers(0, 8), label="steps")):
        i = data.draw(st.integers(0, len(made) - 1), label="parent")
        absent = list(made[i].absent_pairs())
        if not absent:
            continue
        if data.draw(st.booleans(), label="batch"):
            pairs = data.draw(st.lists(st.sampled_from(absent), min_size=1, max_size=3,
                                       unique=True), label="pairs")
            child = made[i].with_edges([(pair, data.draw(st.sampled_from(TALLIES)))
                                        for pair in pairs])
        else:
            pair = data.draw(st.sampled_from(absent), label="pair")
            child = made[i].with_edge(*pair, probability=data.draw(st.sampled_from(FRACTIONS)))
        # only a parent's first child extends the parent's lineage
        assert (child._lineage is made[i]._lineage) == (children[i] == 0)
        made.append(child)
        parent.append(i)
        first.append(children[i] == 0)
        children[i] += 1
        children.append(0)
    last = made[-1]
    made.append(UncertainGraph(last.records, edges=last.edges))
    if last.edges:
        repriced = dict(last.edges)
        pair = data.draw(st.sampled_from(sorted(repriced)), label="repriced")
        repriced[pair] = 1.0 - repriced[pair] if repriced[pair] != 0.5 else 0.2
        made.append(UncertainGraph(last.records, edges=repriced))
    parent += [None] * (len(made) - len(parent))

    def first_child_descent(older, newer):
        while newer != older:
            if parent[newer] is None or not first[newer]:
                return False
            newer = parent[newer]
        return True

    for (i, older), (j, newer) in itertools.product(enumerate(made), repeat=2):
        on_lineage = older._lineage is newer._lineage and older._n <= newer._n
        assert on_lineage == first_child_descent(i, j)
        if older.edges.items() <= newer.edges.items():
            assert newer.edges_added_since(older) == \
                sorted(newer.edges.keys() - older.edges.keys())
        else:
            with pytest.raises(ValueError, match="edges this graph lacks or prices differently"):
                newer.edges_added_since(older)


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(max_records=10, fractions=ROUNDING_FRACTIONS),
                 component_graphs()))
def test_scc_cluster_equals_linear_scan(graph):
    assert scc_cluster(graph) == reference_scc(graph)


@settings(max_examples=300, deadline=None)
@given(agreeing_component_graphs(), st.data())
def test_scc_cluster_at_the_float_boundary_equals_linear_scan(drawn, data):
    """Components whose edges all agree skip the merge heap; the reference
    still merges them pair by pair.  Cold calls on the whole graph, and
    calls carried along the answers in their drawn order."""
    records, answers = drawn
    graph = UncertainGraph(records, dict(answers))
    assert scc_cluster(graph) == reference_scc(graph)
    graph = UncertainGraph(records)
    carried = scc_cluster(graph)
    for pair, p in answers:
        graph = graph.with_edge(*pair, probability=p)
        if data.draw(st.booleans(), label="recluster"):
            carried = scc_cluster(graph, previous=carried)
            assert carried == reference_scc(graph)
    assert scc_cluster(graph, previous=carried) == reference_scc(graph)


@settings(max_examples=200, deadline=None)
@given(graphs(fractions=ROUNDING_FRACTIONS), st.integers(1, 600),
       st.integers(0, 2**64 - 1))
@example(UncertainGraph(
    NAMES[:9], {pair: 0.5 for pair in itertools.combinations(NAMES[:9], 2)}), 3000, 5)
def test_bulk_coins_equal_per_coin_sampler(graph, samples, seed):
    index = {r: i for i, r in enumerate(graph.records)}
    edges = [(index[a], index[b], p) for (a, b), p in graph.edge_items()]
    n = len(graph.records)
    assert _sampled_partitions(n, edges, samples, make_rng(seed)) == \
        reference_sampled_partitions(n, edges, samples, make_rng(seed))


@settings(max_examples=150, deadline=None)
@given(graphs(max_records=8, fractions=ROUNDING_FRACTIONS), st.data())
def test_carried_state_equals_cold_build(graph, data):
    allowed = draw_allowed(data, graph)
    clustering = scc_cluster(graph)
    # one choice puts the largest block exactly at the limit
    largest = max(len(graph.edges_within(block)) for block in clustering.blocks)
    limit = data.draw(st.sampled_from((0, 1, 3, 8, largest)), label="limit")
    params = ReliabilityParams(mc_samples=20, exact_edge_limit=limit)
    state = build_state(graph, clustering, params, allowed=allowed)
    for round_index in range(1, 5):
        absent = list(graph.absent_pairs())
        if not absent:
            break
        batch = data.draw(st.lists(st.sampled_from(absent), min_size=1, max_size=4,
                                   unique=True), label="batch")
        for pair in batch:
            graph = graph.with_edge(*pair, probability=data.draw(
                st.sampled_from(ROUNDING_FRACTIONS), label="p"))
        clustering = data.draw(next_clusterings(graph, clustering), label="clustering")
        refresh_after_answer(state, graph, clustering)
        cold = build_state(graph, clustering, params, allowed=allowed)
        for k in (1, 3, 20):
            assert select_batch(state, k) == select_batch(cold, k)
        assert state.intra == cold.intra
        assert state.inter == cold.inter
        assert state._inter.keys() == cold._inter.keys()  # the views priced every row
        assert_counts_match_rows(state)
        blocks = clustering.blocks
        assert list(state._unstored()) == [
            ((bj[0], bk[0]), (bj, bk)) for j, bj in enumerate(blocks) for bk in blocks[j + 1:]
            if (bj, bk) not in state._inter]


def assert_counts_match_rows(state):
    """A carried state's counts equal a recount of its rows: per block, the
    _inter rows keyed with it first, and the priced intra entries and
    _inter rows at the top gain."""
    top = _inter_gain(0.0, state.params)
    assert state._later.keys() <= set(state.clustering.blocks)
    assert {block: n for block, n in state._later.items() if n} == Counter(
        bj for bj, _ in state._inter)
    assert state._at_top == sum(gain >= top for entries in state._intra.values()
                                for gain in entries.values()) + sum(
        gain >= top for _, gain in state._inter.values())


@settings(max_examples=150, deadline=None)
@given(graphs(max_records=8, fractions=ROUNDING_FRACTIONS), st.data())
def test_carried_score_equals_cold_call(graph, data):
    limit = data.draw(st.sampled_from((0, 1, 3, 8)), label="limit")
    epsilon = data.draw(st.sampled_from(EPSILONS), label="epsilon")
    params = ReliabilityParams(mc_samples=20, exact_edge_limit=limit, epsilon=epsilon)
    clustering = data.draw(next_clusterings(graph, scc_cluster(graph)), label="clustering")
    score = reliability(graph, clustering, params)
    for round_index in range(1, 6):
        absent = list(graph.absent_pairs())
        if not absent:
            break
        batch = data.draw(st.lists(st.sampled_from(absent), min_size=1, max_size=4,
                                   unique=True), label="batch")
        for pair in batch:
            graph = graph.with_edge(*pair, probability=data.draw(
                st.sampled_from(ROUNDING_FRACTIONS), label="p"))
        clustering = data.draw(next_clusterings(graph, clustering), label="clustering")
        # eval_every > 1: a round without a snapshot leaves the next one to
        # carry from further back
        if not data.draw(st.booleans(), label="snapshot"):
            continue
        carried = reliability(graph, clustering, params, previous=score)
        cold = reliability(graph, clustering, params)
        assert carried.value == cold.value
        assert carried.connectivity_log == cold.connectivity_log
        assert carried.disconnectivity_log == cold.disconnectivity_log
        assert carried.clamped == cold.clamped
        assert carried.block_connectivity == cold.block_connectivity
        assert carried._pairs == cold._pairs
        score = carried


@ORACLE
@given(graphs_with_clusterings(max_records=7), st.data())
def test_select_batch_equals_sorted_queue(case, data):
    graph, clustering = case
    allowed = draw_allowed(data, graph)
    state = build_state(graph, clustering, PARAMS, allowed=allowed)
    inter = {(c.scope[1], c.scope[2]): (c.pair, c.gain)
             for c in state.entries() if c.scope[0] == "inter"}
    assert inter == reference_inter(graph, clustering, PARAMS, allowed)
    ranked = [c.pair for c in state.entries()]
    for k in range(1, len(ranked) + 4):
        assert select_batch(state, k)[:len(ranked)] == ranked[:k]
    assert_queue_matches_reference(state)


@settings(max_examples=150, deadline=None)
@given(graphs(max_records=8, fractions=ROUNDING_FRACTIONS), st.data())
def test_queue_with_unstored_pairs_equals_every_block_pair(graph, data):
    """Unspanned block pairs are left unstored; after a cold build, carried
    builds and answers folded in, the queue must still list and batch every
    block pair as a reference that scans them all."""
    allowed = draw_allowed(data, graph)
    clustering = data.draw(next_clusterings(graph, scc_cluster(graph)), label="clustering")
    state = build_state(graph, clustering, PARAMS, allowed=allowed)
    assert_queue_matches_reference(state)
    for _ in range(4):
        absent = list(graph.absent_pairs())
        if not absent:
            break
        batch = data.draw(st.lists(st.sampled_from(absent), min_size=1, max_size=4,
                                   unique=True), label="batch")
        for pair in batch:
            graph = graph.with_edge(*pair, probability=data.draw(
                st.sampled_from(ROUNDING_FRACTIONS), label="p"))
        if data.draw(st.booleans(), label="recluster"):
            clustering = data.draw(next_clusterings(graph, clustering), label="clustering")
        refresh_after_answer(state, graph, clustering)
        assert_queue_matches_reference(state)


@st.composite
def sparse_graphs_with_clusterings(draw):
    """About one pair in four answered, under a random clustering: many
    block pairs that no edge spans, blocks with no inner edge and block
    pairs spanned only at p = 1, all of which carry the top gain."""
    graph, clustering = draw(graphs_with_clusterings(max_records=8))
    kept = {pair: p for pair, p in graph.edges.items() if draw(st.booleans())}
    return UncertainGraph(graph.records, kept), clustering


@settings(max_examples=100, deadline=None)
@given(sparse_graphs_with_clusterings(), st.data())
def test_select_batch_on_a_marked_state_equals_a_priced_one(case, data):
    """select_batch prices only the marked entries that can still rank.
    On a state fresh from a cold build, or from a carried one that a
    batch was drawn from and a round was folded into, it must return what
    the same state fully priced ranks, for every batch size, and gain()
    must read each returned pair's full price."""
    graph, clustering = case
    allowed = draw_allowed(data, graph)
    limit = data.draw(st.sampled_from((0, 3, 8)), label="limit")
    params = ReliabilityParams(mc_samples=20, exact_edge_limit=limit)

    def marked_state(graph, clustering, previous):
        """A cold build, or a build on the previous graph and clustering
        that a batch was drawn from, carried to these."""
        if previous is None:
            return build_state(graph, clustering, params, allowed=allowed)
        *before, drawn_k = previous
        state = build_state(*before, params, allowed=allowed)
        select_batch(state, drawn_k)
        refresh_after_answer(state, graph, clustering)
        return state
    previous = None
    for round_index in range(3):
        priced = marked_state(graph, clustering, previous)
        state = marked_state(graph, clustering, previous)
        for entry in priced.entries():
            assert state.gain(entry.pair) == entry.gain
        absent = list(graph.absent_pairs())
        for k in range(1, len(absent) + 3):
            state = marked_state(graph, clustering, previous)
            batch = select_batch(state, k)
            assert batch == select_batch(priced, k)
            assert [state.gain(pair) for pair in batch] == [priced.gain(pair) for pair in batch]
        if not absent:
            break
        previous = (graph, clustering, data.draw(st.integers(1, 6), label="previous batch"))
        for pair in data.draw(st.lists(st.sampled_from(absent), min_size=1, max_size=4,
                                       unique=True), label="batch"):
            graph = graph.with_edge(*pair, probability=data.draw(
                st.sampled_from(FRACTIONS), label="p"))
        clustering = data.draw(next_clusterings(graph, clustering), label="clustering")


@st.composite
def carried_cases(draw):
    """A graph under a hand-built clustering, and what a carried state saw
    before it: the graph less some of its edges, a clustering of that, and
    the size of the batch drawn there."""
    graph, clustering = draw(graphs_with_clusterings(max_records=8, fractions=ROUNDING_FRACTIONS))
    before = UncertainGraph(graph.records, {pair: p for pair, p in graph.edges.items()
                                            if draw(st.booleans())})
    return (graph, clustering, before, draw(next_clusterings(before, clustering)),
            draw(st.integers(1, 6)))


@settings(max_examples=200, deadline=None)
@given(carried_cases(), st.builds(
    ReliabilityParams, mc_samples=st.sampled_from((1, 20)),
    epsilon=st.floats(1e-12, 1e-3, exclude_max=True),
    exact_edge_limit=st.integers(0, 8), seed=st.integers(0, 3)))
# a sampled block whose one world drops one of its two edges: c reads 0, so
# (A, C), which joins it again, gains the top and ranks before (A, D)
@example((UncertainGraph("ABCDE", {("A", "B"): 0.8, ("B", "C"): 0.8}),
          Clustering([["A", "B", "C"], ["D"], ["E"]]),
          UncertainGraph("ABCDE", {("A", "B"): 0.8}),
          Clustering([["A", "B", "C"], ["D"], ["E"]]), 1),
         ReliabilityParams(mc_samples=1, exact_edge_limit=0, seed=2))
def test_select_batch_equals_the_first_entries_of_a_priced_queue(case, params):
    """A marked block waits under its certified gain bound only where none
    of its gains can rank.  Batches of 1, 3 and 20 drawn in turn from one
    cold state, and from one carried state, must each start with the first
    entries of the queue with everything priced."""
    graph, clustering, before, earlier, drawn_k = case
    ranked = [entry.pair for entry in build_state(graph, clustering, params).entries()]
    carried = build_state(before, earlier, params)
    select_batch(carried, drawn_k)
    refresh_after_answer(carried, graph, clustering)
    for state in (build_state(graph, clustering, params), carried):
        for k in (1, 3, 20):
            assert select_batch(state, k)[:len(ranked)] == ranked[:k]


@ORACLE
@given(graphs_with_clusterings(), st.data())
def test_absent_pairs_between_equals_scan(case, data):
    graph, clustering = case
    allowed = draw_allowed(data, graph)
    for bj, bk in itertools.combinations(clustering.blocks, 2):
        expected = scan_absent_between(graph, bj, bk, allowed)
        assert list(graph.absent_pairs_between(bj, bk, allowed)) == expected
        assert list(graph.absent_pairs_between(bk, bj, allowed)) == expected


@ORACLE
@given(graphs_with_clusterings(max_records=7), st.data())
def test_dense_batch_equals_sort_then_dedupe(case, data):
    graph, clustering = case
    allowed = draw_allowed(data, graph)
    state = build_dense_state(graph, clustering, allowed=allowed)
    absent = sum(len(scan_absent_between(graph, bj, bk, allowed))
                 for bj, bk in itertools.combinations(clustering.blocks, 2))
    for k in range(1, absent + 3):
        assert dense_batch(state, k) == \
            reference_dense_batch(graph, clustering, k, allowed)


def dense_scores(graph, clustering):
    """The live scores of a cold build_dense_state, in block pair order,
    after checking that they are exactly the block pairs (bj, bk) with an
    absent spanning pair."""
    live = build_dense_state(graph, clustering).live
    keys = [(bj, bk) for bj, bk in itertools.combinations(clustering.blocks, 2)
            if scan_absent_between(graph, bj, bk, None)]
    assert set(live) == set(keys)
    return {key: live[key] for key in keys}


def assert_dense_matches_reference(state):
    """Live scores and every batch size against a cold scoring of the
    block pairs a scan finds an absent pair in and the sort-then-dedupe
    DENSE, and the carried lists against a cold build's."""
    graph, clustering, allowed = state.graph, state.clustering, state.allowed
    assert list(state.absent) == list(graph.absent_pairs())
    assert state.live == dense_scores(graph, clustering)
    cold = build_dense_state(graph, clustering)
    assert state.spans == cold.spans
    assert state.outside == cold.outside
    assert state.whole == cold.whole
    absent = sum(len(scan_absent_between(graph, bj, bk, allowed))
                 for bj, bk in itertools.combinations(clustering.blocks, 2))
    for k in range(1, absent + 3):
        assert dense_batch(state, k) == \
            reference_dense_batch(graph, clustering, k, allowed)


@settings(max_examples=150, deadline=None)
@given(graphs(max_records=8, fractions=ROUNDING_FRACTIONS),
       st.one_of(st.none(), st.frozensets(st.sampled_from(NAME_PAIRS))), st.data())
# the top-scoring block pairs' absent pairs, (E, T), (Q, T) and (R, T), may
# not be asked, so the walk cannot stop early; an explicit example has no
# data to draw rounds from and checks the cold build only
@example(UncertainGraph("EQRT", {("E", "Q"): 0.8, ("E", "R"): 0.2}),
         frozenset({("Q", "R")}), None)
def test_carried_dense_state_equals_cold_build(graph, allowed, data):
    clustering = scc_cluster(graph)
    state = build_dense_state(graph, clustering, allowed=allowed)
    assert_dense_matches_reference(state)
    for _ in range(4 if data else 0):
        absent = list(graph.absent_pairs())
        if not absent:
            break
        batch = data.draw(st.lists(st.sampled_from(absent), min_size=1, max_size=4,
                                   unique=True), label="batch")
        for pair in batch:
            graph = graph.with_edge(*pair, probability=data.draw(
                st.sampled_from(ROUNDING_FRACTIONS), label="p"))
        clustering = data.draw(next_clusterings(graph, clustering), label="clustering")
        refresh_dense_state(state, graph, clustering,
                            changes_since(state.graph, state.clustering, graph, clustering))
        assert_dense_matches_reference(state)


@settings(max_examples=400, deadline=None)
@given(graphs_with_clusterings(fractions=ROUNDING_FRACTIONS))
def test_dense_scores_equal_rho_inputs(case):
    graph, clustering = case
    for (bj, bk), score in dense_scores(graph, clustering).items():
        assert score == rho_inputs(graph, bj, bk).value


@ORACLE
@given(graphs(), st.integers(0, 2**32 - 1))
def test_tc_batch_equals_rescan(graph, seed):
    clustering = scc_cluster(graph)
    for k in range(1, len(reference_open_pairs(graph, None)) + 3):
        state = TcState(graph, clustering, np.random.default_rng(seed))
        assert tc_batch(state, k) == reference_tc_batch(graph, seed, k, None)


@st.composite
def edge_rounds(draw, max_records=8):
    """Records and the rounds a run adds its edges in, each a list of (pair,
    p) with p from FRACTIONS (YES, NO and p = 1/2 edges); a state is built
    on the first round's graph."""
    n = draw(st.integers(2, max_records))
    records = sorted(draw(st.permutations(NAMES))[:n])
    pairs = draw(st.permutations(list(itertools.combinations(records, 2))))
    answers = [(pair, draw(st.sampled_from(FRACTIONS)))
               for pair in pairs[:draw(st.integers(0, len(pairs)))]]
    cuts = sorted(draw(st.sets(st.integers(0, len(answers)), max_size=4)))
    return records, [answers[i:j] for i, j in zip([0] + cuts, cuts + [len(answers)])]


def assert_tc_matches_reference(state, seed):
    """The carried open pairs against a rescan, and every batch size drawn
    with a fresh stream against TC rescanning before every pick."""
    graph = state.graph
    assert list(state.open) == reference_open_pairs(graph, None)
    for k in range(1, len(state.open) + 3):
        state.rng = np.random.default_rng(seed)
        assert tc_batch(state, k) == reference_tc_batch(graph, seed, k, None)


@ORACLE
@given(edge_rounds(), st.integers(0, 2**32 - 1))
# the NO edge (A, C) settles {A, B} against {C, D} a round before the YES
# edge (B, D) joins them
@example(("ABCDE", [[(("A", "B"), 0.8), (("C", "D"), 0.6)], [(("A", "C"), 0.2)],
                    [(("B", "D"), 1.0)], [(("D", "E"), 0.4)]]), 7)
def test_carried_tc_state_equals_cold_build(case, seed):
    records, rounds = case
    graph = UncertainGraph(records, dict(rounds[0]))
    state = TcState(graph, scc_cluster(graph), np.random.default_rng(seed))
    assert_tc_matches_reference(state, seed)
    for answers in rounds[1:]:
        for pair, p in answers:
            graph = graph.with_edge(*pair, probability=p)
        clustering = scc_cluster(graph)
        refresh_tc_state(state, graph, clustering,
                         changes_since(state.graph, state.clustering, graph, clustering))
        assert_tc_matches_reference(state, seed)
