"""Clustering the uncertain graph: likelihood-ratio merging and brute force.

scc_cluster grows blocks agglomeratively: while some block pair's merge
probability (product of spanning YES odds against spanning NO odds) exceeds
one half, merge the best pair.  Merges stay inside the components of the
p > 1/2 edges, so each component is agglomerated on its own, and a
clustering scc_cluster returned lets the next call on an extended graph
visit each new edge once and agglomerate again only the components those
join or lie in.  A component whose edges all have p > 1/2 is one block.
mlc_bruteforce checks tiny instances by scoring every partition.
mlc_unchanged is the cheap screen that tells the harness whether a freshly
crowdsourced answer can move the maximum likelihood clustering at all.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, Sequence

from .graph import Clustering, Pair, UncertainGraph, clustering_log_likelihood
from .util import canonical_pair

MAX_BRUTEFORCE_RECORDS = 10

# Two clusterings whose log10 likelihoods differ by less than this are
# treated as tied and settled by canonical order instead of float noise.
_TIE_EPS = 1e-9


def merge_probability(graph: UncertainGraph, block_a, block_b) -> float | None:
    """Probability that two blocks describe the same entity, given only the
    crowdsourced edges spanning them.

    Computed in log space as prod(p) / (prod(p) + prod(1 - p)) over the
    spanning edges, iterated in canonical order so the value does not
    depend on construction order.  Returns None when nothing spans the
    pair, which callers treat as "no evidence, skip".  Raises ValueError for
    overlapping blocks or a record the graph does not declare.
    """
    a = tuple(sorted(set(block_a)))
    b = tuple(sorted(set(block_b)))
    if set(a) & set(b):
        raise ValueError(f"blocks {a} and {b} overlap")
    if not graph._record_set.issuperset(a + b):
        raise ValueError(f"record {min(set(a + b) - graph._record_set)!r} is not declared")
    spanning = graph.edges_between(a, b)
    if not spanning:
        return None
    agg = _PairAgg()
    for _, p in spanning:
        agg.add_edge(p)
    return agg.probability()


class _PairAgg:
    """Running log-space tallies for the edges spanning one block pair."""

    __slots__ = ("log_yes", "log_no", "zero_yes", "zero_no")

    def __init__(self):
        self.log_yes = 0.0
        self.log_no = 0.0
        self.zero_yes = 0
        self.zero_no = 0

    def add_edge(self, p: float):
        if p == 0.0:
            self.zero_yes += 1
        else:
            self.log_yes += math.log10(p)
        if p == 1.0:
            self.zero_no += 1
        else:
            self.log_no += math.log10(1.0 - p)

    def absorb(self, other: "_PairAgg"):
        self.log_yes += other.log_yes
        self.log_no += other.log_no
        self.zero_yes += other.zero_yes
        self.zero_no += other.zero_no

    def probability(self) -> float:
        if self.zero_yes and self.zero_no:
            # certain evidence in both directions, neutral value that never merges
            return 0.5
        if self.zero_yes:
            return 0.0
        if self.zero_no:
            return 1.0
        # 1 / (1 + prod(1-p)/prod(p)), guarded against overflow in the exponent
        diff = self.log_no - self.log_yes
        if diff > 300:
            return 0.0
        if diff < -300:
            return 1.0
        return 1.0 / (1.0 + 10.0 ** diff)


def scc_cluster(graph: UncertainGraph, previous: Clustering | None = None) -> Clustering:
    """Agglomerative clustering by spanning-edge likelihood ratio.

    Starts from singletons and repeatedly merges the block pair with the
    highest merge probability while that maximum is strictly above 0.5.
    Pairs without any spanning edge are never candidates.  Ties go to the
    pair whose (min member, other block's min member) key is
    lexicographically smallest, which pins the merge order.

    A merge probability above one half needs prod(p) > prod(1 - p), so at
    least one spanning edge with p > 1/2: blocks only ever merge inside a
    connected component of those edges.  Edges between two components feed
    aggregates that stay at or below one half, so they are never tallied,
    and each component is agglomerated on its own (_agglomerate).  That
    gives the blocks of one pass over every component at once: order keys
    are unique, so no other component can change a component's pop order,
    and its tallies are still summed in sorted edge order.

    ``previous`` is a clustering this function returned for a graph that
    ``graph`` extends (ValueError otherwise, as
    UncertainGraph.edges_added_since).  The result carries its graph, each
    record's component and each component's blocks.  A call visits each
    edge new since that carry once (with no carry, as for a hand-built
    ``previous``, every record starts alone and every edge is new): one
    inside a component marks it, one with p > 1/2 across two joins them,
    and only joined and marked components agglomerate again; a join
    relabels the side with fewer blocks in a copy of the component map.
    Every other component keeps its edges and blocks, so the result equals
    a call without it, and ``previous`` is never changed.
    Its blocks are disjoint sorted tuples, so the result is built from
    them as they stand (Clustering._from_sorted), only their list sorted.
    """
    carry = None if previous is None else previous._carry
    if carry is None:
        # a component is keyed by the index of one of its records
        component = {r: i for i, r in enumerate(graph.records)}
        blocks_of = {i: [(r,)] for i, r in enumerate(graph.records)}
        new_edges = graph.edges.items()
    else:
        old_graph, old_component, old_blocks = carry
        new_edges = [(pair, graph.edges[pair]) for pair in graph.edges_added_since(old_graph)]
        component = dict(old_component)
        blocks_of = dict(old_blocks)

    dirty = set()  # the keys of joined and marked components
    for (a, b), p in new_edges:
        ka, kb = component[a], component[b]
        if ka != kb:
            if p <= 0.5:
                continue
            if len(blocks_of[ka]) < len(blocks_of[kb]):
                ka, kb = kb, ka
            moved = blocks_of.pop(kb)
            component.update((r, ka) for block in moved for r in block)
            # a new list: the carried lists are the previous result's
            blocks_of[ka] = blocks_of[ka] + moved
            dirty.discard(kb)
        dirty.add(ka)
    # one pass over the edges hands each dirty component its own: linear in
    # the edges, where edges_within would look up every member pair
    edges_in: dict[int, list[tuple[Pair, float]]] = {key: [] for key in dirty}
    for (a, b), p in graph.edges.items():
        key = component[a]
        if key in edges_in and component[b] == key:
            edges_in[key].append(((a, b), p))
    for key, edges in edges_in.items():
        members = sorted([r for block in blocks_of[key] for r in block])
        blocks_of[key] = _agglomerate(members, edges)

    result = Clustering._from_sorted(block for blocks in blocks_of.values() for block in blocks)
    result._carry = (graph, component, blocks_of)
    return result


def _agglomerate(members: list[str], edges: list[tuple[Pair, float]]) -> list[tuple[str, ...]]:
    """The blocks scc_cluster's merges leave in one component, from its
    sorted members and its edges, which it sorts only to build the heap.

    Candidates sit in a heap keyed (-probability, order key); entries of a
    block that has since been merged away are skipped when popped.  Order
    keys of live blocks are unique, so the pop order is the ranking
    scc_cluster describes.

    A component whose edges all have p > 1/2 is returned as one block with
    no heap: each aggregate's two log10 sums fold log10(p) > log10(1 - p)
    by the same additions, and monotone rounding keeps log_yes >= log_no
    (strictly: every fold order of up to 48 edges at p = nextafter(1/2, 1)
    keeps a margin), so merging goes on until the connected component is
    one block.
    """
    if all(p > 0.5 for _, p in edges):
        return [tuple(members)]
    edges.sort()
    index = {r: i for i, r in enumerate(members)}
    blocks: dict[int, tuple[str, ...]] = {i: (r,) for i, r in enumerate(members)}
    agg: dict[tuple[int, int], _PairAgg] = {}
    neighbours: dict[int, set[int]] = {i: set() for i in blocks}
    for (a, b), p in edges:  # ia < ib: members are sorted, edges canonical
        ia, ib = index[a], index[b]
        entry = agg[(ia, ib)] = _PairAgg()
        entry.add_edge(p)
        neighbours[ia].add(ib)
        neighbours[ib].add(ia)

    def candidate(ia: int, ib: int, entry: _PairAgg):
        # members are sorted, so [0] is a block's min member
        fa, fb = blocks[ia][0], blocks[ib][0]
        return (-entry.probability(), (fa, fb) if fa < fb else (fb, fa), (ia, ib))

    heap = [candidate(ia, ib, entry) for (ia, ib), entry in agg.items()]
    heapq.heapify(heap)
    next_id = len(blocks)
    while heap:
        neg_prob, _, (ia, ib) = heapq.heappop(heap)
        if ia not in blocks or ib not in blocks:
            continue
        if -neg_prob <= 0.5:
            break
        mid = next_id
        next_id += 1
        blocks[mid] = tuple(sorted(blocks.pop(ia) + blocks.pop(ib)))
        del agg[(ia, ib)]

        # two entries for one neighbour fold with one commutative float
        # addition per field, so the merged tallies do not depend on order
        combined: dict[int, _PairAgg] = {}
        for side in (ia, ib):
            for other in neighbours.pop(side):
                if other == ia or other == ib:
                    continue
                entry = agg.pop((side, other) if side < other else (other, side))
                neighbours[other].discard(side)
                bucket = combined.get(other)
                if bucket is None:
                    combined[other] = entry
                else:
                    bucket.absorb(entry)
        neighbours[mid] = set(combined)
        for other, entry in combined.items():
            agg[(other, mid)] = entry
            neighbours[other].add(mid)
            heapq.heappush(heap, candidate(other, mid, entry))

    return list(blocks.values())


def mlc_bruteforce(graph: UncertainGraph) -> tuple[Clustering, float]:
    """Exact maximum likelihood clustering by scoring every partition.

    Only sensible for tiny instances, so record counts above
    MAX_BRUTEFORCE_RECORDS are rejected.  Likelihood ties are broken by
    canonical order: fewest blocks first, then lexicographic block lists.
    """
    if len(graph.records) > MAX_BRUTEFORCE_RECORDS:
        raise ValueError(
            f"refusing brute force over {len(graph.records)} records "
            f"(limit {MAX_BRUTEFORCE_RECORDS})")
    scored = [(clustering_log_likelihood(graph, c), c) for c in _partitions(graph.records)]
    best = max(ll for ll, _ in scored)
    tied = [c for ll, c in scored if ll >= best - _TIE_EPS]
    winner = min(tied, key=lambda c: (len(c.blocks), c.blocks))
    return winner, clustering_log_likelihood(graph, winner)


def _partitions(records: Sequence[str]) -> Iterator[Clustering]:
    """Every partition of the sorted, non-empty ``records`` exactly once,
    canonicalized: the Bell number of len(records) of them."""

    def grow(i: int, parts: list[list[str]]) -> Iterator[list[list[str]]]:
        if i == len(records):
            yield parts
            return
        r = records[i]
        for j in range(len(parts)):
            parts[j].append(r)
            yield from grow(i + 1, parts)
            parts[j].pop()
        parts.append([r])
        yield from grow(i + 1, parts)
        parts.pop()

    for parts in grow(1, [[records[0]]]):
        yield Clustering(parts)


def mlc_unchanged(previous: Clustering, pair: Pair, p: float) -> bool:
    """True when a new answer for ``pair`` with YES fraction ``p`` agrees
    with the previous clustering strongly enough that the maximum
    likelihood clustering provably stays put.

    The condition is that the answer's probability under the clustering's
    labeling exceeds one half: p for an intra-block pair, 1 - p for a
    cross-block pair.  Exactly 0.5 fails the screen.
    """
    a, b = canonical_pair(*pair)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if previous.same_block(a, b):
        return p > 0.5
    return (1.0 - p) > 0.5
