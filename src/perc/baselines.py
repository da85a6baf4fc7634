"""Baseline question-selection strategies: TC and DENSE.

TC works on majority verdicts only.  Match edges (p above one half) are
closed transitively into components; a non-match edge (p below one half)
between two components marks every pair across them as inferred non-match.
The next question is a uniformly random pair whose relation is still not
inferable.  Undecided edges (p exactly one half) carry no verdict.

DENSE scores block pairs by a ratio that compares how well the evidence
supports "A and B are one dense cluster" against the current split, and
asks inside the best-scoring pair.  It only ever proposes cross-block
pairs.  Its state is carried the way PERC's queue is: build_dense_state
scores every block pair once, and refresh_dense_state folds each round
in, rescoring only the block pairs whose evidence a new answer or a new
block changed.  A batch walks the absent pairs in lexicographic order and
stops once k of them belong to block pairs at the top score.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .graph import Clustering, Pair, UncertainGraph
from .reliability import Block, BlockPairKey, Changes
from .util import UnionFind


def tc_batch(graph: UncertainGraph, rng: np.random.Generator, k: int,
             allowed: frozenset | None = None) -> list[Pair]:
    """Up to k distinct pairs drawn without replacement, each uniformly from
    the absent, allowed, uninferable pairs left, in lexicographic order."""
    if k < 1:
        raise ValueError(f"batch size must be positive, got {k}")
    recs, edges = graph.records, graph.edges
    index = {r: i for i, r in enumerate(recs)}
    components = UnionFind(len(recs))
    for (a, b), p in edges.items():
        if p > 0.5:
            components.union(index[a], index[b])
    root = [components.find(i) for i in range(len(recs))]
    # component root -> the roots settled against it: itself, and every
    # component a non-match edge links it to
    settled = {r: {r} for r in root}
    for (a, b), p in edges.items():
        if p < 0.5:
            ra, rb = root[index[a]], root[index[b]]
            settled[ra].add(rb)
            settled[rb].add(ra)
    candidates = []
    for i, a in enumerate(recs):
        mine = settled[root[i]]
        for j, b in enumerate(recs[i + 1:], i + 1):
            if root[j] not in mine and (a, b) not in edges and (
                    allowed is None or (a, b) in allowed):
                candidates.append((a, b))
    out = []
    while candidates and len(out) < k:
        out.append(candidates.pop(int(rng.integers(len(candidates)))))
    return out


def _ratio(values) -> float:
    """prod(1 - p(a)) / prod(p(a)) over the values in order: how cheaply
    the evidence can be denied.  p(a) > 0.5 for every classified edge, so
    the denominator is positive."""
    flipped = kept = 1.0
    for pa in values:
        flipped *= 1.0 - pa
        kept *= pa
    return flipped / kept


@dataclass(frozen=True)
class RhoInputs:
    """Edge evidence classified for one block pair (A, B).

    Each list holds (pair, p(a)) where p(a) is the probability that the
    edge's majority verdict is correct: p for a positive edge, 1 - p for a
    negative one.  y1: positive edges from A to records outside A and B.
    y2: the same for B.  yes / no: positive and negative edges across A and
    B.  Undecided edges (p exactly one half) are left out entirely.
    """

    y1: tuple[tuple[Pair, float], ...]
    y2: tuple[tuple[Pair, float], ...]
    yes: tuple[tuple[Pair, float], ...]
    no: tuple[tuple[Pair, float], ...]

    @staticmethod
    def _ratio(entries) -> float:
        return _ratio(pa for _, pa in entries)

    @property
    def outside_factor(self) -> float:
        """How cheaply A's and B's outside positive evidence can be denied."""
        return self._ratio(self.y1) * self._ratio(self.y2)

    @property
    def min_factor(self) -> float:
        """The cheaper of flipping the cross negatives or the cross
        positives; 1.0 when nothing crosses the pair."""
        factors = []
        if self.no:
            factors.append(self._ratio(self.no))
        if self.yes:
            factors.append(self._ratio(self.yes))
        return min(factors) if factors else 1.0

    @property
    def value(self) -> float:
        return self.outside_factor * self.min_factor


def rho_inputs(graph: UncertainGraph, block_a, block_b) -> RhoInputs:
    """Classify the crowdsourced evidence around one block pair."""
    a = tuple(sorted(set(block_a)))
    b = tuple(sorted(set(block_b)))
    if set(a) & set(b):
        raise ValueError(f"blocks {a} and {b} overlap")
    inside = set(a) | set(b)
    outside = [r for r in graph.records if r not in inside]

    def classify(entries):
        pos, neg = [], []
        for pair, p in entries:
            if p > 0.5:
                pos.append((pair, p))
            elif p < 0.5:
                neg.append((pair, 1.0 - p))
        return pos, neg

    y1_pos, _ = classify(graph.edges_between(a, outside))
    y2_pos, _ = classify(graph.edges_between(b, outside))
    cross_pos, cross_neg = classify(graph.edges_between(a, b))
    return RhoInputs(y1=tuple(y1_pos), y2=tuple(y2_pos),
                     yes=tuple(cross_pos), no=tuple(cross_neg))


class DenseState:
    """DENSE's evidence and block-pair scores for one (graph, clustering)
    snapshot.

    Every list is in edge (sorted pair) order, the order :class:`RhoInputs`
    multiplies in, so every score equals ``rho_inputs(graph, bj,
    bk).value`` to the bit:

    - adjacent: each record's edges as (pair, p);
    - outside: each block's positive edges to other blocks as (pair, other
      record, p), tagged with the record so that a surviving block's tags
      stay valid across a recluster; whole: the ratio of that list;
    - yes and no: each spanned block pair's positive and negative cross
      edges as (pair, p(a)); spanning: its count of cross edges, undecided
      ones included;
    - scores: every block pair's score; live: the scores of the block
      pairs that still have an absent spanning pair.

    allowed (when set) restricts the batch to a fixed pair set, used in
    replay mode; live ignores it.
    """

    __slots__ = ("graph", "clustering", "allowed", "adjacent", "outside", "whole",
                 "yes", "no", "spanning", "scores", "live")

    def __init__(self, graph: UncertainGraph, clustering: Clustering,
                 allowed: frozenset | None = None):
        self.graph = graph
        self.clustering = clustering
        self.allowed = allowed
        self.adjacent: dict[str, list[tuple[Pair, float]]] = {r: [] for r in graph.records}
        self.outside: dict[Block, list[tuple[Pair, str, float]]] = {}
        self.whole: dict[Block, float] = {}
        self.yes: dict[BlockPairKey, list[tuple[Pair, float]]] = {}
        self.no: dict[BlockPairKey, list[tuple[Pair, float]]] = {}
        self.spanning: dict[BlockPairKey, int] = {}
        self.scores: dict[BlockPairKey, float] = {}
        self.live: dict[BlockPairKey, float] = {}


def _add_cross(state: DenseState, key: BlockPairKey, pair: Pair, p: float) -> None:
    """Count one cross edge of a block pair and list it by its verdict."""
    state.spanning[key] = state.spanning.get(key, 0) + 1
    if p > 0.5:
        insort(state.yes.setdefault(key, []), (pair, p))
    elif p < 0.5:
        insort(state.no.setdefault(key, []), (pair, 1.0 - p))


def _rescore(state: DenseState, key: BlockPairKey) -> None:
    """Score one block pair from its lists, as RhoInputs.value does."""
    bj, bk = key
    cross_yes, cross_no = state.yes.get(key), state.no.get(key)
    if cross_yes:
        # each block's outside evidence without its edges to the partner
        owner, outside = state.clustering._owner, state.outside
        outside_factor = (_ratio(p for _, other, p in outside[bj] if owner[other] is not bk)
                          * _ratio(p for _, other, p in outside[bk] if owner[other] is not bj))
    else:
        outside_factor = state.whole[bj] * state.whole[bk]
    factors = [_ratio(p for _, p in entries) for entries in (cross_no, cross_yes) if entries]
    score = outside_factor * (min(factors) if factors else 1.0)
    state.scores[key] = score
    if state.spanning.get(key, 0) < len(bj) * len(bk):
        state.live[key] = score
    else:
        state.live.pop(key, None)


def _fold(state: DenseState, added: list[Pair], fresh: frozenset[Block]) -> None:
    """Fold the edges in ``added`` into the lists of the surviving blocks
    and block pairs, build the lists of each block in ``fresh`` from the
    adjacency, and rescore every block pair whose inputs changed."""
    graph, clustering = state.graph, state.clustering
    owner, adjacent, outside = clustering._owner, state.adjacent, state.outside
    dirty = set(fresh)  # blocks whose outside list changed
    keys = set()  # further block pairs whose cross edges changed
    for pair in added:
        p = graph.edges[pair]
        a, b = pair
        insort(adjacent[a], (pair, p))
        insort(adjacent[b], (pair, p))
        ba, bb = owner[a], owner[b]
        if ba is bb:
            continue  # an intra edge moves no score
        if p > 0.5:
            for block, other in ((ba, b), (bb, a)):
                if block not in fresh:
                    insort(outside[block], (pair, other, p))
                    dirty.add(block)
        if ba not in fresh and bb not in fresh:
            key = (ba, bb) if ba < bb else (bb, ba)
            _add_cross(state, key, pair, p)
            keys.add(key)
    for block in fresh:
        entries = []
        for member in block:
            for pair, p in adjacent[member]:
                other = pair[1] if pair[0] == member else pair[0]
                if owner[other] is not block:
                    entries.append((pair, other, p))
        entries.sort()
        outside[block] = [entry for entry in entries if entry[2] > 0.5]
        for pair, other, p in entries:
            partner = owner[other]
            # the first of two new blocks lists their cross edges
            if partner not in fresh or block < partner:
                _add_cross(state, (block, partner) if block < partner else (partner, block),
                           pair, p)
    for block in dirty:
        state.whole[block] = _ratio(p for _, _, p in outside[block])
        keys.update((block, other) if block < other else (other, block)
                    for other in clustering.blocks if other is not block)
    for key in keys:
        _rescore(state, key)


def build_dense_state(graph: UncertainGraph, clustering: Clustering,
                      allowed: frozenset | None = None) -> DenseState:
    """Score every block pair from scratch: one pass over the sorted edges
    fills the adjacency, and every block is built from it as a new one;
    refresh_dense_state carries the state from round to round."""
    state = DenseState(graph, clustering, allowed)
    for pair, p in graph.edge_items():
        state.adjacent[pair[0]].append((pair, p))
        state.adjacent[pair[1]].append((pair, p))
    _fold(state, [], frozenset(clustering.blocks))
    return state


def refresh_dense_state(state: DenseState, graph: UncertainGraph,
                        clustering: Clustering, changes: Changes) -> None:
    """Fold one round into the state, in place.

    ``graph`` extends ``state.graph`` with the round's answers, and
    ``changes`` is changes_since(state.graph, state.clustering, graph,
    clustering).  A new negative edge rescores its own block pair, a new
    positive edge every pair with either of its blocks, and a recluster
    every pair with a new block.  The lists of gone blocks and of the
    block pairs in ``changes.dropped`` go by key; every other list and
    score carries over, so the state equals a build_dense_state on (graph,
    clustering).
    """
    for block in changes.gone:
        del state.outside[block], state.whole[block]
    for key in changes.dropped:
        for table in (state.yes, state.no, state.spanning, state.scores, state.live):
            table.pop(key, None)
    state.graph, state.clustering = graph, clustering
    _fold(state, changes.added, changes.fresh)


def dense_batch(state: DenseState, k: int) -> list[Pair]:
    """Up to k absent cross pairs, best block-pair scores first; within one
    score level pairs come out in lexicographic order.

    The walk over the absent pairs stops at the k-th pair whose block pair
    has the top live score, since no pair ranks above those.  With
    ``allowed`` that top is only a bound: if fewer than k allowed pairs
    reach it, the walk runs to the end and ranks every pair it met.
    """
    if k < 1:
        raise ValueError(f"batch size must be positive, got {k}")
    if not state.live:
        return []
    top = max(state.live.values())
    owner, scores, allowed = state.clustering._owner, state.scores, state.allowed
    best: list[Pair] = []
    candidates = []
    for a, b in state.graph.absent_pairs():
        ba, bb = owner[a], owner[b]
        if ba is not bb and (allowed is None or (a, b) in allowed):
            score = scores[(ba, bb) if ba < bb else (bb, ba)]
            if score == top:
                best.append((a, b))
                if len(best) == k:
                    return best
            candidates.append((-score, (a, b)))
    # every pair comes up once, so the keys are unique
    return [pair for _, pair in heapq.nsmallest(k, candidates)]
