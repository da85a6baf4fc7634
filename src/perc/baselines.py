"""Baseline question-selection strategies: TC and DENSE.

TC works on majority verdicts only.  Match edges (p above one half) are
closed transitively into components; a non-match edge (p below one half)
between two components marks every pair across them as inferred non-match.
The next question is a uniformly random pair whose relation is still not
inferable.  Undecided edges (p exactly one half) carry no verdict.  TC's
state carries the open pairs and its components from round to round and
folds in only each round's new edges.

DENSE scores block pairs by a ratio that compares how well the evidence
supports "A and B are one dense cluster" against the current split, and
asks inside the best-scoring pair.  It only ever proposes cross-block
pairs.  Its state is carried the way PERC's queue is: build_dense_state
scores every block pair with a pair left to ask once, and
refresh_dense_state folds each round in, rescoring only the block pairs
whose evidence a new answer or a new block changed.  Both read each
changed block pair's spanning edges from the round's Changes, so DENSE
keeps no copy of the edges.  It carries the absent pairs, in
lexicographic order, and a batch walks them and stops once k of them
belong to block pairs at the top score.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .graph import Clustering, Pair, UncertainGraph
from .reliability import Block, BlockPairKey, Changes, ReliabilityParams
from .util import derive_seed, make_rng

if TYPE_CHECKING:
    import numpy as np


class TcState:
    """TC's draw stream and what the majority verdicts of the graph it last
    saw settle, carried from round to round: open, the absent pairs no
    verdict settles, as dict keys in lexicographic order; root, each
    record's component, named by one of its records, as YES-majority edges
    join them, with each root's members; and settled, the other roots a
    NO-majority edge links each root to.  Each pair leaves open at most
    once, so a run's upkeep is at most one pop per record pair."""

    __slots__ = ("graph", "clustering", "rng", "open", "root", "members", "settled")

    def __init__(self, graph: UncertainGraph, clustering: Clustering, rng: np.random.Generator):
        self.graph, self.clustering, self.rng = graph, clustering, rng
        self.open = dict.fromkeys(graph.absent_pairs())
        self.root = {r: r for r in graph.records}
        self.members = {r: [r] for r in graph.records}
        self.settled: dict[str, set[str]] = {r: set() for r in graph.records}
        self._fold(graph.edges)

    def _fold(self, pairs: Iterable[Pair]) -> None:
        """Fold each of ``pairs``, edges of self.graph, in: the pair leaves
        open; a YES-majority edge that joins two components settles each
        side against the other and against the components settled with the
        other side, and a NO-majority edge between two unsettled components
        settles their cross pairs."""
        edges, root, members, settled = self.graph.edges, self.root, self.members, self.settled
        pop = self.open.pop
        for a, b in pairs:
            pop((a, b), None)
            p = edges[(a, b)]
            ra, rb = root[a], root[b]
            if ra == rb or p == 0.5:
                continue
            sa, sb = settled[ra], settled[rb]
            # the pairs of components this verdict settles that were open
            sides = [] if rb in sa else [(ra, rb)]
            if p > 0.5:
                sides += [(ra, c) for c in sb - sa - {ra}] + [(rb, c) for c in sa - sb - {rb}]
            for x, y in sides:
                for u in members[x]:
                    for v in members[y]:
                        pop((u, v) if u < v else (v, u), None)
            if p < 0.5:
                sa.add(rb)
                sb.add(ra)
                continue
            # ra absorbs rb's component, relabelling its members as they move
            for r in members[rb]:
                root[r] = ra
            members[ra] += members.pop(rb)
            for other in settled.pop(rb) - {ra}:
                settled[other].discard(rb)
                settled[other].add(ra)
            settled[ra] = (sa | sb) - {ra, rb}


def build_tc_state(graph: UncertainGraph, clustering: Clustering,
                   params: ReliabilityParams, *, allowed: frozenset | None = None) -> TcState:
    """A state drawing from params.seed's TC stream.  ``allowed`` is
    ignored: TC draws uniformly from its open pairs, so restricting them
    in replay mode would shift every draw."""
    return TcState(graph, clustering, make_rng(derive_seed(params.seed, "tc-stream")))


def refresh_tc_state(state: TcState, changes: Changes) -> None:
    """Point the state at the graph and clustering of the round's change,
    as changes_since finds it, and fold the round's new edges in."""
    state.graph, state.clustering = changes.graph, changes.clustering
    state._fold(changes.added)


def tc_batch(state: TcState, k: int) -> list[Pair]:
    """Up to k distinct pairs drawn without replacement, each uniformly from
    the open pairs left, in lexicographic order; the state is left as it
    was, apart from its draw stream."""
    if k < 1:
        raise ValueError(f"batch size must be positive, got {k}")
    candidates = list(state.open)
    out = []
    while candidates and len(out) < k:
        out.append(candidates.pop(int(state.rng.integers(len(candidates)))))
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
    """DENSE's evidence and live block-pair scores for one (graph,
    clustering) snapshot.

    Every list is in edge (sorted pair) order, the order :class:`RhoInputs`
    multiplies in, so every score equals ``rho_inputs(graph, bj,
    bk).value`` to the bit:

    - absent: the graph's absent pairs as dict keys in lexicographic
      order, the order a batch walks them in; a refresh deletes the
      round's new edges;
    - outside: each block's positive edges to other blocks as (pair, other
      record, p), tagged with the record so that a surviving block's tags
      stay valid across a recluster; whole: the ratio of that list;
    - spans: each spanned block pair's cross edges as (pair, p), undecided
      ones included, as Changes.spans lists them;
    - live: the score of each block pair that still has an absent
      spanning pair, the only block pairs a batch can ask across; no
      other block pair is scored.

    The state keeps no edges of its own beyond these lists: each round's
    Changes hands it the spans of every block pair it rescores.  allowed
    (when set) restricts the batch to a fixed pair set, used in replay
    mode; live ignores it.
    """

    __slots__ = ("graph", "clustering", "allowed", "absent", "outside", "whole", "spans", "live")

    def __init__(self, graph: UncertainGraph, clustering: Clustering,
                 allowed: frozenset | None = None):
        self.graph = graph
        self.clustering = clustering
        self.allowed = allowed
        self.absent = dict.fromkeys(graph.absent_pairs())
        self.outside: dict[Block, list[tuple[Pair, str, float]]] = {}
        self.whole: dict[Block, float] = {}
        self.spans: dict[BlockPairKey, list[tuple[Pair, float]]] = {}
        self.live: dict[BlockPairKey, float] = {}


def _rescore(state: DenseState, key: BlockPairKey) -> None:
    """Score one block pair from its span and outside lists, as
    RhoInputs.value does, into live; a block pair whose every spanning
    pair was asked leaves live unscored."""
    bj, bk = key
    span = state.spans.get(key, ())
    if len(span) == len(bj) * len(bk):
        state.live.pop(key, None)
        return
    cross_yes = [p for _, p in span if p > 0.5]
    cross_no = [1.0 - p for _, p in span if p < 0.5]
    if cross_yes:
        # each block's outside evidence without its edges to the partner
        owner, outside = state.clustering._owner, state.outside
        outside_factor = (_ratio(p for _, other, p in outside[bj] if owner[other] is not bk)
                          * _ratio(p for _, other, p in outside[bk] if owner[other] is not bj))
    else:
        outside_factor = state.whole[bj] * state.whole[bk]
    factors = [_ratio(values) for values in (cross_no, cross_yes) if values]
    state.live[key] = outside_factor * (min(factors) if factors else 1.0)


def _fold(state: DenseState, changes: Changes) -> None:
    """Take the spans of ``changes``, build the outside list of each block
    it changed (a new block, or one end of a new positive cross edge) from
    its spans, and rescore every block pair whose inputs changed."""
    clustering, edges, spans = state.clustering, state.graph.edges, state.spans
    owner = clustering._owner
    spans.update(changes.spans)
    dirty = set(changes.fresh)
    for a, b in changes.added:
        if owner[a] is not owner[b] and edges[(a, b)] > 0.5:
            dirty.update((owner[a], owner[b]))
    keys = set(changes.spans)  # the block pairs whose cross edges changed
    for block in dirty:
        pairs = [(block, other) if block < other else (other, block)
                 for other in clustering.blocks if other is not block]
        state.outside[block] = entries = sorted(
            ((a, b), b if owner[a] is block else a, p)
            for key in pairs for (a, b), p in spans.get(key, ()) if p > 0.5)
        state.whole[block] = _ratio(p for _, _, p in entries)
        keys.update(pairs)
    for key in keys:
        _rescore(state, key)


def build_dense_state(graph: UncertainGraph, clustering: Clustering,
                      params: ReliabilityParams | None = None, *,
                      allowed: frozenset | None = None) -> DenseState:
    """Score every block pair from scratch, folding a Changes in which
    every block is new; refresh_dense_state carries the state from round
    to round.  DENSE samples nothing, so ``params`` is unused."""
    state = DenseState(graph, clustering, allowed)
    _fold(state, Changes.from_scratch(graph, clustering))
    return state


def refresh_dense_state(state: DenseState, changes: Changes) -> None:
    """Fold one round into the state, in place.

    ``changes`` is the round's change from the state's graph and
    clustering, as changes_since finds it, and the state moves to its
    graph and clustering.  A new negative edge rescores its own block
    pair, a new positive edge every pair with either of its blocks, and a
    recluster every pair with a new block.  The lists of gone blocks go by
    key, as do the spans of the spanned block pairs in ``changes.lost``
    and the scores of every block pair in ``changes.dropped``; the spans of
    changes.spans replace their block pairs', and every other list and
    score carries over, so the state equals a build_dense_state on the new
    graph and clustering.
    """
    for pair in changes.added:
        del state.absent[pair]
    for block in changes.gone:
        del state.outside[block], state.whole[block]
    for keys, table in ((changes.lost, state.spans), (changes.dropped, state.live)):
        for key in keys:
            table.pop(key, None)
    state.graph, state.clustering = changes.graph, changes.clustering
    _fold(state, changes)


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
    # every absent cross pair's block pair is live
    owner, live, allowed = state.clustering._owner, state.live, state.allowed
    best: list[Pair] = []
    candidates = []
    for a, b in state.absent:
        ba, bb = owner[a], owner[b]
        if ba is not bb and (allowed is None or (a, b) in allowed):
            score = live[(ba, bb) if ba < bb else (bb, ba)]
            if score == top:
                best.append((a, b))
                if len(best) == k:
                    return best
            candidates.append((-score, (a, b)))
    # every pair comes up once, so the keys are unique
    return [pair for _, pair in heapq.nsmallest(k, candidates)]
