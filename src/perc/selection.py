"""Next-question selection: rank absent pairs by expected reliability gain.

A candidate's priority is the reliability the clustering would gain if the
crowd answered the question in the clustering's favor with certainty.  The
score difference collapses: asking inside block R only changes R's
connectivity term, asking across blocks (R, S) only changes that pair's
disconnectivity term, everything else cancels.  So an intra candidate is
scored as log10 c(with certain edge) - log10 c(without), and a cross
candidate as -log10 of the pair's current disconnectivity (its term rises
to log10 1 = 0).  All cross pairs spanning one block pair share a single
gain, so the queue keeps one representative per block pair, the
lexicographically smallest absent spanning pair.

A block pair that no edge spans has disconnectivity 0, clamped to epsilon,
so it carries the top gain, -log10 epsilon, and its representative is
(min of one block, min of the other).  Such pairs are left unstored: the
queue keeps the set of spanned block pairs instead, and select_batch walks
the unspanned ones in block order, which is already their rank order.  An
answer only ever spans a block pair, so each walk starts where the first
unstored entry was last found.

The state is cached between rounds.  An answer re-triggers work only where
terms actually moved: an intra answer reprices its own block's candidates
and a cross answer reprices its block pair's representative.  After a
clustering change, build_state(previous=state) carries over the entries of
the blocks and block pairs that survived it untouched, and prices the rest.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .graph import Clustering, Pair, UncertainGraph
# block_connectivity has no caller here; the benchmark's tracer patches this name
from .reliability import (Block, BlockPairKey, ReliabilityParams,  # noqa: F401
                          block_connectivity, changes_since, disconnectivity,
                          pair_connectivity, spanning_products)
from .util import canonical_pair, log10_clamped


@dataclass(frozen=True)
class CandidatePriority:
    """One queue entry: the pair, its gain, and which term it would move."""

    pair: Pair
    gain: float
    scope: tuple  # ("intra", block) or ("inter", block_j, block_k)


class PriorityState:
    """Cached candidate gains for one (graph, clustering) snapshot.

    intra maps each absent intra-block pair to its gain, and spanned holds
    every block pair with at least one spanning edge.  An unspanned block
    pair is left unstored when its (min, min) representative may be asked;
    inter maps every other block pair with an absent spanning pair to its
    representative and shared gain.  allowed (when set) restricts
    candidates to a fixed pair set, used in replay mode.
    """

    __slots__ = ("graph", "clustering", "params", "intra", "inter", "spanned", "allowed",
                 "_cursor")

    def __init__(self, graph: UncertainGraph, clustering: Clustering,
                 params: ReliabilityParams, intra: dict[Pair, float],
                 inter: dict[BlockPairKey, tuple[Pair, float]],
                 spanned: set[BlockPairKey], allowed: frozenset | None = None):
        self.graph = graph
        self.clustering = clustering
        self.params = params
        self.intra = intra
        self.inter = inter
        self.spanned = spanned
        self.allowed = allowed
        # block indices (j, k) before which no unstored entry is left; valid
        # because spanned only grows until the clustering changes
        self._cursor = (0, 1)

    def _unstored(self) -> Iterator[tuple[Pair, BlockPairKey]]:
        """(representative, block pair) of each unstored entry, in block
        order, which is representative order; each has the top gain."""
        blocks = self.clustering.blocks
        spanned = self.spanned
        allowed = self.allowed
        first = True
        j, start = self._cursor
        for j in range(j, len(blocks)):
            bj = blocks[j]
            for k in range(start, len(blocks)):
                key = (bj, blocks[k])
                if key not in spanned:
                    rep = (bj[0], key[1][0])
                    if allowed is None or rep in allowed:
                        if first:
                            # answers only ever span pairs, so no entry will
                            # come before this one again
                            self._cursor = (j, k)
                            first = False
                        yield rep, key
            start = j + 2
        if first:
            self._cursor = (len(blocks), len(blocks))

    def gain(self, pair: Pair) -> float:
        """The gain of asking ``pair``, an absent candidate."""
        owner = self.clustering._owner
        block_a, block_b = owner[pair[0]], owner[pair[1]]
        if block_a is block_b:
            return self.intra[pair]
        key = (block_a, block_b) if block_a < block_b else (block_b, block_a)
        entry = self.inter.get(key)
        if entry is not None:
            return entry[1]
        if key in self.spanned:
            raise KeyError(f"pair {pair} is not a candidate")
        return _inter_gain(0.0, self.params)

    def entries(self) -> list[CandidatePriority]:
        """All queue entries, unstored ones included, ranked best first."""
        out = [CandidatePriority(pair, gain, ("intra", self.clustering.block_of(pair[0])))
               for pair, gain in self.intra.items()]
        out.extend(CandidatePriority(rep, gain, ("inter", key[0], key[1]))
                   for key, (rep, gain) in self.inter.items())
        top = _inter_gain(0.0, self.params)
        out.extend(CandidatePriority(rep, top, ("inter", key[0], key[1]))
                   for rep, key in self._unstored())
        out.sort(key=lambda c: (-c.gain, c.pair))
        return out

    def __len__(self):
        return len(self.intra) + len(self.inter) + sum(1 for _ in self._unstored())


def _intra_gains(graph: UncertainGraph, block: Block, pairs: list[Pair],
                 params: ReliabilityParams) -> list[float]:
    """log10 c(block + certain pair) - log10 c(block) for each pair."""
    base, values = pair_connectivity(graph, block, pairs, params)
    floor = log10_clamped(base, params.epsilon)
    return [log10_clamped(value, params.epsilon) - floor for value in values]


def _inter_gain(dis: float, params: ReliabilityParams) -> float:
    # the hypothetical certain NO edge lifts the pair's disconnectivity to 1
    return -log10_clamped(dis, params.epsilon)


def pair_priority(graph: UncertainGraph, clustering: Clustering, pair: Pair,
                  params: ReliabilityParams | None = None) -> CandidatePriority:
    """Score one absent pair in isolation.

    Matches what build_state would store for the same pair; exists so
    callers can probe a single candidate without building the whole queue.
    """
    params = params or ReliabilityParams()
    a, b = canonical_pair(*pair)
    if graph.has_edge(a, b):
        raise ValueError(f"pair {(a, b)} was already crowdsourced")
    block_a = clustering.block_of(a)
    block_b = clustering.block_of(b)
    if block_a == block_b:
        (gain,) = _intra_gains(graph, block_a, [(a, b)], params)
        return CandidatePriority((a, b), gain, ("intra", block_a))
    bj, bk = sorted((block_a, block_b))
    dis = disconnectivity(graph, clustering, bj, bk)
    return CandidatePriority((a, b), _inter_gain(dis, params), ("inter", bj, bk))


def _absent_intra_pairs(graph: UncertainGraph, block: Block,
                        allowed: frozenset | None) -> list[Pair]:
    out = []
    for i, a in enumerate(block):
        for b in block[i + 1:]:
            if not graph.has_edge(a, b) and (allowed is None or (a, b) in allowed):
                out.append((a, b))
    return out


def _intra_entries_for_block(graph: UncertainGraph, block: Block,
                             params: ReliabilityParams,
                             allowed: frozenset | None) -> dict[Pair, float]:
    pairs = _absent_intra_pairs(graph, block, allowed)
    if not pairs:
        return {}
    return dict(zip(pairs, _intra_gains(graph, block, pairs, params)))


def _set_inter(inter: dict[BlockPairKey, tuple[Pair, float]], graph: UncertainGraph,
               key: BlockPairKey, dis: float, params: ReliabilityParams,
               allowed: frozenset | None) -> None:
    """Store (representative, gain) for a block pair whose disconnectivity
    is dis, or drop its entry once no absent spanning pair is left to ask."""
    rep = next(graph.absent_pairs_between(*key, allowed), None)
    if rep is None:
        inter.pop(key, None)
    else:
        inter[key] = (rep, _inter_gain(dis, params))


def build_state(graph: UncertainGraph, clustering: Clustering,
                params: ReliabilityParams | None = None, *,
                allowed: frozenset | None = None,
                previous: PriorityState | None = None) -> PriorityState:
    """Price every candidate for the given clustering.

    ``previous`` is a state of the same records under an earlier clustering,
    built with the same params and allowed pairs, whose graph this graph
    extends.  Entries whose inputs did not change are carried over from it
    instead of repriced:

    - the intra entries of a surviving block with no new intra edge;
    - the inter entry of a surviving block pair with no new spanning edge,
      and whether it is spanned.

    New blocks, blocks that a new edge touched and the block pairs
    changes_since prices are priced afresh, so the result equals a build
    without ``previous``.  ``previous`` is consumed and must not be used
    afterwards.
    """
    params = params or ReliabilityParams()
    if clustering.records != set(graph.records):
        raise ValueError("clustering does not cover exactly the graph's records")
    blocks = clustering.blocks
    owner = clustering._owner
    survivors: set[Block] = set()
    touched_blocks: set[Block] = set()
    intra: dict[Pair, float] = {}
    inter: dict[BlockPairKey, tuple[Pair, float]] = {}
    spanned: set[BlockPairKey] = set()
    if previous is None:
        priced = {key: 1.0 - prod for key, prod in spanning_products(graph, clustering).items()}
    else:
        if ((previous.allowed is not allowed and previous.allowed != allowed)
                or previous.params != params):
            raise ValueError("previous state priced other params or allowed pairs")
        survivors, touched_blocks, priced = changes_since(
            previous.graph, previous.clustering, graph, clustering)
        # a surviving block's members had that block before, so its
        # entries are the ones whose first member it still owns
        for pair, gain in previous.intra.items():
            block = owner[pair[0]]
            if block in survivors and block not in touched_blocks:
                intra[pair] = gain
        # drop the block pairs that lost a block; priced ones are set below
        inter = {key: entry for key, entry in previous.inter.items()
                 if key[0] in survivors and key[1] in survivors}
        spanned = {key for key in previous.spanned
                   if key[0] in survivors and key[1] in survivors}
    spanned.update(priced)

    for block in blocks:
        # a surviving untouched block without entries still has no candidates
        if block not in survivors or block in touched_blocks:
            intra.update(_intra_entries_for_block(graph, block, params, allowed))

    for key, dis in priced.items():
        _set_inter(inter, graph, key, dis, params, allowed)
    if allowed is not None:
        # unspanned pairs are left unstored unless their (min, min) pair may
        # not be asked; each pair with a new block once: blocks are sorted,
        # so j < k orders it
        fresh = [block not in survivors for block in blocks]
        for key in ((bj, bk) if j < k else (bk, bj)
                    for j, bj in enumerate(blocks) if fresh[j]
                    for k, bk in enumerate(blocks) if k > j or (k < j and not fresh[k])):
            if key not in spanned and (key[0][0], key[1][0]) not in allowed:
                _set_inter(inter, graph, key, 0.0, params, allowed)
    return PriorityState(graph, clustering, params, intra, inter, spanned, allowed=allowed)


def refresh_after_answer(state: PriorityState, graph: UncertainGraph,
                         answered_pair: Pair) -> None:
    """Fold one crowdsourced answer into the cached state, in place.

    graph must already contain the answered edge and the clustering must
    still be ``state.clustering`` (after a change, pass the state to
    build_state as ``previous`` instead); call once for each pair a graph
    update added.  Only the entries whose reliability term the answer
    touched are repriced: the answered block's intra candidates, or the
    answered block pair's representative, stored from then on since the
    pair is spanned.  The rest stand, since this edge leaves their inputs
    untouched.
    """
    key = canonical_pair(*answered_pair)
    if not graph.has_edge(*key):
        raise ValueError(f"answered pair {key} is not in the graph yet")
    params = state.params
    state.graph = graph
    block_a = state.clustering.block_of(key[0])
    block_b = state.clustering.block_of(key[1])
    if block_a == block_b:
        # the update rewrites every other candidate of the block; a pair
        # answered in the same graph update leaves at its own call
        state.intra.pop(key, None)
        state.intra.update(_intra_entries_for_block(graph, block_a, params, state.allowed))
    else:
        bj, bk = sorted((block_a, block_b))
        state.spanned.add((bj, bk))
        _set_inter(state.inter, graph, (bj, bk),
                   disconnectivity(graph, state.clustering, bj, bk), params, state.allowed)


def select_next(state: PriorityState) -> Pair | None:
    """Best candidate pair, or None once the queue is exhausted.

    Ranking is by gain, ties broken lexicographically on the pair, which
    for tied cross candidates lands on the smallest representative.
    """
    batch = select_batch(state, 1)
    return batch[0] if batch else None


def select_batch(state: PriorityState, k: int) -> list[Pair]:
    """Up to k distinct candidate pairs for one crowdsourcing round.

    Fills from the ranked queue first, where each block pair contributes
    only its representative, spreading the batch across distinct reliability
    terms.  If slots remain after every entry is taken, block pairs are
    revisited in the same order and their remaining absent spanning pairs
    are emitted; those extras provably share the representative's gain, so
    no re-pricing is needed.  Returns fewer than k only when fewer
    candidates exist in total.
    """
    if k < 1:
        raise ValueError(f"batch size must be positive, got {k}")
    # (-gain, pair) keys are unique, so the k smallest are entries()[:k].
    # The unstored entries come in rank order at the top gain, so once k of
    # them are found, only a stored entry at or above that gain can rank.
    top_gain = _inter_gain(0.0, state.params)
    unstored = list(islice(state._unstored(), k))
    floor = top_gain if len(unstored) == k else -math.inf
    keys = [(-gain, pair) for pair, gain in state.intra.items() if gain >= floor]
    keys += [(-gain, rep) for rep, gain in state.inter.values() if gain >= floor]
    keys += [(-top_gain, rep) for rep, _ in unstored]
    batch = [pair for _, pair in heapq.nsmallest(k, keys)]
    if len(batch) < k:
        # every representative is in the batch; block pairs go in queue order
        fill = [(-gain, rep, key) for key, (rep, gain) in state.inter.items()]
        fill += [(-top_gain, rep, key) for rep, key in unstored]
        fill.sort()
        for _, rep, (bj, bk) in fill:
            for pair in state.graph.absent_pairs_between(bj, bk, state.allowed):
                if pair != rep:
                    batch.append(pair)
                    if len(batch) == k:
                        return batch
    return batch
