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

build_state prices a state from scratch once; after that,
refresh_after_answer folds each round in, whether or not it changed the
clustering.  A round re-triggers work only where terms actually moved: it
reprices each new block and each block with a new intra edge once, and
each block pair with a new spanning edge or a new block; the entries of
blocks and block pairs that survived it untouched carry over.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .graph import Clustering, Pair, UncertainGraph
# block_connectivity has no caller here; the benchmark's tracer patches this name
from .reliability import (Block, BlockPairKey, Changes, ReliabilityParams,  # noqa: F401
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
                 params: ReliabilityParams, allowed: frozenset | None = None):
        self.graph = graph
        self.clustering = clustering
        self.params = params
        self.allowed = allowed
        self.intra: dict[Pair, float] = {}
        self.inter: dict[BlockPairKey, tuple[Pair, float]] = {}
        self.spanned: set[BlockPairKey] = set()
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


def _price(state: PriorityState, survivors: set[Block], touched_blocks: set[Block],
           priced: dict[BlockPairKey, float]) -> None:
    """Price what the state's carried entries lack for its clustering: the
    candidates of each new or touched block, the block pairs in priced
    (with their disconnectivity), and the unspanned pairs with a new block
    whose (min, min) pair may not be asked."""
    graph, params, allowed = state.graph, state.params, state.allowed
    blocks, intra, inter = state.clustering.blocks, state.intra, state.inter
    state.spanned.update(priced)
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
            if key not in state.spanned and (key[0][0], key[1][0]) not in allowed:
                _set_inter(inter, graph, key, 0.0, params, allowed)


def _check_covers(graph: UncertainGraph, clustering: Clustering) -> None:
    if clustering.records != set(graph.records):
        raise ValueError("clustering does not cover exactly the graph's records")


def build_state(graph: UncertainGraph, clustering: Clustering,
                params: ReliabilityParams | None = None, *,
                allowed: frozenset | None = None) -> PriorityState:
    """Price every candidate for the given clustering, from scratch;
    refresh_after_answer carries the state from round to round."""
    _check_covers(graph, clustering)
    state = PriorityState(graph, clustering, params or ReliabilityParams(), allowed)
    priced = {key: 1.0 - prod for key, prod in spanning_products(graph, clustering).items()}
    _price(state, set(), set(), priced)
    return state


def refresh_after_answer(state: PriorityState, graph: UncertainGraph,
                         clustering: Clustering, changes: Changes | None = None) -> None:
    """Fold one round into the state, in place.

    ``graph`` extends ``state.graph`` with the round's answers, and
    ``clustering`` is the clustering after the round, changed or not.
    Entries whose inputs did not change are carried over instead of
    repriced:

    - the intra entries of a surviving block with no new intra edge;
    - the inter entry of a surviving block pair with no new spanning edge,
      and whether it is spanned.

    The entries of gone and touched blocks and of the block pairs in
    ``changes.dropped`` are dropped by key.  New blocks, blocks that a new
    edge touched (each once, however many answers it got) and the block
    pairs changes_since prices are priced afresh, so the state equals a
    build_state on (graph, clustering).  ``changes`` is changes_since(
    state.graph, state.clustering, graph, clustering), which the caller
    may share with every holder of the round's change; without it, this
    call finds it.  Raises ValueError as changes_since.
    """
    _check_covers(graph, clustering)
    if changes is None:
        changes = changes_since(state.graph, state.clustering, graph, clustering)
    survivors = changes.survivors
    emptied = list(changes.touched)  # the blocks whose intra entries go
    if len(survivors) < len(state.clustering.blocks):
        # priced pairs are set below.  Block indices moved, so the unstored
        # walk starts over, even when no old block pair was dropped
        emptied += [block for block in state.clustering.blocks if block not in survivors]
        for key in changes.dropped:
            state.inter.pop(key, None)
            state.spanned.discard(key)
        state._cursor = (0, 1)
    for block in emptied:
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                state.intra.pop((a, b), None)
    state.graph, state.clustering = graph, clustering
    _price(state, survivors, changes.touched, changes.priced)


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
