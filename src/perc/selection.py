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
the unspanned ones in block order, which is already their rank order.

build_state starts a state from scratch once; after that,
refresh_after_answer folds each round in, whether or not it changed the
clustering.  A round re-triggers work only where terms actually moved:
each new block and each block with a new intra edge, and each block pair
with a new spanning edge or a new block, is marked to price again; the
entries of blocks and block pairs that survived it untouched carry over.

Marked entries are priced when first read, not when marked.  select_batch
ranks through one heap of (-gain, pair) keys, where each marked entry sits
under a key that none of its priced keys beats: a block under the top gain
(no gain exceeds it) and its smallest pair (b[0], b[1]), a block pair under
its gain, known from its disconnectivity, and its (min, min) pair.  A
marked entry is priced only when its key reaches the top, and its priced
keys go back in.  gain() prices the one entry it reads; intra, inter,
entries() and len() price everything marked first.  A value does not
depend on when it is priced: a block's sampling stream is seeded from its
members, and a round marks again whatever it changes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .graph import Clustering, Pair, UncertainGraph, check_covers
# block_connectivity has no caller here; the benchmark's tracer patches this name
from .reliability import (Block, BlockPairKey, Changes, ReliabilityParams,  # noqa: F401
                          block_connectivity, changes_since, disconnectivity,
                          pair_connectivity)
from .util import canonical_pair, log10_clamped


@dataclass(frozen=True)
class CandidatePriority:
    """One queue entry: the pair, its gain, and which term it would move."""

    pair: Pair
    gain: float
    scope: tuple  # ("intra", block) or ("inter", block_j, block_k)


class PriorityState:
    """Candidate gains for one (graph, clustering) snapshot, priced on
    first read.

    intra maps each absent intra-block pair to its gain, and spanned holds
    every block pair with at least one spanning edge.  An unspanned block
    pair is left unstored when its (min, min) representative may be asked;
    inter maps every other block pair with an absent spanning pair to its
    representative and shared gain.  The state keeps them by the keys
    Changes names a round's change by: _intra maps each priced block with
    an absent pair to its {pair: gain}, as _inter maps block pairs, so a
    changed block goes with one pop.  allowed (when set) restricts
    candidates to a fixed pair set, used in replay mode.  Reading intra,
    inter, entries() or len() prices every marked entry first (see the
    module docstring).
    """

    __slots__ = ("graph", "clustering", "params", "spanned", "allowed", "_intra", "_inter",
                 "_blocks", "_pairs")

    def __init__(self, graph: UncertainGraph, clustering: Clustering,
                 params: ReliabilityParams, allowed: frozenset | None = None):
        self.graph = graph
        self.clustering = clustering
        self.params = params
        self.allowed = allowed
        self._intra: dict[Block, dict[Pair, float]] = {}
        self._inter: dict[BlockPairKey, tuple[Pair, float]] = {}
        self.spanned: set[BlockPairKey] = set()
        # marked, not yet priced: each block of two or more members, with
        # its intra edges when known, and each block pair, with its gain
        self._blocks: dict[Block, list | None] = {}
        self._pairs: dict[BlockPairKey, float] = {}

    @property
    def intra(self) -> dict[Pair, float]:
        self._price_all()
        return {pair: gain for entries in self._intra.values() for pair, gain in entries.items()}

    @property
    def inter(self) -> dict[BlockPairKey, tuple[Pair, float]]:
        self._price_all()
        return self._inter

    def _price_block(self, block: Block) -> dict[Pair, float]:
        """Price a marked block; stores and returns its {pair: gain}, and
        stores nothing once no absent pair is left to ask."""
        edges = self._blocks.pop(block)
        # the block is sorted, so each (a, b) is canonical
        asked, allowed = self.graph.edges, self.allowed
        pairs = [(a, b) for i, a in enumerate(block) for b in block[i + 1:]
                 if (a, b) not in asked and (allowed is None or (a, b) in allowed)]
        if not pairs:
            return {}
        self._intra[block] = priced = dict(
            zip(pairs, _intra_gains(self.graph, block, pairs, self.params, edges)))
        return priced

    def _price_pair(self, key: BlockPairKey) -> tuple[Pair, float] | None:
        """Price a marked block pair; stores and returns (representative,
        gain), and stores nothing once no absent spanning pair is left to
        ask."""
        gain = self._pairs.pop(key)
        # (min, min) is the first pair absent_pairs_between would try
        rep = (key[0][0], key[1][0])
        if rep in self.graph.edges or self.allowed is not None and rep not in self.allowed:
            rep = next(self.graph.absent_pairs_between(*key, self.allowed), None)
            if rep is None:
                return None
        self._inter[key] = entry = (rep, gain)
        return entry

    def _price_all(self) -> None:
        for block in list(self._blocks):
            self._price_block(block)
        for key in list(self._pairs):
            self._price_pair(key)

    def _unstored(self) -> Iterator[tuple[Pair, BlockPairKey]]:
        """(representative, block pair) of each unstored entry, in block
        order, which is representative order; each has the top gain."""
        blocks, spanned, allowed = self.clustering.blocks, self.spanned, self.allowed
        for j, bj in enumerate(blocks):
            for k in range(j + 1, len(blocks)):
                key = (bj, blocks[k])
                if key not in spanned:
                    rep = (bj[0], key[1][0])
                    if allowed is None or rep in allowed:
                        yield rep, key

    def gain(self, pair: Pair) -> float:
        """The gain of asking ``pair``, an absent candidate."""
        owner = self.clustering._owner
        block_a, block_b = owner[pair[0]], owner[pair[1]]
        if block_a is block_b:
            if block_a in self._blocks:
                self._price_block(block_a)
            return self._intra.get(block_a, {})[pair]
        key = (block_a, block_b) if block_a < block_b else (block_b, block_a)
        if key in self._pairs:
            self._price_pair(key)
        entry = self._inter.get(key)
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
                 params: ReliabilityParams, intra: list | None = None) -> list[float]:
    """log10 c(block + certain pair) - log10 c(block) for each pair; intra
    as pair_connectivity takes it."""
    base, values = pair_connectivity(graph, block, pairs, params, intra)
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


def _mark(state: PriorityState, changes: Changes) -> None:
    """Mark for pricing what the state's carried entries lack for its
    clustering: the candidates of each new or touched block (with a new
    block's intra edges from changes.within), the block pairs in
    changes.priced (with the gain their log gives), and the unspanned
    pairs with a new block whose (min, min) pair may not be asked."""
    allowed, spanned, epsilon = state.allowed, state.spanned, state.params.epsilon
    fresh, priced, within = changes.fresh, changes.priced, changes.within
    spanned.update(priced)
    for block in changes.touched | fresh:
        if len(block) > 1:
            state._blocks[block] = within.get(block)
    top = _inter_gain(0.0, state.params)
    # _inter_gain(d) is -log10 d from d = epsilon up
    marked = {key: -log if d >= epsilon else top for key, (d, log) in priced.items()}
    if allowed is not None:
        # unspanned pairs are left unstored unless their (min, min) pair may
        # not be asked; each pair with a new block once: blocks are sorted,
        # so j < k orders it
        blocks = state.clustering.blocks
        is_new = [block in fresh for block in blocks]
        for key in ((bj, bk) if j < k else (bk, bj)
                    for j, bj in enumerate(blocks) if is_new[j]
                    for k, bk in enumerate(blocks) if k > j or (k < j and not is_new[k])):
            if key not in spanned and (key[0][0], key[1][0]) not in allowed:
                marked[key] = top
    for key in marked:
        state._inter.pop(key, None)  # so that no read meets the old gain
    state._pairs.update(marked)


def build_state(graph: UncertainGraph, clustering: Clustering,
                params: ReliabilityParams | None = None, *,
                allowed: frozenset | None = None) -> PriorityState:
    """A state for the given clustering, from scratch, with every
    candidate marked for pricing; refresh_after_answer carries the state
    from round to round."""
    check_covers(graph, clustering)
    state = PriorityState(graph, clustering, params or ReliabilityParams(), allowed)
    _mark(state, Changes.from_scratch(graph, clustering))
    return state


def refresh_after_answer(state: PriorityState, graph: UncertainGraph,
                         clustering: Clustering, changes: Changes | None = None) -> None:
    """Fold one round into the state, in place.

    ``graph`` extends ``state.graph`` with the round's answers, and
    ``clustering`` is the clustering after the round, changed or not.
    Entries whose inputs did not change are carried over, priced or
    still marked:

    - the intra entries of a surviving block with no new intra edge;
    - the inter entry of a surviving block pair with no new spanning edge,
      and whether it is spanned.

    The entries of gone and touched blocks and of the block pairs in
    ``changes.lost`` (``changes.dropped`` in replay mode, where unspanned
    pairs can hold marks) are dropped by key.  New blocks, blocks that a new
    edge touched (each once, however many answers it got) and the block
    pairs changes_since prices are marked afresh, so the state equals a
    build_state on (graph, clustering).  ``changes`` is changes_since(
    state.graph, state.clustering, graph, clustering), which the caller
    may share with every holder of the round's change; without it, this
    call finds it.  Raises ValueError as changes_since.
    """
    check_covers(graph, clustering)
    if changes is None:
        changes = changes_since(state.graph, state.clustering, graph, clustering)
    for block in (*changes.touched, *changes.gone):
        state._intra.pop(block, None)
        state._blocks.pop(block, None)
    for key in changes.lost if state.allowed is None else changes.dropped:
        state._inter.pop(key, None)
        state._pairs.pop(key, None)
        state.spanned.discard(key)
    state.graph, state.clustering = graph, clustering
    _mark(state, changes)


def select_batch(state: PriorityState, k: int) -> list[Pair]:
    """Up to k distinct candidate pairs for one crowdsourcing round.

    Fills first from the queue ranked by gain, ties broken lexicographically
    on the pair, where each block pair contributes only its representative,
    spreading the batch across distinct reliability terms.  If slots remain
    after every entry is taken, block pairs are revisited in the same order
    and their remaining absent spanning pairs are emitted; those extras
    provably share the representative's gain, so no re-pricing is needed.
    Returns fewer than k only when fewer candidates exist in total.
    """
    if k < 1:
        raise ValueError(f"batch size must be positive, got {k}")
    n = len(state.graph.records)
    k = min(k, n * (n - 1) // 2)  # no batch exceeds the pairs; islice needs k <= sys.maxsize
    # The batch is the k smallest (-gain, pair) keys; they are unique, so no
    # two heap items compare past their pair.  An item's third field is None
    # (intra entry), the block pair of an inter entry, or a marked block or
    # block pair, priced when popped.  Unstored entries come in rank order
    # at the top gain, so once k are found only a top-gain entry can rank.
    top = _inter_gain(0.0, state.params)
    unstored = list(islice(state._unstored(), k))
    floor = top if len(unstored) == k else -math.inf
    heap = [(-top, rep, key) for rep, key in unstored]
    heap += [(-gain, pair, None) for entries in state._intra.values()
             for pair, gain in entries.items() if gain >= floor]
    heap += [(-gain, rep, key) for key, (rep, gain) in state._inter.items() if gain >= floor]
    heap += [(-top, block[:2], block) for block in state._blocks]
    heap += [(-gain, (key[0][0], key[1][0]), key) for key, gain in state._pairs.items()
             if gain >= floor]
    heapq.heapify(heap)
    batch: list[Pair] = []
    fill: list[tuple[Pair, BlockPairKey]] = []  # the inter entries taken, in rank order
    while heap and len(batch) < k:
        _, pair, key = heapq.heappop(heap)
        if key in state._blocks:
            for pair, gain in state._price_block(key).items():
                if gain >= floor:
                    heapq.heappush(heap, (-gain, pair, None))
        elif key in state._pairs:
            entry = state._price_pair(key)
            if entry is not None:
                heapq.heappush(heap, (-entry[1], entry[0], key))
        else:
            batch.append(pair)
            if key is not None:
                fill.append((pair, key))
    if len(batch) < k:
        # every entry is in the batch; block pairs go in queue order
        for rep, (bj, bk) in fill:
            for pair in state.graph.absent_pairs_between(bj, bk, state.allowed):
                if pair != rep:
                    batch.append(pair)
                    if len(batch) == k:
                        return batch
    return batch
