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
(min of one block, min of the other).  Such pairs are left unstored
unless that representative may not be asked; every other block pair holds
a row from the round that marks it to the round that drops it.  So the
unstored pairs are those with no row, and select_batch walks them in block
order, which is already their rank order.  From its first
refresh_after_answer on, a state counts its rows where they are made,
priced and dropped: per block, the _inter rows keyed with it first, so the
walk skips a block whose later pairs all have rows; and the priced intra
entries and _inter rows at the top gain, so when k unstored pairs fill a
batch and none is counted, select_batch heaps only those pairs and the
marked blocks.  A cold build counts nothing; the first refresh counts what
it left in one pass.

build_state starts a state from scratch once; after that,
refresh_after_answer folds in each round's change, as changes_since finds
it, whether or not the round changed the clustering.  A round re-triggers
work only where terms actually moved: each new block and each block with
a new intra edge, and each block pair with a new spanning edge or a new
block, is marked to price again; the entries of blocks and block pairs
that survived it untouched carry over.

Marked entries are priced when first read, not when marked; they keep
their rows in the same two tables as priced ones, _intra and _inter: a
marked block holds a float that none of its gains exceeds, the top gain
when marked, and a marked block pair None where its representative will
go.  Pricing fills a row in, empty when nothing is left to ask, and never
drops it.  select_batch ranks through one heap of (-gain, pair) keys,
where each marked entry sits under a key that none of its priced keys
beats: a block under its float and its smallest pair (b[0], b[1]); a block
pair under its gain, known from its disconnectivity, and its (min, min)
pair.  A marked entry is priced only when its key reaches the top, and its
priced keys go back in.  A block whose key reaches the top while k
unstored pairs hold the batch's floor at the top gain is first certified
by _gain_bound, whose three conditions bound every gain of a block of n
records below n log10 2, at most the top gain; a certified block keeps
that bound as its float, unpriced, and goes into the heap only in a batch
whose floor is at or below it.  gain() prices the one entry it reads;
intra, inter and entries() price everything marked first.  A value does
not depend on when it is priced: a block's sampling stream is seeded from
its members, and a round marks again whatever it changes.
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
                          block_connectivity, disconnectivity, pair_connectivity)
from .util import UnionFind, canonical_pair, log10_clamped


@dataclass(frozen=True)
class CandidatePriority:
    """One queue entry: the pair, its gain, and which term it would move."""

    pair: Pair
    gain: float
    scope: tuple  # ("intra", block) or ("inter", block_j, block_k)


class PriorityState:
    """Candidate gains for one (graph, clustering) snapshot, priced on
    first read.

    intra maps each absent intra-block pair to its gain.  An unspanned block
    pair is left unstored when its (min, min) representative may be asked;
    inter maps every other block pair with an absent spanning pair to its
    representative and shared gain.  The state keeps one row per key Changes
    names a round's change by, so a changed entry goes with one pop: _intra
    maps each block of two or more records to its {pair: gain}, or while the
    block is marked (its intra edges are read from the graph when priced) to
    a float that none of its gains exceeds, the top gain until _gain_bound
    certifies a lower one; _inter maps each stored block pair to
    (representative, gain), with representative None while the pair is
    marked and () once no absent spanning pair is left to ask.  A row lives
    from the _mark that makes it to the refresh_after_answer that drops its
    key, so a block pair has no row exactly when it is unstored.  From the
    first refresh_after_answer on, _later maps each block to how many _inter
    rows are keyed with it first and _at_top counts the priced intra entries
    and _inter rows at the top gain; before it they are {} and None.
    allowed (when set) restricts candidates to a fixed pair set, used in
    replay mode.  Reading intra, inter or entries() prices every marked
    entry first (see the module docstring).
    """

    __slots__ = ("graph", "clustering", "params", "allowed", "_intra", "_inter",
                 "_later", "_at_top")

    def __init__(self, graph: UncertainGraph, clustering: Clustering,
                 params: ReliabilityParams, allowed: frozenset | None = None):
        self.graph = graph
        self.clustering = clustering
        self.params = params
        self.allowed = allowed
        self._intra: dict[Block, dict[Pair, float] | float] = {}
        self._inter: dict[BlockPairKey, tuple[Pair | tuple[()] | None, float]] = {}
        self._later: dict[Block, int] = {}
        self._at_top: int | None = None

    @property
    def intra(self) -> dict[Pair, float]:
        self._price_all()
        return {pair: gain for entries in self._intra.values() for pair, gain in entries.items()}

    @property
    def inter(self) -> dict[BlockPairKey, tuple[Pair, float]]:
        self._price_all()
        return {key: entry for key, entry in self._inter.items() if entry[0]}

    def _price_block(self, block: Block) -> dict[Pair, float]:
        """Price a marked block; stores and returns its {pair: gain}, empty
        once no absent pair is left to ask."""
        # the block is sorted, so each (a, b) is canonical
        asked, allowed = self.graph.edges, self.allowed
        pairs = [(a, b) for i, a in enumerate(block) for b in block[i + 1:]
                 if (a, b) not in asked and (allowed is None or (a, b) in allowed)]
        self._intra[block] = priced = dict(zip(
            pairs, _intra_gains(self.graph, block, pairs, self.params))) if pairs else {}
        if self._at_top is not None:
            top = _inter_gain(0.0, self.params)
            self._at_top += sum(gain >= top for gain in priced.values())
        return priced

    def _price_pair(self, key: BlockPairKey) -> tuple[Pair | tuple[()], float]:
        """Price a marked block pair; stores and returns (representative,
        gain), with representative () once no absent spanning pair is left
        to ask."""
        gain = self._inter[key][1]
        # (min, min) is the first pair absent_pairs_between would try
        rep = (key[0][0], key[1][0])
        if rep in self.graph.edges or self.allowed is not None and rep not in self.allowed:
            rep = next(self.graph.absent_pairs_between(*key, self.allowed), ())
        self._inter[key] = entry = (rep, gain)
        return entry

    def _price_all(self) -> None:
        for block in [block for block, row in self._intra.items() if not isinstance(row, dict)]:
            self._price_block(block)
        for key in [key for key, (rep, _) in self._inter.items() if rep is None]:
            self._price_pair(key)

    def _unstored(self) -> Iterator[tuple[Pair, BlockPairKey]]:
        """(representative, block pair) of each unstored entry, in block
        order, which is representative order; each has the top gain."""
        blocks, inter, later = self.clustering.blocks, self._inter, self._later
        last = len(blocks) - 1
        for j, bj in enumerate(blocks):
            if later.get(bj) == last - j:
                continue  # every pair of the row is stored
            for k in range(j + 1, len(blocks)):
                key = (bj, blocks[k])
                if key not in inter:
                    yield (bj[0], key[1][0]), key

    def gain(self, pair: Pair) -> float:
        """The gain of asking ``pair``, an absent candidate."""
        owner = self.clustering._owner
        block_a, block_b = owner[pair[0]], owner[pair[1]]
        if block_a is block_b:
            entries = self._intra[block_a]
            return (entries if isinstance(entries, dict) else self._price_block(block_a))[pair]
        key = (block_a, block_b) if block_a < block_b else (block_b, block_a)
        entry = self._inter.get(key)
        if entry is None:
            return _inter_gain(0.0, self.params)
        if entry[0] is None:
            entry = self._price_pair(key)
        if not entry[0]:
            raise KeyError(f"pair {pair} is not a candidate")
        return entry[1]

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


def _intra_gains(graph: UncertainGraph, block: Block, pairs: list[Pair],
                 params: ReliabilityParams) -> list[float]:
    """log10 c(block + certain pair) - log10 c(block) for each pair."""
    base, values = pair_connectivity(graph, block, pairs, params)
    floor = log10_clamped(base, params.epsilon)
    return [log10_clamped(value, params.epsilon) - floor for value in values]


def _gain_bound(graph: UncertainGraph, block: Block, params: ReliabilityParams) -> float | None:
    """n log10 2 for a block of n records if (i) 2^(1-n) >= 2 epsilon,
    (ii) its edges with p > 1/2 join all n records and (iii) at most
    exact_edge_limit of its edges have 0 < p < 1, else None.  By (ii) a
    spanning tree gives c(block) > 2^(1-n), by (iii) the DP solves c
    rather than a sample that can read 0, and by (i) no clamp moves it; so
    every intra gain, at most -log10 c, is below (n - 1) log10 2, and the
    bound, at most the top gain -log10 epsilon, keeps a factor 2 in hand."""
    n = len(block)
    if 2.0 ** (1 - n) < 2 * params.epsilon:
        return None
    edges, uncertain, joined = graph.edges, 0, UnionFind(n)
    # the block is sorted, so each (a, b) is canonical
    for i, a in enumerate(block):
        for j in range(i + 1, n):
            p = edges.get((a, block[j]))
            if p is not None:
                uncertain += 0.0 < p < 1.0
                if p > 0.5:
                    joined.union(i, j)
    if joined.groups > 1 or uncertain > params.exact_edge_limit:
        return None
    return n * math.log10(2.0)


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
    check_covers(graph, clustering)
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
    clustering: the candidates of each new or touched block, the block
    pairs in changes.priced (with the gain their log gives), and the
    unspanned pairs with a new block whose (min, min) pair may not be
    asked."""
    allowed, epsilon = state.allowed, state.params.epsilon
    fresh, priced = changes.fresh, changes.priced
    inter = state._inter
    top = _inter_gain(0.0, state.params)  # no gain exceeds it
    state._intra.update(dict.fromkeys((block for block in changes.touched | fresh
                                       if len(block) > 1), top))
    # _inter_gain(d) is -log10 d from d = epsilon up
    rows = {key: (None, -log if d >= epsilon else top) for key, (d, log, _) in priced.items()}
    if allowed is not None:
        # unspanned pairs are left unstored unless their (min, min) pair may
        # not be asked; no row has a new block yet, every spanned pair with
        # one is in rows, and so is each unspanned one met from its other block
        for new in fresh:
            for block in state.clustering.blocks:
                key = (new, block) if new < block else (block, new)
                if block is not new and key not in rows and (key[0][0], key[1][0]) not in allowed:
                    rows[key] = (None, top)
    if state._at_top is not None:
        later, at_top = state._later, state._at_top
        for key, (_, gain) in rows.items():
            row = inter.get(key)
            if row is None:
                later[key[0]] = later.get(key[0], 0) + 1
            elif row[1] >= top:
                at_top -= 1
            if gain >= top:
                at_top += 1
        state._at_top = at_top
    inter.update(rows)


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


def refresh_after_answer(state: PriorityState, changes: Changes) -> None:
    """Fold one round into the state, in place.

    ``changes`` is the round's change from the state's graph and
    clustering, as changes_since finds it, and the state moves to its
    graph and clustering, the clustering after the round, changed or not.
    Entries whose inputs did not change are carried over, priced or still
    marked:

    - the intra entries of a surviving block with no new intra edge;
    - the inter row of a surviving block pair with no new spanning edge.

    The rows of gone and touched blocks and of the block pairs in
    ``changes.lost`` (``changes.dropped`` in replay mode, where unspanned
    pairs can hold rows) are dropped by key; no other call drops a row.
    New blocks, blocks that a new edge touched (each once, however many
    answers it got) and the block pairs in changes.priced are marked
    afresh, so the state equals a build_state on the new graph and
    clustering.
    """
    intra, inter, later, at_top = state._intra, state._inter, state._later, state._at_top
    top = _inter_gain(0.0, state.params)
    if at_top is None:  # counting starts from what the cold build left
        for bj, _ in inter:
            later[bj] = later.get(bj, 0) + 1
        at_top = sum(gain >= top for entries in intra.values() if isinstance(entries, dict)
                     for gain in entries.values()) + sum(gain >= top for _, gain in inter.values())
    for block in (*changes.touched, *changes.gone):
        entries = intra.pop(block, None)
        if at_top and isinstance(entries, dict):  # with no top entry counted, none is dropped
            at_top -= sum(gain >= top for gain in entries.values())
    for key in changes.lost if state.allowed is None else changes.dropped:
        row = inter.pop(key, None)
        if row is not None:
            later[key[0]] -= 1
            at_top -= row[1] >= top
    for block in changes.gone:  # each count is 0 by now
        later.pop(block, None)
    state._at_top = at_top
    state.graph, state.clustering = changes.graph, changes.clustering
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

    The tie order is a policy of its own: equal gains go to the smallest
    pair by record id, so a cold start, all singletons at the top gain,
    asks a star around the first record (r00 in a synthetic world).  On
    the strategy comparison's worlds (60 records, budget 1,200, seeds
    0-9), 3,647 of 12,000 picks carry the clamped top gain, 7,808 gain 0
    and 545 a gain that sets them apart; relabelling the records alone
    moved the seeds on which PERC beats TC between 8 and 10.

    At a top floor (k unstored pairs at the top gain) only a marked block
    whose float is the top gain pops; it is priced only if _gain_bound
    refuses it, else it waits under the bound until a floor reaches it.
    """
    if k < 1:
        raise ValueError(f"batch size must be positive, got {k}")
    n = len(state.graph.records)
    k = min(k, n * (n - 1) // 2)  # no batch exceeds the pairs; islice needs k <= sys.maxsize
    # The batch is the k smallest (-gain, pair) keys; they are unique, so no
    # two heap items compare past their pair.  An item's third field is None
    # (intra entry), a marked block under its float, certified or priced
    # when popped, or a block pair, priced when popped if its row is
    # marked.  Unstored entries come in rank order at the top gain, so once
    # k are found only a top-gain entry can rank.
    intra, inter = state._intra, state._inter
    top = _inter_gain(0.0, state.params)
    unstored = list(islice(state._unstored(), k))
    floor = top if len(unstored) == k else -math.inf
    heap = [(-top, rep, key) for rep, key in unstored]
    heap += [(-row, block[:2], block) for block, row in intra.items()
             if not isinstance(row, dict) and row >= floor]
    if floor < top or state._at_top != 0:  # else only these and marked blocks can rank
        heap += [(-gain, pair, None) for entries in intra.values() if isinstance(entries, dict)
                 for pair, gain in entries.items() if gain >= floor]
        heap += [(-gain, (key[0][0], key[1][0]) if rep is None else rep, key)
                 for key, (rep, gain) in inter.items() if gain >= floor and rep != ()]
    heapq.heapify(heap)
    batch: list[Pair] = []
    fill: list[tuple[Pair, BlockPairKey]] = []  # the inter entries taken, in rank order
    while heap and len(batch) < k:
        _, pair, key = heapq.heappop(heap)
        if key in intra:  # a marked block: priced intra items carry None
            # a bound is n log10 2 > 0; certified, no gain of the block reaches the floor
            if floor == top and (bound := _gain_bound(state.graph, key, state.params)):
                intra[key] = bound
                continue
            for pair, gain in state._price_block(key).items():
                if gain >= floor:
                    heapq.heappush(heap, (-gain, pair, None))
        elif key in inter and inter[key][0] is None:
            entry = state._price_pair(key)
            if entry[0]:
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
