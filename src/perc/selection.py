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

The state is cached between rounds.  An answer re-triggers work only where
terms actually moved: an intra answer reprices its own block's candidates,
a cross answer reprices its block pair's representative, and a clustering
change rebuilds from scratch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import Clustering, Pair, UncertainGraph
from .reliability import (ReliabilityParams, block_connectivity, disconnectivity,
                          spanning_products)
from .util import canonical_pair, log10_clamped

Block = tuple[str, ...]
BlockPairKey = tuple[Block, Block]


@dataclass(frozen=True)
class CandidatePriority:
    """One queue entry: the pair, its gain, and which term it would move."""

    pair: Pair
    gain: float
    scope: tuple  # ("intra", block) or ("inter", block_j, block_k)


class PriorityState:
    """Cached candidate gains for one (graph, clustering) snapshot.

    intra maps each absent intra-block pair to its gain; inter maps each
    block pair with at least one absent spanning pair to its representative
    and shared gain.  round_index is bookkeeping for the harness, allowed
    (when set) restricts candidates to a fixed pair set, used in replay
    mode, and rebuilt says whether the last answer forced a full rebuild.
    """

    __slots__ = ("graph", "clustering", "params", "intra", "inter",
                 "round_index", "allowed", "rebuilt")

    def __init__(self, graph: UncertainGraph, clustering: Clustering,
                 params: ReliabilityParams, intra: dict[Pair, float],
                 inter: dict[BlockPairKey, tuple[Pair, float]],
                 round_index: int = 0, allowed: frozenset | None = None):
        self.graph = graph
        self.clustering = clustering
        self.params = params
        self.intra = intra
        self.inter = inter
        self.round_index = round_index
        self.allowed = allowed
        self.rebuilt = False

    def entries(self) -> list[CandidatePriority]:
        """All queue entries, ranked best first."""
        out = [CandidatePriority(pair, gain, ("intra", self._block_of_pair(pair)))
               for pair, gain in self.intra.items()]
        out.extend(CandidatePriority(rep, gain, ("inter", key[0], key[1]))
                   for key, (rep, gain) in self.inter.items())
        out.sort(key=lambda c: (-c.gain, c.pair))
        return out

    def _block_of_pair(self, pair: Pair) -> Block:
        return self.clustering.block_of(pair[0])

    def __len__(self):
        return len(self.intra) + len(self.inter)


def _intra_gain(graph: UncertainGraph, block: Block, pair: Pair,
                params: ReliabilityParams, base_value: float) -> float:
    with_edge = block_connectivity(graph, block, params, extra_pair=pair).value
    return (log10_clamped(with_edge, params.epsilon)
            - log10_clamped(base_value, params.epsilon))


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
        base = block_connectivity(graph, block_a, params).value
        gain = _intra_gain(graph, block_a, (a, b), params, base)
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


def _absent_spanning_pairs(graph: UncertainGraph, bj: Block, bk: Block,
                           allowed: frozenset | None) -> list[Pair]:
    out = []
    for a in bj:
        for b in bk:
            key = canonical_pair(a, b)
            if not graph.has_edge(*key) and (allowed is None or key in allowed):
                out.append(key)
    return sorted(out)


def _intra_entries_for_block(graph: UncertainGraph, block: Block,
                             params: ReliabilityParams,
                             allowed: frozenset | None) -> dict[Pair, float]:
    pairs = _absent_intra_pairs(graph, block, allowed)
    if not pairs:
        return {}
    base = block_connectivity(graph, block, params).value
    return {pair: _intra_gain(graph, block, pair, params, base) for pair in pairs}


def build_state(graph: UncertainGraph, clustering: Clustering,
                params: ReliabilityParams | None = None, *, round_index: int = 0,
                allowed: frozenset | None = None) -> PriorityState:
    """Price every candidate from scratch for the given clustering."""
    params = params or ReliabilityParams()
    if clustering.records != set(graph.records):
        raise ValueError("clustering does not cover exactly the graph's records")
    intra: dict[Pair, float] = {}
    for block in clustering.blocks:
        intra.update(_intra_entries_for_block(graph, block, params, allowed))
    inter: dict[BlockPairKey, tuple[Pair, float]] = {}
    products = spanning_products(graph, clustering)
    unspanned_gain = _inter_gain(0.0, params)
    for key in clustering.block_pairs():
        bj, bk = key
        prod = products.get(key)
        if prod is None and allowed is None:
            # every spanning pair is absent; the smallest is (min, min)
            inter[key] = ((bj[0], bk[0]), unspanned_gain)
            continue
        absent = _absent_spanning_pairs(graph, bj, bk, allowed)
        if absent:
            dis = 0.0 if prod is None else 1.0 - prod
            inter[key] = (absent[0], _inter_gain(dis, params))
    return PriorityState(graph, clustering, params, intra, inter,
                         round_index=round_index, allowed=allowed)


def refresh_after_answer(state: PriorityState, graph: UncertainGraph,
                         clustering: Clustering, answered_pair: Pair,
                         clustering_changed: bool,
                         params: ReliabilityParams | None = None, *,
                         round_index: int | None = None) -> PriorityState:
    """Fold one crowdsourced answer into the cached state.

    graph must already contain the answered edge.  When the clustering
    moved, every term is suspect and the state is rebuilt.  Otherwise only
    the entries whose reliability term the answer touched are repriced:
    the answered block's intra candidates, or the answered block pair's
    representative.  Everything else is carried over unchanged, which is
    sound because their connectivity and disconnectivity inputs are
    untouched by this edge.
    """
    params = params or state.params
    rnd = state.round_index if round_index is None else round_index
    key = canonical_pair(*answered_pair)
    if not graph.has_edge(*key):
        raise ValueError(f"answered pair {key} is not in the graph yet")
    if clustering_changed:
        fresh = build_state(graph, clustering, params, round_index=rnd,
                            allowed=state.allowed)
        fresh.rebuilt = True
        return fresh

    intra = dict(state.intra)
    inter = dict(state.inter)
    a, b = key
    block_a = clustering.block_of(a)
    block_b = clustering.block_of(b)
    if block_a == block_b:
        for pair in list(intra):
            if pair[0] in block_a and pair[1] in block_a:
                del intra[pair]
        intra.update(_intra_entries_for_block(graph, block_a, params, state.allowed))
    else:
        bj, bk = sorted((block_a, block_b))
        inter.pop((bj, bk), None)
        absent = _absent_spanning_pairs(graph, bj, bk, state.allowed)
        if absent:
            dis = disconnectivity(graph, clustering, bj, bk)
            inter[(bj, bk)] = (absent[0], _inter_gain(dis, params))
    return PriorityState(graph, clustering, params, intra, inter,
                         round_index=rnd, allowed=state.allowed)


def select_next(state: PriorityState) -> Pair | None:
    """Best candidate pair, or None once the queue is exhausted.

    Ranking is by gain, ties broken lexicographically on the pair, which
    for tied cross candidates lands on the smallest representative.
    """
    best_pair = None
    best_gain = 0.0
    for pair, gain in state.intra.items():
        if best_pair is None or gain > best_gain or (gain == best_gain and pair < best_pair):
            best_pair, best_gain = pair, gain
    for rep, gain in state.inter.values():
        if best_pair is None or gain > best_gain or (gain == best_gain and rep < best_pair):
            best_pair, best_gain = rep, gain
    return best_pair


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
    # (-gain, pair) keys are unique, so the k smallest are entries()[:k]
    keys = [(-gain, pair) for pair, gain in state.intra.items()]
    keys.extend((-gain, rep) for rep, gain in state.inter.values())
    batch = [pair for _, pair in heapq.nsmallest(k, keys)]
    if len(batch) < k:
        taken = set(batch)
        for cand in state.entries():
            if len(batch) >= k:
                break
            if cand.scope[0] != "inter":
                continue
            _, bj, bk = cand.scope
            for pair in _absent_spanning_pairs(state.graph, bj, bk, state.allowed):
                if pair not in taken:
                    taken.add(pair)
                    batch.append(pair)
                    if len(batch) >= k:
                        break
    return batch
