"""Reliability of a clustering over an uncertain vote graph.

A block is reliable when its members are likely to be connected by realized
YES edges; two blocks are reliably separated when at least one spanning NO
edge is likely to be realized.  The clustering score adds the base-10 logs
of both kinds of term, clamping zero components to a small epsilon so one
hopeless component cannot erase every other signal.

Block connectivity is the all-terminal reliability of the intra-block
subgraph, which is #P-hard in general.  A block's certain edges are first
contracted (Satyanarayana & Wood, SIAM J. Computing 1985).  Blocks with few
uncertain edges left are solved exactly by a partition DP: one pass over
the edges carries the probability of each vertex partition the edges seen
so far can leave, merging identical states and dropping those the
remaining edges cannot bring down to two groups.  Larger blocks fall back
to Monte Carlo sampling that realizes edges lazily during a BFS and stops
as soon as the block is covered.

Two functions price connectivity.  block_connectivity prices a block as it
is.  pair_connectivity prices a block and, for each candidate pair, the
block with that pair added as a certain edge, all by one method: one DP's
final distribution gives every exact value at once, and sampled values
share the block's stream.  disconnectivity prices a block pair from its
spanning edges, which UncertainGraph.edges_between lists by one merge walk
over the two sorted blocks.  changes_since tells a caller holding values
priced on an earlier graph and clustering which blocks the round removed
and created and which of the values may carry over.  On first read it
lists the spanning edges of each block pair whose values may not, through
edges_between for two old blocks that gained an edge and in one pass over
the edges for the pairs with a new block, and prices each pair from its
list, taking its log once; PERC's queue, DENSE's scores and the score here
all read them, and a build from scratch folds a Changes in which every
block is new.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter

from .graph import Clustering, Pair, UncertainGraph, check_covers
from .util import ConfigError, UnionFind, canonical_pair, derive_seed, make_rng

Block = tuple[str, ...]
BlockPairKey = tuple[Block, Block]

# the largest exact_edge_limit accepted, which counts the uncertain edges
# left after contraction.  The partition DP's time about doubles with every
# two of them; on random connected blocks the slowest call this limit
# allows took a quarter of a second (24 edges, every candidate priced) on a
# 2-vCPU Xeon VM.  CHANGES.md has the measurements.
MAX_EXACT_EDGE_LIMIT = 25


@dataclass(frozen=True)
class ReliabilityParams:
    """Knobs for the reliability computations.

    exact_edge_limit is the largest count of uncertain intra-block edges
    (0 < p < 1, left once the certain edges are contracted) handed to the
    exact solver, at most MAX_EXACT_EDGE_LIMIT (25); above it the Monte
    Carlo estimator with mc_samples worlds takes over.  epsilon is the clamp
    floor for zero-probability components.  seed is the master seed that all
    sampling streams are derived from.
    """

    mc_samples: int = 1000
    epsilon: float = 1e-12
    exact_edge_limit: int = 18
    seed: int = 0

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ConfigError("mc_samples", f"mc_samples must be positive, got {self.mc_samples}")
        if not 0.0 < self.epsilon < 1e-3:
            raise ConfigError("epsilon", f"epsilon must sit in (0, 1e-3), got {self.epsilon}")
        if self.exact_edge_limit < 0:
            raise ConfigError("exact_edge_limit",
                              f"exact_edge_limit must be >= 0, got {self.exact_edge_limit}")
        if self.exact_edge_limit > MAX_EXACT_EDGE_LIMIT:
            raise ConfigError("exact_edge_limit",
                              f"exact_edge_limit must be <= {MAX_EXACT_EDGE_LIMIT}, "
                              f"got {self.exact_edge_limit}")


def solved_exactly(edge_count: int, params: ReliabilityParams) -> bool:
    """Whether a block with edge_count uncertain intra edges after
    contraction, a hypothetical certain pair included, is priced by the
    exact DP rather than sampled."""
    return edge_count <= params.exact_edge_limit


@dataclass(frozen=True)
class ConnectivityEstimate:
    """A block connectivity value plus how it was obtained."""

    value: float
    method: str  # "exact" or "monte-carlo"
    samples: int = 0
    seed: int = 0


@dataclass(frozen=True)
class ReliabilityScore:
    """Clustering reliability, its parts, and the inputs it was priced on.

    connectivity_log sums log10 c over the blocks with c >= epsilon and
    disconnectivity_log sums log10 d over the spanned block pairs with
    d >= epsilon; clamped counts the blocks and block pairs below epsilon,
    unspanned pairs (d = 0) included.  block_connectivity follows
    clustering.blocks; pair_disconnectivity holds the spanned block pairs
    only, keyed (bj, bk) for j < k in clustering.blocks, so a pair missing
    from it has d = 0.
    """

    value: float
    connectivity_log: float
    disconnectivity_log: float
    clamped: int
    block_connectivity: tuple[ConnectivityEstimate, ...]
    pair_disconnectivity: dict[BlockPairKey, float]
    graph: UncertainGraph = field(compare=False, repr=False)
    clustering: Clustering = field(compare=False, repr=False)
    params: ReliabilityParams = field(compare=False, repr=False)
    # log10 d of each spanned pair with d >= epsilon, carried to the next score
    _pair_logs: dict[BlockPairKey, float] = field(compare=False, repr=False)


def _check_block(clustering: Clustering, block) -> Block:
    key = tuple(sorted(block))
    if not key or clustering._owner.get(key[0]) != key:
        raise ValueError(f"block {key} is not part of the clustering")
    return key


def _disconnected(span: list[tuple[Pair, float]]) -> float:
    """1 - prod(p) over a span's edges, multiplied in list order: the
    probability that at least one of them is realized as a NO."""
    prod_all_no_fail = 1.0
    for _, p in span:
        prod_all_no_fail *= p  # 1 - p_no
    return 1.0 - prod_all_no_fail


def disconnectivity(graph: UncertainGraph, clustering: Clustering,
                    block_j, block_k) -> float:
    """Probability that at least one NO edge separates the two blocks.

    Spanning edge e carries NO probability 1 - p(e), so the result is
    1 - prod(p(e)) over spanning edges, and 0 when nothing spans the pair.
    The product runs over edges in canonical order, which makes the value
    independent of graph construction order.
    """
    bj = _check_block(clustering, block_j)
    bk = _check_block(clustering, block_k)
    if bj == bk:
        raise ValueError(f"need two distinct blocks, got {bj} twice")
    return _disconnected(graph.edges_between(bj, bk))


def _reduced_block(graph: UncertainGraph, block,
                   intra: list | None = None) -> tuple[dict[str, int], int, list]:
    """The block with its certain edges contracted: sorted member ->
    super-vertex, the super-vertex count, and the edges left as
    (vertex, vertex, p) in canonical order.  The p = 1 edges join members
    into super-vertices, numbered in order of their smallest member; the
    p = 0 edges and any edge inside a super-vertex change no member's
    connection and are dropped, so every edge left has 0 < p < 1."""
    members = sorted(set(block))
    if not members:
        raise ValueError("block is empty")
    position = {r: i for i, r in enumerate(members)}
    if intra is None:
        intra = graph.edges_within(members)
    uf = UnionFind(len(members))
    for (a, b), p in intra:
        if p == 1.0:
            uf.union(position[a], position[b])
    label: dict[int, int] = {}
    index = {r: label.setdefault(uf.find(i), len(label)) for r, i in position.items()}
    return index, len(label), [(index[a], index[b], p) for (a, b), p in intra
                               if p > 0.0 and index[a] != index[b]]


def _pair_index(index: dict[str, int], pair: Pair) -> tuple[int, int]:
    a, b = canonical_pair(*pair)
    if a not in index or b not in index:
        raise ValueError(f"pair {(a, b)} does not lie inside the block")
    return index[a], index[b]


def _stream_seed(params: ReliabilityParams, index: dict[str, int]) -> int:
    # the seed folds the members into params.seed, so every evaluation of
    # one block under one params reuses one stream (common random numbers)
    return derive_seed(params.seed, "connectivity", tuple(index))


@lru_cache(maxsize=None)
def _merge_table(lo: int, hi: int) -> bytes:
    """bytes.translate table folding label hi into lo; the labels above hi
    close the gap, so first-appearance order still numbers the groups.
    Blocks the exact_edge_limit admits keep labels below 27, so at most
    351 tables are cached."""
    return bytes(lo if x == hi else x - (x > hi) for x in range(256))


def _joined(state: bytes, comps: list, lu: int, lv: int) -> bool:
    """Whether groups lu and lv of the state become one once its groups are
    joined through comps, one itemgetter per component of the edges still
    to come (over its vertices, all of which those edges touch)."""
    link: dict[int, int] = {}  # group label -> the label it was joined to
    for members in comps:
        labels = set(members(state))
        if len(labels) > 1:
            roots = set()
            for label in labels:
                while label in link:
                    label = link[label]
                roots.add(label)
            root = roots.pop()
            for other in roots:
                link[other] = root
    while lu in link:
        lu = link[lu]
    while lv in link:
        lv = link[lv]
    return lu == lv


def _partition_dp(n: int, edges: list[tuple[int, int, float]],
                  max_groups: int) -> tuple[float, dict[bytes, float]]:
    """P(the edges join all n vertices) and the two-group partitions they
    can leave, with their probabilities.

    A state labels each vertex with its group, numbered in order of first
    appearance, so equal partitions merge.  An edge between two groups
    splits each state: present with probability p (the groups merge) or
    absent with 1 - p.  A state's level is the number of groups it would
    have if every edge still to come were present: a present edge keeps
    it, an absent one raises it by one when it bridges that join.  States
    above max_groups (1 or 2) can never end with so few groups and are
    dropped, so a tree block keeps the connected state plus one state per
    absent edge.  Callers pass the uncertain edges of a contracted block
    (_reduced_block), so every edge splits.  Labels are bytes, so n is at
    most 256.  A block that can end in two groups has at most m + 2
    vertices, so one the exact_edge_limit admits has at most 27.
    """
    if n <= 1:
        return 1.0, {}
    # roots[i]: component root of each vertex under edges[i:]
    uf = UnionFind(n)
    roots = [list(range(n))]
    for u, v, _ in reversed(edges):
        uf.union(u, v)
        roots.append([uf.find(x) for x in range(n)])
    roots.reverse()
    if uf.groups > max_groups:
        return 0.0, {}
    # levels[k]: states whose groups, joined by the edges to come, number k
    levels: list[dict[bytes, float]] = [{} for _ in range(max_groups + 1)]
    levels[uf.groups][bytes(range(n))] = 1.0
    for i, (u, v, p) in enumerate(edges):
        root = roots[i + 1]
        comps = None
        if root[u] != root[v]:
            # the edge bridges two components of the edges to come
            members: dict[int, list[int]] = {}
            for x, r in enumerate(root):
                members.setdefault(r, []).append(x)
            comps = [itemgetter(*group) for group in members.values() if len(group) > 1]
        q = 1.0 - p
        nxt: list[dict[bytes, float]] = [{} for _ in range(max_groups + 1)]
        for k in range(1, max_groups + 1):
            same = nxt[k]
            split = nxt[k + 1] if k < max_groups else None
            for state, w in levels[k].items():
                lu, lv = state[u], state[v]
                if lu == lv:
                    same[state] = same.get(state, 0.0) + w
                    continue
                merged = state.translate(_merge_table(lu, lv) if lu < lv
                                         else _merge_table(lv, lu))
                same[merged] = same.get(merged, 0.0) + w * p
                if comps is None or _joined(state, comps, lu, lv):
                    same[state] = same.get(state, 0.0) + w * q
                elif split is not None:
                    split[state] = split.get(state, 0.0) + w * q
        levels = nxt
    # after the last edge a state's level is its group count
    return levels[1].get(bytes(n), 0.0), levels[2] if max_groups > 1 else {}


# coins drawn from the generator at a time by the Monte Carlo sampler
_COIN_CHUNK = 4096


def _sampled_connect_prob(n: int, edges: list[tuple[int, int, float]],
                          samples: int, rng) -> float:
    """Monte Carlo connectivity: fraction of sampled worlds where a BFS from
    node 0 (the minimum-id member) reaches everyone.

    Edges are realized lazily when the BFS frontier first touches them and
    the coin is remembered, so each edge is flipped at most once per world
    and unreached parts of the graph cost nothing.  Coins are read in that
    order from bulk draws of the generator, which yields the same doubles
    as one ``rng.random()`` call per coin; draws left unread are dropped.
    """
    if n <= 1:
        return 1.0
    adjacency: list[list[tuple[int, int, float]]] = [[] for _ in range(n)]
    for eid, (u, v, p) in enumerate(edges):
        adjacency[u].append((v, eid, p))
        adjacency[v].append((u, eid, p))
    if not adjacency[0] and n > 1:
        return 0.0
    # no run reads more than one coin per edge and world
    chunk = min(_COIN_CHUNK, samples * len(edges))
    coins: list[float] = []
    used = 0
    hits = 0
    for _ in range(samples):
        decided: dict[int, bool] = {}
        visited = [False] * n
        visited[0] = True
        seen = 1
        stack = [0]
        while stack and seen < n:
            node = stack.pop()
            for other, eid, p in adjacency[node]:
                if visited[other]:
                    continue
                present = decided.get(eid)
                if present is None:
                    if used == len(coins):
                        coins = rng.random(chunk).tolist()
                        used = 0
                    present = coins[used] < p
                    used += 1
                    decided[eid] = present
                if present:
                    visited[other] = True
                    seen += 1
                    stack.append(other)
        if seen == n:
            hits += 1
    return hits / samples


def block_connectivity(graph: UncertainGraph, block,
                       params: ReliabilityParams) -> ConnectivityEstimate:
    """Connectivity of the block, solved exactly up to exact_edge_limit
    uncertain edges after contraction and sampled above it.  A one-record
    block is connected for certain."""
    if len(block) == 1:
        return ConnectivityEstimate(value=1.0, method="exact")
    index, n, edges = _reduced_block(graph, block)
    if solved_exactly(len(edges), params):
        return ConnectivityEstimate(value=_partition_dp(n, edges, 1)[0], method="exact")
    seed = _stream_seed(params, index)
    value = _sampled_connect_prob(n, edges, params.mc_samples, make_rng(seed))
    return ConnectivityEstimate(value=value, method="monte-carlo",
                                samples=params.mc_samples, seed=seed)


def pair_connectivity(graph: UncertainGraph, block, pairs, params: ReliabilityParams,
                      intra: list | None = None) -> tuple[float, list[float]]:
    """c(block) and c(block + certain pair) for each pair, by one method.

    The method is picked once, from the uncertain edge count after
    contraction with a pair added.  A block with exactly exact_edge_limit
    of them is therefore sampled here, though block_connectivity solves it
    exactly, so a gain never compares an exact value against a sampled one.
    Exact values all come from one partition DP: c(block + certain ab) is
    P(1 group) plus P(2 groups with a and b apart), the second term an
    exactly rounded sum.  Sampled values all read the block's one stream,
    the one block_connectivity samples it from: the base on the block's
    edges and each pair on those plus the pair at probability 1.  A pair
    inside one super-vertex gets exactly the base.  Raises ValueError for
    a pair outside the block.  intra is graph.edges_within(block), if known.
    """
    index, n, edges = _reduced_block(graph, block, intra)
    pair_edges = [_pair_index(index, pair) for pair in pairs]
    if solved_exactly(len(edges) + 1, params):
        connected, split = _partition_dp(n, edges, 2)
        states = list(split.items())
        return connected, [connected + math.fsum(w for s, w in states if s[ia] != s[ib])
                           for ia, ib in pair_edges]
    seed = _stream_seed(params, index)

    def sampled(extra: list) -> float:
        return _sampled_connect_prob(n, edges + extra, params.mc_samples, make_rng(seed))

    base = sampled([])
    return base, [base if ia == ib else sampled([(ia, ib, 1.0)]) for ia, ib in pair_edges]


@dataclass(frozen=True)
class Changes:
    """What one round changed, as changes_since finds it: the new edges,
    sorted; the old blocks the new clustering lacks (gone) and the new
    clustering's blocks the old one lacks (fresh); the blocks a new edge
    lies inside; and, found on first read, the block pairs to price again
    with their spanning edges (spans), with their disconnectivities and
    logs (priced), the intra edges of each new block (within), and the
    old block pairs with a gone block (dropped), of which an edge spans
    those in lost.  Every carried table is keyed by block or block pair as
    these are, so it changes by key; one of spanned pairs only drops lost.
    previous, the old clustering, is read only once a block is gone."""

    added: list[Pair]
    gone: frozenset[Block]
    fresh: frozenset[Block]
    touched: set[Block]
    graph: UncertainGraph = field(repr=False)
    clustering: Clustering = field(repr=False)
    previous: Clustering | None = field(default=None, repr=False)

    @classmethod
    def from_scratch(cls, graph: UncertainGraph, clustering: Clustering) -> "Changes":
        """A build from scratch: every block new, no edge added, no block gone."""
        return cls([], frozenset(), frozenset(clustering.blocks), set(), graph, clustering)

    @cached_property
    def _walk(self) -> tuple[dict[BlockPairKey, list], dict[Block, list], set[BlockPairKey]]:
        # spans, within and lost, from one walk on first read
        graph, owner, fresh = self.graph, self.clustering._owner, self.fresh
        spans: dict[BlockPairKey, list] = {}
        for a, b in self.added:
            ba, bb = owner[a], owner[b]
            if ba is not bb and ba not in fresh and bb not in fresh:
                key = (ba, bb) if ba < bb else (bb, ba)
                if key not in spans:
                    spans[key] = graph.edges_between(*key)
        lost: set[BlockPairKey] = set()
        if not fresh:
            return spans, {}, lost
        items = graph.edges.items()
        if len(fresh) < len(self.clustering.blocks):
            # the fresh blocks hold the gone blocks' records, so every lost pair is met
            members = {r for block in fresh for r in block}
            items = [(pair, p) for pair, p in items if pair[0] in members or pair[1] in members]
        within: dict[Block, list] = {block: [] for block in fresh if len(block) > 1}
        old = self.previous._owner if self.gone else None
        for edge in items:
            a, b = edge[0]
            if old is not None and old[a] is not old[b]:
                lost.add((old[a], old[b]) if old[a] < old[b] else (old[b], old[a]))
            ba = owner[a]
            bb = owner[b]
            if ba is bb:
                within[ba].append(edge)
                continue
            key = (ba, bb) if ba < bb else (bb, ba)
            span = spans.get(key)
            if span is None:
                spans[key] = [edge]
            else:
                span.append(edge)
        for span in (*spans.values(), *within.values()):
            span.sort()
        return spans, within, lost

    @property
    def spans(self) -> dict[BlockPairKey, list[tuple[Pair, float]]]:
        """Each block pair of two old blocks that gained a spanning edge,
        and each spanned pair with a new block, with its spanning edges in
        canonical order, as edges_between lists them.  Any other block pair
        of two old blocks kept its edges, and one with a new block has none."""
        return self._walk[0]

    @property
    def within(self) -> dict[Block, list[tuple[Pair, float]]]:
        """Each new block of two or more members with its intra edges in
        canonical order, as edges_within, from the walk that finds spans."""
        return self._walk[1]

    @property
    def lost(self) -> set[BlockPairKey]:
        """Each old block pair with a gone block that an edge spans."""
        return self._walk[2]

    @cached_property
    def dropped(self) -> list[BlockPairKey]:
        """Each old block pair with a gone block, spanned or not, once: a
        pair of two gone blocks is listed from its first block only."""
        gone = self.gone
        return [(dead, other) if dead < other else (other, dead) for dead in gone
                for other in self.previous.blocks if other not in gone or other > dead]

    @cached_property
    def priced(self) -> dict[BlockPairKey, tuple[float, float]]:
        """Each block pair in spans with its disconnectivity d and log10 d
        (-inf at d = 0), the log taken once for every holder."""
        priced = {}
        for key, span in self.spans.items():
            d = _disconnected(span)
            priced[key] = d, math.log10(d) if d > 0.0 else -math.inf
        return priced


def changes_since(previous_graph: UncertainGraph, previous_clustering: Clustering,
                  graph: UncertainGraph, clustering: Clustering) -> Changes:
    """What the edges graph adds to previous_graph changed, for values
    priced on (previous_graph, previous_clustering) that may carry over.

    This is the one place a round's change is worked out (see Changes);
    an unchanged clustering object lost and made no block.  Only the edges
    and the block sets are compared here; every block-pair set is found
    when first read.  Raises ValueError as UncertainGraph.edges_added_since.

    The result is only read, never changed, by the callers it is handed
    to, so run_experiment finds each round's change once and hands it to
    the strategy's refresh (refresh_after_answer, refresh_dense_state or
    refresh_tc_state) and to the snapshot's reliability.
    """
    owner = clustering._owner
    added = graph.edges_added_since(previous_graph)
    touched = {owner[a] for a, b in added if owner[a] is owner[b]}
    if clustering is previous_clustering:
        return Changes(added, frozenset(), frozenset(), touched, graph, clustering)
    old, new = frozenset(previous_clustering.blocks), frozenset(clustering.blocks)
    return Changes(added, old - new, new - old, touched, graph, clustering, previous_clustering)


def reliability(graph: UncertainGraph, clustering: Clustering,
                params: ReliabilityParams | None = None, *,
                previous: ReliabilityScore | None = None,
                changes: Changes | None = None) -> ReliabilityScore:
    """Clustering reliability: log10 block connectivity summed over blocks
    plus log10 pair disconnectivity summed over block pairs, zeros clamped
    to params.epsilon.

    The value is fsum((connectivity_log, disconnectivity_log,
    clamped * log10(epsilon))), each part an exactly rounded sum, so it does
    not depend on the order the terms were added in.  ``previous`` is a
    score of the same records under the same params, whose graph this graph
    extends.  Its terms whose inputs did not change are carried over
    instead of priced again:

    - the connectivity of a surviving block with no new intra edge, exact
      or sampled (a block's stream depends on the seed and its members);
    - the disconnectivity of a surviving block pair with no new spanning
      edge.

    The pairs changes_since prices are priced again, so the result equals
    a call without ``previous``, which prices Changes.from_scratch's pairs
    and every block.  ``changes`` is what
    changes_since(previous.graph, previous.clustering, graph, clustering)
    returned, when the caller has already found it for another holder of
    values priced on the same pair; without it, this call finds it.
    """
    params = params or ReliabilityParams()
    check_covers(graph, clustering)
    epsilon = params.epsilon
    blocks = clustering.blocks
    carried: dict[Block, ConnectivityEstimate] = {}
    pairs: dict[BlockPairKey, float] = {}
    logs: dict[BlockPairKey, float] = {}
    if previous is None:
        changes = Changes.from_scratch(graph, clustering)
    else:
        if previous.params != params:
            raise ValueError("previous score priced other params")
        if changes is None:
            changes = changes_since(previous.graph, previous.clustering, graph, clustering)
        carried = dict(zip(previous.clustering.blocks, previous.block_connectivity))
        pairs = dict(previous.pair_disconnectivity)
        logs = dict(previous._pair_logs)
        for key in changes.lost:
            if pairs.pop(key, None) is not None:
                logs.pop(key, None)
    for key, (d, log) in changes.priced.items():
        pairs[key] = d
        if d >= epsilon:
            logs[key] = log
        else:
            logs.pop(key, None)

    estimates = []
    connect_logs = []
    clamped = 0
    for block in blocks:
        # only a surviving block is found in carried
        est = carried.get(block)
        if est is None or block in changes.touched:
            est = block_connectivity(graph, block, params)
        estimates.append(est)
        if est.value >= epsilon:
            connect_logs.append(math.log10(est.value))
        else:
            clamped += 1
    # spanned pairs below epsilon and every unspanned pair
    clamped += len(blocks) * (len(blocks) - 1) // 2 - len(logs)
    connectivity_log = math.fsum(connect_logs)
    disconnectivity_log = math.fsum(logs.values())
    return ReliabilityScore(
        value=math.fsum((connectivity_log, disconnectivity_log,
                         clamped * math.log10(epsilon))),
        connectivity_log=connectivity_log,
        disconnectivity_log=disconnectivity_log,
        clamped=clamped,
        block_connectivity=tuple(estimates),
        pair_disconnectivity=pairs,
        graph=graph, clustering=clustering, params=params,
        _pair_logs=logs)
