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
to its Monte Carlo twin, which realizes every edge in each sampled world
and tallies the worlds' one- and two-group partitions.

block_connectivity prices a block as it is, and pair_connectivity prices
it and, for each candidate pair, the block with that pair added as a
certain edge, both from one distribution that _partitions finds by the
method the block's uncertain edge count picks: the DP's, or the sampled
partitions of the block's stream.  The latest blocks' distributions are
kept, so PERC's queue reads what the round's snapshot found.
disconnectivity prices a block pair from its spanning edges, which
UncertainGraph.edges_between lists by one merge walk over the two sorted
blocks.  changes_since tells a caller holding values priced on an earlier
graph and clustering which blocks the round removed and created and which
of the values may carry over.  On first read it lists the spanning edges
of each block pair whose values may not and prices each pair from its
list, taking its log once.  The list of two old blocks that gained an edge
is the list the score priced on the earlier graph and clustering kept for
the pair, merged with the round's new edges, when the caller lends that
score, and edges_between's otherwise; the lists of the pairs with a new
block come from one pass over the edges.  PERC's queue, DENSE's scores and
the score here all read them, and a build from scratch folds a Changes in
which every block is new.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress
from operator import itemgetter

from .graph import Clustering, Pair, UncertainGraph, check_covers
from .util import UnionFind, canonical_pair, check_fields, derive_seed, make_rng

Block = tuple[str, ...]
BlockPairKey = tuple[Block, Block]

# the largest exact_edge_limit accepted, which counts the uncertain edges
# left after contraction.  The partition DP's time about doubles with every
# two of them; on random connected blocks the slowest call this limit
# allows took 1.1 s (25 edges, every candidate priced; 0.66 s at 24) on a
# 2-vCPU Xeon VM.  CHANGES.md has the measurements.
MAX_EXACT_EDGE_LIMIT = 25

# the largest mc_samples accepted.  The sampler's time grows linearly with
# it; on random connected 10-record blocks with 26 uncertain edges (the
# fewest sampled at the largest exact_edge_limit) the slowest
# pair_connectivity call this limit allows took 0.10 s with all 19
# candidates priced, on a 2-vCPU Xeon VM.  A sampled probability's standard
# error is then at most 0.005.
MAX_MC_SAMPLES = 10_000


@dataclass(frozen=True)
class ReliabilityParams:
    """Knobs for the reliability computations.

    exact_edge_limit is the largest count of uncertain intra-block edges
    (0 < p < 1, left once the certain edges are contracted) handed to the
    exact solver; above it the Monte Carlo estimator with mc_samples worlds
    takes over.  epsilon is the clamp floor for zero-probability
    components.  seed is the master seed that all sampling streams are
    derived from.  Each field's limits (MAX_EXACT_EDGE_LIMIT and
    MAX_MC_SAMPLES among them) sit in its metadata, which check_fields reads.
    """

    mc_samples: int = field(default=1000, metadata={"ge": 1, "le": MAX_MC_SAMPLES})
    epsilon: float = field(default=1e-12, metadata={"gt": 0.0, "lt": 1e-3})
    exact_edge_limit: int = field(default=18, metadata={"ge": 0, "le": MAX_EXACT_EDGE_LIMIT})
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


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
    clustering.blocks; _pairs holds (d, log10 d, span) for the spanned
    block pairs only, keyed (bj, bk) for j < k in clustering.blocks, so a
    pair missing from it has d = 0.  span is the list of spanning edges d
    was priced from, which changes_since may borrow (and never changes)
    to list the pair's edges on the next graph.  It is the one table the
    score keeps and carries to the next, as Changes.priced hands the pairs
    over.
    """

    value: float
    connectivity_log: float
    disconnectivity_log: float
    clamped: int
    block_connectivity: tuple[ConnectivityEstimate, ...]
    _pairs: dict[BlockPairKey, tuple[float, float, list[tuple[Pair, float]]]]
    graph: UncertainGraph = field(compare=False, repr=False)
    clustering: Clustering = field(compare=False, repr=False)
    params: ReliabilityParams = field(compare=False, repr=False)


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
    check_covers(graph, clustering)
    bj = _check_block(clustering, block_j)
    bk = _check_block(clustering, block_k)
    if bj == bk:
        raise ValueError(f"need two distinct blocks, got {bj} twice")
    return _disconnected(graph.edges_between(bj, bk))


def _reduced_block(graph: UncertainGraph, block) -> tuple[dict[str, int], int, list]:
    """The block with its certain edges contracted: sorted member ->
    super-vertex, the super-vertex count, and the edges left as
    (vertex, vertex, p) in canonical order.  The p = 1 edges join members
    into super-vertices, numbered in order of their smallest member; the
    p = 0 edges and any edge inside a super-vertex change no member's
    connection and are dropped, so every edge left has 0 < p < 1."""
    members = sorted(set(block))
    if not members:
        raise ValueError("block is empty")
    if not graph._record_set.issuperset(members):
        raise ValueError(f"record {min(set(members) - graph._record_set)!r} is not declared")
    position = {r: i for i, r in enumerate(members)}
    intra = graph.edges_within(members)
    uf = UnionFind(len(members))
    for (a, b), p in intra:
        if p == 1.0:
            uf.union(position[a], position[b])
    label: dict[int, int] = {}
    index = {r: label.setdefault(uf.find(i), len(label)) for r, i in position.items()}
    return index, len(label), [(index[a], index[b], p) for (a, b), p in intra
                               if p > 0.0 and index[a] != index[b]]


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


def _partition_dp(n: int, edges: list[tuple[int, int, float]]) -> tuple[float, dict[bytes, float]]:
    """P(the edges join all n vertices) and the two-group partitions they
    can leave, with their probabilities.

    A state labels each vertex with its group, numbered in order of first
    appearance, so equal partitions merge.  An edge between two groups
    splits each state: present with probability p (the groups merge) or
    absent with 1 - p.  A state's level is the number of groups it would
    have if every edge still to come were present: a present edge keeps
    it, an absent one raises it by one when it bridges that join.  States
    above level 2 can never end with one or two groups and are dropped, so
    a tree block keeps the connected state plus one state per absent edge.
    Callers pass the uncertain edges of a contracted block
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
    if uf.groups > 2:
        return 0.0, {}
    # one, two: the states whose groups, joined by the edges to come, number 1 or 2
    one, two = {}, {}
    (one if uf.groups == 1 else two)[bytes(range(n))] = 1.0
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
        next_one, next_two = {}, {}
        for states, same, split in ((one, next_one, next_two), (two, next_two, None)):
            for state, w in states.items():
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
        one, two = next_one, next_two
    # after the last edge a state's level is its group count
    return one.get(bytes(n), 0.0), two


# coins drawn from the generator at a time by the Monte Carlo sampler
_COIN_CHUNK = 4096


def _sampled_partitions(n: int, edges: list[tuple[int, int, float]],
                        samples: int, rng) -> tuple[float, dict[bytes, float]]:
    """The sampled twin of _partition_dp(n, edges): the share of the
    sampled worlds in which the edges join all n vertices, and the
    two-group partitions the worlds leave, each with its share of them.

    Each world realizes every edge, in list order, from one row of a bulk
    draw of about _COIN_CHUNK coins, which yields the same doubles as one
    ``rng.random()`` call per coin.  A union-find finds the world's groups;
    a two-group world is keyed by whether each vertex lies in vertex 0's
    group, so equal partitions share one key.
    """
    rows = max(1, _COIN_CHUNK // max(1, len(edges)))
    ends = [(u, v) for u, v, _ in edges]
    probs = [p for _, _, p in edges]
    connected = 0
    split: dict[bytes, int] = {}
    for start in range(0, samples, rows):
        for world in (rng.random((min(rows, samples - start), len(edges))) < probs).tolist():
            uf = UnionFind(n)
            for u, v in compress(ends, world):
                uf.union(u, v)
            if uf.groups == 1:
                connected += 1
            elif uf.groups == 2:
                root = uf.find(0)
                key = bytes(uf.find(x) == root for x in range(n))
                split[key] = split.get(key, 0) + 1
    return connected / samples, {key: count / samples for key, count in split.items()}


def _partitions(graph: UncertainGraph, block, params: ReliabilityParams,
                pairs=()) -> tuple[ConnectivityEstimate, tuple, list]:
    """The block's connectivity and its two-group partitions as (state,
    probability) items, by _distribution, and each pair as two
    super-vertices.  Raises ValueError for a pair outside the block."""
    index, n, edges = _reduced_block(graph, block)
    pair_edges = []
    for a, b in (canonical_pair(*pair) for pair in pairs):
        if a not in index or b not in index:
            raise ValueError(f"pair {(a, b)} does not lie inside the block")
        pair_edges.append((index[a], index[b]))
    return (*_distribution(tuple(index), n, tuple(edges), params), pair_edges)


@lru_cache(maxsize=256)
def _distribution(members: Block, n: int, edges: tuple,
                  params: ReliabilityParams) -> tuple[ConnectivityEstimate, tuple]:
    """By the DP up to exact_edge_limit uncertain edges, else from the block's
    stream; kept for PERC's queue, which prices the blocks the snapshot did."""
    if len(edges) <= params.exact_edge_limit:
        connected, split = _partition_dp(n, edges)
        return ConnectivityEstimate(value=connected, method="exact"), tuple(split.items())
    # the seed folds the members into params.seed, so every evaluation of
    # one block under one params reuses one stream (common random numbers)
    seed = derive_seed(params.seed, "connectivity", members)
    connected, split = _sampled_partitions(n, edges, params.mc_samples, make_rng(seed))
    return (ConnectivityEstimate(value=connected, method="monte-carlo",
                                 samples=params.mc_samples, seed=seed), tuple(split.items()))


def block_connectivity(graph: UncertainGraph, block,
                       params: ReliabilityParams) -> ConnectivityEstimate:
    """Connectivity of the block, solved exactly up to exact_edge_limit
    uncertain edges after contraction and sampled above it.  A one-record
    block is connected for certain.  Raises ValueError for a record the
    graph does not declare."""
    if len(block) == 1 and graph._record_set.issuperset(block):
        return ConnectivityEstimate(value=1.0, method="exact")
    return _partitions(graph, block, params)[0]


def pair_connectivity(graph: UncertainGraph, block, pairs,
                      params: ReliabilityParams) -> tuple[float, list[float]]:
    """c(block), bit for bit block_connectivity's value, and c(block +
    certain pair) for each pair from the same distribution: P(1 group) plus
    P(2 groups with a and b apart), the second term an exactly rounded sum,
    so no pair prices below the base, and a pair inside one super-vertex
    gets exactly the base.  Raises ValueError for a pair outside the block
    or a record the graph does not declare.
    """
    estimate, states, pair_edges = _partitions(graph, block, params, pairs)
    connected = estimate.value
    return connected, [connected + math.fsum(w for s, w in states if s[ia] != s[ib])
                       for ia, ib in pair_edges]


@dataclass(frozen=True)
class Changes:
    """What one round changed, as changes_since finds it: the new edges,
    sorted; the old blocks the new clustering lacks (gone) and the new
    clustering's blocks the old one lacks (fresh); the blocks a new edge
    lies inside; and, found on first read, the block pairs to price again
    with their spanning edges (spans), with their disconnectivities and
    logs (priced), and the old block pairs with a gone block (dropped), of
    which an edge spans those in lost; a new block's intra edges are read
    from the graph.  Every carried table is keyed by block or block pair as
    these are, so it changes by key; one of spanned pairs only drops lost.
    previous, the old clustering, is read only once a block is gone.  rows,
    when set, are the _pairs of a score priced on the old graph and
    clustering, whose spans the spans of two old blocks start from."""

    added: list[Pair]
    gone: frozenset[Block]
    fresh: frozenset[Block]
    touched: set[Block]
    graph: UncertainGraph = field(repr=False)
    clustering: Clustering = field(repr=False)
    previous: Clustering | None = field(default=None, repr=False)
    rows: dict[BlockPairKey, tuple] | None = field(default=None, repr=False)

    @classmethod
    def from_scratch(cls, graph: UncertainGraph, clustering: Clustering) -> "Changes":
        """A build from scratch: every block new, no edge added, no block gone."""
        return cls([], frozenset(), frozenset(clustering.blocks), set(), graph, clustering)

    @cached_property
    def _walk(self) -> tuple[dict[BlockPairKey, list], set[BlockPairKey]]:
        # spans and lost, from one walk on first read
        graph, owner, fresh, rows = self.graph, self.clustering._owner, self.fresh, self.rows
        edges = graph.edges
        spans: dict[BlockPairKey, list] = {}
        for pair in self.added:
            ba, bb = owner[pair[0]], owner[pair[1]]
            if ba is not bb and ba not in fresh and bb not in fresh:
                key = (ba, bb) if ba < bb else (bb, ba)
                if rows is None:
                    if key not in spans:
                        spans[key] = graph.edges_between(*key)  # this round's edges included
                    continue
                span = spans.get(key)
                if span is None:
                    # a copy, since DENSE's spans may hold the row's own list
                    row = rows.get(key)
                    span = spans[key] = [] if row is None else row[2].copy()
                span.append((pair, edges[pair]))
        lost: set[BlockPairKey] = set()
        if not fresh:
            if rows is not None:
                # each lent span is two sorted runs, its row's and the round's
                for span in spans.values():
                    span.sort()
            return spans, lost
        items = edges.items()
        if len(fresh) < len(self.clustering.blocks):
            # the fresh blocks hold the gone blocks' records, so every lost pair is met
            members = {r for block in fresh for r in block}
            items = [(pair, p) for pair, p in items if pair[0] in members or pair[1] in members]
        old = self.previous._owner if self.gone else None
        for edge in items:
            a, b = edge[0]
            if old is not None:
                oa, ob = old[a], old[b]
                if oa is not ob:
                    lost.add((oa, ob) if oa < ob else (ob, oa))
            ba = owner[a]
            bb = owner[b]
            if ba is bb:
                continue
            key = (ba, bb) if ba < bb else (bb, ba)
            span = spans.get(key)
            if span is None:
                spans[key] = [edge]
            else:
                span.append(edge)
        for span in spans.values():
            span.sort()
        return spans, lost

    @property
    def spans(self) -> dict[BlockPairKey, list[tuple[Pair, float]]]:
        """Each block pair of two old blocks that gained a spanning edge,
        and each spanned pair with a new block, with its spanning edges in
        canonical order, as edges_between lists them.  Any other block pair
        of two old blocks kept its edges, and one with a new block has none."""
        return self._walk[0]

    @property
    def lost(self) -> set[BlockPairKey]:
        """Each old block pair with a gone block that an edge spans."""
        return self._walk[1]

    @cached_property
    def dropped(self) -> list[BlockPairKey]:
        """Each old block pair with a gone block, spanned or not, once: a
        pair of two gone blocks is listed from its first block only."""
        gone = self.gone
        return [(dead, other) if dead < other else (other, dead) for dead in gone
                for other in self.previous.blocks if other not in gone or other > dead]

    @cached_property
    def priced(self) -> dict[BlockPairKey, tuple[float, float, list]]:
        """Each block pair in spans with its disconnectivity d, log10 d
        (-inf at d = 0), the log taken once for every holder, and the span
        d was priced from."""
        priced = {}
        for key, span in self.spans.items():
            d = _disconnected(span)
            priced[key] = d, math.log10(d) if d > 0.0 else -math.inf, span
        return priced


def changes_since(previous_graph: UncertainGraph, previous_clustering: Clustering,
                  graph: UncertainGraph, clustering: Clustering, *,
                  score: ReliabilityScore | None = None) -> Changes:
    """What the edges graph adds to previous_graph changed, for values
    priced on (previous_graph, previous_clustering) that may carry over.

    This is the one place a round's change is worked out (see Changes);
    an unchanged clustering object lost and made no block.  Only the edges
    and the block sets are compared here; every block-pair set is found
    when first read.  Raises ValueError as UncertainGraph.edges_added_since.

    ``score``, when priced on previous_graph and previous_clustering (the
    very objects), lends its rows: the span of two old blocks that gained
    edges is then its row's list (none for a pair with no row) merged with
    the round's new edges of the pair, not an edges_between walk.  A score
    priced on anything else is not read.

    The result is only read, never changed, by the callers it is handed
    to, so run_experiment finds each round's change once and hands it to
    the strategy's refresh (refresh_after_answer, refresh_dense_state or
    refresh_tc_state) and to the snapshot's reliability.
    """
    owner = clustering._owner
    added = graph.edges_added_since(previous_graph)
    touched = {owner[a] for a, b in added if owner[a] is owner[b]}
    rows = None
    if score is not None and score.graph is previous_graph \
            and score.clustering is previous_clustering:
        rows = score._pairs
    if clustering is previous_clustering:
        return Changes(added, frozenset(), frozenset(), touched, graph, clustering, rows=rows)
    old, new = frozenset(previous_clustering.blocks), frozenset(clustering.blocks)
    return Changes(added, old - new, new - old, touched, graph, clustering,
                   previous_clustering, rows)


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
    values priced on the same pair; without it, this call finds it and
    lends it ``previous``.
    """
    params = params or ReliabilityParams()
    check_covers(graph, clustering)
    epsilon = params.epsilon
    blocks = clustering.blocks
    carried: dict[Block, ConnectivityEstimate] = {}
    pairs: dict[BlockPairKey, tuple[float, float, list]] = {}
    if previous is None:
        changes = Changes.from_scratch(graph, clustering)
    else:
        if previous.params != params:
            raise ValueError("previous score priced other params")
        if changes is None:
            changes = changes_since(previous.graph, previous.clustering, graph, clustering,
                                    score=previous)
        carried = dict(zip(previous.clustering.blocks, previous.block_connectivity))
        pairs = dict(previous._pairs)
        for key in changes.lost:
            pairs.pop(key, None)
    pairs.update(changes.priced)

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
    disconnect_logs = [log for d, log, _ in pairs.values() if d >= epsilon]
    # spanned pairs below epsilon and every unspanned pair
    clamped += len(blocks) * (len(blocks) - 1) // 2 - len(disconnect_logs)
    connectivity_log = math.fsum(connect_logs)
    disconnectivity_log = math.fsum(disconnect_logs)
    return ReliabilityScore(
        value=math.fsum((connectivity_log, disconnectivity_log,
                         clamped * math.log10(epsilon))),
        connectivity_log=connectivity_log,
        disconnectivity_log=disconnectivity_log,
        clamped=clamped,
        block_connectivity=tuple(estimates),
        _pairs=pairs,
        graph=graph, clustering=clustering, params=params)
