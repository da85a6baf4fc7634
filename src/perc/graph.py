"""Uncertain-graph data model for crowdsourced entity resolution.

Records are opaque string ids.  Crowd answers for a record pair are a
:class:`VoteTally` (yes votes out of total), and the graph stores the YES
fraction as the edge probability.  A pair with no tally is *absent*, which
is a different state from a crowdsourced pair whose probability is 0.

A possible world is a subset of the crowdsourced edges marked present; its
probability is the product of p over present edges times (1 - p) over the
remaining crowdsourced edges.  Absent pairs contribute nothing.  The
likelihood of a clustering is the probability of the single world whose
present edges are exactly its intra-block edges.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator

from .util import canonical_pair, check_fields

Pair = tuple[str, str]


@dataclass(frozen=True)
class VoteTally:
    """Crowd answers for one pair: ``yes`` YES votes out of ``total``.
    Both are integers (check_fields raises ConfigError for 1.5, True or
    "1"); a total below 1 or yes outside 0..total raises ValueError."""

    yes: int
    total: int

    def __post_init__(self):
        check_fields(self)
        if self.total < 1:
            raise ValueError(f"vote tally needs at least one vote, got total={self.total}")
        if not 0 <= self.yes <= self.total:
            raise ValueError(f"yes={self.yes} outside 0..{self.total}")

    @property
    def fraction(self) -> float:
        """YES-vote fraction, the edge probability this tally induces."""
        return self.yes / self.total


def _check_record_id(rid) -> str:
    if not isinstance(rid, str) or not rid:
        raise ValueError(f"record id must be a non-empty string, got {rid!r}")
    if "," in rid or "\n" in rid or "\r" in rid:
        raise ValueError(f"record id {rid!r} contains a comma or newline")
    return rid


def _merge_walk(left: tuple[str, ...], right: tuple[str, ...]
                ) -> Iterator[tuple[str, tuple[str, ...]]]:
    """Each member of two disjoint sorted blocks, in order, with the other
    block's members above it, the ones the walk has not passed yet: the
    pairs (a, b) for b above a are the block pair's canonical pairs, met in
    lexicographic order."""
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] < right[j]:
            yield left[i], right[j:]
            i += 1
        else:
            yield right[j], left[i:]
            j += 1


class UncertainGraph:
    """Immutable-by-convention set of records plus probabilistic edges.

    ``edges`` maps canonical pairs to YES fractions.  Updates go through
    :meth:`with_edge` or :meth:`with_edges`, which return a new graph, so
    harness code can treat graphs as values.
    """

    # _lineage: the pairs with_edge(s) added along a chain of graphs, one list
    # shared by the chain; _n: how many of them this graph has
    __slots__ = ("records", "_record_set", "edges", "_lineage", "_n")

    def __init__(self, records: Iterable[str], edges: dict[Pair, float] | None = None):
        recs = sorted({_check_record_id(r) for r in records})
        if not recs:
            raise ValueError("a graph needs at least one record")
        self.records = tuple(recs)
        self._record_set = frozenset(recs)
        self.edges = {}  # _checked tests each pair against it
        self.edges = self._checked((edges or {}).items())
        self._lineage: list[Pair] = []
        self._n = 0

    @classmethod
    def _from_checked(cls, records: list[str], edges: dict[Pair, float]) -> "UncertainGraph":
        """The graph over distinct valid ids and edges as __init__ checks them."""
        g = cls.__new__(cls)
        g.records, g.edges, g._lineage, g._n = tuple(sorted(records)), edges, [], 0
        g._record_set = frozenset(g.records)
        return g

    def _checked(self, answers: Iterable[tuple[Pair, float]]) -> dict[Pair, float]:
        """Each (pair, p) of answers as canonical pair -> p, once both
        records are declared, the pair is neither in this graph nor listed
        earlier, and p is a real number (not a bool) in [0, 1]."""
        new: dict[Pair, float] = {}
        for (a, b), p in answers:
            key = canonical_pair(a, b)
            for r in key:
                if r not in self._record_set:
                    raise ValueError(f"record {r!r} in pair {key} is not declared")
            if key in self.edges or key in new:
                raise ValueError(f"pair {key} was already crowdsourced")
            if type(p) is not float and (isinstance(p, bool) or not isinstance(p, numbers.Real)):
                raise ValueError(f"edge {key} probability must be a real number, got {p!r}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"edge {key} has probability {p} outside [0, 1]")
            new[key] = float(p)
        return new

    def has_edge(self, a: str, b: str) -> bool:
        return canonical_pair(a, b) in self.edges

    def with_edge(self, a: str, b: str, tally: VoteTally | None = None,
                  probability: float | None = None) -> "UncertainGraph":
        """New graph with one more crowdsourced pair.

        Re-asking a pair is rejected: the question budget counts distinct
        pairs and no pair is ever crowdsourced twice.
        """
        if (tally is None) == (probability is None):
            raise ValueError("provide exactly one of tally or probability")
        return self._extended([((a, b), probability if tally is None else tally.fraction)])

    def with_edges(self, answers: Iterable[tuple[Pair, VoteTally]]) -> "UncertainGraph":
        """New graph with each (pair, tally) of ``answers`` crowdsourced, from
        one copy of the edges; a pair is checked as with_edge checks it."""
        return self._extended([(pair, tally.fraction) for pair, tally in answers])

    def _extended(self, answers: list[tuple[Pair, float]]) -> "UncertainGraph":
        """The graph with each (pair, p) answer checked and added, on this
        graph's lineage when it is the chain's newest."""
        new = self._checked(answers)
        g = UncertainGraph.__new__(UncertainGraph)
        g.records = self.records
        g._record_set = self._record_set
        g.edges = {**self.edges, **new}
        if self._n == len(self._lineage):
            # the chain's newest graph: the new one extends its lineage
            g._lineage, g._n = self._lineage, self._n + len(new)
            self._lineage.extend(new)
        else:
            # a sibling of a graph the chain already has starts its own
            g._lineage, g._n = list(new), len(new)
        return g

    def edges_added_since(self, older: "UncertainGraph") -> list[Pair]:
        """The edges this graph adds to ``older``, sorted.

        Raises ValueError unless ``older`` has the same records and every
        one of its edges is in this graph with the same probability.  When
        ``older`` is an ancestor in this graph's with_edge(s) chain, the answer
        is read off their shared lineage in time linear in the added edges;
        UncertainGraph(records).with_edges(pairs) is the with_edges child of
        a graph with no edges, so it starts a lineage too.  Any other pair
        of graphs, such as a sibling, a graph built with UncertainGraph(...),
        or one that prices an edge differently, is checked edge by edge.
        """
        if older._lineage is self._lineage and older._n <= self._n:
            # each graph on a lineage has the edges its chain started from
            # plus the lineage's first _n pairs, so older is an ancestor
            return sorted(self._lineage[older._n:self._n])
        if older.records != self.records:
            raise ValueError("the older graph has other records")
        if not older.edges.items() <= self.edges.items():
            raise ValueError("the older graph has edges this graph lacks "
                             "or prices differently")
        return sorted(self.edges.keys() - older.edges.keys())

    def edge_items(self) -> list[tuple[Pair, float]]:
        """Edges in canonical (sorted pair) order, for order-independent math."""
        return sorted(self.edges.items())

    def absent_pairs(self) -> Iterator[Pair]:
        """All not-yet-crowdsourced pairs, in lexicographic order."""
        recs = self.records
        for i, a in enumerate(recs):
            for b in recs[i + 1:]:
                if (a, b) not in self.edges:
                    yield (a, b)

    def edges_within(self, members: Iterable[str]) -> list[tuple[Pair, float]]:
        """Crowdsourced edges with both endpoints in ``members``, sorted."""
        ms = sorted(set(members))
        out = []
        for i, a in enumerate(ms):
            for b in ms[i + 1:]:
                p = self.edges.get((a, b))
                if p is not None:
                    out.append(((a, b), p))
        return out

    def edges_between(self, left: tuple[str, ...], right: tuple[str, ...]
                      ) -> list[tuple[Pair, float]]:
        """Crowdsourced edges spanning two disjoint sorted blocks as (pair,
        p), canonical and in lexicographic order."""
        edges = self.edges
        span = []
        for a, above in _merge_walk(left, right):
            for b in above:
                p = edges.get((a, b))
                if p is not None:
                    span.append(((a, b), p))
        return span

    def absent_pairs_between(self, left: tuple[str, ...], right: tuple[str, ...],
                             allowed: frozenset | None = None) -> Iterator[Pair]:
        """Not-yet-crowdsourced pairs spanning two disjoint sorted blocks,
        canonical and in lexicographic order, produced lazily; with
        ``allowed``, only the pairs in it."""
        edges = self.edges
        for a, above in _merge_walk(left, right):
            for b in above:
                if (a, b) not in edges and (allowed is None or (a, b) in allowed):
                    yield (a, b)

    def __repr__(self):
        return f"UncertainGraph({len(self.records)} records, {len(self.edges)} edges)"


class Clustering:
    """A partition of the records into disjoint non-empty blocks.

    Canonical form everywhere: members sorted inside each block, blocks
    sorted by their minimum member.  Equality and hashing use that form, so
    two clusterings built in different orders compare equal.
    """

    # _carry: the graph, components and component blocks scc_cluster built
    # this clustering from, for its next call to start from; None otherwise
    __slots__ = ("blocks", "_owner", "_carry")

    def __init__(self, blocks: Iterable[Iterable[str]]):
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        if not canon:
            raise ValueError("a clustering needs at least one block")
        owner: dict[str, tuple[str, ...]] = {}
        for block in canon:
            if not block:
                raise ValueError("empty block in clustering")
            for r in block:
                if r in owner:
                    raise ValueError(f"record {r!r} appears in more than one block")
                owner[r] = block
        self.blocks = canon
        self._owner = owner
        self._carry = None

    @property
    def records(self) -> frozenset:
        return frozenset(self._owner)

    def block_of(self, record: str) -> tuple[str, ...]:
        try:
            return self._owner[record]
        except KeyError:
            raise KeyError(f"record {record!r} is not in this clustering") from None

    def same_block(self, a: str, b: str) -> bool:
        return self.block_of(a) is self.block_of(b)

    def __eq__(self, other):
        return isinstance(other, Clustering) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        inner = ", ".join("{" + ",".join(b) + "}" for b in self.blocks)
        return f"Clustering({inner})"


def possible_world_log_prob(graph: UncertainGraph, present: Iterable[Pair]) -> float:
    """log10 probability of the world whose present edges are ``present``.

    Worlds are over crowdsourced edges only; a present pair that was never
    crowdsourced is rejected.  Worlds forced impossible by a certain edge
    (p of 0 or 1 on the wrong side) come back as -inf.
    """
    present_set = {canonical_pair(*pair) for pair in present}
    missing = present_set - graph.edges.keys()
    if missing:
        raise ValueError(f"pair {min(missing)} is not a crowdsourced edge")
    total = 0.0
    for pair, p in graph.edge_items():
        q = p if pair in present_set else 1.0 - p
        total += math.log10(q) if q > 0.0 else -math.inf
    return total


def check_covers(graph: UncertainGraph, clustering: Clustering) -> None:
    """Raise ValueError unless clustering partitions exactly the graph's records."""
    if clustering._owner.keys() != graph._record_set:
        raise ValueError("clustering does not cover exactly the graph's records")


def clustering_log_likelihood(graph: UncertainGraph, clustering: Clustering) -> float:
    """log10 likelihood of a clustering: the probability of the one world
    whose present edges are exactly the clustering's intra-block edges."""
    check_covers(graph, clustering)
    total = 0.0
    for (a, b), p in graph.edge_items():
        q = p if clustering.same_block(a, b) else 1.0 - p
        total += math.log10(q) if q > 0.0 else -math.inf
    return total
