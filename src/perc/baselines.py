"""Baseline question-selection strategies: TC and DENSE.

TC works on majority verdicts only.  Match edges (p above one half) are
closed transitively into components; a non-match edge (p below one half)
between two components marks every pair across them as inferred non-match.
The next question is a uniformly random pair whose relation is still not
inferable.  Undecided edges (p exactly one half) carry no verdict.

DENSE scores block pairs by a ratio that compares how well the evidence
supports "A and B are one dense cluster" against the current split, and
asks inside the best-scoring pair.  It only ever proposes cross-block
pairs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graph import Clustering, Pair, UncertainGraph
from .util import canonical_pair

MATCH = "match"
NON_MATCH = "non-match"
UNDECIDED = "undecided"


class MajorityView:
    """Majority verdict per crowdsourced edge, plus inference helpers."""

    __slots__ = ("verdicts", "_root", "_settled")

    def __init__(self, graph: UncertainGraph):
        self.verdicts: dict[Pair, str] = {}
        parent: dict[str, str] = {r: r for r in graph.records}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (a, b), p in graph.edge_items():
            if p > 0.5:
                self.verdicts[(a, b)] = MATCH
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
            elif p < 0.5:
                self.verdicts[(a, b)] = NON_MATCH
            else:
                self.verdicts[(a, b)] = UNDECIDED
        self._root = {r: find(r) for r in graph.records}
        # component root -> the roots settled against it: itself, and every
        # component a non-match edge links it to
        self._settled: dict[str, set[str]] = {r: {r} for r in self._root.values()}
        for (a, b), verdict in self.verdicts.items():
            if verdict == NON_MATCH:
                ra, rb = self._root[a], self._root[b]
                self._settled[ra].add(rb)
                self._settled[rb].add(ra)

    def verdict(self, a: str, b: str) -> str:
        return self.verdicts[canonical_pair(a, b)]

    def inferable(self, a: str, b: str) -> bool:
        """True when transitivity or anti-transitivity settles the pair."""
        return self._root[b] in self._settled[self._root[a]]


def tc_batch(graph: UncertainGraph, rng: np.random.Generator, k: int,
             allowed: frozenset | None = None) -> list[Pair]:
    """Up to k distinct uninferable pairs drawn without replacement."""
    if k < 1:
        raise ValueError(f"batch size must be positive, got {k}")
    view = MajorityView(graph)
    root, edges, recs = view._root, graph.edges, graph.records
    # absent, allowed and not inferable, in lexicographic order
    candidates = []
    for i, a in enumerate(recs):
        settled = view._settled[root[a]]
        for b in recs[i + 1:]:
            if root[b] not in settled and (a, b) not in edges and (
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


def _dense_scores(graph: UncertainGraph, clustering: Clustering) -> dict:
    """``rho_inputs(graph, bj, bk).value`` for every block pair (bj, bk),
    from one pass over the sorted edges.

    Each block keeps its positive cross edges in edge order, tagged with
    the other endpoint's block.  A pair's y1 is block A's list without the
    entries tagged B, so every product multiplies the same floats in the
    same order as :class:`RhoInputs` and the scores agree to the bit.
    """
    blocks = clustering.blocks
    index = {r: i for i, block in enumerate(blocks) for r in block}
    outside: list[list[tuple[int, float]]] = [[] for _ in blocks]
    yes: dict[tuple[int, int], list[float]] = {}
    no: dict[tuple[int, int], list[float]] = {}
    for (a, b), p in graph.edge_items():
        i, j = index[a], index[b]
        if i == j or p == 0.5:
            continue
        key = (i, j) if i < j else (j, i)
        if p > 0.5:
            yes.setdefault(key, []).append(p)
            outside[i].append((j, p))
            outside[j].append((i, p))
        else:
            no.setdefault(key, []).append(1.0 - p)
    # a block with no positive edge to its partner uses its whole list
    whole = [_ratio(p for _, p in entries) for entries in outside]
    scores = {}
    for j in range(len(blocks)):
        for k in range(j + 1, len(blocks)):
            cross_yes = yes.get((j, k))
            cross_no = no.get((j, k))
            if cross_yes is None:
                outside_factor = whole[j] * whole[k]
            else:
                outside_factor = (_ratio(p for tag, p in outside[j] if tag != k)
                                  * _ratio(p for tag, p in outside[k] if tag != j))
            factors = []
            if cross_no:
                factors.append(_ratio(cross_no))
            if cross_yes:
                factors.append(_ratio(cross_yes))
            min_factor = min(factors) if factors else 1.0
            scores[(blocks[j], blocks[k])] = outside_factor * min_factor
    return scores


def dense_batch(graph: UncertainGraph, clustering: Clustering, k: int,
                allowed: frozenset | None = None) -> list[Pair]:
    """Up to k absent cross pairs, best block-pair scores first; within one
    score level pairs come out in lexicographic order."""
    if k < 1:
        raise ValueError(f"batch size must be positive, got {k}")
    scores = _dense_scores(graph, clustering)
    owner = clustering._owner
    candidates = []
    for a, b in graph.absent_pairs():
        ba, bb = owner[a], owner[b]
        if ba is not bb and (allowed is None or (a, b) in allowed):
            candidates.append((-scores[(ba, bb) if ba < bb else (bb, ba)], (a, b)))
    # every pair comes up once, so the keys are unique
    return [pair for _, pair in heapq.nsmallest(k, candidates)]
