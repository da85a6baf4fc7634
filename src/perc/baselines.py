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

    __slots__ = ("verdicts", "_root", "_anti")

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
        self._anti: set[tuple[str, str]] = set()
        for (a, b), verdict in self.verdicts.items():
            if verdict == NON_MATCH:
                ra, rb = self._root[a], self._root[b]
                if ra != rb:
                    self._anti.add((ra, rb) if ra < rb else (rb, ra))

    def verdict(self, a: str, b: str) -> str:
        return self.verdicts[canonical_pair(a, b)]

    def inferable(self, a: str, b: str) -> bool:
        """True when transitivity or anti-transitivity settles the pair."""
        ra, rb = self._root[a], self._root[b]
        if ra == rb:
            return True
        return ((ra, rb) if ra < rb else (rb, ra)) in self._anti


def _tc_candidates(graph: UncertainGraph, view: MajorityView,
                   allowed: frozenset | None, exclude: set[Pair]) -> list[Pair]:
    out = []
    for pair in graph.absent_pairs():
        if pair in exclude:
            continue
        if allowed is not None and pair not in allowed:
            continue
        if not view.inferable(*pair):
            out.append(pair)
    return out


def tc_batch(graph: UncertainGraph, rng: np.random.Generator, k: int,
             allowed: frozenset | None = None) -> list[Pair]:
    """Up to k distinct uninferable pairs drawn without replacement."""
    if k < 1:
        raise ValueError(f"batch size must be positive, got {k}")
    view = MajorityView(graph)
    exclude: set[Pair] = set()
    out = []
    for _ in range(k):
        candidates = _tc_candidates(graph, view, allowed, exclude)
        if not candidates:
            break
        pick = candidates[int(rng.integers(len(candidates)))]
        out.append(pick)
        exclude.add(pick)
    return out


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
    def _product(entries, complement: bool) -> float:
        value = 1.0
        for _, pa in entries:
            value *= (1.0 - pa) if complement else pa
        return value

    def _ratio(self, entries) -> float:
        # p(a) > 0.5 for every classified edge, so the denominator is positive
        return self._product(entries, True) / self._product(entries, False)

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


def dense_batch(graph: UncertainGraph, clustering: Clustering, k: int,
                allowed: frozenset | None = None) -> list[Pair]:
    """Up to k absent cross pairs, best block-pair scores first; within one
    score level pairs come out in lexicographic order."""
    if k < 1:
        raise ValueError(f"batch size must be positive, got {k}")
    candidates = []
    for bj, bk in clustering.block_pairs():
        score = rho_inputs(graph, bj, bk).value
        candidates.extend((-score, pair) for pair in graph.absent_pairs_between(bj, bk, allowed))
    # every cross pair spans exactly one block pair, so the keys are unique
    return [pair for _, pair in heapq.nsmallest(k, candidates)]
