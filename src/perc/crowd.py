"""Crowd answer sources: simulated workers and replayed logs.

The simulated crowd draws each worker's answer independently: worker i
flips the truth from the gold clustering when its coin falls below the
model's error rate, scaled by the optional per-record difficulty averaged
over the pair and capped at 1.  The coins of canonical pair (a, b) under
master seed s form a stateless counter-based stream (Salmon et al., SC
2011): coin i is (w >> 11) * 2**-53 for w, word i mod 8 (little-endian) of

    blake2b(repr((s, "votes", a, b)).encode(), salt=(i // 8).to_bytes(16, "little"))

So a pair's tally never depends on the ask order, the process or
PYTHONHASHSEED, and coin i does not depend on the worker count.  The tests
check SimulatedOracle.answer against this definition.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import struct
from dataclasses import dataclass, field
from typing import Iterable

from .graph import Pair, VoteTally
from .util import canonical_pair, check_fields, check_int

# each answer hashes one 64-byte digest per 8 workers, so the worker count
# sizes the digests it makes
MAX_WORKERS_PER_PAIR = 1000


class GoldClustering:
    """Ground-truth entity per record, with optional difficulty weights."""

    __slots__ = ("entity", "difficulty")

    def __init__(self, entity: dict[str, str], difficulty: dict[str, float] | None = None):
        if not entity:
            raise ValueError("gold clustering has no records")
        self.entity = dict(entity)
        self.difficulty = {r: 1.0 for r in entity}
        for r, d in (difficulty or {}).items():
            if r not in self.entity:
                raise ValueError(f"difficulty given for unknown record {r!r}")
            # a bool or a string is not a difficulty, and nan fails the bounds
            if isinstance(d, bool) or not isinstance(d, numbers.Real) or not 0 <= d < math.inf:
                raise ValueError(f"difficulty for {r!r} must be a finite number >= 0, got {d}")
            self.difficulty[r] = float(d)

    @property
    def records(self) -> frozenset:
        return frozenset(self.entity)

    def entity_of(self, record: str) -> str:
        try:
            return self.entity[record]
        except KeyError:
            raise KeyError(f"record {record!r} is not in the gold clustering") from None

    def same(self, a: str, b: str) -> bool:
        try:
            return self.entity[a] == self.entity[b]
        except KeyError:
            return self.entity_of(a) == self.entity_of(b)  # raises entity_of's error

    def pair_difficulty(self, a: str, b: str) -> float:
        return 0.5 * (self.difficulty[a] + self.difficulty[b])


@dataclass(frozen=True)
class WorkerModel:
    """workers_per_pair independent workers, each wrong with error_rate.
    Each field's limits sit in its metadata, which check_fields reads, so
    at most MAX_WORKERS_PER_PAIR workers and a rate in [0, 1] pass."""

    workers_per_pair: int = field(default=5, metadata={"ge": 1, "le": MAX_WORKERS_PER_PAIR})
    error_rate: float = field(default=0.1, metadata={"ge": 0.0, "le": 1.0})

    def __post_init__(self):
        check_fields(self)


class SimulatedOracle:
    """Simulated crowd answering by the vote rule of the module docstring.

    ``model`` and ``seed`` are fixed at construction, which hashes the
    seed's prefix of every key into one salted BLAKE2b state per 8 workers
    and builds the n + 1 possible tallies once.  An answer hashes only the
    pair's suffix of the key, into copies of those states, and counts the
    flips from the digests' words against an integer threshold.
    """

    def __init__(self, gold: GoldClustering, model: WorkerModel, seed: int = 0):
        self.gold = gold
        self.model = model
        self.seed = check_int("seed", seed)
        n = model.workers_per_pair
        prefix = f"({self.seed!r}, 'votes', ".encode("utf-8")
        self._states = [hashlib.blake2b(prefix, salt=i.to_bytes(16, "little"))
                        for i in range(-(-n // 8))]
        self._words = struct.Struct(f"<{n}Q").unpack_from
        self._tallies = [VoteTally(yes, n) for yes in range(n + 1)]

    def answer(self, pair: Pair) -> VoteTally:
        a, b = pair
        if b < a:
            a, b = b, a
        elif a == b:
            canonical_pair(a, b)  # raises the self-loop error
        truth = self.gold.same(a, b)
        flip_prob = min(1.0, self.model.error_rate * self.gold.pair_difficulty(a, b))
        # coin i is (w >> 11) * 2**-53, exactly, for word w; an integer m sits
        # below a real x iff m < ceil(x), and w >> 11 < c iff w < c << 11, so
        # coin < p iff w < ceil(p * 2**53) << 11, where p * 2**53 is exact
        below = math.ceil(flip_prob * 2**53) << 11
        # prefix + suffix is the key's repr, which joins the items' reprs by ", "
        suffix = f"{a!r}, {b!r})".encode("utf-8")
        digests = []
        for state in self._states:
            state = state.copy()
            state.update(suffix)
            digests.append(state.digest())
        words = self._words(b"".join(digests))
        flips = [w < below for w in words].count(True)
        n = self.model.workers_per_pair
        return self._tallies[n - flips if truth else flips]


class UnrecordedPairError(KeyError):
    """Raised when a replay oracle is asked a pair missing from its log."""


class ReplayOracle:
    """Answers straight from a recorded vote log.

    Keeps the log's row order, which a replaying harness uses to reproduce
    the original run's seeding phase.
    """

    def __init__(self, rows: Iterable[tuple[Pair, VoteTally]]):
        self.rows: list[tuple[Pair, VoteTally]] = []
        self.tallies: dict[Pair, VoteTally] = {}
        for pair, tally in rows:
            key = canonical_pair(*pair)
            if key in self.tallies:
                raise ValueError(f"vote log lists pair {key} twice")
            self.rows.append((key, tally))
            self.tallies[key] = tally

    @property
    def pairs(self) -> frozenset:
        return frozenset(self.tallies)

    def answer(self, pair: Pair) -> VoteTally:
        key = canonical_pair(*pair)
        try:
            return self.tallies[key]
        except KeyError:
            raise UnrecordedPairError(
                f"pair {key} was not crowdsourced in the replayed log") from None


def crowd_error_rate(asked: Iterable[tuple[Pair, VoteTally]],
                     gold: GoldClustering) -> float | None:
    """Mean percentage of votes contradicting gold over the asked pairs.

    A matching pair answered 8 yes of 10 contributes 20 percent.  Returns
    None for an empty list, where the rate is undefined.
    """
    shares = []
    for pair, tally in asked:
        a, b = canonical_pair(*pair)
        wrong = (tally.total - tally.yes) if gold.same(a, b) else tally.yes
        shares.append(wrong / tally.total)
    if not shares:
        return None
    return 100.0 * sum(shares) / len(shares)
