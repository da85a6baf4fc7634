"""Crowd answer sources: simulated workers and replayed logs.

The simulated crowd draws each worker's answer independently: the truth
from the gold clustering, flipped with the model's error rate (scaled by
the optional per-record difficulty, averaged over the pair).  Worker i's
coin comes from a counter-based stream keyed by (master seed, pair) alone
(``vote_coins``): word i mod 8 of a BLAKE2b digest of the key salted with
i // 8.  So a pair's tally never depends on the ask order, the process or
PYTHONHASHSEED, and coin i does not depend on the worker count.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Clustering, Pair, VoteTally
from .util import ConfigError, canonical_pair

# each answer hashes one 64-byte digest per 8 workers, so the worker count
# sizes the digests it makes
MAX_WORKERS_PER_PAIR = 1000

# a BLAKE2b digest read as eight little-endian 64-bit words
_DIGEST_WORDS = struct.Struct("<8Q")


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
            if not 0 <= d < math.inf:  # also rejects nan
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

    def to_clustering(self) -> Clustering:
        groups: dict[str, list[str]] = {}
        for r, e in self.entity.items():
            groups.setdefault(e, []).append(r)
        return Clustering(groups.values())


@dataclass(frozen=True)
class WorkerModel:
    """workers_per_pair independent workers, at most MAX_WORKERS_PER_PAIR
    (1000), each wrong with error_rate."""

    workers_per_pair: int = 5
    error_rate: float = 0.1

    def __post_init__(self):
        if self.workers_per_pair < 1:
            raise ConfigError("workers_per_pair",
                              f"need at least one worker, got {self.workers_per_pair}")
        if self.workers_per_pair > MAX_WORKERS_PER_PAIR:
            raise ConfigError("workers_per_pair",
                              f"workers_per_pair must be <= {MAX_WORKERS_PER_PAIR}, "
                              f"got {self.workers_per_pair}")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigError("error_rate", f"error rate {self.error_rate} outside [0, 1]")


def vote_coins(seed: int, a: str, b: str, count: int) -> list[float]:
    """The first ``count`` coins, uniform in [0, 1), of canonical pair
    (a, b)'s vote stream under master ``seed``.

    Coin i is word i mod 8 of ``blake2b(repr((seed, "votes", a, b)))``
    salted with i // 8 (16 little-endian bytes), cut to its top 53 bits: a
    counter-based stream (Salmon et al., SC 2011) with no generator state.
    """
    # a tuple's repr joins its items' reprs with ", ", as this f-string does
    key = f"({seed!r}, 'votes', {a!r}, {b!r})".encode("utf-8")
    words: list[int] = []
    for block in range(-(-count // 8)):
        digest = hashlib.blake2b(key, salt=block.to_bytes(16, "little")).digest()
        words += _DIGEST_WORDS.unpack(digest)
    return [(w >> 11) * 2**-53 for w in words[:count]]


def simulate_votes(gold: GoldClustering, pair: Pair, model: WorkerModel,
                   coins: Sequence[float]) -> VoteTally:
    """One tally for ``pair``, in either order: worker i flips the truth
    when coins[i] falls below the pair's flip probability."""
    if len(coins) != model.workers_per_pair:
        raise ValueError(f"need {model.workers_per_pair} coins, got {len(coins)}")
    a, b = pair
    if a == b:
        canonical_pair(a, b)  # raises the self-loop error
    truth = gold.same(a, b)
    flip_prob = min(1.0, model.error_rate * gold.pair_difficulty(a, b))
    flips = [coin < flip_prob for coin in coins].count(True)
    return VoteTally(len(coins) - flips if truth else flips, len(coins))


class Oracle:
    """Answer source interface: ``answer(pair) -> VoteTally``."""

    def answer(self, pair: Pair) -> VoteTally:
        raise NotImplementedError


class SimulatedOracle(Oracle):
    """Simulated crowd with order-independent per-pair vote streams
    (``vote_coins``)."""

    def __init__(self, gold: GoldClustering, model: WorkerModel, seed: int = 0):
        self.gold = gold
        self.model = model
        self.seed = int(seed)

    def answer(self, pair: Pair) -> VoteTally:
        a, b = canonical_pair(*pair)
        coins = vote_coins(self.seed, a, b, self.model.workers_per_pair)
        return simulate_votes(self.gold, (a, b), self.model, coins)


class UnrecordedPairError(KeyError):
    """Raised when a replay oracle is asked a pair missing from its log."""


class ReplayOracle(Oracle):
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
